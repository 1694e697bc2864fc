//! SHA-256 on the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//! `sha256msg2`), chosen at run time by what the CPU reports.
//!
//! This is the one module in the workspace that may say `unsafe`, and it
//! says it only where a call crosses into a `#[target_feature]` function:
//! the compiler cannot know the running CPU has the instructions, so the
//! call is `unsafe` and each wrapper below makes it directly under the
//! `is_x86_feature_detected!` checks that justify it. The bodies in
//! [`x86`] are ordinary safe code — words go in through `_mm_set_epi32`
//! and come out through `_mm_extract_epi32`; no raw pointer, no
//! `transmute`. On any other architecture, and on x86-64 parts without the
//! extensions, every wrapper reports "not done" and the portable code in
//! the parent module is the only path.

use super::PrefixLanes;

/// Whether this CPU runs the NI path: the same checks that guard each
/// `unsafe` call below. Reports; selects nothing.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compress a run of whole 64-byte blocks into `state`. Returns `false`,
/// with `state` untouched, where the extensions are missing.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
    {
        // SAFETY: `x86::compress` is compiled for `sha`, `sse4.1`, `ssse3`
        // and `sse2`. The three checks directly above saw the first three
        // on this CPU; `sse2` is part of the x86-64 baseline. The function
        // has no other precondition: its body is safe code.
        unsafe { x86::compress(state, blocks) };
        return true;
    }
    false
}

/// A chaining state as the two vectors `sha256rnds2` works on, low lane
/// first: `[F, E, B, A]` and `[H, G, D, C]`.
fn split([a, b, c, d, e, f, g, h]: [u32; 8]) -> ([u32; 4], [u32; 4]) {
    ([f, e, b, a], [h, g, d, c])
}

/// The inverse of [`split`].
fn join([f, e, b, a]: [u32; 4], [h, g, d, c]: [u32; 4]) -> [u32; 8] {
    [a, b, c, d, e, f, g, h]
}

/// The chaining states of up to four messages, each [`split`], so a group
/// stays in register layout from block to block.
pub(super) struct Quad {
    abef: [[u32; 4]; 4],
    cdgh: [[u32; 4]; 4],
    live: usize,
}

impl PrefixLanes for Quad {
    const WIDTH: usize = 4;

    fn pack(states: impl Iterator<Item = [u32; 8]>) -> Quad {
        let mut quad = Quad {
            abef: [[0; 4]; 4],
            cdgh: [[0; 4]; 4],
            live: 0,
        };
        for state in states {
            (quad.abef[quad.live], quad.cdgh[quad.live]) = split(state);
            quad.live += 1;
        }
        quad
    }

    /// Panics where the extensions are missing: this backend is chosen only
    /// after [`available`].
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn absorb(groups: &mut [Quad], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
        {
            // SAFETY: `x86::absorb` is compiled for `sha`, `sse4.1`, `ssse3`
            // and `sse2`. The three checks directly above saw the first
            // three on this CPU; `sse2` is part of the x86-64 baseline. The
            // function has no other precondition: its body is safe code.
            unsafe { x86::absorb(groups, block) };
            return;
        }
        unreachable!("the NI backend is chosen only where the SHA extensions were detected");
    }

    fn state(&self, lane: usize) -> [u32; 8] {
        join(self.abef[lane], self.cdgh[lane])
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::super::K;
    use super::{join, split, Quad};

    /// Four `u32` as one vector, `v[0]` in the low lane.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load(v: [u32; 4]) -> __m128i {
        _mm_set_epi32(v[3] as i32, v[2] as i32, v[1] as i32, v[0] as i32)
    }

    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn store(v: __m128i) -> [u32; 4] {
        [
            _mm_extract_epi32::<0>(v) as u32,
            _mm_extract_epi32::<1>(v) as u32,
            _mm_extract_epi32::<2>(v) as u32,
            _mm_extract_epi32::<3>(v) as u32,
        ]
    }

    /// `K[4i..4i + 4]`, to add to four schedule words.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn k(i: usize) -> __m128i {
        load([K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]])
    }

    /// `W[t..t + 4]` from the sixteen words before them, oldest first.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn next_w(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w_t7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_t7), w3)
    }

    /// `W[4i..4i + 4] + K[4i..4i + 4]` for all sixteen four-round steps of
    /// one block: the block's sixteen big-endian words, then the schedule
    /// expanded four words at a time.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(block: &[u8; 64]) -> [__m128i; 16] {
        let word = |at: usize| u32::from_be_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        let quad = |at: usize| load([word(at), word(at + 4), word(at + 8), word(at + 12)]);
        let (mut w0, mut w1, mut w2, mut w3) = (quad(0), quad(16), quad(32), quad(48));
        let mut wk = [w0; 16];
        // Four steps a turn, so each of the four live vectors keeps its role.
        for i in (0..16).step_by(4) {
            if i > 0 {
                w0 = next_w(w0, w1, w2, w3);
                w1 = next_w(w1, w2, w3, w0);
                w2 = next_w(w2, w3, w0, w1);
                w3 = next_w(w3, w0, w1, w2);
            }
            wk[i] = _mm_add_epi32(w0, k(i));
            wk[i + 1] = _mm_add_epi32(w1, k(i + 1));
            wk[i + 2] = _mm_add_epi32(w2, k(i + 2));
            wk[i + 3] = _mm_add_epi32(w3, k(i + 3));
        }
        wk
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let (abef, cdgh) = split(*state);
        let (mut abef, mut cdgh) = (load(abef), load(cdgh));
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            for wk in schedule(block.try_into().expect("64 bytes")) {
                // Two rounds from the low two lanes, two from the high two.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = join(store(abef), store(cdgh));
    }

    /// One compression of messages `first..first + N` of `quad` over a block
    /// whose `W + K` vectors are `wk` and their shuffled high halves `wk_hi`:
    /// 32 `sha256rnds2` a message, the `N` messages interleaved.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds<const N: usize>(
        quad: &mut Quad,
        first: usize,
        wk: &[__m128i; 16],
        wk_hi: &[__m128i; 16],
    ) {
        let mut abef = [load(quad.abef[first]); N];
        let mut cdgh = [load(quad.cdgh[first]); N];
        for m in 1..N {
            abef[m] = load(quad.abef[first + m]);
            cdgh[m] = load(quad.cdgh[first + m]);
        }
        for (&lo, &hi) in wk.iter().zip(wk_hi) {
            // Two rounds from the low two lanes, two from the high two.
            for m in 0..N {
                cdgh[m] = _mm_sha256rnds2_epu32(cdgh[m], abef[m], lo);
            }
            for m in 0..N {
                abef[m] = _mm_sha256rnds2_epu32(abef[m], cdgh[m], hi);
            }
        }
        for m in 0..N {
            let (abef_in, cdgh_in) = (&mut quad.abef[first + m], &mut quad.cdgh[first + m]);
            *abef_in = store(_mm_add_epi32(abef[m], load(*abef_in)));
            *cdgh_in = store(_mm_add_epi32(cdgh[m], load(*cdgh_in)));
        }
    }

    /// One compression of every message of every group over a block they
    /// all share: the sixteen `W + K` vectors and their shuffled high halves
    /// are computed once, so each message costs only its rounds — four
    /// messages interleaved, which covers the instruction's latency.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn absorb(groups: &mut [Quad], block: &[u8; 64]) {
        let wk = schedule(block);
        let mut wk_hi = wk;
        for v in &mut wk_hi {
            *v = _mm_shuffle_epi32::<0x0E>(*v);
        }
        for quad in groups {
            if quad.live == 4 {
                rounds::<4>(quad, 0, &wk, &wk_hi);
            } else {
                // A short last group: its messages go one at a time.
                for m in 0..quad.live {
                    rounds::<1>(quad, m, &wk, &wk_hi);
                }
            }
        }
    }
}
