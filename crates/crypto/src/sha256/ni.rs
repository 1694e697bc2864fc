//! SHA-256 on the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//! `sha256msg2`), chosen at run time by what the CPU reports.
//!
//! This is the one module in the workspace that may say `unsafe`, and it
//! says it once, where [`compress`] crosses into a `#[target_feature]`
//! function: the compiler cannot know the running CPU has the instructions,
//! so the call is `unsafe` and is made directly under the
//! `is_x86_feature_detected!` checks that justify it. The bodies in
//! [`x86`] are ordinary safe code — words go in through `_mm_set_epi32`
//! and come out through `_mm_extract_epi32`; no raw pointer, no
//! `transmute`. On any other architecture, and on x86-64 parts without the
//! extensions, [`compress`] reports "not done" and the portable code in the
//! parent module is the only path.

/// Whether this CPU runs the NI path: the same checks that guard the
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::super::K;

    /// A chaining state as the two vectors `sha256rnds2` works on, low lane
    /// first: `[F, E, B, A]` and `[H, G, D, C]`.
    fn split([a, b, c, d, e, f, g, h]: [u32; 8]) -> ([u32; 4], [u32; 4]) {
        ([f, e, b, a], [h, g, d, c])
    }

    /// The inverse of [`split`].
    fn join([f, e, b, a]: [u32; 4], [h, g, d, c]: [u32; 4]) -> [u32; 8] {
        [a, b, c, d, e, f, g, h]
    }

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
}
