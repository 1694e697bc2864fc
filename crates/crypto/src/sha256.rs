//! SHA-256, implemented from scratch per FIPS 180-4.
//!
//! This is a real, test-vector-checked implementation — content addressing,
//! Merkle proofs and proof-of-work in the rest of the workspace are honest
//! because this hash is. Both a one-shot [`sha256`] and an incremental
//! [`Sha256`] API are provided.
//!
//! Two backends compute the same function: the portable code in this file,
//! and `ni`, which uses the x86-64 SHA extensions where the running CPU
//! reports them. The CPU is the only thing that chooses; the portable code
//! is the only path everywhere else and the oracle the tests hold `ni` to.

use std::fmt;

#[allow(unsafe_code)]
mod ni;

/// The SHA-256 backend this process runs on: `"sha-ni"` where the CPU
/// reports the x86-64 SHA extensions, `"portable"` otherwise. For ledgers
/// and logs, so numbers from different hosts are not compared blind; it
/// selects nothing.
pub fn sha256_backend() -> &'static str {
    if ni::available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// A 256-bit hash value. The universal identifier type of the workspace:
/// content addresses, node IDs, transaction IDs, name hashes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash (useful as a sentinel, e.g. genesis prev-hash).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Interpret the first 8 bytes as a big-endian integer (for PoW targets
    /// and sampling).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Number of leading zero bits — the proof-of-work difficulty measure.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut n = 0;
        for &b in &self.0 {
            if b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros();
                break;
            }
        }
        n
    }

    /// Hex string (lowercase, 64 chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Short hex prefix for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_owned()
    }

    /// XOR distance to another hash (Kademlia metric), as a 256-bit value in
    /// byte array form.
    pub fn xor(&self, other: &Hash256) -> Hash256 {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Hash256(out)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Expand the 16 loaded message words into the full 64-word schedule
/// (FIPS 180-4 §6.2.2 step 1).
#[inline(always)]
fn expand(w: &mut [u32; 64]) {
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
}

/// Run rounds `from..64` of the compression from working state `init`.
/// `from` is nonzero only on the [`TailHasher`] fast path, which has already
/// executed the rounds whose schedule words are tail-invariant.
#[inline(always)]
fn rounds(init: [u32; 8], w: &[u32; 64], from: usize) -> [u32; 8] {
    rounds_range(init, w, from, 64)
}

/// Rounds `from..to` of the compression. Callers pass literal bounds where
/// unrolling matters.
#[inline(always)]
fn rounds_range(init: [u32; 8], w: &[u32; 64], from: usize, to: usize) -> [u32; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = init;
    for i in from..to {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    [a, b, c, d, e, f, g, h]
}

/// Compress a run of whole 64-byte blocks into `state`: on the SHA
/// extensions where the CPU has them, else through [`compress_portable`].
/// Every hash in the workspace goes through here.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if !blocks.is_empty() && !ni::compress(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// The portable backend of [`compress_blocks`].
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("64 bytes"));
    }
}

/// A chaining state as digest bytes.
fn digest(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

/// One compression over a 64-byte block (FIPS 180-4 §6.2.2), portable.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    expand(&mut w);
    let out = rounds(*state, &w, 0);
    for i in 0..8 {
        state[i] = state[i].wrapping_add(out[i]);
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Every whole block in one call: a backend keeps the state in its
        // own layout across the run.
        let (blocks, rest) = data.split_at(data.len() / 64 * 64);
        compress_blocks(&mut self.state, blocks);
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Hash256 {
        let mut out = [0u8; 32];
        self.finalize_into(&mut out);
        Hash256(out)
    }

    /// Finish, writing the digest into a caller-provided buffer (no return
    /// value to move, useful in hashing loops that reuse one scratch buffer).
    pub fn finalize_into(mut self, out: &mut [u8; 32]) {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buf_len, 0);
        *out = digest(&self.state).0;
    }

    /// Freeze the absorbed prefix into a [`TailHasher`] that finishes the
    /// digest for any `TAIL`-byte suffix with **exactly one compression and
    /// zero heap allocation** — the Bitcoin-style "midstate" optimization for
    /// grinding a fixed-width field (a PoW nonce) at the end of an otherwise
    /// constant message.
    ///
    /// Returns `None` when the suffix cannot fit in the final padded block,
    /// i.e. unless `buffered_prefix_len + TAIL + 9 <= 64` (9 bytes: the 0x80
    /// padding marker plus the 64-bit length field).
    pub fn tail_hasher<const TAIL: usize>(&self) -> Option<TailHasher<TAIL>> {
        let off = self.buf_len;
        if off + TAIL + 9 > 64 {
            return None;
        }
        // Pre-pad the final block: buffered prefix, TAIL bytes of slack to be
        // filled per call, then 0x80 and the big-endian total bit length.
        let mut block = [0u8; 64];
        block[..off].copy_from_slice(&self.buf[..off]);
        block[off + TAIL] = 0x80;
        let bit_len = self.total_len.wrapping_add(TAIL as u64).wrapping_mul(8);
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        // Hoist everything tail-invariant out of the per-call compression:
        // the block as schedule words (tail region zero), and the working
        // state after the leading rounds whose words hold no tail bytes
        // (rounds 0..off/4 — word i covers bytes 4i..4i+4, all prefix).
        let mut w_base = [0u32; 16];
        for (i, word) in w_base.iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let pre = off / 4;
        let mut w = [0u32; 64];
        w[..16].copy_from_slice(&w_base);
        let mut pre_state = self.state;
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = pre_state;
        for i in 0..pre {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        pre_state = [a, b, c, d, e, f, g, h];
        Some(TailHasher {
            state: self.state,
            block,
            pre_state,
            w_base,
            pre,
            off,
        })
    }
}

/// A frozen SHA-256 midstate plus a pre-padded final block. Produced by
/// [`Sha256::tail_hasher`]; each [`TailHasher::hash`] call touches only stack
/// memory and costs one compression on the SHA extensions, or less than one
/// in portable code — the schedule words and leading rounds that cannot
/// depend on the tail are precomputed.
#[derive(Clone)]
pub struct TailHasher<const TAIL: usize> {
    /// Midstate at the start of the final block (the feed-forward term).
    state: [u32; 8],
    /// The pre-padded final block, tail bytes zeroed.
    block: [u8; 64],
    /// Working state after rounds `0..pre`, which use only prefix words.
    pre_state: [u32; 8],
    /// The pre-padded final block as schedule words, tail bytes zeroed.
    w_base: [u32; 16],
    /// Number of leading rounds already folded into `pre_state`.
    pre: usize,
    /// Byte offset of the tail within the final block.
    off: usize,
}

impl<const TAIL: usize> TailHasher<TAIL> {
    /// Digest of `prefix || tail`, where `prefix` is everything absorbed by
    /// the [`Sha256`] this midstate was frozen from.
    pub fn hash(&self, tail: &[u8; TAIL]) -> Hash256 {
        self.hash_ni(tail)
            .unwrap_or_else(|| self.hash_portable(tail))
    }

    /// [`hash`](Self::hash) as one compression on the SHA extensions, which
    /// outruns the portable path's saved rounds; `None` where the CPU lacks
    /// them.
    fn hash_ni(&self, tail: &[u8; TAIL]) -> Option<Hash256> {
        let mut state = self.state;
        let mut block = self.block;
        block[self.off..self.off + TAIL].copy_from_slice(tail);
        ni::compress(&mut state, &block).then(|| digest(&state))
    }

    /// [`hash`](Self::hash) in portable code, from the precomputed rounds.
    fn hash_portable(&self, tail: &[u8; TAIL]) -> Hash256 {
        let mut w = self.w_base;
        // Splice the tail bytes into their schedule words (big-endian lanes).
        // TAIL == 8 (the PoW nonce) gets a three-word u64 splice; the const
        // generic branch folds away for other widths.
        if TAIL == 8 {
            let v = u64::from_be_bytes(tail[..8].try_into().expect("8 bytes"));
            let i = self.off / 4;
            let sh = 8 * (self.off % 4) as u32;
            if sh == 0 {
                w[i] |= (v >> 32) as u32;
                w[i + 1] |= v as u32;
            } else {
                w[i] |= (v >> (32 + sh)) as u32;
                w[i + 1] |= (v >> sh) as u32;
                w[i + 2] |= (v as u32) << (32 - sh);
            }
        } else {
            for (j, &byte) in tail.iter().enumerate() {
                let at = self.off + j;
                w[at / 4] |= u32::from(byte) << (8 * (3 - (at % 4)));
            }
        }
        // Rounds `pre..16`. The mining midstate (97-byte prefix, 33 bytes
        // buffered) always lands on pre == 8, so that case gets constant
        // bounds the compiler unrolls; anything else takes the runtime loop.
        let mut s = self.pre_state;
        if self.pre == 8 {
            for i in 8..16 {
                s = one_round(s, K[i].wrapping_add(w[i]));
            }
        } else {
            for i in self.pre..16 {
                s = one_round(s, K[i].wrapping_add(w[i]));
            }
        }
        // ...then rounds 16..64 with the schedule expanded in place over a
        // rolling 16-word window (w[t mod 16] becomes w[t]). Constant bounds
        // throughout so the compiler can unroll and keep `w` in registers.
        for chunk in 0..3 {
            for j in 0..16 {
                let s0 = w[(j + 1) % 16].rotate_right(7)
                    ^ w[(j + 1) % 16].rotate_right(18)
                    ^ (w[(j + 1) % 16] >> 3);
                let s1 = w[(j + 14) % 16].rotate_right(17)
                    ^ w[(j + 14) % 16].rotate_right(19)
                    ^ (w[(j + 14) % 16] >> 10);
                w[j] = w[j]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) % 16])
                    .wrapping_add(s1);
                s = one_round(s, K[16 + chunk * 16 + j].wrapping_add(w[j]));
            }
        }
        let mut digest = [0u8; 32];
        for i in 0..8 {
            let word = self.state[i].wrapping_add(s[i]);
            digest[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256(digest)
    }
}

/// One SHA-256 round with the `K[i] + w[i]` term already summed.
#[inline(always)]
fn one_round(s: [u32; 8], kw: u32) -> [u32; 8] {
    let [a, b, c, d, e, f, g, h] = s;
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ (!e & g);
    let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(kw);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    let t2 = s0.wrapping_add(maj);
    [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g]
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 into a caller-provided buffer (no heap, no value move).
pub fn sha256_into(data: &[u8], out: &mut [u8; 32]) {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize_into(out);
}

/// Hash the concatenation of several byte slices (saves allocating).
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Domain-separated hash: `sha256(tag-len || tag || data)`. Used everywhere a
/// hash must not collide with a hash of the same bytes in another role.
pub fn tagged_hash(tag: &str, data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&[tag.len() as u8]);
    h.update(tag.as_bytes());
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: Hash256) -> String {
        h.to_hex()
    }

    /// Whether the NI halves of the backend tests can run here. They are
    /// skipped out loud, never silently.
    fn ni_detected(test: &str) -> bool {
        let detected = ni::available();
        if !detected {
            println!("{test}: SHA extensions not detected, NI half SKIPPED");
        }
        detected
    }

    #[test]
    fn backend_is_named() {
        // `cargo test -p agora-crypto backend_is_named -- --nocapture` is how
        // a CI log says which path its tests exercised.
        println!("sha256 backend: {}", sha256_backend());
        assert_eq!(sha256_backend() == "sha-ni", ni::available());
    }

    /// A backend's compress-a-run-of-blocks entry point, called directly.
    type CompressRun = fn(&mut [u32; 8], &[u8]);

    fn ni_run(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(ni::compress(state, blocks));
    }

    /// The backends under test, by name: the portable one always, the NI
    /// one where the CPU has it.
    fn compress_backends(test: &str) -> Vec<(&'static str, CompressRun)> {
        let mut backends: Vec<(&'static str, CompressRun)> = vec![("portable", compress_portable)];
        if ni_detected(test) {
            backends.push(("sha-ni", ni_run));
        }
        backends
    }

    /// SHA-256 of `data` with every compression done by `run`.
    fn hex_on(run: CompressRun, data: &[u8]) -> String {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 9).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        run(&mut state, &padded);
        hex(digest(&state))
    }

    #[test]
    fn each_backend_passes_the_nist_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, run) in compress_backends("each_backend_passes_the_nist_vectors") {
            for (data, expect) in vectors {
                assert_eq!(hex_on(run, data), expect, "{name} len {}", data.len());
            }
        }
    }

    #[test]
    fn ni_compress_equals_portable_word_for_word() {
        if !ni_detected("ni_compress_equals_portable_word_for_word") {
            return;
        }
        // xorshift64: seeded, no dependency on the simulator's RNG crate.
        let mut s = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for blocks in [1usize, 2, 3, 17] {
            for _ in 0..8 {
                let start: [u32; 8] = std::array::from_fn(|_| next() as u32);
                let run: Vec<u8> = (0..blocks * 64).map(|_| next() as u8).collect();
                let (mut portable, mut on_ni) = (start, start);
                compress_portable(&mut portable, &run);
                ni_run(&mut on_ni, &run);
                assert_eq!(on_ni, portable, "{blocks} blocks");
            }
        }
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_55_56_63_64_65_bytes() {
        // Padding boundary cases: compare incremental against one-shot on
        // lengths that straddle the 56-byte and 64-byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
            let oneshot = sha256(&data);
            let mut inc = Sha256::new();
            for chunk in data.chunks(7) {
                inc.update(chunk);
            }
            assert_eq!(inc.finalize(), oneshot, "len {len}");
        }
    }

    #[test]
    fn incremental_equals_oneshot_random_splits() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 256) as u8).collect();
        let expect = sha256(&data);
        for split in [1usize, 3, 63, 64, 65, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split {split}");
        }
    }

    #[test]
    fn concat_helper_matches_manual() {
        let whole = sha256(b"hello world");
        assert_eq!(sha256_concat(&[b"hello", b" ", b"world"]), whole);
    }

    #[test]
    fn sha256_into_matches_oneshot() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i % 249) as u8).collect();
            let mut out = [0u8; 32];
            sha256_into(&data, &mut out);
            assert_eq!(Hash256(out), sha256(&data), "len {len}");
            let mut inc_out = [0u8; 32];
            let mut h = Sha256::new();
            h.update(&data);
            h.finalize_into(&mut inc_out);
            assert_eq!(inc_out, out, "finalize_into len {len}");
        }
    }

    #[test]
    fn tail_hasher_matches_oneshot_across_block_boundaries() {
        // Midstate correctness on every interesting prefix length: straddling
        // the 55/56/63/64/65-byte padding and block boundaries, plus longer
        // multi-block prefixes (the mining path uses a 97-byte prefix).
        let ni = ni_detected("tail_hasher_matches_oneshot_across_block_boundaries");
        for prefix_len in [0usize, 1, 54, 55, 56, 63, 64, 65, 97, 119, 120, 127, 128] {
            let prefix: Vec<u8> = (0..prefix_len as u32).map(|i| (i % 253) as u8).collect();
            let mut pre = Sha256::new();
            pre.update(&prefix);
            let Some(tail8) = pre.tail_hasher::<8>() else {
                // Suffix doesn't fit the final block: buffered + 8 + 9 > 64.
                assert!(prefix_len % 64 + 8 + 9 > 64, "prefix {prefix_len}");
                continue;
            };
            for nonce in [0u64, 1, 0xdead_beef, u64::MAX] {
                let tail = nonce.to_be_bytes();
                let mut whole = prefix.clone();
                whole.extend_from_slice(&tail);
                let expect = sha256(&whole);
                let at = format!("prefix {prefix_len} nonce {nonce:#x}");
                assert_eq!(tail8.hash(&tail), expect, "{at}");
                assert_eq!(tail8.hash_portable(&tail), expect, "portable, {at}");
                if ni {
                    assert_eq!(tail8.hash_ni(&tail), Some(expect), "sha-ni, {at}");
                }
            }
        }
    }

    #[test]
    fn tail_hasher_grinds_to_the_same_attempt_count_on_each_backend() {
        // `mine_block`'s loop over the 97-byte header prefix: the attempt
        // count is E9's energy proxy and a `BENCH_harness.json` row, so
        // every backend must stop on the same nonce as the plain hash does.
        let ni = ni_detected("tail_hasher_grinds_to_the_same_attempt_count_on_each_backend");
        let grind = |bits: u32, first: u64, hash: &dyn Fn(u64) -> Hash256| {
            (0u64..)
                .find(|n| hash(first.wrapping_add(*n)).leading_zero_bits() >= bits)
                .expect("a nonce is found")
                + 1
        };
        for seed in 0..8u64 {
            let header: Vec<u8> = (0..97u64).map(|i| (i * 29 + seed * 131) as u8).collect();
            let mut pre = Sha256::new();
            pre.update(&header);
            let mid = pre.tail_hasher::<8>().expect("33 + 8 + 9 <= 64");
            let first = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for bits in [0u32, 4, 8, 10] {
                let plain = grind(bits, first, &|nonce| {
                    sha256_concat(&[&header, &nonce.to_be_bytes()])
                });
                let portable = grind(bits, first, &|nonce| {
                    mid.hash_portable(&nonce.to_be_bytes())
                });
                assert_eq!(portable, plain, "portable, seed {seed} bits {bits}");
                if ni {
                    let on_ni = grind(bits, first, &|nonce| {
                        mid.hash_ni(&nonce.to_be_bytes()).expect("detected")
                    });
                    assert_eq!(on_ni, plain, "sha-ni, seed {seed} bits {bits}");
                }
            }
        }
    }

    #[test]
    fn tail_hasher_rejects_oversized_tails() {
        // 48 buffered + 8 tail + 9 padding = 65 > 64: must refuse.
        let mut pre = Sha256::new();
        pre.update(&[0u8; 48]);
        assert!(pre.tail_hasher::<8>().is_none());
        // 47 buffered + 8 + 9 = 64: exactly fits.
        let mut pre = Sha256::new();
        pre.update(&[0u8; 47]);
        assert!(pre.tail_hasher::<8>().is_some());
        // Zero-length tails degenerate to finalize().
        let mut pre = Sha256::new();
        pre.update(b"abc");
        let t0 = pre.tail_hasher::<0>().expect("fits");
        assert_eq!(t0.hash(&[]), sha256(b"abc"));
    }

    #[test]
    fn tail_hasher_is_reusable_and_clonable() {
        let mut pre = Sha256::new();
        pre.update(b"constant prefix");
        let t = pre.tail_hasher::<8>().expect("fits");
        let a = t.hash(&1u64.to_be_bytes());
        let b = t.clone().hash(&1u64.to_be_bytes());
        assert_eq!(a, b, "hashing must not consume the midstate");
        assert_ne!(a, t.hash(&2u64.to_be_bytes()));
    }

    #[test]
    fn tagged_hash_separates_domains() {
        assert_ne!(tagged_hash("a", b"x"), tagged_hash("b", b"x"));
        assert_ne!(tagged_hash("a", b"x"), sha256(b"x"));
        // And is deterministic.
        assert_eq!(tagged_hash("a", b"x"), tagged_hash("a", b"x"));
    }

    #[test]
    fn leading_zero_bits() {
        assert_eq!(Hash256::ZERO.leading_zero_bits(), 256);
        let mut h = [0u8; 32];
        h[0] = 0b0001_0000;
        assert_eq!(Hash256(h).leading_zero_bits(), 3);
        h[0] = 0;
        h[1] = 0b1000_0000;
        assert_eq!(Hash256(h).leading_zero_bits(), 8);
    }

    #[test]
    fn xor_metric_properties() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_eq!(a.xor(&a), Hash256::ZERO);
        assert_eq!(a.xor(&b), b.xor(&a));
        let c = sha256(b"c");
        // XOR associativity ⇒ (a^b)^(b^c) = a^c.
        assert_eq!(a.xor(&b).xor(&b.xor(&c)), a.xor(&c));
    }

    #[test]
    fn display_and_short() {
        let h = sha256(b"abc");
        assert_eq!(format!("{h}").len(), 64);
        assert_eq!(h.short().len(), 12);
        assert!(format!("{h:?}").starts_with("Hash256("));
    }

    #[test]
    fn prefix_u64_big_endian() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(Hash256(b).prefix_u64(), 1);
        b[0] = 0x80;
        assert!(Hash256(b).prefix_u64() > u64::MAX / 2);
    }
}
