//! Reed–Solomon erasure coding over GF(2^8), from scratch.
//!
//! `RS(k, m)` turns `k` data shards into `k + m` total shards such that *any*
//! `k` of them reconstruct the data. This is the redundancy mechanism behind
//! the §3.3 storage-system design space (replication is the special case
//! RS(1, m)). Encoding uses a systematic Vandermonde-derived matrix;
//! reconstruction inverts the surviving rows with Gaussian elimination.

use std::ops::Deref;

/// GF(2^8) with the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11b).
mod gf {
    /// Multiply without tables (carry-less, reduced mod 0x11b).
    const fn mul_slow(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        acc
    }

    /// exp/log tables built at compile time over generator 3.
    const TABLES: ([u8; 512], [u8; 256]) = {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x = 1u8;
        let mut i = 0;
        while i < 255 {
            exp[i] = x;
            log[x as usize] = i as u8;
            x = mul_slow(x, 3);
            i += 1;
        }
        // Duplicate so exp[(a+b)] needs no mod.
        let mut j = 255;
        while j < 512 {
            exp[j] = exp[j - 255];
            j += 1;
        }
        (exp, log)
    };

    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let (exp, log) = (&TABLES.0, &TABLES.1);
        exp[log[a as usize] as usize + log[b as usize] as usize]
    }

    /// Every product, one 256-byte row per left factor.
    static PRODUCTS: [[u8; 256]; 256] = {
        let (exp, log) = (&TABLES.0, &TABLES.1);
        let mut table = [[0u8; 256]; 256];
        let mut a = 1;
        while a < 256 {
            let mut b = 1;
            while b < 256 {
                table[a][b] = exp[log[a] as usize + log[b] as usize];
                b += 1;
            }
            a += 1;
        }
        table
    };

    /// `dst[i] ^= coef · src[i]` over the shorter of the two: the inner
    /// loop of encoding and reconstruction. Sixteen bytes a step on an
    /// x86-64 CPU with SSSE3 and SSE4.1 ([`x86`]), the table loop
    /// everywhere else; both compute the same bytes.
    #[inline]
    pub fn mul_acc(dst: &mut [u8], src: &[u8], coef: u8) {
        #[cfg(target_arch = "x86_64")]
        if x86::mul_acc(dst, src, coef) {
            return;
        }
        mul_acc_table(dst, src, coef);
    }

    /// [`mul_acc`] one lookup in `coef`'s product row per byte: the
    /// portable path, the SIMD path's tail, and the oracle the tests hold
    /// the SIMD path to.
    #[inline]
    fn mul_acc_table(dst: &mut [u8], src: &[u8], coef: u8) {
        let row = &PRODUCTS[coef as usize];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= row[s as usize];
        }
    }

    /// [`mul_acc`] on SSSE3, by split nibbles (Plank, Greenan & Miller,
    /// FAST '13): `coef · s = coef · (s & 15) ^ coef · (s & 0xf0)`, and each
    /// half is a 16-entry table, so one `pshufb` looks up sixteen bytes.
    ///
    /// This is the one module of the crate that may say `unsafe`, and it
    /// says it once, where [`mul_acc`](x86::mul_acc) crosses into the
    /// `#[target_feature]` kernel under the run-time checks that justify
    /// it. The kernel is safe code: bytes go in through `_mm_set_epi64x`
    /// and come out through `_mm_extract_epi64`, no raw pointer.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    pub(super) mod x86 {
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_extract_epi64, _mm_set1_epi8, _mm_set_epi64x,
            _mm_shuffle_epi8, _mm_srli_epi64, _mm_xor_si128,
        };

        /// Whether this CPU runs the kernel: the check that guards the
        /// `unsafe` call below.
        pub fn available() -> bool {
            is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1")
        }

        /// [`super::mul_acc`] on the kernel. Returns `false`, with `dst`
        /// untouched, where the CPU lacks SSSE3 or SSE4.1.
        #[inline]
        pub fn mul_acc(dst: &mut [u8], src: &[u8], coef: u8) -> bool {
            if available() {
                // SAFETY: `kernel` is compiled for `ssse3` and `sse4.1`, and
                // `available()` directly above saw both on this CPU; `sse2`
                // is part of the x86-64 baseline. It has no other
                // precondition: its body is safe code.
                unsafe { kernel(dst, src, coef) };
                return true;
            }
            false
        }

        /// Sixteen bytes as one vector, `b[0]` in the low lane.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        fn load(b: &[u8]) -> __m128i {
            let half = |at: usize| i64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
            _mm_set_epi64x(half(8), half(0))
        }

        /// The inverse of [`load`], into `b`.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        fn store(v: __m128i, b: &mut [u8]) {
            b[..8].copy_from_slice(&_mm_extract_epi64::<0>(v).to_le_bytes());
            b[8..16].copy_from_slice(&_mm_extract_epi64::<1>(v).to_le_bytes());
        }

        /// `coef`'s product row at the low-nibble indices `row[i]` and the
        /// high-nibble indices `row[i << 4]`, sixteen bytes a step, and the
        /// table loop for the last `len % 16`.
        #[target_feature(enable = "ssse3,sse4.1")]
        fn kernel(dst: &mut [u8], src: &[u8], coef: u8) {
            let row = &super::PRODUCTS[coef as usize];
            let lo = load(&std::array::from_fn::<u8, 16, _>(|i| row[i]));
            let hi = load(&std::array::from_fn::<u8, 16, _>(|i| row[i << 4]));
            let nibble = _mm_set1_epi8(0x0f);
            let n = dst.len().min(src.len());
            let whole = n - n % 16;
            for (d, s) in dst[..whole]
                .chunks_exact_mut(16)
                .zip(src[..whole].chunks_exact(16))
            {
                let s = load(s);
                let s_lo = _mm_and_si128(s, nibble);
                let s_hi = _mm_and_si128(_mm_srli_epi64::<4>(s), nibble);
                let product = _mm_xor_si128(_mm_shuffle_epi8(lo, s_lo), _mm_shuffle_epi8(hi, s_hi));
                store(_mm_xor_si128(load(d), product), d);
            }
            super::mul_acc_table(&mut dst[whole..], &src[whole..], coef);
        }
    }

    #[inline]
    pub fn inv(a: u8) -> u8 {
        assert!(a != 0, "inverse of zero");
        let (exp, log) = (&TABLES.0, &TABLES.1);
        exp[255 - log[a as usize] as usize]
    }

    #[inline]
    pub fn pow(base: u8, e: usize) -> u8 {
        if base == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let (exp, log) = (&TABLES.0, &TABLES.1);
        exp[(log[base as usize] as usize * e) % 255]
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn field_axioms_spot_checks() {
            // mul matches the slow reference on a grid.
            for a in (0..=255u16).step_by(7) {
                for b in (0..=255u16).step_by(11) {
                    assert_eq!(mul(a as u8, b as u8), mul_slow(a as u8, b as u8));
                }
            }
            // Inverses.
            for a in 1..=255u16 {
                assert_eq!(mul(a as u8, inv(a as u8)), 1, "a={a}");
            }
            // Distributivity sample.
            assert_eq!(mul(7, 13 ^ 29), mul(7, 13) ^ mul(7, 29));
        }

        #[test]
        fn product_table_is_mul_slow_exhaustively() {
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    let want = mul_slow(a, b);
                    assert_eq!(PRODUCTS[a as usize][b as usize], want, "{a} * {b}");
                    assert_eq!(mul(a, b), want, "{a} * {b}");
                }
            }
        }

        /// A `mul_acc` body, called directly.
        type MulAcc = fn(&mut [u8], &[u8], u8);

        #[cfg(target_arch = "x86_64")]
        fn ssse3_run(dst: &mut [u8], src: &[u8], coef: u8) {
            assert!(x86::mul_acc(dst, src, coef));
        }

        /// The bodies under test, by name: the table loop and the entry
        /// point always, the SSSE3 kernel where the CPU has it (skipped out
        /// loud, never silently).
        fn mul_acc_bodies() -> Vec<(&'static str, MulAcc)> {
            let mut bodies: Vec<(&'static str, MulAcc)> =
                vec![("table", mul_acc_table), ("mul_acc", mul_acc)];
            #[cfg(target_arch = "x86_64")]
            if x86::available() {
                bodies.push(("ssse3", ssse3_run));
            }
            if bodies.len() == 2 {
                println!("mul_acc_is_the_per_byte_loop: SSSE3 not detected, SIMD half SKIPPED");
            }
            bodies
        }

        #[test]
        fn mul_acc_is_the_per_byte_loop() {
            let src: Vec<u8> = (0..4_099 + 16u32).map(|i| (i * 131 % 256) as u8).collect();
            let bodies = mul_acc_bodies();
            for coef in 0..=255u8 {
                for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1_536, 4_099] {
                    for off in 0..16 {
                        // The source starts `off` bytes in, the destination
                        // at another offset, and runs 3 bytes longer than
                        // the source: its tail must be kept.
                        let src = &src[off..off + len];
                        let at = (off * 7) % 16;
                        let dst: Vec<u8> = (0..at + len + 3).map(|i| (i * 7) as u8).collect();
                        let mut want = dst.clone();
                        for (w, &s) in want[at..].iter_mut().zip(src) {
                            *w ^= mul(coef, s);
                        }
                        for (name, body) in &bodies {
                            let mut got = dst.clone();
                            body(&mut got[at..], src, coef);
                            assert_eq!(got, want, "{name}: coef {coef} len {len} offset {off}");
                        }
                    }
                }
            }
        }

        #[test]
        fn pow_consistent() {
            assert_eq!(pow(2, 0), 1);
            assert_eq!(pow(2, 1), 2);
            assert_eq!(pow(2, 2), mul(2, 2));
            assert_eq!(pow(0, 0), 1);
            assert_eq!(pow(0, 5), 0);
        }
    }
}

/// The GF(2^8) kernel this process runs on: `"ssse3"` where the CPU
/// reports SSSE3 and SSE4.1, `"portable"` otherwise. For ledgers and logs,
/// so numbers from different hosts are not compared blind; it selects
/// nothing.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if gf::x86::available() {
        return "ssse3";
    }
    "portable"
}

/// Errors from erasure coding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErasureError {
    /// `k` must be ≥ 1 and `k + m` ≤ 255.
    BadParameters,
    /// Fewer than `k` shards available.
    NotEnoughShards,
    /// Shards have inconsistent lengths or indices out of range.
    MalformedShards,
}

impl std::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
impl std::error::Error for ErasureError {}

/// A Reed–Solomon code with `k` data shards and `m` parity shards.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// (k + m) × k encode matrix; top k rows are the identity (systematic).
    matrix: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Build a code. Fails unless `1 ≤ k` and `k + m ≤ 255`.
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, ErasureError> {
        if k == 0 || k + m > 255 {
            return Err(ErasureError::BadParameters);
        }
        // Systematic matrix: Vandermonde rows reduced so the top k×k block is
        // the identity. Build full Vandermonde (n × k), then column-reduce by
        // the top square block's inverse.
        let n = k + m;
        let mut vand = vec![vec![0u8; k]; n];
        for (r, row) in vand.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                // Row evaluation points 1..=n avoid the zero row.
                *cell = gf::pow((r + 1) as u8, c);
            }
        }
        let top: Vec<Vec<u8>> = vand[..k].to_vec();
        let top_inv = invert(&top).ok_or(ErasureError::BadParameters)?;
        let matrix = mat_mul(&vand, &top_inv);
        Ok(ReedSolomon { k, m, matrix })
    }

    /// Data shards per stripe.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Parity shards per stripe.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Total shards per stripe.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Storage overhead factor (total / data).
    pub fn overhead(&self) -> f64 {
        (self.k + self.m) as f64 / self.k as f64
    }

    /// Encode `data` into `k + m` shards. The input is padded to a multiple
    /// of `k`; the first `k` shards are the (padded) data itself.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        (0..self.k + self.m)
            .map(|index| self.encode_shard(data, index))
            .collect()
    }

    /// Length of every shard of a `data_len`-byte object.
    pub fn shard_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k).max(1)
    }

    /// Shard `index` of [`encode`](Self::encode) alone: one matrix row, for
    /// regenerating a single lost shard. Panics if `index >= k + m`.
    pub fn encode_shard(&self, data: &[u8], index: usize) -> Vec<u8> {
        let shard_len = self.shard_len(data.len());
        // Data shard `c` before padding (short or empty past the input's end;
        // the zero padding contributes nothing to a parity sum).
        let unpadded = |c: usize| {
            let start = (c * shard_len).min(data.len());
            &data[start..(start + shard_len).min(data.len())]
        };
        let mut shard = vec![0u8; shard_len];
        if index < self.k {
            let src = unpadded(index);
            shard[..src.len()].copy_from_slice(src);
        } else {
            for (c, &coef) in self.matrix[index].iter().enumerate() {
                if coef == 0 {
                    continue;
                }
                gf::mul_acc(&mut shard, unpadded(c), coef);
            }
        }
        shard
    }

    /// Reconstruct the original data (of length `data_len`) from any `k`
    /// shards, given as `(shard_index, bytes)` pairs: slices, vectors, or
    /// the shared handles a storage node holds (`Rc<Shard>`).
    pub fn reconstruct<S: Deref<Target: AsRef<[u8]>>>(
        &self,
        shards: &[(usize, S)],
        data_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        fn bytes<S: Deref<Target: AsRef<[u8]>>>(s: &S) -> &[u8] {
            (**s).as_ref()
        }
        if shards.len() < self.k {
            return Err(ErasureError::NotEnoughShards);
        }
        let use_shards = &shards[..self.k];
        let shard_len = bytes(&use_shards[0].1).len();
        if shard_len == 0 {
            return Err(ErasureError::MalformedShards);
        }
        for (idx, s) in use_shards {
            if *idx >= self.k + self.m || bytes(s).len() != shard_len {
                return Err(ErasureError::MalformedShards);
            }
        }
        if data_len > self.k * shard_len {
            return Err(ErasureError::MalformedShards);
        }
        // A data shard that arrived is its own stretch of the output.
        let mut data = vec![0u8; self.k * shard_len];
        let mut held = vec![false; self.k];
        for (i, s) in use_shards {
            if *i < self.k {
                data[i * shard_len..][..shard_len].copy_from_slice(bytes(s));
                held[*i] = true;
            }
        }
        if held.contains(&false) {
            // Solve for the rest: rows of the encode matrix for the present
            // shards form a k×k system over the data shards, and only the
            // missing rows of its inverse are applied (the row for a held
            // data shard is the unit vector that picks it). A repeated index
            // makes the system singular.
            let sub: Vec<Vec<u8>> = use_shards
                .iter()
                .map(|(i, _)| self.matrix[*i].clone())
                .collect();
            let inv = invert(&sub).ok_or(ErasureError::MalformedShards)?;
            for (r, out) in data.chunks_exact_mut(shard_len).enumerate() {
                if held[r] {
                    continue;
                }
                for (&coef, (_, shard)) in inv[r].iter().zip(use_shards) {
                    if coef != 0 {
                        gf::mul_acc(out, bytes(shard), coef);
                    }
                }
            }
        }
        data.truncate(data_len);
        Ok(data)
    }
}

/// Multiply two matrices over GF(2^8).
fn mat_mul(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let rows = a.len();
    let inner = b.len();
    let cols = b[0].len();
    let mut out = vec![vec![0u8; cols]; rows];
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = 0u8;
            for i in 0..inner {
                acc ^= gf::mul(a[r][i], b[i][c]);
            }
            out[r][c] = acc;
        }
    }
    out
}

/// Invert a square matrix over GF(2^8) by Gauss–Jordan. `None` if singular.
fn invert(m: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    // Augmented [M | I].
    let mut aug: Vec<Vec<u8>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.resize(2 * n, 0);
            r[n + i] = 1;
            r
        })
        .collect();
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| aug[r][col] != 0)?;
        aug.swap(col, pivot);
        // Normalize pivot row.
        let inv_p = gf::inv(aug[col][col]);
        for v in aug[col].iter_mut() {
            *v = gf::mul(*v, inv_p);
        }
        // Eliminate other rows. The pivot row is cloned so the destination
        // row can be borrowed mutably while reading it.
        let pivot_row = aug[col].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let factor = row[col];
                for (dst, src) in row.iter_mut().zip(pivot_row.iter()) {
                    *dst ^= gf::mul(factor, *src);
                }
            }
        }
    }
    Some(aug.into_iter().map(|row| row[n..].to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_parameters_rejected() {
        assert_eq!(
            ReedSolomon::new(0, 3).unwrap_err(),
            ErasureError::BadParameters
        );
        assert_eq!(
            ReedSolomon::new(200, 60).unwrap_err(),
            ErasureError::BadParameters
        );
        assert!(ReedSolomon::new(1, 0).is_ok());
        assert!(ReedSolomon::new(100, 155).is_ok());
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<u8> = (0..40).collect();
        let shards = rs.encode(&data);
        assert_eq!(shards.len(), 6);
        // First k shards are the raw data split.
        let rebuilt: Vec<u8> = shards[..4].concat();
        assert_eq!(&rebuilt[..40], &data[..]);
    }

    #[test]
    fn reconstruct_from_all_data_shards() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = b"hello erasure coded world".to_vec();
        let shards = rs.encode(&data);
        let avail: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, shards[i].clone())).collect();
        assert_eq!(rs.reconstruct(&avail, data.len()).unwrap(), data);
    }

    #[test]
    fn reconstruct_from_any_k_of_n() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data: Vec<u8> = (0..97).map(|i| (i * 31 % 256) as u8).collect();
        let shards = rs.encode(&data);
        // Every 4-subset of the 7 shards must reconstruct.
        let n = shards.len();
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    for d in c + 1..n {
                        let avail = vec![
                            (a, shards[a].clone()),
                            (b, shards[b].clone()),
                            (c, shards[c].clone()),
                            (d, shards[d].clone()),
                        ];
                        assert_eq!(
                            rs.reconstruct(&avail, data.len()).unwrap(),
                            data,
                            "subset {a},{b},{c},{d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backend_is_named() {
        // `cargo test -p agora-storage backend_is_named -- --nocapture` is how
        // a CI log says which GF(2^8) path its tests exercised.
        println!("erasure backend: {}", backend());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(backend() == "ssse3", gf::x86::available());
    }

    #[test]
    fn every_k_subset_reconstructs_across_16_byte_shard_boundaries() {
        for (k, m) in [(4usize, 2usize), (8, 4)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = k + m;
            let subsets: Vec<Vec<usize>> = (0u32..1 << n)
                .filter(|mask| mask.count_ones() as usize == k)
                .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
                .collect();
            for shard_len in [15usize, 16, 17, 31, 32, 33, 48, 49] {
                for short in [0, 1, shard_len] {
                    let len = k * shard_len - short;
                    let data: Vec<u8> = (0..len).map(|i| (i * 167 % 251) as u8).collect();
                    let shards = rs.encode(&data);
                    for subset in &subsets {
                        let avail: Vec<(usize, &Vec<u8>)> =
                            subset.iter().map(|&i| (i, &shards[i])).collect();
                        assert_eq!(
                            rs.reconstruct(&avail, len).unwrap(),
                            data,
                            "RS({k},{m}) len {len} subset {subset:?}"
                        );
                    }
                }
            }
        }
    }

    /// `encode_shard` as it was before `gf::mul_acc`: one `gf::mul` per byte.
    fn encode_shard_per_byte(rs: &ReedSolomon, data: &[u8], index: usize) -> Vec<u8> {
        let shard_len = data.len().div_ceil(rs.k).max(1);
        let mut padded = data.to_vec();
        padded.resize(rs.k * shard_len, 0);
        let mut shard = vec![0u8; shard_len];
        for (c, &coef) in rs.matrix[index].iter().enumerate() {
            for (p, &s) in shard.iter_mut().zip(&padded[c * shard_len..]) {
                *p ^= gf::mul(coef, s);
            }
        }
        shard
    }

    #[test]
    fn every_shard_length_round_trips_and_matches_the_per_byte_encoder() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut subsets = Vec::new();
        for a in 0..6 {
            for b in a + 1..6 {
                subsets.push((0..6).filter(|&i| i != a && i != b).collect::<Vec<usize>>());
            }
        }
        assert_eq!(subsets.len(), 15);
        let mut rng = agora_sim::SimRng::new(42);
        for shard_len in 1..=4_096usize {
            // Mostly not a multiple of k: the last data shard runs short.
            let short = rng.below_usize(4).min(shard_len * 4 - 1);
            let data = rng.bytes(shard_len * 4 - short);
            let shards = rs.encode(&data);
            assert_eq!(shards[0].len(), shard_len);
            for (index, shard) in shards.iter().enumerate() {
                assert_eq!(
                    shard,
                    &encode_shard_per_byte(&rs, &data, index),
                    "len {shard_len} index {index}"
                );
            }
            // One subset per length, cycling through all fifteen; all
            // fifteen at the lengths around the interesting edges. Each in
            // index order, reversed, and in a seeded arrival order: which
            // rows are copied and which solved must not depend on it.
            let edge = matches!(shard_len, 1..=9 | 255..=257 | 4_095..=4_096);
            for (nth, subset) in subsets.iter().enumerate() {
                if edge || nth == shard_len % 15 {
                    let mut avail: Vec<(usize, &Vec<u8>)> =
                        subset.iter().map(|&i| (i, &shards[i])).collect();
                    for order in ["sorted", "reversed", "shuffled"] {
                        match order {
                            "reversed" => avail.reverse(),
                            "shuffled" => rng.shuffle(&mut avail),
                            _ => {}
                        }
                        assert_eq!(
                            rs.reconstruct(&avail, data.len()).unwrap(),
                            data,
                            "len {shard_len} subset {subset:?} {order}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn too_few_shards_fails() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = vec![9u8; 64];
        let shards = rs.encode(&data);
        let avail: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i + 2, shards[i + 2].clone())).collect();
        assert_eq!(
            rs.reconstruct(&avail, data.len()).unwrap_err(),
            ErasureError::NotEnoughShards
        );
    }

    #[test]
    fn corrupt_metadata_detected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![1u8; 10];
        let shards = rs.encode(&data);
        // Out-of-range index.
        let avail = vec![(0, shards[0].clone()), (9, shards[1].clone())];
        assert_eq!(
            rs.reconstruct(&avail, data.len()).unwrap_err(),
            ErasureError::MalformedShards
        );
        // Mismatched lengths.
        let avail = vec![(0, shards[0].clone()), (1, vec![0u8; 3])];
        assert_eq!(
            rs.reconstruct(&avail, data.len()).unwrap_err(),
            ErasureError::MalformedShards
        );
        // The same index twice, data or parity: k shards, fewer than k rows.
        for dup in [0, 2] {
            let avail = vec![(dup, shards[dup].clone()), (dup, shards[dup].clone())];
            assert_eq!(
                rs.reconstruct(&avail, data.len()).unwrap_err(),
                ErasureError::MalformedShards,
                "index {dup} twice"
            );
        }
        // Shards too short to hold the claimed length.
        let avail = vec![(0, shards[0].clone()), (2, shards[2].clone())];
        assert_eq!(
            rs.reconstruct(&avail, data.len() + 1).unwrap_err(),
            ErasureError::MalformedShards
        );
        assert_eq!(rs.reconstruct(&avail, data.len()).unwrap(), data);
    }

    #[test]
    fn replication_special_case() {
        // RS(1, 3) = 4-way replication: any single shard is the data.
        let rs = ReedSolomon::new(1, 3).unwrap();
        let data = b"replicate me".to_vec();
        let shards = rs.encode(&data);
        assert_eq!(shards.len(), 4);
        for (i, shard) in shards.iter().enumerate() {
            let got = rs.reconstruct(&[(i, shard.clone())], data.len()).unwrap();
            assert_eq!(got, data, "replica {i}");
        }
    }

    #[test]
    fn tiny_and_unaligned_inputs() {
        for len in [0usize, 1, 2, 3, 5, 7, 16, 17] {
            let rs = ReedSolomon::new(3, 2).unwrap();
            let data: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let shards = rs.encode(&data);
            let avail = vec![
                (1, shards[1].clone()),
                (3, shards[3].clone()),
                (4, shards[4].clone()),
            ];
            assert_eq!(rs.reconstruct(&avail, len).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn encode_shard_is_one_row_of_encode() {
        for (k, m) in [(4, 2), (3, 2), (1, 3)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            for len in [0usize, 1, 5, 16, 17, 97, 1000] {
                let data: Vec<u8> = (0..len as u32).map(|i| (i * 31 % 251) as u8).collect();
                let all = rs.encode(&data);
                // Pin the whole-stripe shape independently of encode_shard:
                // equal lengths, systematic prefix, any k shards reconstruct.
                assert!(all.iter().all(|s| s.len() == all[0].len()));
                assert_eq!(all[..k].concat()[..len], data[..], "RS({k},{m}) len {len}");
                let last_k: Vec<(usize, &Vec<u8>)> = all.iter().enumerate().skip(m).collect();
                assert_eq!(rs.reconstruct(&last_k, len).unwrap(), data);
                for (index, shard) in all.iter().enumerate() {
                    assert_eq!(
                        &rs.encode_shard(&data, index),
                        shard,
                        "RS({k},{m}) len {len} index {index}"
                    );
                }
            }
        }
    }

    #[test]
    fn overhead_reported() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert_eq!(rs.overhead(), 1.5);
        assert_eq!(rs.total_shards(), 6);
        assert_eq!(rs.data_shards(), 4);
        assert_eq!(rs.parity_shards(), 2);
    }

    #[test]
    fn corrupted_shard_changes_output() {
        // RS without error *location* can't detect corruption by itself —
        // integrity comes from content addressing; this documents that.
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = vec![7u8; 20];
        let shards = rs.encode(&data);
        let mut bad = shards[3].clone();
        bad[0] ^= 0xff;
        let avail = vec![(0, shards[0].clone()), (3, bad)];
        let got = rs.reconstruct(&avail, data.len()).unwrap();
        assert_ne!(got, data);
    }
}
