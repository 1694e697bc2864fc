//! Deterministic pseudo-random number generation.
//!
//! The simulator must be fully reproducible: the same seed must produce the
//! same event sequence on every platform. We therefore implement
//! xoshiro256\*\* (Blackman & Vigna) in-repo rather than depending on an
//! external RNG crate whose stream might change between versions.
//!
//! This RNG is **not** cryptographically secure; it is a simulation substrate.

/// xoshiro256\*\* pseudo-random generator with convenience distributions.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64, used to expand a single `u64` seed into xoshiro state and to
/// derive independent child streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream, e.g. one per node, so that adding
    /// randomness consumption in one component does not perturb another.
    pub fn fork(&mut self, stream_tag: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean (inverse rate).
    /// Returns 0 for non-positive means.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; (1 - f64()) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal: exp of a normal with the given (log-space) parameters.
    /// Useful for heavy-tailed latencies of consumer devices.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto-distributed value with scale `x_min` and shape `alpha`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Poisson-distributed count with the given mean (Knuth's algorithm;
    /// fine for the small means the simulator uses).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
            // Guard against pathological means.
            if k > 10_000_000 {
                return k;
            }
        }
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`, via inverse-CDF
    /// over precomputable weights. O(n) per call is acceptable at the sizes
    /// we use; workloads that need many draws should use [`ZipfTable`].
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        ZipfTable::new(n, s).sample(self)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below_usize(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (reservoir when k < n,
    /// everything when k >= n). Returned order is unspecified.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below_usize(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Random 32-byte array (e.g. for content payloads and salts).
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// Random byte vector of the given length.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
        out
    }
}

/// [`SimRng::chance`] for one fixed `p`, with the float work done once: for
/// loops that make the same Bernoulli draw millions of times.
///
/// Draw-for-draw identical to `chance(p)`. `chance` compares [`SimRng::f64`]
/// with `p`, and `f64()` is the integer `u = next_u64() >> 11` times 2⁻⁵³.
/// That product is exact (`u < 2⁵³`), and so is `p · 2⁵³` for `0 < p < 1`
/// (scaling by a power of two, no overflow, and a subnormal `p` only gains
/// range), so `u · 2⁻⁵³ < p` ⇔ `u < p · 2⁵³` ⇔ `u < ⌈p · 2⁵³⌉`, `u` being an
/// integer. `p ≤ 0` and `p ≥ 1` draw nothing, as in `chance`; a NaN `p`
/// draws and fails, as in `chance` (`NaN as u64` is 0).
#[derive(Clone, Copy, Debug)]
pub struct Bernoulli(Trial);

#[derive(Clone, Copy, Debug)]
enum Trial {
    /// `p ≤ 0`: false, no draw.
    Never,
    /// `p ≥ 1`: true, no draw.
    Always,
    /// One draw, true when its top 53 bits are below the threshold.
    Below(u64),
}

impl Bernoulli {
    /// The trial `chance(p)` makes.
    pub fn new(p: f64) -> Bernoulli {
        Bernoulli(if p <= 0.0 {
            Trial::Never
        } else if p >= 1.0 {
            Trial::Always
        } else {
            Trial::Below((p * (1u64 << 53) as f64).ceil() as u64)
        })
    }

    /// One trial: what `rng.chance(p)` returns, leaving `rng` where it does.
    #[inline]
    pub fn sample(self, rng: &mut SimRng) -> bool {
        match self.0 {
            Trial::Never => false,
            Trial::Always => true,
            Trial::Below(threshold) => (rng.next_u64() >> 11) < threshold,
        }
    }
}

/// Precomputed Zipf sampler (cumulative weights), for hot loops.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build a table over ranks `[0, n)` with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfTable {
        assert!(n > 0, "zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|w| w.partial_cmp(&u).expect("non-NaN cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_bounds_and_mean() {
        let mut rng = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = SimRng::new(11);
        let mean = 3.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.15, "observed {observed}");
        assert_eq!(rng.exp(0.0), 0.0);
        assert_eq!(rng.exp(-1.0), 0.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn poisson_mean_close() {
        let mut rng = SimRng::new(17);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(4.0)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - 4.0).abs() < 0.1, "observed {observed}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn bernoulli_is_chance_draw_for_draw() {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let mut seeded = SimRng::new(53);
        // Half uniform, half small: thresholds with many bits and with few.
        let seeded_ps: Vec<f64> = (0..2_000)
            .map(|i| match i % 2 {
                0 => seeded.f64(),
                _ => seeded.f64() * seeded.f64().powi(12),
            })
            .collect();
        let ps = [
            SCALE,
            SCALE * 3.0,
            1.0 - (-1.0f64 / 60.0).exp(), // E6's daily failure probability
            0.3,
            0.5,
            1.0 - SCALE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::NAN,
            0.0,
            -0.5,
            1.0,
            1.5,
        ]
        .into_iter()
        .chain(seeded_ps)
        .collect::<Vec<f64>>();
        for (nth, &p) in ps.iter().enumerate() {
            let trial = Bernoulli::new(p);
            // The threshold is `chance`'s float compare, at its edges.
            if let Trial::Below(t) = trial.0 {
                assert!(t <= 1 << 53, "p {p:e}");
                for k in [t.wrapping_sub(1), t, t + 1, 0, (1 << 53) - 1] {
                    if k < 1 << 53 {
                        assert_eq!(k as f64 * SCALE < p, k < t, "p {p:e} k {k}");
                    }
                }
            } else {
                assert!(p <= 0.0 || p >= 1.0, "p {p:e}");
            }
            // And the stream: same answers, same number of draws.
            let mut a = SimRng::new(nth as u64);
            let mut b = a.clone();
            let draws = if nth < 12 { 10_000 } else { 50 };
            for _ in 0..draws {
                assert_eq!(trial.sample(&mut a), b.chance(p), "p {p:e}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p {p:e}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::new(29);
        let picks = rng.sample_indices(50, 10);
        assert_eq!(picks.len(), 10);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
        assert!(picks.iter().all(|&i| i < 50));
        // k >= n returns all of [0, n).
        assert_eq!(rng.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let mut rng = SimRng::new(31);
        let table = ZipfTable::new(100, 1.0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn bytes_lengths() {
        let mut rng = SimRng::new(37);
        assert_eq!(rng.bytes(0).len(), 0);
        assert_eq!(rng.bytes(7).len(), 7);
        assert_eq!(rng.bytes(1024).len(), 1024);
        let b = rng.bytes32();
        assert!(b.iter().any(|&x| x != 0));
    }
}
