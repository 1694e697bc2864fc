//! Deterministic pseudo-random number generation.
//!
//! The simulator must be fully reproducible: the same seed must produce the
//! same event sequence on every platform. We therefore implement
//! xoshiro256\*\* (Blackman & Vigna) in-repo rather than depending on an
//! external RNG crate whose stream might change between versions.
//!
//! This RNG is **not** cryptographically secure; it is a simulation substrate.

use std::sync::OnceLock;

use crate::time::SimDuration;

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

    /// Normal with the given mean and standard deviation: `mean + std_dev·z`,
    /// `z` a standard normal from two draws by Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// `scale_secs` times a log-normal factor `exp(mu + sigma·z)`, as a
    /// [`SimDuration`]: the heavy-tailed latencies and session lengths of
    /// consumer devices. Exactly `SimDuration::from_secs_f64(scale_secs *
    /// (mu + sigma * z).exp())` with `z` the Box–Muller value [`normal`]
    /// computes from the same two draws, but almost never through libm's
    /// `cos` or `round` (DESIGN.md §10, *Log-normal delays*).
    ///
    /// [`normal`]: SimRng::normal
    pub fn log_normal_duration(&mut self, scale_secs: f64, mu: f64, sigma: f64) -> SimDuration {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        log_normal_duration_of(u1, u2, scale_secs, mu, sigma)
    }

    /// Pareto-distributed value with scale `x_min` and shape `alpha`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Poisson-distributed count with the given mean (Knuth's algorithm;
    /// fine for the small means the simulator uses). A loop drawing many
    /// counts at one mean builds its [`Poisson`] once.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        Poisson::new(mean).sample(self)
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

/// How close to a rounding tie, relative to `x`, the fast path of
/// [`log_normal_duration_of`] may land before the libm chain decides.
const TIE_MARGIN: f64 = 1e-12;

/// 1.5·2⁵². For `0 ≤ v < 2⁵¹`, `v + SHIFTER` is exactly `SHIFTER` plus `v`
/// rounded to the nearest integer (ties to even), which its low bits hold.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// [`SimRng::log_normal_duration`] from its two uniforms: `u1` in `(0, 1]`,
/// `u2` in `[0, 1)`.
///
/// The libm chain is `x = scale·exp(mu + sigma·r·cos(fl(2π·u2)))·10⁶`
/// rounded half away from zero, `r = √(−2 ln u1) ≤ 8.6`. The fast path
/// computes the same `x` with [`cos_2pi`] for the cosine, which is within
/// 1.5·10⁻¹⁵ of libm's (libm's own ulp and its rounded argument included).
/// For `|sigma| ≤ 1` that moves `x` by at most ≈2·10⁻¹⁴·x, plus one ulp of
/// `mu + sigma·z` (≤ 1.2·10⁻¹³ wherever `exp` is finite), so when `x` is
/// more than `TIE_MARGIN·x` from a half-integer both round to the same
/// integer and the fast path rounds itself. Otherwise — near a tie,
/// `|sigma| > 1` or NaN, `x` not in `[0, 2⁵¹)` — the libm chain runs.
fn log_normal_duration_of(u1: f64, u2: f64, scale_secs: f64, mu: f64, sigma: f64) -> SimDuration {
    let r = (-2.0 * u1.ln()).sqrt();
    if sigma.abs() <= 1.0 {
        let x = scale_secs * (mu + sigma * (r * cos_2pi(u2))).exp() * 1_000_000.0;
        if (0.0..2_251_799_813_685_248.0).contains(&x) {
            let nearest = x + SHIFTER;
            // Exact: `x` and the integer nearest it are within ½.
            let off = x - (nearest - SHIFTER);
            if 0.5 - off.abs() > TIE_MARGIN * x {
                return SimDuration::from_micros(nearest.to_bits() - SHIFTER.to_bits());
            }
        }
    }
    let z = r * (2.0 * std::f64::consts::PI * u2).cos();
    SimDuration::from_secs_f64(scale_secs * (mu + sigma * z).exp())
}

/// `(cos, sin)` of `2πj/256` for `j` in `0..256`, built once. Each entry
/// comes from libm at an angle of at most π/4, where the angle's own
/// rounding is below 1.2·10⁻¹⁶, and is moved to its octant by the exact
/// symmetries (a swap, a sign).
#[inline]
fn turn_table() -> &'static [(f64, f64); 256] {
    static TABLE: OnceLock<[(f64, f64); 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let first_octant: [(f64, f64); 33] = std::array::from_fn(|j| {
            let a = std::f64::consts::TAU * j as f64 / 256.0;
            (a.cos(), a.sin())
        });
        std::array::from_fn(|j| {
            let r = j % 64;
            let (c, s) = if r <= 32 {
                first_octant[r]
            } else {
                let (c, s) = first_octant[64 - r];
                (s, c)
            };
            match j / 64 {
                0 => (c, s),
                1 => (-s, c),
                2 => (-c, -s),
                _ => (s, -c),
            }
        })
    })
}

/// `cos(2π·u)` for `u` in `[0, 1)`, from [`turn_table`]. With `k` the
/// nearest of the 256 table angles (in turns, `256·u` rounded) and `d =
/// 2π·(u − k/256)`, `|d| ≤ π/256`, it is `cos(2πk/256) − (cos(2πk/256)·(1 −
/// cos d) + sin(2πk/256)·sin d)`: `1 − cos d` and `sin d` by Taylor series
/// to `d⁶` and `d⁵` (truncation < 10⁻¹⁷). The correction is below 0.013,
/// so its rounding error is ≈ 10⁻¹⁸ and the result is the table entry's
/// accuracy plus half an ulp. `256·u − k` is exact: both are multiples of
/// 2⁻⁴⁵ and within ½ of each other.
#[inline]
fn cos_2pi(u: f64) -> f64 {
    let turns = 256.0 * u;
    let k = turns + SHIFTER;
    let d = (turns - (k - SHIFTER)) * (std::f64::consts::TAU / 256.0);
    let d2 = d * d;
    let vers_d = d2 * 0.5 - d2 * d2 * (1.0 / 24.0 - d2 * (1.0 / 720.0));
    let sin_d = d - d * d2 * (1.0 / 6.0 - d2 * (1.0 / 120.0));
    let (c, s) = turn_table()[k.to_bits() as usize & 255];
    c - (c * vers_d + s * sin_d)
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

/// [`SimRng::poisson`] for one fixed mean, with `exp(-mean)` computed once:
/// for loops that draw many counts at the same mean. It is the only Knuth
/// loop, so it is draw-for-draw `poisson(mean)`. `mean ≤ 0` draws nothing
/// and counts 0; a NaN mean runs to the guard, as `poisson` always has.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    /// `exp(-mean)`; `None` for `mean ≤ 0`.
    limit: Option<f64>,
}

impl Poisson {
    /// The sampler `poisson(mean)` uses.
    pub fn new(mean: f64) -> Poisson {
        Poisson {
            limit: if mean <= 0.0 {
                None
            } else {
                Some((-mean).exp())
            },
        }
    }

    /// One count: multiply uniforms until the product falls to `exp(-mean)`.
    pub fn sample(self, rng: &mut SimRng) -> u64 {
        let Some(limit) = self.limit else {
            return 0;
        };
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64();
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
    fn poisson_is_poisson_draw_for_draw() {
        // The Knuth loop as `SimRng::poisson` wrote it out before the
        // threshold moved into `Poisson`: `exp(-mean)` on every call.
        fn knuth(rng: &mut SimRng, mean: f64) -> u64 {
            if mean <= 0.0 {
                return 0;
            }
            let limit = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64();
                if p <= limit {
                    return k;
                }
                k += 1;
                if k > 10_000_000 {
                    return k;
                }
            }
        }
        let mut seeded = SimRng::new(59);
        let means = [0.0, -0.0, -3.0, 1e-300, 1e-9, 0.37, 4.0, 63.999, 64.0, 1e6]
            .into_iter()
            .chain((0..200).map(|_| seeded.f64() * 80.0));
        for (nth, mean) in means.enumerate() {
            let sampler = Poisson::new(mean);
            let mut a = SimRng::new(nth as u64);
            let mut b = a.clone();
            let mut c = a.clone();
            let draws = if nth < 10 { 2_000 } else { 50 };
            for _ in 0..draws {
                let want = knuth(&mut b, mean);
                assert_eq!(sampler.sample(&mut a), want, "mean {mean:e}");
                assert_eq!(c.poisson(mean), want, "mean {mean:e}");
            }
            let next = b.next_u64();
            assert_eq!(a.next_u64(), next, "mean {mean:e}");
            assert_eq!(c.next_u64(), next, "mean {mean:e}");
        }
    }

    /// The chain [`SimRng::log_normal_duration`] replaced, on the same two
    /// uniforms: Box–Muller as `normal` writes it, `exp`, `from_secs_f64`.
    fn libm_chain(u1: f64, u2: f64, scale_secs: f64, mu: f64, sigma: f64) -> SimDuration {
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        SimDuration::from_secs_f64(scale_secs * (mu + sigma * z).exp())
    }

    /// The grid [`SimRng::f64`] draws from.
    const STEP: f64 = 1.0 / (1u64 << 53) as f64;

    /// `u2` at every kind of table edge: `k/256` (an entry's own angle) and
    /// `(k ± ½)/256` (where the nearest entry changes), each ± one draw step,
    /// and the ends of `[0, 1)`.
    fn edge_u2s() -> Vec<f64> {
        let mut u2s = vec![0.0, STEP, 0.25, 0.5, 1.0 - STEP];
        for k in [
            1u32, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191, 192, 255,
        ] {
            for at in [k as f64 - 0.5, k as f64, k as f64 + 0.5] {
                let u = at / 256.0;
                u2s.extend([u - STEP, u, u + STEP]);
            }
        }
        u2s
    }

    #[test]
    fn log_normal_duration_is_the_libm_chain_at_its_edges() {
        let mut seeded = SimRng::new(61);
        // Draw 0 (`u1 = 1`, `r = 0`) and the largest `r` (`u1 = 2⁻⁵³`).
        let u1s = [
            1.0,
            STEP,
            0.5,
            1.0 - STEP,
            1.0 - seeded.f64(),
            1.0 - seeded.f64(),
        ];
        let params = [
            // (scale_secs, mu, sigma): the four device profiles' jitter and
            // E16's sessions.
            (0.0005, 0.0, 0.1),
            (0.02, 0.0, 0.5),
            (0.06, 0.0, 0.8),
            (0.04, 0.0, 0.7),
            (1.0, 300f64.ln(), 1.0),
            // σ ≤ 0.
            (0.02, 0.0, 0.0),
            (0.02, 0.0, -0.0),
            (0.02, 0.0, -0.5),
            (0.02, 1.0, -1.0),
            // Outside the error budget: straight to libm.
            (0.02, 0.0, 1.5),
            (0.02, 0.0, f64::NAN),
            (0.02, f64::NAN, 0.5),
            // Not a finite positive duration.
            (f64::INFINITY, 0.0, 0.5),
            (f64::NEG_INFINITY, 0.0, 0.5),
            (f64::NAN, 0.0, 0.5),
            (0.0, 0.0, 0.5),
            (-1.0, 0.0, 0.5),
            // x beyond the shifter's 2⁵¹ and beyond 2⁵², and straddling
            // each.
            (1e10, 0.0, 0.5),
            (2.25e9, 0.0, 0.1),
            (4.5e9, 0.0, 0.1),
            // `mu` at the ends of `exp`'s range.
            (1e-300, 700.0, 1.0),
            (1e300, -700.0, 1.0),
            (1.0, 800.0, 1.0),
            (1.0, -800.0, 1.0),
        ];
        for &u1 in &u1s {
            for &u2 in &edge_u2s() {
                for &(scale, mu, sigma) in &params {
                    assert_eq!(
                        log_normal_duration_of(u1, u2, scale, mu, sigma),
                        libm_chain(u1, u2, scale, mu, sigma),
                        "u1 {u1:e} u2 {u2:e} scale {scale:e} mu {mu} sigma {sigma}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_near_tie_the_kernel_alone_would_round_otherwise_goes_to_libm() {
        // Where the kernel's cosine moves `exp(z)` by an ulp, step `scale`
        // across the scale that puts x on the tie 1000.5 µs: somewhere there
        // the two chains round apart, and only the filter keeps the result
        // libm's.
        let mut rng = SimRng::new(67);
        let mut apart = 0;
        for _ in 0..2_000 {
            let u1 = 1.0 - rng.f64();
            let u2 = rng.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let e_libm = (r * (std::f64::consts::TAU * u2).cos()).exp();
            let e_kernel = (r * cos_2pi(u2)).exp();
            if e_libm == e_kernel {
                continue;
            }
            let mut scale = 1000.5e-6 / e_libm;
            for _ in 0..8 {
                scale = scale.next_down();
            }
            for _ in 0..16 {
                let want = libm_chain(u1, u2, scale, 0.0, 1.0);
                apart += usize::from(SimDuration::from_secs_f64(scale * e_kernel) != want);
                assert_eq!(
                    log_normal_duration_of(u1, u2, scale, 0.0, 1.0),
                    want,
                    "u1 {u1:e} u2 {u2:e} scale {scale:e}"
                );
                scale = scale.next_up();
            }
        }
        assert!(apart > 0, "no near tie where the kernel alone rounds apart");
    }

    #[test]
    fn cos_2pi_is_libm_within_the_error_budget() {
        let mut rng = SimRng::new(71);
        let u2s = edge_u2s()
            .into_iter()
            .chain((0..200_000).map(|_| rng.f64()));
        for u in u2s {
            let libm = (std::f64::consts::TAU * u).cos();
            let err = (cos_2pi(u) - libm).abs();
            assert!(err <= 1.5e-15, "u {u:e}: {err:e}");
        }
    }

    #[test]
    fn turn_table_is_libm_within_two_ulp() {
        fn ulp(v: f64) -> f64 {
            v.abs().next_up() - v.abs()
        }
        for (j, &(c, s)) in turn_table().iter().enumerate() {
            // libm's argument is itself off the true angle by up to half
            // its ulp plus fl(2π)'s error of 2.45·10⁻¹⁶, scaled by j/256.
            let a = std::f64::consts::TAU * j as f64 / 256.0;
            let slack = ulp(a) / 2.0 + 2.45e-16 * j as f64 / 256.0;
            let (want_c, want_s) = (a.cos(), a.sin());
            assert!(
                (c - want_c).abs() <= 2.0 * ulp(want_c) + slack,
                "cos j {j}: {c:e} vs {want_c:e}"
            );
            assert!(
                (s - want_s).abs() <= 2.0 * ulp(want_s) + slack,
                "sin j {j}: {s:e} vs {want_s:e}"
            );
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
