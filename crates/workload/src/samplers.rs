//! Deterministic samplers for population-scale demand.
//!
//! Everything here draws from a caller-supplied [`SimRng`] stream and is a
//! pure function of that stream, so workload generation inherits the
//! simulator's reproducibility contract: same seed, same demand, on every
//! platform and at every harness thread count.

use agora_sim::{SimDuration, SimRng};

/// Walker/Vose alias table: O(n) to build, O(1) per draw from an arbitrary
/// discrete distribution. This is the hot-loop replacement for
/// [`ZipfTable`](agora_sim::ZipfTable)'s O(log n) inverse-CDF binary
/// search; every `WorkloadSpec::compile` draws its ranks through it, so the
/// benchmark's `workload.compile_*` metrics time it.
///
/// Construction is deterministic: the small/large worklists are filled in
/// index order and consumed LIFO, so the same weights always produce the
/// same table.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build a table over `weights` (need not be normalized). Panics on an
    /// empty, non-finite, or non-positive-total weight vector.
    pub fn new(weights: &[f64]) -> AliasTable {
        let n = weights.len();
        assert!(n > 0, "alias table over empty domain");
        assert!(n <= u32::MAX as usize, "alias table too large");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "alias table needs a positive finite total weight"
        );
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            assert!(p >= 0.0, "negative weight at rank {i}");
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Float residue: whatever is left in either list rounds to prob 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true: construction panics on 0).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome: exactly two RNG draws, no search.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.below_usize(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Zipf(α) popularity over ranks `[0, n)` with O(1) draws via an alias
/// table. Rank 0 is the most popular object.
#[derive(Clone, Debug)]
pub struct ZipfAlias {
    table: AliasTable,
    alpha: f64,
}

impl ZipfAlias {
    /// Build over `n` ranks with exponent `alpha`.
    pub fn new(n: usize, alpha: f64) -> ZipfAlias {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
        ZipfAlias {
            table: AliasTable::new(&weights),
            alpha,
        }
    }

    /// The configured exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.table.len()
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.table.sample(rng)
    }
}

/// Log-normal session durations, parameterized by the median (the
/// log-space mean is `ln(median)`) and the log-space σ. Heavy right tail:
/// most sessions are short, a few run for hours — the shape measured for
/// consumer devices in the IPFS / Gnutella availability literature.
#[derive(Clone, Copy, Debug)]
pub struct LogNormalSessions {
    mu: f64,
    sigma: f64,
}

impl LogNormalSessions {
    /// Construct from the median session length in seconds and log-space σ.
    pub fn new(median_secs: f64, sigma: f64) -> LogNormalSessions {
        assert!(median_secs > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormalSessions {
            mu: median_secs.ln(),
            sigma,
        }
    }

    /// The distribution mean in seconds: `exp(μ + σ²/2)`.
    pub fn mean_secs(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Draw one session duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.log_normal(self.mu, self.sigma))
    }
}

/// Bounded Pareto object sizes in bytes: power-law body with shape `alpha`
/// truncated to `[lo, hi]`, via the closed-form inverse CDF
/// `x = L · (1 − u(1 − (L/H)^α))^(−1/α)`. The truncation keeps single
/// draws from dwarfing the simulated day while preserving the heavy tail
/// that concentrates bytes on a few objects.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Construct with bounds `lo < hi` (bytes) and shape `alpha > 0`.
    pub fn new(lo: u64, hi: u64, alpha: f64) -> BoundedPareto {
        assert!(lo > 0 && lo < hi, "need 0 < lo < hi");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto {
            lo: lo as f64,
            hi: hi as f64,
            alpha,
        }
    }

    /// The distribution mean in bytes (closed form).
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.lo, self.hi, self.alpha);
        if (a - 1.0).abs() < 1e-9 {
            // α = 1 limit: L·H/(H−L) · ln(H/L).
            return l * h / (h - l) * (h / l).ln();
        }
        let la = l.powf(a);
        (la / (1.0 - (l / h).powf(a)))
            * (a / (a - 1.0))
            * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
    }

    /// Draw one size in bytes, always within `[lo, hi]`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let ratio = (self.lo / self.hi).powf(self.alpha);
        let x = self.lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / self.alpha);
        x.clamp(self.lo, self.hi) as u64
    }
}

/// Mean above which [`poisson_scaled`] switches from Knuth sampling to the
/// normal approximation.
pub const NORMAL_CUTOVER: f64 = 64.0;

/// Poisson count that stays usable at cohort scale. [`SimRng::poisson`]
/// is Knuth's product-of-uniforms algorithm — O(mean) RNG draws, which at
/// a 10⁴-request tick would consume the stream wholesale. Below
/// [`NORMAL_CUTOVER`] we delegate to it; above, we use the normal
/// approximation N(mean, √mean) rounded and clamped at zero. The switch is
/// exact in the aggregate-demand sense: a Poisson with mean m ≥ 64 is
/// within O(1/√m) total-variation distance of its normal approximation,
/// which is the cohort aggregation error bound documented in DESIGN.md §13.
pub fn poisson_scaled(rng: &mut SimRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < NORMAL_CUTOVER {
        rng.poisson(mean)
    } else {
        rng.normal(mean, mean.sqrt()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_sim::ZipfTable;

    #[test]
    fn alias_matches_weights() {
        let weights = [5.0, 3.0, 1.0, 1.0];
        let table = AliasTable::new(&weights);
        let mut rng = SimRng::new(1);
        let mut counts = [0u64; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let observed = counts[i] as f64 / n as f64;
            let expected = w / total;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {i}: observed {observed:.4} expected {expected:.4}"
            );
        }
    }

    #[test]
    fn alias_is_deterministic() {
        let weights: Vec<f64> = (0..100).map(|i| 1.0 / (i + 1) as f64).collect();
        let t1 = AliasTable::new(&weights);
        let t2 = AliasTable::new(&weights);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(t1.sample(&mut a), t2.sample(&mut b));
        }
    }

    #[test]
    fn alias_single_outcome() {
        let t = AliasTable::new(&[42.0]);
        let mut rng = SimRng::new(3);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn zipf_alias_agrees_with_cdf_reference() {
        // Same distribution, different sampling algorithm: compare observed
        // frequencies from many draws, not draw-for-draw values.
        let n = 50;
        let alpha = 1.0;
        let alias = ZipfAlias::new(n, alpha);
        let cdf = ZipfTable::new(n, alpha);
        let mut ra = SimRng::new(11);
        let mut rc = SimRng::new(12);
        let draws = 200_000;
        let mut ca = vec![0u64; n];
        let mut cc = vec![0u64; n];
        for _ in 0..draws {
            ca[alias.sample(&mut ra)] += 1;
            cc[cdf.sample(&mut rc)] += 1;
        }
        for i in 0..10 {
            let fa = ca[i] as f64 / draws as f64;
            let fc = cc[i] as f64 / draws as f64;
            assert!(
                (fa - fc).abs() < 0.01,
                "rank {i}: alias {fa:.4} vs cdf {fc:.4}"
            );
        }
        assert_eq!(alias.ranks(), n);
        assert_eq!(alias.alpha(), alpha);
    }

    #[test]
    fn sessions_median_and_tail() {
        let s = LogNormalSessions::new(300.0, 1.0);
        let mut rng = SimRng::new(21);
        let mut samples: Vec<f64> = (0..20_000).map(|_| s.sample(&mut rng).secs_f64()).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[samples.len() / 2];
        assert!((median - 300.0).abs() < 20.0, "median {median}");
        // Heavy tail: mean well above median.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean > median * 1.3, "mean {mean} median {median}");
        assert!((s.mean_secs() - 300.0 * (0.5f64).exp()).abs() < 1.0);
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let p = BoundedPareto::new(1_000, 10_000_000, 1.2);
        let mut rng = SimRng::new(31);
        let mut below_10k = 0u64;
        for _ in 0..20_000 {
            let v = p.sample(&mut rng);
            assert!((1_000..=10_000_000).contains(&v), "out of bounds: {v}");
            if v < 10_000 {
                below_10k += 1;
            }
        }
        // Power-law body: most mass near the lower bound.
        assert!(below_10k > 15_000, "only {below_10k} draws below 10 kB");
    }

    #[test]
    fn poisson_scaled_means_track_across_cutover() {
        let mut rng = SimRng::new(41);
        for &mean in &[0.5, 8.0, 63.0, 64.0, 1_000.0, 250_000.0] {
            let n = 2_000;
            let sum: u64 = (0..n).map(|_| poisson_scaled(&mut rng, mean)).sum();
            let observed = sum as f64 / n as f64;
            let tol = (mean / n as f64).sqrt() * 6.0 + 0.05;
            assert!(
                (observed - mean).abs() < tol.max(mean * 0.02),
                "mean {mean}: observed {observed}"
            );
        }
        assert_eq!(poisson_scaled(&mut rng, 0.0), 0);
        assert_eq!(poisson_scaled(&mut rng, -3.0), 0);
    }

    #[test]
    fn poisson_scaled_large_mean_is_cheap() {
        // The whole point of the cutover: a 1M-mean draw must not consume
        // a million RNG draws. Two draws (Box–Muller) is the budget.
        let mut a = SimRng::new(51);
        let mut b = SimRng::new(51);
        let _ = poisson_scaled(&mut a, 1_000_000.0);
        b.next_u64();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64(), "normal path must use 2 draws");
    }
}
