//! Lightweight metrics collection for simulation runs.
//!
//! Protocols record counters and sample distributions under string keys; the
//! experiment harness reads them out at the end of a run. Everything is plain
//! in-memory state — deterministic and allocation-cheap.

use std::collections::BTreeMap;
use std::fmt;

/// A sampled distribution with enough retained state for mean/percentiles.
///
/// Samples are kept exactly (simulation runs are bounded); percentile queries
/// sort lazily.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. Non-finite samples are ignored (they would poison
    /// percentile math).
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
            self.sorted = false;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Minimum sample. **On an empty histogram this is the fold identity
    /// `+inf`** — a deliberate sentinel, mirrored by [`Histogram::max`]
    /// returning `-inf`, so `min <= x <= max` filters are vacuously true.
    /// Serialization paths must not emit the sentinel (JSON has no
    /// infinities); use [`Histogram::try_min`] there.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample (`-inf` when empty; see [`Histogram::min`] for the
    /// sentinel rationale). Use [`Histogram::try_max`] when a finite-only
    /// answer is needed.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sample, or `None` when empty — the form serialization and
    /// report code should use so infinite sentinels never leak into
    /// artifacts.
    pub fn try_min(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.min())
        }
    }

    /// Maximum sample, or `None` when empty (see [`Histogram::try_min`]).
    pub fn try_max(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.max())
        }
    }

    /// Standard deviation (population).
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    /// Percentile in `[0, 100]` via nearest-rank. Returns 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        self.samples[rank]
    }

    /// Median (nearest-rank p50).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut h = self.clone();
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            h.count(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0),
            if h.is_empty() { 0.0 } else { h.max() }
        )
    }
}

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac 1985).
///
/// Tracks one quantile in O(1) memory — five markers — so an unbounded
/// stream can report percentiles without retaining every sample the way
/// [`Histogram`] does.
/// Estimates converge to within a few percent on smooth distributions.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    /// The tracked quantile in `(0, 1)`.
    q: f64,
    /// Marker heights (estimated quantile values).
    heights: [f64; 5],
    /// Actual marker positions (1-based sample ranks).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    incr: [f64; 5],
    /// Samples observed so far.
    count: usize,
}

impl P2Quantile {
    /// Track the quantile `q` (clamped to `[0.001, 0.999]`).
    pub fn new(q: f64) -> P2Quantile {
        let q = q.clamp(0.001, 0.999);
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            incr: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Convenience constructors for the common percentiles.
    pub fn p50() -> P2Quantile {
        P2Quantile::new(0.5)
    }

    /// P95 sketch.
    pub fn p95() -> P2Quantile {
        P2Quantile::new(0.95)
    }

    /// P99 sketch.
    pub fn p99() -> P2Quantile {
        P2Quantile::new(0.99)
    }

    /// The tracked quantile in `(0, 1)`.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Samples observed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one observation. Non-finite samples are ignored, mirroring
    /// [`Histogram::record`].
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count] = v;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
            }
            return;
        }
        self.count += 1;

        // Find the marker cell containing v and stretch the extremes.
        let k = if v < self.heights[0] {
            self.heights[0] = v;
            0
        } else if v >= self.heights[4] {
            self.heights[4] = v;
            3
        } else {
            // heights[k] <= v < heights[k + 1]
            (0..4)
                .find(|&i| v < self.heights[i + 1])
                .expect("v is below heights[4]")
        };

        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.incr[i];
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.pos[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `i` moving by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (pm, p, pp) = (self.pos[i - 1], self.pos[i], self.pos[i + 1]);
        h + d / (pp - pm)
            * ((p - pm + d) * (hp - h) / (pp - p) + (pp - p - d) * (h - hm) / (p - pm))
    }

    /// Linear fallback when the parabolic estimate would break monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i] + d * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate. Exact while fewer than five samples have been seen
    /// (nearest-rank over the retained values); 0 when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count >= 5 {
            return self.heights[2];
        }
        let mut kept: Vec<f64> = self.heights[..self.count].to_vec();
        kept.sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
        let rank = (self.q * (kept.len() - 1) as f64).round() as usize;
        kept[rank]
    }
}

/// A pre-resolved counter slot, handed out by [`Metrics::counter_handle`].
///
/// Hot paths (the engine dispatch loop bumps several counters per event)
/// resolve the string key once and then increment through the handle — an
/// array index instead of a `BTreeMap` string lookup per event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Slots in the counter-name memo (a power of two).
const MEMO_SLOTS: usize = 64;

/// Direct-mapped memo from a key's `(address, length)` to its counter slot.
///
/// Call sites pass `&'static str` literals, so the same few addresses come
/// back millions of times; the memo turns those into one slot probe. An
/// address proves nothing about contents — a freed heap string's address
/// can be reused by a different name of the same length — so
/// [`Metrics::counter_handle`] confirms every hit against the registered
/// name and falls back to the map on a mismatch.
#[derive(Clone, Debug)]
struct CounterMemo([(usize, usize, usize); MEMO_SLOTS]);

impl Default for CounterMemo {
    fn default() -> CounterMemo {
        // Length `usize::MAX` matches no `str`.
        CounterMemo([(0, usize::MAX, 0); MEMO_SLOTS])
    }
}

impl CounterMemo {
    fn slot(key: &str) -> usize {
        let addr = key.as_ptr() as usize as u64;
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }
}

/// Registry of named counters, gauges and histograms for one simulation run.
///
/// Counters are stored as a dense value vector indexed by a `BTreeMap` of
/// names, so handle-based increments are O(1). A counter only becomes
/// *visible* (in [`Metrics::counters`] and therefore in serialized
/// artifacts) once it has actually been incremented — registering a handle
/// alone must not change any artifact bytes.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counter_ix: BTreeMap<String, usize>,
    /// Registered names by slot (what a memo hit is confirmed against).
    counter_names: Vec<String>,
    counter_memo: CounterMemo,
    counter_vals: Vec<u64>,
    counter_touched: Vec<bool>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Resolve (registering if needed) the slot for a counter name. The
    /// counter stays invisible until first incremented.
    pub fn counter_handle(&mut self, key: &str) -> CounterHandle {
        let slot = CounterMemo::slot(key);
        let (addr, len, ix) = self.counter_memo.0[slot];
        if addr == key.as_ptr() as usize && len == key.len() && self.counter_names[ix] == key {
            return CounterHandle(ix);
        }
        let ix = match self.counter_ix.get(key) {
            Some(&ix) => ix,
            None => {
                let ix = self.counter_vals.len();
                self.counter_ix.insert(key.to_owned(), ix);
                self.counter_names.push(key.to_owned());
                self.counter_vals.push(0);
                self.counter_touched.push(false);
                ix
            }
        };
        self.counter_memo.0[slot] = (key.as_ptr() as usize, key.len(), ix);
        CounterHandle(ix)
    }

    /// Add `n` to a counter through its pre-resolved handle (hot-path form
    /// of [`Metrics::incr`]).
    #[inline]
    pub fn incr_handle(&mut self, h: CounterHandle, n: u64) {
        self.counter_vals[h.0] += n;
        self.counter_touched[h.0] = true;
    }

    /// Add `n` to a counter, creating it at zero if absent.
    pub fn incr(&mut self, key: &str, n: u64) {
        let h = self.counter_handle(key);
        self.incr_handle(h, n);
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counter_ix
            .get(key)
            .map(|&ix| self.counter_vals[ix])
            .unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn gauge_set(&mut self, key: &str, v: f64) {
        self.gauges.insert(key.to_owned(), v);
    }

    /// Read a gauge (0.0 if never written).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Record a sample into a named histogram.
    pub fn sample(&mut self, key: &str, v: f64) {
        // One walk for a known histogram; the key is only allocated the
        // first time it is seen.
        match self.histograms.get_mut(key) {
            Some(h) => h.record(v),
            None => self.histogram_mut(key).record(v),
        }
    }

    /// Borrow a histogram mutably (created empty if absent) — for percentile
    /// queries, which need to sort.
    pub fn histogram_mut(&mut self, key: &str) -> &mut Histogram {
        if !self.histograms.contains_key(key) {
            self.histograms.insert(key.to_owned(), Histogram::new());
        }
        self.histograms
            .get_mut(key)
            .expect("present or just inserted")
    }

    /// Borrow a histogram if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterate counters in key order. Only counters that have actually been
    /// incremented appear (handle registration alone is invisible).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ix
            .iter()
            .filter(|(_, &ix)| self.counter_touched[ix])
            .map(|(k, &ix)| (k.as_str(), self.counter_vals[ix]))
    }

    /// Snapshot all touched counters as owned `(key, value)` pairs in key
    /// order — the form probe-frame consumers keep across sampling
    /// boundaries to compute per-interval deltas without borrowing the
    /// registry. Visibility matches [`Metrics::counters`]: registered but
    /// never-incremented counters are absent.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histogram keys in order.
    pub fn histogram_keys(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.counters() {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "gauge   {k} = {v:.4}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(f, "hist    {k}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 3);
        m.incr("x", 4);
        assert_eq!(m.counter("x"), 7);
    }

    #[test]
    fn counter_handles_alias_string_keys() {
        let mut m = Metrics::new();
        let h = m.counter_handle("net.sent");
        m.incr_handle(h, 2);
        m.incr("net.sent", 3);
        assert_eq!(m.counter("net.sent"), 5);
        assert_eq!(m.counter_handle("net.sent"), h, "handles are stable");
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(listed, vec![("net.sent", 5)]);
    }

    #[test]
    fn registered_but_untouched_counters_stay_invisible() {
        // The engine pre-registers hot counters; artifacts must not grow
        // zero-valued keys for paths that never fired.
        let mut m = Metrics::new();
        let h = m.counter_handle("net.lost");
        assert_eq!(m.counter("net.lost"), 0);
        assert_eq!(m.counters().count(), 0, "registration alone is invisible");
        assert_eq!(format!("{m}"), "");
        // An explicit zero increment makes it visible, matching the old
        // BTreeMap entry-API semantics of `incr(key, 0)`.
        m.incr_handle(h, 0);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("net.lost", 0)]);
    }

    #[test]
    fn memo_never_aliases_two_names_at_one_address() {
        // One heap buffer, rewritten in place: same address, same length,
        // different name. The second must get its own counter.
        let mut m = Metrics::new();
        let mut key = String::from("dht.alpha");
        let at = key.as_ptr();
        m.incr(&key, 1);
        m.incr(&key, 1);
        key.clear();
        key.push_str("dht.gamma");
        assert_eq!(key.as_ptr(), at, "the buffer was reused in place");
        m.incr(&key, 5);
        assert_eq!(m.counter("dht.alpha"), 2);
        assert_eq!(m.counter("dht.gamma"), 5);
        // And back again: the memo now holds the second name.
        key.clear();
        key.push_str("dht.alpha");
        m.incr(&key, 1);
        assert_eq!(m.counter("dht.alpha"), 3);
    }

    #[test]
    fn memo_leaves_counter_order_and_visibility_alone() {
        // More names than memo slots, so slots are evicted and refilled;
        // every name is bumped through a literal-like stable address twice
        // (a miss, then a hit) and once through a fresh heap copy.
        let names: Vec<String> = (0..3 * MEMO_SLOTS).map(|i| format!("c.{i:03}")).collect();
        let mut m = Metrics::new();
        let untouched = m.counter_handle("c.untouched");
        for round in 0..2 {
            for (i, name) in names.iter().enumerate().rev() {
                m.incr(name, i as u64 + round);
            }
        }
        for name in &names {
            m.incr(&name.clone(), 1);
        }
        assert_eq!(m.counter_handle("c.untouched"), untouched);
        let listed: Vec<(String, u64)> = m.snapshot();
        let want: Vec<(String, u64)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), 2 * i as u64 + 2))
            .collect();
        assert_eq!(listed, want, "key order, no phantom entries");
    }

    #[test]
    fn sampling_a_known_histogram_keeps_one_entry() {
        let mut m = Metrics::new();
        m.sample("h", 1.0);
        m.sample("h", 2.0);
        m.histogram_mut("h").record(3.0);
        assert_eq!(m.histogram_keys().collect::<Vec<_>>(), vec!["h"]);
        assert_eq!(m.histogram("h").unwrap().count(), 3);
        assert!(m.histogram_mut("fresh").is_empty());
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.gauge_set("load", 0.5);
        m.gauge_set("load", 0.9);
        assert_eq!(m.gauge("load"), 0.9);
        assert_eq!(m.gauge("missing"), 0.0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 5.0);
        assert!((h.std_dev() - std::f64::consts::SQRT_2).abs() < 0.001);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    fn percentile_after_interleaved_records() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.percentile(100.0), 5.0);
        h.record(1.0); // must re-sort
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 5.0);
    }

    #[test]
    fn histogram_single_sample_every_percentile() {
        let mut h = Histogram::new();
        h.record(7.5);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 7.5, "p={p}");
        }
        assert_eq!(h.median(), 7.5);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    fn histogram_percentile_clamps_out_of_range() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(-5.0), 1.0);
        assert_eq!(h.percentile(250.0), 3.0);
    }

    #[test]
    fn histogram_clone_preserves_lazy_sort_state() {
        let mut h = Histogram::new();
        h.record(3.0);
        h.record(1.0);
        // Sort via a percentile query, then clone: the clone must answer
        // correctly with no further mutation...
        assert_eq!(h.percentile(0.0), 1.0);
        let mut sorted_clone = h.clone();
        assert_eq!(sorted_clone.percentile(100.0), 3.0);
        // ...and a clone taken *before* sorting must re-sort on demand.
        let mut fresh = Histogram::new();
        fresh.record(9.0);
        fresh.record(2.0);
        let mut unsorted_clone = fresh.clone();
        assert_eq!(unsorted_clone.percentile(0.0), 2.0);
        // Recording into a sorted clone clears the flag again.
        sorted_clone.record(0.5);
        assert_eq!(sorted_clone.percentile(0.0), 0.5);
    }

    #[test]
    fn histogram_min_max_empty_are_infinite_sentinels() {
        let h = Histogram::new();
        assert_eq!(h.min(), f64::INFINITY);
        assert_eq!(h.max(), f64::NEG_INFINITY);
        // The checked forms refuse to surface the sentinels.
        assert_eq!(h.try_min(), None);
        assert_eq!(h.try_max(), None);
    }

    #[test]
    fn histogram_try_min_max_match_min_max_when_nonempty() {
        let mut h = Histogram::new();
        h.record(4.0);
        h.record(-2.0);
        assert_eq!(h.try_min(), Some(-2.0));
        assert_eq!(h.try_max(), Some(4.0));
        assert_eq!(h.try_min(), Some(h.min()));
        assert_eq!(h.try_max(), Some(h.max()));
    }

    #[test]
    fn histogram_single_sample_min_equals_max() {
        let mut h = Histogram::new();
        h.record(7.0);
        assert_eq!(h.try_min(), Some(7.0));
        assert_eq!(h.try_max(), Some(7.0));
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn histogram_all_non_finite_behaves_as_empty() {
        // Non-finite samples are rejected at `record`, so the sentinel
        // contract can't be spoofed from inside.
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.try_min(), None);
        assert_eq!(h.min(), f64::INFINITY);
    }

    #[test]
    fn p2_empty_and_small_counts_are_exact() {
        let mut sketch = P2Quantile::p50();
        assert_eq!(sketch.value(), 0.0);
        assert_eq!(sketch.count(), 0);
        sketch.record(10.0);
        assert_eq!(sketch.value(), 10.0);
        sketch.record(20.0);
        sketch.record(0.0);
        // Three samples: nearest-rank median of {0, 10, 20}.
        assert_eq!(sketch.value(), 10.0);
    }

    #[test]
    fn p2_ignores_non_finite() {
        let mut sketch = P2Quantile::p50();
        sketch.record(f64::NAN);
        sketch.record(f64::INFINITY);
        assert_eq!(sketch.count(), 0);
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut rng = crate::SimRng::new(71);
        let mut sketch = P2Quantile::p50();
        let mut exact = Histogram::new();
        for _ in 0..50_000 {
            let v = rng.f64();
            sketch.record(v);
            exact.record(v);
        }
        let got = sketch.value();
        let want = exact.percentile(50.0);
        assert!((got - want).abs() < 0.01, "p50 {got} vs exact {want}");
    }

    #[test]
    fn p2_tail_of_exponential_stream() {
        let mut rng = crate::SimRng::new(73);
        let mut sketch = P2Quantile::p99();
        let mut exact = Histogram::new();
        for _ in 0..50_000 {
            let v = rng.exp(2.0);
            sketch.record(v);
            exact.record(v);
        }
        let got = sketch.value();
        let want = exact.percentile(99.0);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.05, "p99 {got} vs exact {want} (rel {rel})");
    }

    #[test]
    fn p2_p95_of_normal_stream() {
        let mut rng = crate::SimRng::new(79);
        let mut sketch = P2Quantile::p95();
        let mut exact = Histogram::new();
        for _ in 0..50_000 {
            let v = rng.normal(100.0, 15.0);
            sketch.record(v);
            exact.record(v);
        }
        let got = sketch.value();
        let want = exact.percentile(95.0);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.02, "p95 {got} vs exact {want} (rel {rel})");
    }

    #[test]
    fn p2_constant_stream_is_exact() {
        let mut sketch = P2Quantile::new(0.9);
        for _ in 0..1000 {
            sketch.record(4.25);
        }
        assert_eq!(sketch.value(), 4.25);
    }
}
