//! Wall-clock spans the benchmark records around its calls into the
//! program: workload -> set-up | pass -> op. Kept in memory and written to
//! `benchmark/out/trace_<workload>.jsonl` when a traced run ends.
//!
//! A *measured* span also carries the slowdown of the reference kernel
//! (`reference.rs`) sampled right before and right after it; every time
//! the benchmark reports is a measured span's `ref_secs`.

use std::fmt::Write as _;
use std::time::Instant;

use crate::reference;

/// Name of the spans that time the reference kernel itself.
const REFERENCE: &str = "reference";
/// A kernel sample this fresh also serves as the next span's "before".
const SAMPLE_FRESH_SECS: f64 = 0.002;

/// One closed (or still open) span. Times are seconds since process start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Spans of one set-up or one pass share a run id.
    pub run: u32,
    /// Measured spans: mean reference-kernel time either side of the
    /// span over the kernel's quiet time.
    pub slowdown: Option<f64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    /// The latest reference sample: when it ended and what it read.
    sample: Option<(f64, f64)>,
}

impl Spans {
    /// `origin` is process start: every span time counts from it.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            sample: None,
        }
    }

    /// Seconds since process start.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Start a new run: spans opened from now on carry the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Time `f` as a child of the innermost open span; returns the span's
    /// index along with `f`'s result.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (usize, R) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
            slowdown: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (id, out)
    }

    /// Time the reference kernel as a span of its own; the slowdown it
    /// read.
    fn sample(&mut self) -> f64 {
        let (_, secs) = self.time(REFERENCE, |_| reference::kernel_secs());
        let slowdown = secs / reference::QUIET_SECS;
        self.sample = Some((self.now(), slowdown));
        slowdown
    }

    /// [`Spans::time`], with the reference kernel sampled before and after
    /// `f`. Back-to-back measured spans share the sample between them.
    pub fn measure<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (usize, R) {
        let before = match self.sample {
            Some((at, slowdown)) if self.now() - at < SAMPLE_FRESH_SECS => slowdown,
            _ => self.sample(),
        };
        let (id, out) = self.time(name, f);
        let after = self.sample();
        self.spans[id].slowdown = Some((before + after) / 2.0);
        (id, out)
    }

    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].secs()
    }

    /// A measured span's time on the quiet reference host: its wall time
    /// over the reference kernel's slowdown beside it.
    pub fn ref_secs(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        span.secs()
            / span
                .slowdown
                .unwrap_or_else(|| panic!("{} was not measured", span.name))
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Reference seconds of every measured span named `name`.
    pub fn named_ref_secs(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.ref_secs(id))
            .collect()
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            // Span names are the benchmark's own identifiers: no escaping
            // is needed beyond what `{:?}` gives a plain ASCII string.
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":{:?},\
                 \"start_s\":{:.6},\"end_s\":{:.6},\"self_s\":{:.6},\"slowdown\":{}}}",
                s.run,
                s.name,
                s.start,
                s.end,
                self.self_secs(id),
                s.slowdown.map_or("null".to_owned(), |x| format!("{x:.4}")),
            )
            .expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut spans = Spans::new(Instant::now());
        spans.next_run();
        let (outer, (a, b)) = spans.time("pass", |s| {
            let (a, ()) = s.time("op", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let (b, ()) = s.time("op", |_| ());
            (a, b)
        });
        assert_eq!(spans.spans[a].parent, Some(outer));
        assert_eq!(spans.spans[b].parent, Some(outer));
        assert_eq!(spans.spans[outer].parent, None);
        assert_eq!(spans.spans[a].run, 1);
        assert!(spans.secs(a) >= 0.005);
        let self_secs = spans.self_secs(outer);
        assert!(self_secs >= 0.0 && self_secs < spans.secs(outer));
    }

    #[test]
    fn measured_spans_carry_the_slowdown_beside_them() {
        let mut spans = Spans::new(Instant::now());
        let (a, ()) = spans.measure("op", |_| ());
        let (b, ()) = spans.measure("op", |_| ());
        let (plain, ()) = spans.time("pass", |_| ());
        // Back-to-back spans share the sample between them: three kernel
        // runs for two spans (four if the thread was descheduled between).
        let samples = spans.spans.iter().filter(|s| s.name == REFERENCE).count();
        assert!((3..=4).contains(&samples), "{samples}");
        for id in [a, b] {
            let slowdown = spans.spans[id].slowdown.expect("measured");
            assert!(slowdown > 0.0);
            assert_eq!(spans.ref_secs(id), spans.secs(id) / slowdown);
        }
        assert_eq!(spans.spans[plain].slowdown, None);
        assert_eq!(spans.named_ref_secs("op").len(), 2);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut spans = Spans::new(Instant::now());
        spans.time("workload", |s| s.measure("e3/f0.20", |_| ()));
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // The workload, a kernel run either side of the op, and the op.
        assert_eq!(lines.len(), 4);
        for line in lines {
            let v = agora_harness::Json::parse(line).expect("valid JSON");
            assert!(v.get("name").is_some() && v.get("self_s").is_some());
            assert!(v.get("slowdown").is_some());
        }
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
        assert!(text.contains("\"slowdown\":null"));
    }
}
