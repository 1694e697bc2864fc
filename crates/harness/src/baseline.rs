//! Baseline snapshots and regression diffs.
//!
//! The harness's JSON artifact is deterministic, so regression detection is
//! a structural diff: walk baseline and current trees together, compare
//! numbers within a relative tolerance, and report added/removed/changed
//! paths. The checked-in snapshot (`BENCH_harness.json`) is the contract a
//! PR must either preserve or consciously update (`--update-baseline`).

use crate::json::Json;

/// The tolerance the harness diffs `BENCH_harness.json` at: the artifact is
/// deterministic, so this only absorbs float formatting.
pub const BASELINE_TOLERANCE: f64 = 1e-9;

/// One difference between baseline and current artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffEntry {
    /// Path exists only in the baseline.
    Removed(String),
    /// Path exists only in the current artifact.
    Added(String),
    /// Numeric value moved beyond tolerance: (path, baseline, current).
    Changed(String, f64, f64),
    /// Non-numeric value differs: (path, baseline, current) rendered.
    Replaced(String, String, String),
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffEntry::Removed(p) => write!(f, "- {p} (removed)"),
            DiffEntry::Added(p) => write!(f, "+ {p} (added)"),
            DiffEntry::Changed(p, b, c) => {
                let rel = if b.abs() > f64::EPSILON {
                    (c - b) / b.abs() * 100.0
                } else {
                    f64::INFINITY
                };
                write!(f, "~ {p}: {b} -> {c} ({rel:+.3}%)")
            }
            DiffEntry::Replaced(p, b, c) => write!(f, "~ {p}: {b} -> {c}"),
        }
    }
}

/// Compare two artifacts. Numbers are equal when
/// `|current - baseline| <= tolerance * max(1, |baseline|)` — relative for
/// large magnitudes, absolute near zero. Everything else must match
/// exactly. Returns an empty vec when the artifacts agree.
pub fn diff_json(baseline: &Json, current: &Json, tolerance: f64) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    walk(baseline, current, "$", tolerance, &mut out);
    out
}

fn walk(b: &Json, c: &Json, path: &str, tol: f64, out: &mut Vec<DiffEntry>) {
    match (b, c) {
        (Json::Num(bv), Json::Num(cv)) => {
            let scale = bv.abs().max(1.0);
            if (cv - bv).abs() > tol * scale {
                out.push(DiffEntry::Changed(path.to_owned(), *bv, *cv));
            }
        }
        (Json::Obj(bp), Json::Obj(cp)) => {
            for (k, bv) in bp {
                match c.get(k) {
                    Some(cv) => walk(bv, cv, &format!("{path}.{k}"), tol, out),
                    None => out.push(DiffEntry::Removed(format!("{path}.{k}"))),
                }
            }
            for (k, _) in cp {
                if b.get(k).is_none() {
                    out.push(DiffEntry::Added(format!("{path}.{k}")));
                }
            }
        }
        (Json::Arr(ba), Json::Arr(ca)) => {
            for (i, (bv, cv)) in ba.iter().zip(ca.iter()).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), tol, out);
            }
            for i in ca.len()..ba.len() {
                out.push(DiffEntry::Removed(format!("{path}[{i}]")));
            }
            for i in ba.len()..ca.len() {
                out.push(DiffEntry::Added(format!("{path}[{i}]")));
            }
        }
        (b, c) if b == c => {}
        (b, c) => out.push(DiffEntry::Replaced(path.to_owned(), compact(b), compact(c))),
    }
}

fn compact(v: &Json) -> String {
    let rendered = v.render();
    let mut s = rendered.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 60 {
        s.truncate(57);
        s.push_str("...");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_obj(pairs: &[(&str, f64)]) -> Json {
        let mut o = Json::obj();
        for (k, v) in pairs {
            o.set(k, Json::Num(*v));
        }
        o
    }

    #[test]
    fn identical_artifacts_diff_empty() {
        let a = num_obj(&[("x", 1.0), ("y", 2.5)]);
        assert!(diff_json(&a, &a.clone(), 1e-9).is_empty());
    }

    #[test]
    fn tolerance_is_relative_for_large_values() {
        let a = num_obj(&[("x", 1_000_000.0)]);
        let b = num_obj(&[("x", 1_000_000.5)]);
        assert!(diff_json(&a, &b, 1e-6).is_empty());
        assert_eq!(diff_json(&a, &b, 1e-9).len(), 1);
    }

    #[test]
    fn tolerance_is_absolute_near_zero() {
        let a = num_obj(&[("x", 0.0)]);
        let b = num_obj(&[("x", 1e-12)]);
        assert!(diff_json(&a, &b, 1e-9).is_empty());
        let c = num_obj(&[("x", 0.5)]);
        assert_eq!(diff_json(&a, &c, 1e-9).len(), 1);
    }

    #[test]
    fn added_and_removed_keys_are_reported() {
        let a = num_obj(&[("gone", 1.0), ("kept", 2.0)]);
        let b = num_obj(&[("kept", 2.0), ("new", 3.0)]);
        let d = diff_json(&a, &b, 1e-9);
        assert!(d.contains(&DiffEntry::Removed("$.gone".to_owned())));
        assert!(d.contains(&DiffEntry::Added("$.new".to_owned())));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn type_changes_are_replacements() {
        let mut a = Json::obj();
        a.set("x", Json::Str("hello".to_owned()));
        let b = num_obj(&[("x", 1.0)]);
        let d = diff_json(&a, &b, 1e-9);
        assert!(matches!(&d[0], DiffEntry::Replaced(p, _, _) if p == "$.x"));
    }

    #[test]
    fn array_length_changes_are_reported() {
        let a = Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]);
        let b = Json::Arr(vec![Json::Num(1.0)]);
        let d = diff_json(&a, &b, 1e-9);
        assert_eq!(d, vec![DiffEntry::Removed("$[1]".to_owned())]);
    }
}
