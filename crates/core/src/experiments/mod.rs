//! The experiment harness: every table and derived experiment of
//! EXPERIMENTS.md.
//!
//! Each registered experiment has one run path and one render path, both
//! in its `exp_*` module: `eN_metrics(seed, point) -> Metrics` writes the
//! trial's keys, and `eN_report(&[VariantStats]) -> Report` renders the
//! matrix's cross-seed aggregates of those same keys. The tables T1–T3
//! take no seed and render directly.

mod day;
pub mod exp_agenda;
pub mod exp_app;
pub mod exp_chain;
pub mod exp_comm;
pub mod exp_governance;
pub mod exp_market;
pub mod exp_naming;
pub mod exp_policy;
pub mod exp_resilience;
pub mod exp_storage;
pub mod exp_usenet;
pub mod exp_web;
pub mod exp_workload;

use std::fmt;

pub use exp_agenda::{e10_metrics, e10_report, e11_metrics, e11_report};
pub use exp_app::{e18_metrics, e18_report};
pub use exp_chain::{e9_metrics, e9_report};
pub use exp_comm::{e3_metrics, e3_report, e4_metrics, e4_report};
pub use exp_governance::{e12_metrics, e12_report, e13_metrics, e13_report};
pub use exp_market::{e17_metrics, e17_report, e17_workload_metrics};
pub use exp_naming::{e1_metrics, e1_report, e2_metrics, e2_report};
pub use exp_policy::{e16_cohort_runners, e16_policy_metrics, e16_policy_report, CohortRunner};
pub use exp_resilience::{e15_metrics, e15_report};
pub use exp_storage::{e5_metrics, e5_report, e6_metrics, e6_report, e8_metrics, e8_report};
pub use exp_usenet::{e14_metrics, e14_report};
pub use exp_web::{e7_metrics, e7_report};
pub use exp_workload::{e16_metrics, e16_report, ClassOutcome};

/// Normalize a free-form row label into a metric-key segment: lowercase
/// alphanumerics and dots survive, everything else collapses to `_`.
pub fn metric_key_segment(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_underscore = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
            out.push(c.to_ascii_lowercase());
            last_underscore = false;
        } else if !last_underscore {
            out.push('_');
            last_underscore = true;
        }
    }
    out.trim_matches('_').to_owned()
}

/// Cross-seed statistics of one metric key over a variant's completed
/// trials: what `BENCH_harness.json` records under `aggregates`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// Mean over the completed trials.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// One `experiment/variant` of the matrix's aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantStats {
    /// Experiment id (`e16`).
    pub experiment: String,
    /// Variant label (`p1m`).
    pub label: String,
    /// Trials the variant ran.
    pub trials: usize,
    /// Trials that completed; every [`Stat`] is over these.
    pub ok: usize,
    /// Per-key statistics: counters, then gauges, each in key order.
    pub metrics: Vec<(String, Stat)>,
}

impl VariantStats {
    /// The statistics of `key`. Panics when the variant has no such key:
    /// a render fn asks only for keys its run fn writes.
    pub fn stat(&self, key: &str) -> Stat {
        match self.metrics.iter().find(|(k, _)| k == key) {
            Some(&(_, s)) => s,
            None => panic!("{}/{} has no key {key}", self.experiment, self.label),
        }
    }

    /// The mean of `key` over the variant's seeds: what a table cell prints.
    pub fn mean(&self, key: &str) -> f64 {
        self.stat(key).mean
    }

    /// `mean [min, max] over n seeds` of `key` times `scale`, at `prec`
    /// decimals: what a verdict number prints.
    pub fn spread(&self, key: &str, scale: f64, prec: usize) -> String {
        let s = self.stat(key);
        format!(
            "{:.prec$} [{:.prec$}, {:.prec$}] over {} seeds",
            s.mean * scale,
            s.min * scale,
            s.max * scale,
            self.ok
        )
    }

    /// The variant label without its one-letter kind prefix: `f0.20` →
    /// `0.20`, `p1m` → `1m`.
    pub fn point(&self) -> &str {
        self.label.get(1..).unwrap_or("")
    }
}

/// The variant labelled `label`. Panics when there is none: a render fn
/// asks only for labels its experiment registers, and looks them up by
/// label so a reordered registry cannot print one variant's numbers
/// under another's name.
pub fn by_label<'a>(variants: &'a [VariantStats], label: &str) -> &'a VariantStats {
    match variants.iter().find(|v| v.label == label) {
        Some(v) => v,
        None => panic!("no variant {label}"),
    }
}

/// A rendered experiment report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id ("T1", "E3", ...).
    pub id: &'static str,
    /// Title.
    pub title: &'static str,
    /// The paper claim under test.
    pub claim: &'static str,
    /// Rendered findings.
    pub body: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        writeln!(f, "Paper claim: {}", self.claim)?;
        writeln!(f)?;
        write!(f, "{}", self.body)
    }
}

/// T1: regenerate Table 1 from the live registry.
pub fn t1_taxonomy() -> Report {
    let mut body = crate::taxonomy::render_table1();
    body.push('\n');
    body.push_str(crate::taxonomy::freedom_js_note());
    body.push('\n');
    Report {
        id: "T1",
        title: "Decentralization problems and projects (Table 1)",
        claim: "The surveyed projects fall into four problem categories: \
                naming, group communication, data storage, web applications",
        body,
    }
}

/// T2: regenerate Table 2 from the live storage profiles and exercise each
/// profile's proof/incentive mechanism once.
pub fn t2_storage_systems() -> Report {
    use agora_sim::SimRng;
    use agora_storage::{
        por_respond, por_verify, profiles::table2_profiles, seal, sealed_commitment, AuditBook,
        BitswapLedger, Manifest, PosChallenge, PosResponse, ProofScheme, ResourceScore, SealParams,
        Shard,
    };

    let mut body = agora_storage::render_table2();
    body.push('\n');
    body.push_str("Mechanism check (each profile's proof/incentive exercised):\n");
    let mut rng = SimRng::new(2);
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    for p in table2_profiles() {
        let ok = match p.proof {
            ProofScheme::ProofOfStorage => {
                let (manifest, chunks) = Manifest::build(&data, 4096);
                let ch = PosChallenge::new(&manifest, 3, rng.next_u64());
                PosResponse::build(&ch, &manifest, chunks[3].clone())
                    .map(|r| r.verify(&ch))
                    .unwrap_or(false)
            }
            ProofScheme::ProofOfRetrievability => {
                let mut book = AuditBook::new(Shard::new(data.as_slice()), 4, &mut rng);
                std::iter::from_fn(|| book.pop())
                    .all(|a| por_verify(&a, &por_respond(a.nonce, &data)))
            }
            ProofScheme::ProofOfReplication => {
                let params = SealParams::default();
                let id = agora_crypto::sha256(p.name.as_bytes());
                let sealed = seal(&data, &id);
                let commitment = sealed_commitment(&sealed, &params);
                let (_, chunks) = Manifest::build(&sealed, params.sealed_chunk_size);
                let ch = PosChallenge::new(&commitment, 1, rng.next_u64());
                PosResponse::build(&ch, &commitment, chunks[1].clone())
                    .map(|r| r.verify(&ch))
                    .unwrap_or(false)
            }
            ProofScheme::None => {
                // IPFS / Blockstack: exercise the incentive layer instead.
                let mut ledger = BitswapLedger::new(1_000_000);
                let peer = agora_crypto::sha256(b"peer");
                ledger.record_sent(peer, 500_000);
                let mut rs = ResourceScore::new();
                rs.record_audit(peer, true);
                ledger.will_serve(&peer, 100_000) && rs.eligible(&peer)
            }
        };
        body.push_str(&format!(
            "  {:<11} {:?} redundancy {:.1}x ... {}\n",
            p.name,
            p.proof,
            p.redundancy.overhead(),
            if ok { "ok" } else { "FAILED" }
        ));
    }
    Report {
        id: "T2",
        title: "Comparison of surveyed storage systems (Table 2)",
        claim: "Storage systems differ in blockchain usage and incentive \
                scheme; all listed mechanisms are implementable and sound",
        body,
    }
}

/// T3: regenerate Table 3 exactly, plus sufficiency ratios, the duty-cycle
/// discount extension, and a sensitivity sweep.
pub fn t3_feasibility() -> Report {
    use agora_feasibility::{render_table3, sensitivity_sweep, Assumptions};
    use agora_sim::DeviceClass;
    let a = Assumptions::default();
    let mut body = render_table3(&a);
    let s = a.sufficiency();
    body.push_str(&format!(
        "\nSufficiency (user/cloud): bandwidth {:.1}x, cores {:.2}x, storage {:.2}x\n",
        s.bandwidth_tbps, s.cores_millions, s.storage_eb
    ));
    // The duty cycles E8's churn runs on.
    let pc = DeviceClass::PersonalComputer.profile().duty_cycle;
    let mobile = DeviceClass::Smartphone.profile().duty_cycle;
    let eff = a.effective_user_devices(pc, mobile);
    let cloud = a.cloud();
    body.push_str(&format!(
        "With duty-cycle discounts (PC {:.0}%, mobile {:.0}%): {:.0} Tbps, {:.0} M cores, {:.0} EB\n",
        pc * 100.0,
        mobile * 100.0,
        eff.bandwidth_tbps,
        eff.cores_millions,
        eff.storage_eb
    ));
    body.push_str(&format!(
        "  → cores fall below cloud ({:.0} M < {:.0} M): §5.2's quality-vs-quantity caveat\n",
        eff.cores_millions, cloud.cores_millions
    ));
    body.push_str("\nSensitivity (sufficiency ratios under ±2x on each assumption):\n");
    for row in sensitivity_sweep(&[0.5, 2.0]) {
        body.push_str(&format!(
            "  {:<22} x{:<4} → bw {:>6.1} cores {:>5.2} storage {:>5.2}\n",
            row.assumption,
            row.factor,
            row.sufficiency.bandwidth_tbps,
            row.sufficiency.cores_millions,
            row.sufficiency.storage_eb
        ));
    }
    Report {
        id: "T3",
        title: "Cloud vs user-device capacity (Table 3)",
        claim: "200 Tbps / 400 M cores / 80 EB (cloud) vs 5000 Tbps / 500 M \
                cores / 210 EB (devices): roughly sufficient capacity exists",
        body,
    }
}

/// Every counter and gauge of `m`, bit-exact: two runs are the same run
/// when these are equal.
#[cfg(test)]
pub(crate) fn values(m: &agora_sim::Metrics) -> Vec<(String, u64)> {
    m.counters()
        .map(|(k, v)| (k.to_owned(), v))
        .chain(m.gauges().map(|(k, v)| (k.to_owned(), v.to_bits())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_renders_all_categories() {
        let r = t1_taxonomy();
        for label in [
            "Naming",
            "Group Communication",
            "Data storage",
            "Web applications",
        ] {
            assert!(r.body.contains(label));
        }
        assert_eq!(r.id, "T1");
    }

    #[test]
    fn t2_all_mechanisms_pass() {
        let r = t2_storage_systems();
        assert!(!r.body.contains("FAILED"), "{}", r.body);
        assert!(r.body.contains("Filecoin"));
        assert!(r.body.contains("ok"));
    }

    #[test]
    fn t3_contains_paper_numbers_and_caveat() {
        let r = t3_feasibility();
        for v in ["5000", "210", "400", "80"] {
            assert!(r.body.contains(v), "missing {v}");
        }
        assert!(r.body.contains("quality-vs-quantity"));
    }

    #[test]
    fn report_display_includes_header() {
        let r = t1_taxonomy();
        let s = format!("{r}");
        assert!(s.starts_with("=== T1"));
        assert!(s.contains("Paper claim:"));
    }
}
