//! E12 (moderation vs freedom of expression) and E13 (the financing gap).
//!
//! * E12 — §3.2: "moderation is often in direct tension with freedom of
//!   expression"; federations let each instance choose its own norms, which
//!   means the *most tolerant* instance sets the room's abuse floor.
//! * E13 — §2.2/§5.3: "financial constraints are a key limiting factor for
//!   democratized Internet service architectures" — a cost model over the
//!   architecture families, with documented assumptions.

use agora_comm::{AbuseKind, FedNode, ModerationPolicy, PostLabel, ReplicationMode};
use agora_sim::{DeviceClass, Metrics, NodeId, SimDuration, Simulation};

use super::{metric_key_segment, Report, VariantStats};

fn federation_moderation_run(seed: u64, policies: Vec<ModerationPolicy>) -> (f64, f64) {
    let n = policies.len();
    let mut sim = Simulation::new(seed);
    let instance_ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for (i, policy) in policies.into_iter().enumerate() {
        let peers = instance_ids
            .iter()
            .copied()
            .filter(|&p| p != instance_ids[i])
            .collect();
        sim.add_node(
            FedNode::instance(peers, ReplicationMode::FullReplication, policy),
            DeviceClass::DatacenterServer,
        );
    }
    // One legit user and one abuser per instance, all in one room.
    let mut users = Vec::new();
    for &inst in &instance_ids {
        for _ in 0..2 {
            users.push(sim.add_node(FedNode::client(inst), DeviceClass::PersonalComputer));
        }
    }
    for &u in &users {
        sim.with_ctx(u, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    let rounds = 30u64;
    let mut abuse_sent = 0u64;
    let mut legit_sent = 0u64;
    for _ in 0..rounds {
        for (i, &u) in users.iter().enumerate() {
            let label = if i % 2 == 0 {
                legit_sent += 1;
                PostLabel::Legit
            } else {
                abuse_sent += 1;
                PostLabel::Abuse(AbuseKind::HateSpeech)
            };
            sim.with_ctx(u, |n, ctx| n.post(ctx, 1, 150, label));
        }
        sim.run_for(SimDuration::from_secs(5));
    }
    sim.run_for(SimDuration::from_secs(30));
    let audience = (users.len() - 1) as u64;
    let abuse_delivered = sim.metrics().counter("comm.abuse_delivered");
    let delivered = sim.metrics().counter("comm.posts_delivered");
    let legit_delivered = delivered - abuse_delivered;
    let abuse_leak = abuse_delivered as f64 / (abuse_sent * audience) as f64;
    let suppression = 1.0 - legit_delivered as f64 / (legit_sent * audience) as f64;
    (abuse_leak, suppression)
}

/// E12's federation policy mixes, in report order.
fn e12_configs() -> [(&'static str, Vec<ModerationPolicy>); 4] {
    [
        ("all instances: none", vec![ModerationPolicy::none(); 3]),
        (
            "all instances: platform-default",
            vec![ModerationPolicy::platform_default(); 3],
        ),
        ("all instances: strict", vec![ModerationPolicy::strict(); 3]),
        (
            "mixed: strict + default + tolerant",
            vec![
                ModerationPolicy::strict(),
                ModerationPolicy::platform_default(),
                ModerationPolicy::spam_only(), // tolerates hate speech
            ],
        ),
    ]
}

/// E12: moderation vs freedom across federation policy mixes. Keys
/// `e12.<mix>.*`.
pub fn e12_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    for (i, (label, policies)) in e12_configs().into_iter().enumerate() {
        let (leak, suppression) = federation_moderation_run(seed + i as u64, policies);
        let key = metric_key_segment(label);
        m.gauge_set(&format!("e12.{key}.abuse_leak"), leak);
        m.gauge_set(&format!("e12.{key}.legit_suppression"), suppression);
    }
    m
}

/// E12's report from its one variant.
pub fn e12_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "{:<36} {:>12} {:>14}\n",
        "federation policy mix", "abuse leak", "legit suppressed"
    );
    for (label, _) in e12_configs() {
        let key = metric_key_segment(label);
        body.push_str(&format!(
            "{:<36} {:>11.1}% {:>13.1}%\n",
            label,
            v.mean(&format!("e12.{key}.abuse_leak")) * 100.0,
            v.mean(&format!("e12.{key}.legit_suppression")) * 100.0
        ));
    }
    body.push_str(
        "\nThe Pareto frontier is visible: zero moderation leaks everything;\n\
         strict moderation suppresses legitimate speech; and in a *mixed*\n\
         federation the tolerant instance's users leak their abuse into the\n\
         shared room — per-instance norms set only a local floor (§3.2).\n",
    );
    Report {
        id: "E12",
        title: "Moderation vs freedom of expression across federations",
        claim: "moderation is often in direct tension with freedom of \
                expression ... federations define their own rules on \
                abuse (§3.2)",
        body,
    }
}

// ---------------------------------------------------------------------------
// E13 — the financing gap
// ---------------------------------------------------------------------------

/// Who ultimately pays for an architecture's infrastructure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payer {
    /// Operator, recouped by monetizing users (ads / data).
    OperatorViaMonetization,
    /// Volunteer admins and donations.
    Donations,
    /// Users directly (fees).
    UsersDirectly,
    /// Nobody: users' own idle devices.
    OwnDevices,
}

/// Per-user monthly economics of one architecture (USD; documented,
/// sweepable assumptions — this is a §2.2-style back-of-the-envelope).
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Architecture label.
    pub label: &'static str,
    /// Infrastructure cost per user-month.
    pub infra_cost: f64,
    /// Revenue (or recovered value) per user-month under the model.
    pub revenue: f64,
    /// Who pays.
    pub payer: Payer,
}

impl CostRow {
    /// Surplus (negative = structurally underfunded).
    pub fn surplus(&self) -> f64 {
        self.revenue - self.infra_cost
    }
}

/// E13: the financing model. Assumptions (all in these rows):
/// a datacenter server amortizes to ~$100/month and serves ~10k active
/// users of a typical OSN workload (hence $0.01/user); ad/data monetization
/// of an active user is ~$2/month (public OSN ARPU figures are $2–$10);
/// a volunteer federation instance costs ~$40/month and hosts ~500 users,
/// funded by ~$15/month of donations; blockchain naming costs users ~$0.50
/// of fees/month amortized; user devices contribute idle resources at ~$0.30
/// of marginal energy.
const COST_ROWS: [CostRow; 4] = [
    CostRow {
        label: "Centralized platform",
        infra_cost: 0.01,
        revenue: 2.00,
        payer: Payer::OperatorViaMonetization,
    },
    CostRow {
        label: "Federated instance",
        infra_cost: 0.08, // $40 / 500 users
        revenue: 0.03,    // $15 donations / 500 users
        payer: Payer::Donations,
    },
    CostRow {
        label: "Blockchain-backed",
        infra_cost: 0.50, // fees + miner costs passed through
        revenue: 0.50,    // paid by users; clears by construction
        payer: Payer::UsersDirectly,
    },
    CostRow {
        label: "Socially-aware P2P",
        infra_cost: 0.30, // marginal device energy/wear
        revenue: 0.00,
        payer: Payer::OwnDevices,
    },
];

/// E13's keys `e13.<architecture>.*`. The model is analytic (no
/// randomness); the seed parameter keeps the signature uniform with every
/// other experiment so the harness can drive them all through one
/// entry-point shape.
pub fn e13_metrics(_seed: u64) -> Metrics {
    let mut m = Metrics::new();
    for row in &COST_ROWS {
        let key = metric_key_segment(row.label);
        m.gauge_set(&format!("e13.{key}.infra_cost"), row.infra_cost);
        m.gauge_set(&format!("e13.{key}.revenue"), row.revenue);
        m.gauge_set(&format!("e13.{key}.surplus"), row.surplus());
    }
    m
}

/// E13's report from its one variant.
pub fn e13_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "{:<22} {:>11} {:>11} {:>10}  payer\n",
        "architecture", "cost/u/mo", "rev/u/mo", "surplus"
    );
    for row in &COST_ROWS {
        let key = metric_key_segment(row.label);
        body.push_str(&format!(
            "{:<22} {:>10.2}$ {:>10.2}$ {:>9.2}$  {:?}\n",
            row.label,
            v.mean(&format!("e13.{key}.infra_cost")),
            v.mean(&format!("e13.{key}.revenue")),
            v.mean(&format!("e13.{key}.surplus")),
            row.payer
        ));
    }
    body.push_str(
        "\nThe centralized platform runs a ~200x margin on monetized users —\n\
         that margin funds the engineering the paper says alternatives lack\n\
         (§5.3: 'significant engineering hours go into building Google,\n\
         Facebook, etc.'). Every democratized architecture either runs a\n\
         structural deficit (federation), charges users directly for what\n\
         incumbents give 'free' (blockchain fees), or externalizes cost to\n\
         user devices (P2P). This is §2.2's 'financial constraints are a key\n\
         limiting factor', made explicit. Token incentives (Table 2) are the\n\
         one mechanism that routes payment to providers without an operator.\n",
    );
    Report {
        id: "E13",
        title: "The financing gap",
        claim: "financial constraints are a key limiting factor for \
                democratized Internet service architectures (§2.2); \
                incentivizing development ... is a hard problem (§5.3)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_pareto_shape() {
        let m = e12_metrics(71);
        let get = |mix: &str| {
            let key = metric_key_segment(mix);
            (
                m.gauge(&format!("e12.{key}.abuse_leak")),
                m.gauge(&format!("e12.{key}.legit_suppression")),
            )
        };
        let none = get("all instances: none");
        let default = get("all instances: platform-default");
        let strict = get("all instances: strict");
        let mixed = get("mixed: strict + default + tolerant");
        // No moderation leaks (almost) everything, suppresses nothing.
        assert!(none.0 > 0.9, "{none:?}");
        assert!(none.1 < 0.05, "{none:?}");
        // Stricter ⇒ less leak, more suppression.
        assert!(default.0 < none.0);
        assert!(strict.0 <= default.0 + 0.02);
        assert!(
            strict.1 > default.1,
            "strict {strict:?} vs default {default:?}"
        );
        // Mixed leaks more than uniformly-default: the tolerant instance's
        // abusers reach the whole room.
        assert!(
            mixed.0 > default.0,
            "mixed {mixed:?} vs default {default:?}"
        );
    }

    #[test]
    fn e13_financing_shape() {
        let m = e13_metrics(0);
        let surplus = |arch: &str| m.gauge(&format!("e13.{arch}.surplus"));
        assert!(surplus("centralized_platform") > 1.0);
        assert!(surplus("federated_instance") < 0.0, "structural deficit");
        assert_eq!(surplus("blockchain-backed"), 0.0);
        assert_eq!(m.gauge("e13.socially-aware_p2p.revenue"), 0.0);
    }

    #[test]
    fn e13_any_seed_yields_the_same_economics() {
        let values = |seed| crate::experiments::values(&e13_metrics(seed));
        assert_eq!(values(0), values(12345));
    }
}
