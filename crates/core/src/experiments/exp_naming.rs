//! E1 (the blockchain performance trade) and E2 (naming attack matrix).

use agora_chain::{ChainNode, ChainParams, MinerConfig};
use agora_crypto::{sha256, Hash256, SimKeyPair};
use agora_naming::{
    front_running_game, name_theft_by_rewrite, CentralRegistrar, CertAuthority, NameDb, NameOp,
    NamingRules, WebOfTrust,
};
use agora_sim::{DeviceClass, Metrics, SimDuration, SimRng, Simulation};

use super::{Report, VariantStats};

/// Names the centralized registrar registers.
const N_CENTRAL: usize = 200;
/// Names submitted to the chain.
const SUBMITTED: usize = 10;

/// E1: measure "blockchains essentially trade scalability and performance
/// for global consensus and security" (§3.1).
///
/// The registrar baseline is a request/response over simulated consumer
/// access links; the blockchain path runs a real mining network with
/// 60-second blocks (scaled from Namecoin's 10 minutes; the report notes
/// the scale factor) and waits for the params' confirmation depth. Keys
/// `e1.*`.
pub fn e1_metrics(seed: u64) -> Metrics {
    // --- centralized baseline -------------------------------------------
    let mut registrar = CentralRegistrar::new();
    let pc = DeviceClass::PersonalComputer.profile();
    let dc = DeviceClass::DatacenterServer.profile();
    // One round trip over the access links (jitter-free expectation).
    let central_latency_secs = 2.0 * (pc.base_latency.secs_f64() + dc.base_latency.secs_f64());
    for i in 0..N_CENTRAL {
        registrar
            .register(&format!("user-{i}"), sha256(&[i as u8]), sha256(b"z"))
            .expect("fresh name");
    }
    let central_throughput = 1.0 / central_latency_secs;

    // --- blockchain path --------------------------------------------------
    let params = ChainParams {
        target_block_interval: SimDuration::from_secs(60), // 10x scale
        initial_difficulty_bits: 10,
        confirmation_depth: 6,
        ..ChainParams::default()
    };
    let user = SimKeyPair::from_seed(b"e1-user");
    let premine: Vec<(Hash256, u64)> = vec![(user.public().id(), 1_000_000)];

    let mut sim: Simulation<ChainNode> = Simulation::new(seed);
    let ids = ChainNode::mesh(&mut sim, 4, "e1", &params, &premine, |i| {
        (i == 0).then(|| MinerConfig {
            account: sha256(b"e1-miner"),
            // 2^10 hashes / 60 s target.
            hashrate: 1024.0 / 60.0,
        })
    });
    sim.run_for(SimDuration::from_mins(5));

    let rules = NamingRules {
        min_preorder_age: 1,
        ..NamingRules::default()
    };
    let mut nonce = 0u64;
    let mut submit_times = Vec::new();
    let mut reg_txids = Vec::new();
    for i in 0..SUBMITTED {
        let name = format!("user-{i}.agora");
        let salt = i as u64;
        let account = user.public().id();
        let pre = NameOp::Preorder {
            commitment: NameOp::commitment(&name, salt, &account),
        }
        .into_tx(&user, nonce, 1);
        nonce += 1;
        sim.with_ctx(ids[1], |n, ctx| n.submit_tx(ctx, pre));
        // Wait for the preorder to land before revealing.
        sim.run_for(SimDuration::from_mins(3));
        let reg = NameOp::Register {
            name,
            salt,
            zone_hash: sha256(b"zone"),
        }
        .into_tx(&user, nonce, 1);
        nonce += 1;
        let txid = reg.id();
        submit_times.push(sim.now());
        reg_txids.push(txid);
        sim.with_ctx(ids[1], |n, ctx| n.submit_tx(ctx, reg));
        sim.run_for(SimDuration::from_mins(2));
    }
    // Let confirmations accumulate.
    let mut latencies = Vec::new();
    let mut confirmed = 0u64;
    let deadline = sim.now() + SimDuration::from_hours(3);
    let mut pending: Vec<(usize, Hash256)> = reg_txids.iter().copied().enumerate().collect();
    while !pending.is_empty() && sim.now() < deadline {
        sim.run_for(SimDuration::from_mins(1));
        pending.retain(|(i, txid)| {
            if sim.node(ids[0]).ledger().is_confirmed(txid) {
                latencies.push(sim.now().since(submit_times[*i]).secs_f64());
                confirmed += 1;
                false
            } else {
                true
            }
        });
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let chain_latency = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or(f64::INFINITY);
    let chain_throughput = params.max_block_txs as f64 / params.target_block_interval.secs_f64();

    // Check the names actually resolve via the derived NameDb.
    let db = NameDb::from_ledger(sim.node(ids[0]).ledger(), &rules);
    let resolvable = (0..SUBMITTED)
        .filter(|i| {
            db.resolve(
                &format!("user-{i}.agora"),
                sim.node(ids[0]).ledger().best_height(),
            )
            .is_some()
        })
        .count();

    let mut m = Metrics::new();
    m.gauge_set("e1.central_latency_secs", central_latency_secs);
    m.gauge_set("e1.chain_latency_secs", chain_latency);
    m.gauge_set("e1.central_throughput_ops", central_throughput);
    m.gauge_set("e1.chain_throughput_ops", chain_throughput);
    m.gauge_set(
        "e1.latency_factor",
        chain_latency / central_latency_secs.max(1e-9),
    );
    m.incr("e1.confirmed", confirmed);
    m.incr("e1.submitted", SUBMITTED as u64);
    m.incr("e1.resolvable", resolvable as u64);
    m
}

/// E1's report from its one variant.
pub fn e1_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let factor = v.mean("e1.latency_factor");
    let body = format!(
        "Centralized registrar : {:>10.3} s/op   {:>10.1} ops/s  ({N_CENTRAL} names registered)\n\
         Blockchain naming     : {:>10.1} s/op   {:>10.2} ops/s  ({:.1}/{SUBMITTED} confirmed, {:.1} resolvable)\n\
         Latency penalty factor at 60 s blocks: {}\n\
         \x20 (Namecoin's 600 s blocks ⇒ ~{:.0}x)\n",
        v.mean("e1.central_latency_secs"),
        v.mean("e1.central_throughput_ops"),
        v.mean("e1.chain_latency_secs"),
        v.mean("e1.chain_throughput_ops"),
        v.mean("e1.confirmed"),
        v.mean("e1.resolvable"),
        v.spread("e1.latency_factor", 1.0, 0),
        factor * 10.0,
    );
    Report {
        id: "E1",
        title: "Name registration: consensus vs registrar",
        claim: "blockchains essentially trade scalability and performance \
                for global consensus and security (§3.1)",
        body,
    }
}

/// Attacker hash-power shares of the chain-rewrite theft curve.
const REWRITE_ALPHAS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.45, 0.51];

/// E2: attack every naming scheme with the §3.1-cited attacks. Keys
/// `e2.*`.
pub fn e2_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    let mut rng = SimRng::new(seed);
    let no_pre = front_running_game(false, 0.9, 2000, &mut rng).steal_rate;
    let with_pre = front_running_game(true, 0.9, 2000, &mut rng).steal_rate;
    m.gauge_set("e2.front_run_no_preorder", no_pre);
    m.gauge_set("e2.front_run_with_preorder", with_pre);
    for alpha in REWRITE_ALPHAS {
        let p = name_theft_by_rewrite(alpha, 6, 3000, &mut rng);
        m.gauge_set(&format!("e2.rewrite_theft.a{alpha:.2}"), p);
    }

    // CA compromise, actually executed.
    let mut ca = CertAuthority::new(b"e2-root");
    let _legit = ca.issue("bank.example", sha256(b"bank-key"));
    let stolen = ca.compromise();
    let rogue_body = agora_crypto::Enc::new()
        .str("bank.example")
        .hash(&sha256(b"attacker-key"))
        .u64(999)
        .done();
    let rogue = agora_naming::Certificate {
        name: "bank.example".into(),
        subject_key: sha256(b"attacker-key"),
        issuer: ca.public(),
        serial: 999,
        signature: stolen.sign(&rogue_body),
    };
    let ca_compromise_succeeds = rogue.verify(&ca.public());

    // WoT Sybil, actually executed.
    let mut wot = WebOfTrust::new();
    let anchor = sha256(b"anchor");
    let honest = sha256(b"honest");
    wot.endorse(anchor, honest);
    let sybils: Vec<Hash256> = (0..8u8)
        .map(|i| sha256(format!("sybil-{i}").as_bytes()))
        .collect();
    let rogue_id = sha256(b"rogue");
    for s in &sybils {
        wot.endorse(*s, rogue_id);
        for t in &sybils {
            if s != t {
                wot.endorse(*s, *t);
            }
        }
    }
    wot.claim(rogue_id, "bank.example", sha256(b"attacker-key"));
    wot.endorse(honest, sybils[0]); // one social-engineered keysigning
    let wot_sybil_q1 = wot.verify(
        &[anchor],
        rogue_id,
        "bank.example",
        sha256(b"attacker-key"),
        4,
        1,
    );
    let wot_sybil_q2 = wot.verify(
        &[anchor],
        rogue_id,
        "bank.example",
        sha256(b"attacker-key"),
        4,
        2,
    );

    m.gauge_set(
        "e2.ca_compromise_succeeds",
        ca_compromise_succeeds as u64 as f64,
    );
    m.gauge_set("e2.wot_sybil_q1", wot_sybil_q1 as u64 as f64);
    m.gauge_set("e2.wot_sybil_q2", wot_sybil_q2 as u64 as f64);
    m
}

/// E2's report from its one variant. The three yes/no attacks print the
/// fraction of seeds on which they succeeded.
pub fn e2_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "Front-running (attacker priority 0.9):\n\
         \x20 without preorder : {:>5.1}% of names stolen\n\
         \x20 with preorder    : {:>5.1}% of names stolen\n\n\
         Chain-rewrite name theft (6 confirmations):\n",
        100.0 * v.mean("e2.front_run_no_preorder"),
        100.0 * v.mean("e2.front_run_with_preorder"),
    );
    for alpha in REWRITE_ALPHAS {
        body.push_str(&format!(
            "  alpha {:>4.2} → theft probability {:>6.3}\n",
            alpha,
            v.mean(&format!("e2.rewrite_theft.a{alpha:.2}"))
        ));
    }
    body.push_str(&format!(
        "\nCA compromise mints accepted rogue cert : {:.2}\n\
         WoT Sybil (1 bridge) fools quorum-1      : {:.2}\n\
         WoT Sybil (1 bridge) fools quorum-2      : {:.2}\n\
         (fraction of seeds on which the attack succeeded)\n",
        v.mean("e2.ca_compromise_succeeds"),
        v.mean("e2.wot_sybil_q1"),
        v.mean("e2.wot_sybil_q2"),
    ));
    Report {
        id: "E2",
        title: "Naming attack matrix",
        claim: "CAs and WoT suffer compromise/Sybil weaknesses; \
                blockchain naming resists below 51% (§3.1)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_chain_orders_of_magnitude_slower() {
        let m = e1_metrics(11);
        assert!(
            m.counter("e1.confirmed") >= m.counter("e1.submitted") / 2,
            "{m}"
        );
        assert!(
            m.gauge("e1.latency_factor") > 100.0,
            "consensus should cost orders of magnitude: {m}"
        );
        assert!(m.gauge("e1.central_throughput_ops") > m.gauge("e1.chain_throughput_ops"));
    }

    #[test]
    fn e2_attack_matrix_shape() {
        let m = e2_metrics(13);
        assert!(m.gauge("e2.front_run_no_preorder") > 0.8);
        assert_eq!(m.gauge("e2.front_run_with_preorder"), 0.0);
        assert_eq!(m.gauge("e2.ca_compromise_succeeds"), 1.0);
        assert_eq!(m.gauge("e2.wot_sybil_q1"), 1.0);
        assert_eq!(m.gauge("e2.wot_sybil_q2"), 0.0);
        // Theft curve jumps to ~1 past 50%.
        assert!(m.gauge("e2.rewrite_theft.a0.10") < 0.05);
        assert!(m.gauge("e2.rewrite_theft.a0.51") > 0.9);
    }
}
