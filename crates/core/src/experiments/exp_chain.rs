//! E9: the costs of blockchains — wasteful mining, the endless ledger,
//! and attack exposure — measured on a running chain.

use agora_chain::{selfish_mining, ChainNode, ChainParams, MinerConfig, Transaction, TxPayload};
use agora_crypto::{sha256, Hash256, SimKeyPair};
use agora_sim::{Metrics, SimDuration, SimRng, Simulation};

use super::{Report, VariantStats};

/// Selfish miners' hash-power shares.
const SELFISH_ALPHAS: [f64; 4] = [0.1, 0.25, 0.33, 0.4];

/// E9: run a multi-miner chain for a simulated day under transaction load,
/// then measure the §3.1-cited costs. Keys `e9.*`.
pub fn e9_metrics(seed: u64) -> Metrics {
    let params = ChainParams {
        target_block_interval: SimDuration::from_secs(120),
        initial_difficulty_bits: 10,
        ..ChainParams::default()
    };
    let user = SimKeyPair::from_seed(b"e9-user");
    let premine: Vec<(Hash256, u64)> = vec![(user.public().id(), 10_000_000)];

    let mut sim: Simulation<ChainNode> = Simulation::new(seed);
    let ids = ChainNode::mesh(&mut sim, 5, "e9", &params, &premine, |i| {
        (i < 3).then(|| MinerConfig {
            account: sha256(format!("e9-miner-{i}").as_bytes()),
            // Three equal miners sharing the 120 s target.
            hashrate: 1024.0 / 360.0,
        })
    });

    // A simulated day of steady application traffic.
    let bob = sha256(b"e9-bob");
    let mut nonce = 0u64;
    for hour in 0..24 {
        for _ in 0..4 {
            let tx =
                Transaction::create(&user, nonce, 1, TxPayload::Transfer { to: bob, amount: 1 });
            nonce += 1;
            sim.with_ctx(ids[3], |n, ctx| {
                n.submit_tx(ctx, tx);
            });
            sim.run_for(SimDuration::from_mins(15));
        }
        let _ = hour;
    }
    sim.run_for(SimDuration::from_hours(1));

    let ledger = sim.node(ids[3]).ledger();
    // Count actually-confirmed transfers via the recipient balance.
    let confirmed_txs = ledger.state().balance(&bob);
    let hashes = sim.metrics().counter("chain.hashes_ground");
    let days = sim.now().secs_f64() / 86_400.0;
    let mut m = Metrics::new();
    m.gauge_set(
        "e9.hashes_per_confirmed_tx",
        hashes as f64 / confirmed_txs.max(1) as f64,
    );
    m.gauge_set(
        "e9.ledger_bytes_per_day",
        ledger.total_ledger_bytes as f64 / days.max(1e-9),
    );
    m.incr("e9.confirmed_txs", confirmed_txs);
    m.incr("e9.reorgs", sim.metrics().counter("chain.reorgs"));

    let mut rng = SimRng::new(seed + 1);
    for alpha in SELFISH_ALPHAS {
        let r = selfish_mining(alpha, 0.5, 150_000, &mut rng);
        m.gauge_set(&format!("e9.selfish_share.a{alpha:.2}"), r.revenue_share);
        m.gauge_set(&format!("e9.fair_share.a{alpha:.2}"), r.fair_share);
    }
    m
}

/// E9's report from its one variant.
pub fn e9_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "One simulated day, 3 miners, 96 transfers submitted:\n\
         \x20 confirmed transfers       : {:.1}\n\
         \x20 hashes per confirmed tx   : {:.0}  (PoW energy proxy; scales with difficulty)\n\
         \x20 ledger growth             : {:.0} bytes/day and never shrinks (endless ledger)\n\
         \x20 reorgs among equal miners : {:.1}\n\n\
         Selfish mining (gamma = 0.5):\n",
        v.mean("e9.confirmed_txs"),
        v.mean("e9.hashes_per_confirmed_tx"),
        v.mean("e9.ledger_bytes_per_day"),
        v.mean("e9.reorgs"),
    );
    for alpha in SELFISH_ALPHAS {
        let share = v.mean(&format!("e9.selfish_share.a{alpha:.2}"));
        let fair = v.mean(&format!("e9.fair_share.a{alpha:.2}"));
        body.push_str(&format!(
            "  alpha {:>4.2} → revenue share {:>5.3} (fair {:>4.2}){}\n",
            alpha,
            share,
            fair,
            if share > fair {
                "  ← profitable deviation"
            } else {
                ""
            }
        ));
    }
    Report {
        id: "E9",
        title: "Blockchain costs: mining waste, endless ledger, incentive attacks",
        claim: "blockchains suffer the 51% attack, limits on data storage, \
                wasteful mining computation, the endless ledger problem \
                (§3.1)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_costs_measured() {
        let m = e9_metrics(61);
        assert!(m.counter("e9.confirmed_txs") > 50, "{m}");
        // Each tx costs vastly more than one hash — that's the waste.
        assert!(m.gauge("e9.hashes_per_confirmed_tx") > 100.0, "{m}");
        assert!(m.gauge("e9.ledger_bytes_per_day") > 1000.0, "{m}");
        // Selfish mining profitable at 1/3 with gamma 0.5.
        assert!(
            m.gauge("e9.selfish_share.a0.33") > m.gauge("e9.fair_share.a0.33"),
            "selfish should beat fair at 0.33: {m}"
        );
    }
}
