//! E14: the Usenet collapse, replayed — what full replication costs as the
//! federation grows.
//!
//! §3.2: "Usenet eventually collapsed under its own traffic load." In a
//! fully-replicating federation, *every* instance stores and relays the
//! whole network's activity, so per-instance burden scales with global
//! traffic, not local membership. Single-homing (OStatus) partitions the
//! archive across origins — which is exactly why it has the availability
//! problem E3 measures. This experiment makes the dilemma quantitative.

use agora_comm::{FedNode, ModerationPolicy, PostLabel, ReplicationMode};
use agora_sim::{DeviceClass, Metrics, SimDuration, Simulation};

use super::{Report, VariantStats};

/// Federation sizes swept.
const SIZES: [usize; 3] = [2, 4, 6];

fn run_mode(seed: u64, n_instances: usize, mode: ReplicationMode) -> (f64, u64, u64) {
    const CLIENTS_PER_INSTANCE: usize = 2;
    const POSTS_PER_CLIENT: usize = 4;
    let mut sim = Simulation::new(seed);
    let instance_ids =
        FedNode::federation(&mut sim, mode, vec![ModerationPolicy::none(); n_instances]);
    let mut clients = Vec::new();
    for &instance in &instance_ids {
        for _ in 0..CLIENTS_PER_INSTANCE {
            clients.push(sim.add_node(FedNode::client(instance), DeviceClass::PersonalComputer));
        }
    }
    // One "newsgroup" per instance; its first joiner (a local client) makes
    // that instance the origin. Everyone joins every group.
    for (room, _) in instance_ids.iter().enumerate() {
        let local_first = clients[room * CLIENTS_PER_INSTANCE];
        sim.with_ctx(local_first, |n, ctx| n.join(ctx, room as u32));
        sim.run_for(SimDuration::from_millis(200));
        for &c in &clients {
            if c != local_first {
                sim.with_ctx(c, |n, ctx| n.join(ctx, room as u32));
            }
        }
        sim.run_for(SimDuration::from_millis(200));
    }
    // Everyone posts to every group.
    for round in 0..POSTS_PER_CLIENT {
        for &c in &clients {
            let room = (round % n_instances) as u32;
            sim.with_ctx(c, |n, ctx| n.post(ctx, room, 300, PostLabel::Legit));
        }
        sim.run_for(SimDuration::from_secs(5));
    }
    sim.run_for(SimDuration::from_secs(20));
    let total_stored: usize = instance_ids
        .iter()
        .map(|&i| {
            (0..n_instances as u32)
                .map(|room| sim.node(i).room_history_len(room))
                .sum::<usize>()
        })
        .sum();
    let per_instance = total_stored as f64 / n_instances as f64;
    let bytes = sim.metrics().counter("net.sent_bytes");
    let posts = (clients.len() * POSTS_PER_CLIENT) as u64;
    (per_instance, bytes, posts)
}

/// E14: per-instance burden vs federation size, both replication modes.
/// Keys `e14.n<instances>.*`.
pub fn e14_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    for (i, n) in SIZES.into_iter().enumerate() {
        let (rep_store, rep_bytes, posts) =
            run_mode(seed + i as u64, n, ReplicationMode::FullReplication);
        let (sh_store, sh_bytes, _) =
            run_mode(seed + 10 + i as u64, n, ReplicationMode::SingleHome);
        m.incr(&format!("e14.n{n}.total_posts"), posts);
        m.gauge_set(
            &format!("e14.n{n}.replicated_store_per_instance"),
            rep_store,
        );
        m.gauge_set(
            &format!("e14.n{n}.single_home_store_per_instance"),
            sh_store,
        );
        m.incr(&format!("e14.n{n}.replicated_bytes"), rep_bytes);
        m.incr(&format!("e14.n{n}.single_home_bytes"), sh_bytes);
    }
    m
}

/// E14's report from its one variant.
pub fn e14_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "{:>9} {:>11} {:>22} {:>22} {:>14} {:>14}\n",
        "instances",
        "total posts",
        "stored/instance (repl)",
        "stored/instance (s-h)",
        "bytes (repl)",
        "bytes (s-h)"
    );
    for n in SIZES {
        let mean = |key: &str| v.mean(&format!("e14.n{n}.{key}"));
        body.push_str(&format!(
            "{:>9} {:>11.0} {:>22.1} {:>22.1} {:>14.0} {:>14.0}\n",
            n,
            mean("total_posts"),
            mean("replicated_store_per_instance"),
            mean("single_home_store_per_instance"),
            mean("replicated_bytes"),
            mean("single_home_bytes")
        ));
    }
    body.push_str(
        "\nFull replication: every instance archives the *whole network's*\n\
         posts — per-instance burden grows with global activity (Usenet's\n\
         failure mode). Single-homing keeps per-instance archives near the\n\
         local share, at the price E3 measures: origin loss takes the\n\
         archive with it. (Wire traffic is delivery-dominated and near-equal\n\
         in both modes; the burden that grows without bound is the archive.)\n\
         The §3.2 dilemma, in one table.\n",
    );
    Report {
        id: "E14",
        title: "The Usenet collapse: replication burden vs federation size",
        claim: "Usenet eventually collapsed under its own traffic load \
                (§3.2)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_replication_burden_scales_with_network() {
        let m = e14_metrics(71);
        let store = |n: usize, mode: &str| m.gauge(&format!("e14.n{n}.{mode}_store_per_instance"));
        let bytes = |n: usize, mode: &str| m.counter(&format!("e14.n{n}.{mode}_bytes"));
        for n in SIZES {
            let posts = m.counter(&format!("e14.n{n}.total_posts")) as f64;
            // Full replication: every instance stores ~all posts.
            assert!(store(n, "replicated") >= posts * 0.9, "n{n}: {m}");
            // Single-home: per-instance storage is ~the local share.
            assert!(
                store(n, "single_home") <= posts / n as f64 + 1.0,
                "n{n}: {m}"
            );
            // Replication also costs more wire bytes.
            assert!(
                bytes(n, "replicated") >= bytes(n, "single_home"),
                "n{n}: {m}"
            );
        }
        // Per-instance replicated burden grows with federation size
        // (more instances ⇒ more clients ⇒ more global posts per instance).
        assert!(
            store(6, "replicated") > store(2, "replicated") * 2.0,
            "burden should grow with the network: {m}"
        );
    }
}
