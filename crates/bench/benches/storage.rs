//! E5/E6/E8 kernels: proof schemes, durability sweeps, and the
//! quality-vs-quantity retrieval workload.

use agora_crypto::sha256;
use agora_sim::{DeviceClass, SimDuration, SimRng, Simulation};
use agora_storage::{
    play_porep_game, por_respond, seal, sealed_commitment, simulate_durability, AttackEnv,
    AuditBook, CheatStrategy, DurabilityParams, Manifest, PosChallenge, PosResponse,
    ProviderStrategy, SealParams, SealedReplicas, StorageNode,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::rc::Rc;

fn bench_proof_kernels(c: &mut Criterion) {
    let data = vec![0xa5u8; 256 * 1024];
    let (manifest, chunks) = Manifest::build(&data, 4096);

    c.bench_function("e5_pos_build_and_verify", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let idx = rng.below(manifest.chunk_count() as u64) as u32;
            let ch = PosChallenge {
                object: manifest.object_id,
                index: idx,
                nonce: rng.next_u64(),
            };
            let resp =
                PosResponse::build(&ch, &manifest, chunks[idx as usize].clone()).expect("held");
            black_box(resp.verify(&ch))
        })
    });

    c.bench_function("e5_por_audit_pair", |b| {
        let mut rng = SimRng::new(2);
        let shard: Rc<[u8]> = data.as_slice().into();
        b.iter(|| {
            let audit = AuditBook::new(Rc::clone(&shard), 1, &mut rng)
                .pop()
                .expect("one audit");
            black_box((audit.expected, por_respond(audit.nonce, &data)))
        })
    });

    c.bench_function("e5_seal_256k", |b| {
        let id = sha256(b"bench-replica");
        b.iter(|| black_box(seal(&data, &id)))
    });

    c.bench_function("e5_sealed_commitment_256k", |b| {
        let id = sha256(b"bench-replica");
        let sealed = seal(&data, &id);
        let params = SealParams::default();
        b.iter(|| black_box(sealed_commitment(&sealed, &params)))
    });
}

fn bench_porep_game(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_porep_game");
    g.sample_size(10);
    let mut env = AttackEnv::default();
    env.seal.seal_throughput_bps = 50_000;
    env.seal.response_deadline = SimDuration::from_secs(1);
    // Sealed once, as E5 does; `e5_seal_256k` and
    // `e5_sealed_commitment_256k` time what building it costs.
    let replicas = SealedReplicas::new(&vec![0xabu8; 200_000], 2, &env.seal);
    for s in CheatStrategy::all() {
        g.bench_function(format!("{s:?}"), |b| {
            let mut rng = SimRng::new(7);
            b.iter(|| black_box(play_porep_game(s, &replicas, 20, &env, &mut rng)))
        });
    }
    g.finish();
}

fn bench_durability(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_durability_1000_objects");
    for (label, k, m) in [
        ("repl_x3", 1u32, 2u32),
        ("rs_4_8", 4, 8),
        ("rs_10_20", 10, 20),
    ] {
        g.bench_function(label, |b| {
            let mut rng = SimRng::new(11);
            let params = DurabilityParams {
                k,
                m,
                provider_mttf_days: 60.0,
                repair_interval_days: 7.0,
                correlated_event_prob: 0.01,
                correlated_severity: 0.3,
                horizon_days: 365.0,
            };
            b.iter(|| black_box(simulate_durability(&params, 1000, &mut rng)))
        });
    }
    g.finish();
}

/// E8 kernel: one full put+get cycle on a provider class.
fn put_get_cycle(seed: u64, class: DeviceClass) -> bool {
    let mut sim = Simulation::new(seed);
    let providers: Vec<_> = (0..6)
        .map(|_| sim.add_node(StorageNode::provider(ProviderStrategy::Honest), class))
        .collect();
    let client = sim.add_node(
        StorageNode::client(providers, SimDuration::from_mins(5)),
        DeviceClass::PersonalComputer,
    );
    let data = vec![9u8; 100_000];
    let (_, object) = sim
        .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
        .expect("up");
    sim.run_for(SimDuration::from_mins(2));
    let op = sim
        .with_ctx(client, |n, ctx| n.start_get(ctx, object))
        .expect("up");
    sim.run_for(SimDuration::from_mins(2));
    sim.node_mut(client).take_result(op).is_some()
}

fn bench_quality(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_put_get_cycle");
    g.sample_size(10);
    let mut seed = 100u64;
    g.bench_function("datacenter_providers", |b| {
        b.iter(|| {
            seed += 1;
            black_box(put_get_cycle(seed, DeviceClass::DatacenterServer))
        })
    });
    g.bench_function("consumer_pc_providers", |b| {
        b.iter(|| {
            seed += 1;
            black_box(put_get_cycle(seed, DeviceClass::PersonalComputer))
        })
    });
    g.finish();
}

criterion_group!(
    storage,
    bench_proof_kernels,
    bench_porep_game,
    bench_durability,
    bench_quality
);
criterion_main!(storage);
