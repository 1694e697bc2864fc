//! E7 kernels: site publishing and full swarm visits; E16's warm swarm.

use agora_sim::{DeviceClass, NodeId, SimDuration, Simulation};
use agora_web::{SitePublisher, SwarmNode};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_publish(c: &mut Criterion) {
    c.bench_function("e7_publish_100k_site", |b| {
        let content = vec![42u8; 100_000];
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            let mut p = SitePublisher::new(format!("site-{v}").as_bytes());
            black_box(p.publish(&[("index.html", content.as_slice())]))
        })
    });
}

/// One full visit: tracker discovery, manifest fetch, piece exchange,
/// verification, re-seeding.
fn visit_cycle(seed: u64) -> bool {
    let mut sim = Simulation::new(seed);
    let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
    let origin = sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer);
    let visitor = sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer);
    let mut p = SitePublisher::new(b"bench-site");
    let content = vec![7u8; 64_000];
    let bundle = p.publish(&[("index.html", content.as_slice())]);
    let site = p.site_id();
    sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle));
    sim.run_for(SimDuration::from_secs(2));
    let op = sim
        .with_ctx(visitor, |n, ctx| n.start_visit(ctx, site))
        .expect("up");
    sim.run_for(SimDuration::from_mins(2));
    sim.node_mut(visitor).take_result(op).is_some()
}

fn bench_visit(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_visit");
    g.sample_size(20);
    let mut seed = 0u64;
    g.bench_function("full_visit_64k_site", |b| {
        b.iter(|| {
            seed += 1;
            black_box(visit_cycle(seed))
        })
    });
    g.finish();
}

/// One wave of re-visits by the six gateways of a warm swarm of E16's
/// shape (origin, 20 seeders, 6 gateways, the 200 000-byte site) — the
/// criterion twin of `agora-harness --perf`'s `swarm_visits_200k_per_s`.
fn bench_warm_swarm(c: &mut Criterion) {
    let mut sim = Simulation::new(16);
    let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
    let peers: Vec<NodeId> = (0..27)
        .map(|_| sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer))
        .collect();
    let mut p = SitePublisher::new(b"e16-site");
    let bundle = p.publish(&[("index.html", vec![42u8; 200_000].as_slice())]);
    let site = p.site_id();
    sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle));
    sim.run_for(SimDuration::from_secs(5));
    let mut wave = |visitors: &[NodeId]| -> usize {
        let ops: Vec<(NodeId, u64)> = visitors
            .iter()
            .filter_map(|&v| Some((v, sim.with_ctx(v, |n, ctx| n.start_visit(ctx, site))?)))
            .collect();
        sim.run_for(SimDuration::from_mins(5));
        ops.into_iter()
            .filter(|&(v, op)| sim.node_mut(v).take_result(op).is_some())
            .count()
    };
    wave(&peers[1..21]);
    let mut g = c.benchmark_group("e16_swarm");
    g.sample_size(20);
    g.bench_function("e16_swarm_warm_visits", |b| {
        b.iter(|| black_box(wave(&peers[21..])))
    });
    g.finish();
}

criterion_group!(web, bench_publish, bench_visit, bench_warm_swarm);
criterion_main!(web);
