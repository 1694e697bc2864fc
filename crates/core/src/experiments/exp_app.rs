//! E18: mutable-app hosting — typed contracts with delta sync vs a
//! centralized application server, under the E16 population day.
//!
//! §3.4 calls hostless web *applications* the hardest survey row:
//! `agora-web` (E7) serves immutable bundles, but real apps mutate.
//! `agora-app` hosts a deterministic [`Contract`] on consumer devices: a
//! publisher pushes signed deltas to a subscriber swarm, subscribers
//! hold summaries and pull exactly the missing suffix, and the flash
//! crowd's reads land on the replicas — not on the author. The
//! centralized comparison serves the same contract from one datacenter
//! server that every read round-trips to.
//!
//! Both shipped contracts run the same diurnal day (writes at a fixed
//! authoring cadence, reads at population scale via the E16 cohort
//! schedule): the append-log guestbook and the LWW key-value document.
//! Measured per mode: weighted read availability, staleness (the
//! substrate's `app.delta_lag` publish-to-apply histogram for contract
//! mode; drain-granularity read latency for centralized), peak serving
//! overload on whoever the demand hits, the *author's* peak uplink
//! utilization (real modeled bytes out of the authority, not weights),
//! and how long after the flash crowd every live replica has converged.
//! A small Kademlia phase checks both signed manifests are discoverable
//! by app key before any state moves.

use agora_app::{AppNode, AppPublisher, AppResult, Contract, ContractKind, Guestbook, KvDoc};
use agora_dht::{DhtNode, DhtResult};
use agora_sim::{DeviceClass, Metrics, NodeId, SimDuration, SimTime, Simulation};
use agora_workload::Demand;

use super::day::{run_day, LoadLedger, Served, ServingSubstrate, Sim, DAY, TICK};
use super::exp_workload::{consumer_pcs, e16_spec_cohorts, warm_overlay, COHORTS};
use super::{by_label, Report, VariantStats};

/// Authoring cadence: ops submitted per tick, from rotating writers.
const OPS_PER_TICK: u64 = 2;
/// Subscriber replicas hosting the contract (contract mode; churnable).
const SUBSCRIBERS: usize = 24;
/// Writer/reader endpoints (both modes; always on).
const GATEWAYS: usize = 6;

/// One hosting mode's day under the app workload.
#[derive(Clone, Copy, Debug)]
pub struct AppOutcome {
    /// Weighted fraction of reads that found a live serving replica
    /// (contract) or completed against the server (centralized).
    pub availability: f64,
    /// Median staleness: publish-to-apply delta lag (contract) or
    /// drain-granularity read latency (centralized), seconds.
    pub p50: f64,
    /// P99 of the same series.
    pub p99: f64,
    /// Peak uplink-overload factor on the serving side (weighted modeled
    /// bytes per tick against the serving device's §4 uplink).
    pub peak_overload: f64,
    /// The author's peak per-tick uplink utilization, from the real bytes
    /// the authority sent (pushes, bootstraps, pulls, reads) — the cost
    /// of *hosting* the app, as a fraction of its device uplink.
    pub publisher_peak_util: f64,
    /// Seconds past the flash crowd's end until every live replica holds
    /// the full log (0 when already converged at the boundary;
    /// centralized reads are always current, so 0 by construction).
    pub convergence_secs: f64,
    /// Final canonical state size in bytes.
    pub state_bytes: u64,
    /// Aggregate (weighted) read requests the day generated.
    pub requests: u64,
}

/// The four deployments, in seed, key and report order: key prefix and
/// report label.
const DEPLOYMENTS: [(&str, &str); 4] = [
    ("guestbook.central", "guestbook/central"),
    ("guestbook.contract", "guestbook/contract"),
    ("kv.central", "kvdoc/central"),
    ("kv.contract", "kvdoc/contract"),
];

/// One app deployment: a publisher (contract mode, consumer PC) or server
/// (centralized, datacenter) hosting contract `C`, and gateway endpoints
/// that rotate as writers at [`OPS_PER_TICK`] and issue the population's
/// reads. `make_op` builds the deterministic op for (tick, slot, now).
pub(super) struct AppFleet<C: Contract> {
    authority: NodeId,
    auth_class: DeviceClass,
    /// The replica swarm; empty in centralized mode.
    subscribers: Vec<NodeId>,
    gateways: Vec<NodeId>,
    make_op: fn(u64, u64, SimTime) -> C::Op,
    rr: usize,
    /// When the flash crowd has fully decayed, as an offset into the day.
    flash_end: SimDuration,
    publisher_peak_util: f64,
    prev_sent: u64,
    /// Seconds past `flash_end` at the first tick boundary where every
    /// live replica held the authority's full log.
    convergence_secs: Option<f64>,
}

impl<C: Contract> AppFleet<C> {
    pub(super) fn build(
        sim: &mut Sim<Self>,
        identity: &[u8],
        centralized: bool,
        flash_end: SimDuration,
        make_op: fn(u64, u64, SimTime) -> C::Op,
    ) -> Self {
        let (authority, auth_class) = if centralized {
            let server = AppNode::server(identity, "e18");
            (server, DeviceClass::DatacenterServer)
        } else {
            // The paper's point: the author hosts from a consumer uplink.
            let publisher = AppNode::publisher(identity, "e18");
            (publisher, DeviceClass::PersonalComputer)
        };
        let authority = sim.add_node(authority, auth_class);
        let app = sim.node(authority).app_id();
        let subscribers: Vec<NodeId> = (0..if centralized { 0 } else { SUBSCRIBERS })
            .map(|_| {
                sim.add_node(
                    AppNode::subscriber(authority, app),
                    DeviceClass::PersonalComputer,
                )
            })
            .collect();
        let gateways: Vec<NodeId> = (0..GATEWAYS)
            .map(|_| sim.add_node(AppNode::client(authority), DeviceClass::PersonalComputer))
            .collect();
        // Let subscriptions bootstrap before demand starts.
        sim.run_for(SimDuration::from_secs(5));
        AppFleet {
            authority,
            auth_class,
            subscribers,
            gateways,
            make_op,
            rr: 0,
            flash_end,
            publisher_peak_util: 0.0,
            prev_sent: 0,
            convergence_secs: None,
        }
    }

    fn centralized(&self) -> bool {
        self.subscribers.is_empty()
    }
}

impl<C: Contract> ServingSubstrate for AppFleet<C> {
    type Node = AppNode<C>;
    /// Contract-mode staleness; centralized reads have no event-time
    /// histogram and are timed at drain boundaries instead.
    const OP_HIST: &'static str = "app.delta_lag";
    const DRAIN_TIMED: bool = true;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        if self.centralized() {
            return vec![(self.authority, self.auth_class)];
        }
        consumer_pcs(&self.subscribers)
    }

    /// Only the replica swarm churns; the author and endpoints stay up
    /// (the centralized server is datacenter infrastructure, and E18
    /// measures replica churn, not author churn).
    fn churnable(&self) -> &[NodeId] {
        &self.subscribers
    }

    /// Authoring: rotating gateway writers submit this tick's ops.
    fn begin_tick(&mut self, sim: &mut Sim<Self>, k: u64) {
        for j in 0..OPS_PER_TICK {
            let w = self.gateways[((k * OPS_PER_TICK + j) % GATEWAYS as u64) as usize];
            let op = (self.make_op)(k, j, sim.now());
            sim.with_ctx(w, |n, ctx| n.start_submit(ctx, &op));
        }
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        let state_bytes = sim.node(self.authority).state_bytes();
        let rr = self.rr;
        self.rr += 1;
        if self.centralized() {
            // Every weighted read round-trips the server; issue a
            // representative real read through a gateway.
            ledger.add(self.authority, d.weight, state_bytes);
            let g = self.gateways[rr % self.gateways.len()];
            return Served::op(g, sim.with_ctx(g, |n, ctx| n.start_read(ctx)));
        }
        // Reads land on whichever replica is awake: scan the swarm
        // round-robin for a live one.
        let n = self.subscribers.len();
        let live = (0..n)
            .map(|i| self.subscribers[(rr + i) % n])
            .find(|&s| sim.is_up(s));
        if let Some(s) = live {
            ledger.add(s, d.weight, state_bytes);
        }
        Served::Resolved(live.is_some())
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_result(op)?;
        Some(matches!(r, AppResult::Read { .. }))
    }

    fn end_tick(&mut self, sim: &mut Sim<Self>, elapsed: SimDuration) {
        // Author uplink: real bytes the authority put on the wire this
        // tick, against its own device class.
        let sent = sim.node(self.authority).sent_app_bytes();
        let uplink_bps = self.auth_class.profile().uplink_bps as f64;
        let tick_util = (sent - self.prev_sent) as f64 * 8.0 / TICK.secs_f64() / uplink_bps;
        self.publisher_peak_util = self.publisher_peak_util.max(tick_util);
        self.prev_sent = sent;
        sim.probe_note(
            "app.state_bytes",
            sim.node(self.authority).state_bytes() as f64,
        );
        if self.centralized() {
            return;
        }
        let live = || self.subscribers.iter().filter(|&&s| sim.is_up(s));
        if self.convergence_secs.is_none() && elapsed >= self.flash_end {
            let pub_seq = sim.node(self.authority).pub_seq();
            if live().all(|&s| sim.node(s).applied_ops() == pub_seq) {
                let past = SimDuration::from_micros(elapsed.micros() - self.flash_end.micros());
                self.convergence_secs = Some(past.secs_f64());
            }
        }
        let lag_sum: f64 = live().map(|&s| sim.node(s).last_lag_secs()).sum();
        let lag_mean = lag_sum / live().count().max(1) as f64;
        sim.probe_note("app.delta_lag", lag_mean);
    }
}

/// One app day under the E16 cohort schedule's population-scale reads.
fn run_app<C: Contract>(
    seed: u64,
    population: u64,
    identity: &[u8],
    centralized: bool,
    make_op: fn(u64, u64, SimTime) -> C::Op,
) -> AppOutcome {
    let spec = e16_spec_cohorts(population, COHORTS);
    let flash = spec.model.flash.expect("the E16 day has a flash crowd");
    let mut sim: Simulation<AppNode<C>> = Simulation::new(seed);
    let mut fleet = AppFleet::build(&mut sim, identity, centralized, flash.end(), make_op);
    let day = run_day(&mut sim, &mut fleet, &spec, seed ^ 0xE18);
    let (p50, p99, convergence_secs) = if centralized {
        (day.p50, day.p99, 0.0)
    } else {
        let never = DAY.secs_f64() - flash.end().secs_f64();
        let convergence_secs = fleet.convergence_secs.unwrap_or(never);
        (day.op_p50, day.op_p99, convergence_secs)
    };
    AppOutcome {
        availability: day.availability,
        p50,
        p99,
        peak_overload: day.peak_overload,
        publisher_peak_util: fleet.publisher_peak_util,
        convergence_secs,
        state_bytes: sim.node(fleet.authority).state_bytes(),
        requests: day.requests,
    }
}

/// The two shipped app identities: deterministic seeds, so the DHT
/// discovery phase and both hosting modes address the same apps.
const GUESTBOOK_SEED: &[u8] = b"e18-guestbook";
const KVDOC_SEED: &[u8] = b"e18-kvdoc";

fn run_guestbook(seed: u64, population: u64, centralized: bool) -> AppOutcome {
    run_app::<Guestbook>(seed, population, GUESTBOOK_SEED, centralized, |k, j, _| {
        agora_app::GuestEntry {
            body: format!("tick {k:>4} slot {j}: the barriers to overthrowing internet feudalism are social, not technical")
                .into_bytes(),
        }
    })
}

fn run_kvdoc(seed: u64, population: u64, centralized: bool) -> AppOutcome {
    run_app::<KvDoc>(seed, population, KVDOC_SEED, centralized, |k, j, now| {
        let slot = (k * OPS_PER_TICK + j) % 8;
        agora_app::KvWrite {
            path: format!("page-{slot}.html"),
            stamp: now.micros(),
            value_hash: agora_app::kv_value_hash(format!("body {k}-{j}").as_bytes()),
            len: 2_000 + 37 * slot,
            delete: false,
        }
    })
}

/// Discovery: both signed app manifests published into a small Kademlia
/// overlay under their app keys; every gateway looks both up and
/// verifies address and kind. Returns (manifests found, mean hops).
fn run_discovery(seed: u64) -> (u64, f64) {
    const DEVICES: usize = 12;
    const LOOKUPS: usize = 4;
    let mut sim: Simulation<DhtNode> = Simulation::new(seed);
    let (_, ids) = warm_overlay(&mut sim, "e18", DEVICES + LOOKUPS);
    let gateways: Vec<NodeId> = ids[DEVICES..].to_vec();
    let apps = [
        (
            AppPublisher::new(GUESTBOOK_SEED).sign_manifest(
                ContractKind::Guestbook,
                "guestbook",
                1,
            ),
            ContractKind::Guestbook,
        ),
        (
            AppPublisher::new(KVDOC_SEED).sign_manifest(ContractKind::KvDoc, "site", 1),
            ContractKind::KvDoc,
        ),
    ];
    for (i, (sc, _)) in apps.iter().enumerate() {
        let payload = sc.manifest.encode();
        sim.with_ctx(gateways[i % gateways.len()], |n, ctx| {
            n.start_put(ctx, sc.manifest.app, payload);
        });
    }
    sim.run_for(SimDuration::from_secs(60));

    let mut pending: Vec<(NodeId, u64, agora_crypto::Hash256, ContractKind)> = Vec::new();
    for &g in &gateways {
        for (sc, kind) in &apps {
            if let Some(op) = sim.with_ctx(g, |n, ctx| n.start_get(ctx, sc.manifest.app)) {
                pending.push((g, op, sc.manifest.app, *kind));
            }
        }
    }
    sim.run_for(SimDuration::from_secs(120));
    let mut found = 0u64;
    let mut hops_sum = 0u64;
    for (g, op, key, kind) in pending {
        if let Some(DhtResult::Found { data, hops }) = sim.node_mut(g).take_result(op) {
            if let Ok(m) = agora_app::AppManifest::decode(&data) {
                if m.addressed_to(&key) && m.kind == kind {
                    found += 1;
                    hops_sum += u64::from(hops);
                }
            }
        }
    }
    (found, hops_sum as f64 / found.max(1) as f64)
}

/// E18 at one population: discovery, then both contracts under both
/// hosting modes. Keys `e18.*`; the population is the harness sweep
/// parameter.
pub fn e18_metrics(seed: u64, population: u64) -> Metrics {
    let (discovery_found, discovery_hops) = run_discovery(seed + 1);
    let outcomes = [
        run_guestbook(seed + 2, population, true),
        run_guestbook(seed + 3, population, false),
        run_kvdoc(seed + 4, population, true),
        run_kvdoc(seed + 5, population, false),
    ];
    let mut m = Metrics::new();
    for ((key, _), c) in DEPLOYMENTS.iter().zip(&outcomes) {
        let prefix = format!("e18.{key}");
        m.gauge_set(&format!("{prefix}.availability"), c.availability);
        m.gauge_set(&format!("{prefix}.stale_p50_secs"), c.p50);
        m.gauge_set(&format!("{prefix}.stale_p99_secs"), c.p99);
        m.gauge_set(&format!("{prefix}.peak_overload"), c.peak_overload);
        m.gauge_set(&format!("{prefix}.author_peak_util"), c.publisher_peak_util);
        m.gauge_set(&format!("{prefix}.convergence_secs"), c.convergence_secs);
        m.gauge_set(&format!("{prefix}.state_bytes"), c.state_bytes as f64);
    }
    m.incr("e18.discovery.found", discovery_found);
    m.gauge_set("e18.discovery.hops", discovery_hops);
    m.incr("e18.requests", outcomes.iter().map(|c| c.requests).sum());
    m
}

/// E18's report: one table per population variant, then the verdict
/// across the smallest and largest.
pub fn e18_report(variants: &[VariantStats]) -> Report {
    let mut body = String::from(
        "Two typed contracts (append-log guestbook, LWW key-value doc)\n\
         hosted centralized vs on the delta-sync substrate (author on a\n\
         1 Mbps consumer uplink pushing signed deltas to 24 churning\n\
         replicas), E16 diurnal day + 12x flash crowd driving the reads.\n\
         avail | staleness p50/p99 (contract: delta lag; central: read\n\
         latency) | serving overload | author uplink util | convergence:\n",
    );
    for v in variants {
        body.push_str(&format!("\n  population {:>4}:\n", v.point()));
        for (key, label) in DEPLOYMENTS {
            let mean = |stat: &str| v.mean(&format!("e18.{key}.{stat}"));
            body.push_str(&format!(
                "    {label:<19} avail {:>6.3}  stale {:>6.2}/{:>6.2}s  overload {:>9.2}  author {:>8.6}  conv {:>5.0}s\n",
                mean("availability"),
                mean("stale_p50_secs"),
                mean("stale_p99_secs"),
                mean("peak_overload"),
                mean("author_peak_util"),
                mean("convergence_secs"),
            ));
        }
    }
    let (first, last) = (by_label(variants, "p10k"), by_label(variants, "p1m"));
    body.push_str(&format!(
        "  discovery at {}: {:.1}/8 signed manifests found, {:.1} hops mean\n",
        first.point(),
        first.mean("e18.discovery.found"),
        first.mean("e18.discovery.hops")
    ));
    let util = "e18.guestbook.contract.author_peak_util";
    let central = "e18.guestbook.central.peak_overload";
    body.push_str(&format!(
        "\nVerdict: the author's uplink cost of hosting a *mutable* app on\n\
         the substrate is flat in population ({:.6} of 1 Mbps at {} vs\n\
         {:.6} at {} — pushes scale with the 24 replicas, not the crowd),\n\
         while the centralized server's serving load grows {:.0}x. The\n\
         price moves to the replica swarm: at {} its peak overload reaches\n\
         \x20 {}\n\
         times a consumer uplink, and staleness stays bounded, its P99 (s)\n\
         \x20 {}\n\
         because deltas are pushed and gaps repaired by exact summary\n\
         pulls. Contracts clear §3.4's mutability barrier; read capacity\n\
         remains E16's skew problem.\n",
        first.mean(util),
        first.point(),
        last.mean(util),
        last.point(),
        last.mean(central) / first.mean(central).max(1e-9),
        last.point(),
        last.spread("e18.guestbook.contract.peak_overload", 1.0, 0),
        last.spread("e18.guestbook.contract.stale_p99_secs", 1.0, 1),
    ));
    Report {
        id: "E18",
        title: "Typed-contract mutable apps: delta sync vs centralized hosting",
        claim: "hostless *applications* (§3.4, the survey's hardest row) are \
                feasible when app state is a deterministic mergeable contract: \
                the author's hosting cost scales with replicas, not readers — \
                but read serving re-inherits the flash-crowd skew of E16",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_point_is_sane_and_separates_modes() {
        let m = e18_metrics(81, 10_000);
        let get = |key: &str| m.gauge(&format!("e18.{key}"));
        for (key, _) in DEPLOYMENTS {
            assert!(get(&format!("{key}.availability")) > 0.9, "{key}: {m}");
            assert!(get(&format!("{key}.state_bytes")) > 0.0, "{key}: {m}");
        }
        // Demand volume is population-scale for every deployment (the run
        // fn's four outcomes, at its seeds).
        for (name, c) in [
            ("gb/central", run_guestbook(83, 10_000, true)),
            ("gb/contract", run_guestbook(84, 10_000, false)),
            ("kv/central", run_kvdoc(85, 10_000, true)),
            ("kv/contract", run_kvdoc(86, 10_000, false)),
        ] {
            assert!(c.requests > 150_000, "{name}: {c:?}");
        }
        // The whole day's log is 192 ops; both modes end at the same size.
        assert_eq!(
            get("guestbook.central.state_bytes"),
            get("guestbook.contract.state_bytes")
        );
        // Push-based staleness is bounded well under the authoring tick.
        assert!(
            get("guestbook.contract.stale_p99_secs") < TICK.secs_f64(),
            "{m}"
        );
        // Hosting from a consumer uplink costs a sliver of 1 Mbps.
        assert!(get("guestbook.contract.author_peak_util") < 0.25, "{m}");
        // Live replicas converge within a couple of ticks of the flash end.
        assert!(
            get("guestbook.contract.convergence_secs") <= 2.0 * TICK.secs_f64(),
            "{m}"
        );
        assert!(get("kv.contract.convergence_secs") <= 2.0 * TICK.secs_f64());
    }

    #[test]
    fn e18_author_cost_is_flat_while_central_load_scales() {
        let small_c = run_guestbook(87 + 2, 10_000, true);
        let large_c = run_guestbook(87 + 2, 1_000_000, true);
        let small_p = run_guestbook(87 + 3, 10_000, false);
        let large_p = run_guestbook(87 + 3, 1_000_000, false);
        // 100x the readers: the server's serving load scales with them...
        assert!(
            large_c.peak_overload > small_c.peak_overload * 20.0,
            "small {small_c:?} large {large_c:?}"
        );
        // ...the author's real push bytes do not (same ops, same replicas).
        assert!(
            large_p.publisher_peak_util < small_p.publisher_peak_util * 4.0 + 1e-9,
            "small {small_p:?} large {large_p:?}"
        );
        // But the replica swarm inherits the read load.
        assert!(
            large_p.peak_overload > small_p.peak_overload * 20.0,
            "small {small_p:?} large {large_p:?}"
        );
    }

    #[test]
    fn e18_discovery_finds_both_signed_manifests() {
        let (found, hops) = run_discovery(91);
        assert_eq!(found, 8, "all four gateways find both apps");
        assert!((0.0..8.0).contains(&hops), "hops {hops}");
    }

    #[test]
    fn e18_runs_are_deterministic() {
        let values = |seed| crate::experiments::values(&e18_metrics(seed, 100_000));
        assert_eq!(values(93), values(93));
    }
}
