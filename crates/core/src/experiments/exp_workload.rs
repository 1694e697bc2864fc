//! E16: a population-scale diurnal day with an embedded flash crowd,
//! replayed against the architecture classes at 10k → 1M users.
//!
//! The workload engine (`agora-workload`) compiles one simulated day of
//! heavy-tailed, timezone-mixed demand — 20 actions/user/day, Zipf(0.9)
//! popularity over 64 objects, bounded-Pareto sizes, and a 12× flash
//! crowd at lunchtime UTC — into a cohort-aggregated schedule: the engine
//! processes O(cohorts) events per tick no matter the population, while
//! per-demand *weights* carry the full population's request volume.
//! Consumer-device serving capacity (DHT nodes, storage providers, web
//! seeders) additionally churns diurnally: half the devices sleep at the
//! activity trough, 10% at the peak.
//!
//! Measured per class: weighted availability, delivery-latency quantiles
//! (P² streaming estimators over the substrate latency histograms where
//! the substrate records one; drain-granularity op timing otherwise),
//! per-node load imbalance (busiest node's share of weighted demand), and
//! the peak uplink-overload factor — modeled weighted bytes per tick
//! against the serving device's §4 uplink. The overload factor is the
//! population-scaled observable: at 10k users the flash crowd is noise,
//! at 1M it saturates whoever the demand skew concentrates on.

use std::collections::BTreeMap;

use agora_comm::{CentralNode, FedNode, ModerationPolicy, PostLabel, ReadResult, ReplicationMode};
use agora_crypto::{sha256, Hash256};
use agora_dht::{Contact, DhtConfig, DhtNode, DhtResult};
use agora_policy::{PolicyConfig, PolicyHandle, PolicyHub};
use agora_sim::{
    DeviceClass, Metrics, NodeId, Protocol, Retrier, RetryPolicy, SimDuration, SimRng, SimTime,
    Simulation,
};
use agora_storage::{ProviderStrategy, StorageNode, StorageResult};
use agora_web::{SitePublisher, SwarmNode, VisitResult};
use agora_workload::{
    BoundedPareto, ChurnCurve, Demand, DemandModel, DiurnalCurve, FlashCrowd, LogNormalSessions,
    WorkloadSpec, ZoneMix,
};

pub use super::day::ClassOutcome;
use super::day::{run_day, LoadLedger, Pending, Served, ServingSubstrate, Sim, TICK};
use super::Report;

/// Cohorts the population aggregates into.
pub(crate) const COHORTS: u32 = 8;
/// Representative demands per cohort-tick.
const REP_CAP: u32 = 2;
/// Content catalogue size.
const RANKS: usize = 64;
/// Zipf popularity exponent.
const ZIPF_ALPHA: f64 = 0.9;
/// Post payload for the content-producing side of the comm classes.
const POST_BYTES: u64 = agora_workload::CommLoad::paper_default().post_bytes;

/// The populations swept by the report and the harness matrix.
pub const E16_POPULATIONS: [u64; 3] = [10_000, 100_000, 1_000_000];

/// The E16 workload: one diurnal day, three timezone regions, flash crowd
/// at 12:45 UTC ramping to 12× over 30 min, held an hour. `cohorts` is a
/// knob: `cohorts == population` is exact per-user generation (every
/// cohort is one real user), the ground truth the [`COHORTS`]-cohort
/// approximation is measured against.
pub fn e16_spec_cohorts(population: u64, cohorts: u32) -> WorkloadSpec {
    WorkloadSpec {
        population,
        cohorts,
        actions_per_user_day: 20.0,
        model: DemandModel {
            zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
            flash: Some(FlashCrowd {
                start: SimDuration::from_secs(45_900),
                ramp: SimDuration::from_mins(30),
                plateau: SimDuration::from_mins(60),
                decay: SimDuration::from_mins(30),
                peak: 12.0,
            }),
        },
        ranks: RANKS,
        zipf_alpha: ZIPF_ALPHA,
        sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: TICK,
        rep_cap: REP_CAP,
        churn: Some(ChurnCurve {
            offline_at_peak: 0.1,
            offline_at_trough: 0.5,
        }),
    }
}

// ---------------------------------------------------------------------------
// Reactive policy plumbing (DESIGN.md §17). A PolicyHub installed as the
// simulation's probe sink watches the same frames and observer verdicts
// the trace plane sees; substrates poll its handle and act only in their
// `reconcile` hook — deterministic sim times in the canonical event order
// — so policy-on runs stay byte-identical at any harness thread count.
// Policy-off runs never construct a hub: they are byte-identical to the
// pre-policy runners.
// ---------------------------------------------------------------------------

/// Which reactive policy a DHT run engages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DhtPolicy {
    /// No policy: byte-identical to the pre-policy runner.
    Off,
    /// Gateways cache hot keys while overloaded and serve repeats off
    /// their own uplinks (`policy.cache`).
    Cache,
    /// Admission control: shed a level-scaled fraction of arrivals into a
    /// bounded backoff queue while overloaded (`policy.shed`).
    Shed,
}

/// What a policy did during a run: engagement cycles plus the exact
/// per-action totals recorded through the [`PolicyHandle`].
#[derive(Clone, Debug, Default)]
pub struct PolicyStats {
    /// How many times the policy engaged.
    pub engages: u64,
    /// How many times the policy released.
    pub releases: u64,
    /// Exact recorded action totals by kind (`policy.shed`, ...).
    pub actions: BTreeMap<&'static str, u64>,
}

fn stats_of(handle: Option<&PolicyHandle>) -> PolicyStats {
    handle.map_or_else(PolicyStats::default, |h| PolicyStats {
        engages: h.engages(),
        releases: h.releases(),
        actions: h.totals(),
    })
}

/// Wire a fresh policy hub into `sim` as its probe sink and return the
/// handle substrates poll at drain boundaries.
fn install_policy<P: Protocol>(sim: &mut Simulation<P>) -> PolicyHandle {
    let hub = PolicyHub::new(PolicyConfig::default());
    let handle = hub.handle();
    let cadence = hub.cadence();
    sim.set_probe_sink(hub.into_sink(), cadence);
    handle
}

/// Client backoff under admission control: decorrelated jitter from one
/// minute toward a fifteen-minute cap, eight attempts total.
fn shed_retry() -> RetryPolicy {
    RetryPolicy {
        base: SimDuration::from_secs(60),
        cap: SimDuration::from_mins(15),
        max_attempts: 8,
        hedge_after: None,
    }
}

/// Bound on demands deferred by admission control; arrivals shed past
/// this are dropped outright (`policy.shed_drop`).
const SHED_QUEUE_CAP: usize = 4096;

/// A demand deferred by admission control, waiting out its backoff.
struct ShedItem {
    rank: usize,
    weight: f64,
    bytes: u64,
    due: SimTime,
    retrier: Retrier,
}

/// E16 results at one population.
#[derive(Clone, Debug)]
pub struct E16Result {
    /// Simulated population.
    pub population: u64,
    /// Centralized platform (one datacenter server).
    pub centralized: ClassOutcome,
    /// Federation of five single-home instances.
    pub federated: ClassOutcome,
    /// Kademlia DHT on churning consumer devices.
    pub dht: ClassOutcome,
    /// Erasure-coded storage on churning consumer providers.
    pub storage: ClassOutcome,
    /// Visitor-seeded web swarm.
    pub swarm: ClassOutcome,
}

/// One E16 day against the fleet `build` sets up on a fresh simulation.
fn e16_day<S: ServingSubstrate>(
    seed: u64,
    spec: &WorkloadSpec,
    build: impl FnOnce(&mut Sim<S>) -> S,
) -> (ClassOutcome, S) {
    let mut sim = Simulation::new(seed);
    let mut fleet = build(&mut sim);
    (run_day(&mut sim, &mut fleet, spec, seed ^ 0xE16), fleet)
}

pub(crate) fn consumer_pcs(ids: &[NodeId]) -> Vec<(NodeId, DeviceClass)> {
    ids.iter()
        .map(|&id| (id, DeviceClass::PersonalComputer))
        .collect()
}

// ---------------------------------------------------------------------------
// Centralized: one datacenter server, a handful of always-on access
// gateways issuing the population's reads. Every weighted byte lands on
// the server: busiest_share is 1.0 by construction and the flash crowd
// scales its overload factor linearly with population.
// ---------------------------------------------------------------------------

struct CentralFleet {
    server: NodeId,
    gateways: Vec<NodeId>,
    rr: usize,
}

impl CentralFleet {
    fn build(sim: &mut Simulation<CentralNode>) -> CentralFleet {
        const GATEWAYS: usize = 6;
        let server = sim.add_node(
            CentralNode::server(ModerationPolicy::none()),
            DeviceClass::DatacenterServer,
        );
        let gateways: Vec<NodeId> = (0..GATEWAYS)
            .map(|_| sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer))
            .collect();
        for &g in &gateways {
            sim.with_ctx(g, |n, ctx| n.join(ctx, 1));
        }
        sim.run_for(SimDuration::from_secs(5));
        CentralFleet {
            server,
            gateways,
            rr: 0,
        }
    }
}

impl ServingSubstrate for CentralFleet {
    type Node = CentralNode;
    const OP_HIST: &'static str = "comm.delivery_secs";
    const DRAIN_TIMED: bool = false;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        vec![(self.server, DeviceClass::DatacenterServer)]
    }

    /// Datacenter infrastructure does not sleep.
    fn churnable(&self) -> &[NodeId] {
        &[]
    }

    fn begin_tick(&mut self, sim: &mut Sim<Self>, k: u64) {
        let poster = self.gateways[(k as usize) % self.gateways.len()];
        sim.with_ctx(poster, |n, ctx| {
            n.post(ctx, 1, POST_BYTES, PostLabel::Legit);
        });
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        ledger.add(self.server, d.weight, d.bytes);
        let g = self.gateways[self.rr % self.gateways.len()];
        self.rr += 1;
        Served::op(g, sim.with_ctx(g, |n, ctx| n.read(ctx, 1)))
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_read(op)?;
        Some(matches!(r, ReadResult::Ok(_)))
    }
}

fn run_centralized(seed: u64, population: u64) -> ClassOutcome {
    let spec = e16_spec_cohorts(population, COHORTS);
    e16_day(seed, &spec, CentralFleet::build).0
}

// ---------------------------------------------------------------------------
// Federated: five single-home instances; rooms are sharded rank % 5, so
// Zipf skew concentrates on the instance that homes the hot room — less
// than centralized's 1.0, far more than a balanced 0.2.
// ---------------------------------------------------------------------------

const FED_INSTANCES: usize = 5;

struct FedFleet {
    instances: Vec<NodeId>,
    gateways: Vec<NodeId>,
    rr: usize,
}

impl FedFleet {
    fn build(sim: &mut Simulation<FedNode>) -> FedFleet {
        const GATEWAYS_PER_INSTANCE: usize = 2;
        let instances: Vec<NodeId> = (0..FED_INSTANCES as u32).map(NodeId).collect();
        for &me in &instances {
            let peers: Vec<NodeId> = instances.iter().copied().filter(|&p| p != me).collect();
            sim.add_node(
                FedNode::instance(peers, ReplicationMode::SingleHome, ModerationPolicy::none()),
                DeviceClass::DatacenterServer,
            );
        }
        let mut gateways = Vec::new();
        for &instance in &instances {
            for _ in 0..GATEWAYS_PER_INSTANCE {
                gateways
                    .push(sim.add_node(FedNode::client(instance), DeviceClass::PersonalComputer));
            }
        }
        // Room r (1..=5) is first joined by a gateway homed on instance r-1,
        // pinning the room's origin there; everyone else joins after.
        for room in 1..=FED_INSTANCES as u32 {
            let first = (room as usize - 1) * GATEWAYS_PER_INSTANCE;
            sim.with_ctx(gateways[first], |n, ctx| n.join(ctx, room));
            sim.run_for(SimDuration::from_millis(100));
            for (gi, &g) in gateways.iter().enumerate() {
                if gi != first {
                    sim.with_ctx(g, |n, ctx| n.join(ctx, room));
                }
            }
            sim.run_for(SimDuration::from_millis(100));
        }
        sim.run_for(SimDuration::from_secs(5));
        FedFleet {
            instances,
            gateways,
            rr: 0,
        }
    }
}

impl ServingSubstrate for FedFleet {
    type Node = FedNode;
    const OP_HIST: &'static str = "comm.delivery_secs";
    const DRAIN_TIMED: bool = false;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        self.instances
            .iter()
            .map(|&id| (id, DeviceClass::DatacenterServer))
            .collect()
    }

    fn churnable(&self) -> &[NodeId] {
        &[]
    }

    fn begin_tick(&mut self, sim: &mut Sim<Self>, k: u64) {
        let room = 1 + (k as u32) % FED_INSTANCES as u32;
        let poster = self.gateways[(k as usize) % self.gateways.len()];
        sim.with_ctx(poster, |n, ctx| {
            n.post(ctx, room, POST_BYTES, PostLabel::Legit);
        });
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        let room = 1 + d.rank % FED_INSTANCES as u32;
        // Single-home: the room's history lives on its origin.
        ledger.add(self.instances[(room - 1) as usize], d.weight, d.bytes);
        let g = self.gateways[self.rr % self.gateways.len()];
        self.rr += 1;
        Served::op(g, sim.with_ctx(g, |n, ctx| n.read(ctx, room)))
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_read(op)?;
        Some(matches!(r, ReadResult::Ok(_)))
    }
}

fn run_federated(seed: u64, population: u64) -> ClassOutcome {
    let spec = e16_spec_cohorts(population, COHORTS);
    e16_day(seed, &spec, FedFleet::build).0
}

// ---------------------------------------------------------------------------
// DHT: the catalogue lives in a Kademlia overlay of consumer devices that
// churn with the diurnal cycle. Four always-on access gateways publish
// (and, as origins, republish) the values and issue the population's
// gets. Load is attributed to the XOR-closest overlay node per key —
// consistent hashing spreads the catalogue but cannot spread one hot key.
// ---------------------------------------------------------------------------

/// A Kademlia overlay of `n` consumer PCs bootstrapped off node 0, routing
/// tables warmed by one lookup each. Node keys and warm-up targets derive
/// from `tag`. Returns the node keys and ids, index-aligned.
pub(crate) fn warm_overlay(
    sim: &mut Simulation<DhtNode>,
    tag: &str,
    n: usize,
) -> (Vec<Hash256>, Vec<NodeId>) {
    let boot_key = sha256(format!("{tag}-dht-0").as_bytes());
    let mut keys: Vec<Hash256> = Vec::new();
    let mut ids: Vec<NodeId> = Vec::new();
    for i in 0..n {
        let key = sha256(format!("{tag}-dht-{i}").as_bytes());
        let bootstrap = if i == 0 {
            vec![]
        } else {
            vec![Contact {
                key: boot_key,
                addr: ids[0],
            }]
        };
        keys.push(key);
        ids.push(sim.add_node(
            DhtNode::new(key, DhtConfig::default(), bootstrap),
            DeviceClass::PersonalComputer,
        ));
    }
    for (i, &id) in ids.iter().enumerate() {
        let target = sha256(format!("{tag}-warm-{i}").as_bytes());
        sim.with_ctx(id, |n, ctx| n.start_find_node(ctx, target));
    }
    sim.run_for(SimDuration::from_secs(60));
    (keys, ids)
}

const DHT_DEVICES: usize = 24;
const DHT_GATEWAYS: usize = 4;

struct DhtFleet {
    /// The churning devices, then the always-on gateways.
    ids: Vec<NodeId>,
    content_keys: Vec<Hash256>,
    /// XOR-closest overlay node per content key (the replica-set anchor).
    closest: Vec<NodeId>,
    rr: usize,
    policy: DhtPolicy,
    handle: Option<PolicyHandle>,
    shed_rng: SimRng,
    shed_q: Vec<ShedItem>,
    cache_on: bool,
}

impl DhtFleet {
    fn build(
        sim: &mut Simulation<DhtNode>,
        spec: &WorkloadSpec,
        seed: u64,
        policy: DhtPolicy,
    ) -> DhtFleet {
        let handle = (policy != DhtPolicy::Off).then(|| install_policy(sim));
        let (keys, ids) = warm_overlay(sim, "e16", DHT_DEVICES + DHT_GATEWAYS);

        // Publish the catalogue from the gateways (origins republish, keeping
        // values alive across device churn). Sizes come from the workload's
        // bounded-Pareto, drawn from a dedicated stream.
        let mut sizes_rng = SimRng::new(seed ^ 0x0B1E);
        let content_keys: Vec<Hash256> = (0..RANKS)
            .map(|r| sha256(format!("e16-rank-{r}").as_bytes()))
            .collect();
        for (r, &key) in content_keys.iter().enumerate() {
            let size = spec.sizes.sample(&mut sizes_rng) as usize;
            let payload = vec![(r % 251) as u8; size];
            sim.with_ctx(ids[DHT_DEVICES + r % DHT_GATEWAYS], |n, ctx| {
                n.start_put(ctx, key, payload);
            });
        }
        sim.run_for(SimDuration::from_secs(120));

        let closest = content_keys
            .iter()
            .map(|ck| {
                let nearest = keys.iter().zip(&ids).min_by_key(|(k, _)| ck.xor(k));
                *nearest.expect("overlay is non-empty").1
            })
            .collect();
        DhtFleet {
            ids,
            content_keys,
            closest,
            rr: 0,
            policy,
            handle,
            shed_rng: SimRng::new(seed ^ 0x5ED),
            shed_q: Vec::new(),
            cache_on: false,
        }
    }

    /// Demands still queued when the day ends never completed.
    fn give_up_queued(&mut self) {
        if let Some(h) = &self.handle {
            for _ in self.shed_q.drain(..) {
                h.record("policy.shed_give_up", 1);
            }
        }
    }
}

impl ServingSubstrate for DhtFleet {
    type Node = DhtNode;
    const OP_HIST: &'static str = "dht.lookup_secs";
    const DRAIN_TIMED: bool = false;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        consumer_pcs(&self.ids)
    }

    fn churnable(&self) -> &[NodeId] {
        &self.ids[..DHT_DEVICES]
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        let rank = d.rank as usize % RANKS;
        let engaged = self.handle.as_ref().filter(|h| h.engaged());
        if let (DhtPolicy::Shed, Some(h)) = (self.policy, engaged) {
            // Level-scaled admission control: shed lvl/(lvl+2) of arrivals
            // into the backoff queue instead of serving them at the peak.
            let lvl = f64::from(h.level());
            if self.shed_rng.f64() < lvl / (lvl + 2.0) {
                if self.shed_q.len() >= SHED_QUEUE_CAP {
                    h.record("policy.shed_drop", 1);
                } else {
                    let mut retrier = Retrier::new(shed_retry());
                    let b = retrier
                        .next_backoff(&mut self.shed_rng)
                        .expect("first backoff");
                    self.shed_q.push(ShedItem {
                        rank,
                        weight: d.weight,
                        bytes: d.bytes,
                        due: sim.now() + b,
                        retrier,
                    });
                    h.record("policy.shed", 1);
                }
                return Served::Resolved(false);
            }
        }
        let g = self.ids[DHT_DEVICES + self.rr % DHT_GATEWAYS];
        self.rr += 1;
        let key = self.content_keys[rank];
        match engaged {
            Some(h) if self.policy == DhtPolicy::Cache && sim.node(g).cached(&key) => {
                // The gateway answers the repeat off its own uplink
                // instead of concentrating on the overlay anchor.
                ledger.add(g, d.weight, d.bytes);
                h.record("policy.cache", 1);
            }
            _ => ledger.add(self.closest[rank], d.weight, d.bytes),
        }
        Served::op(g, sim.with_ctx(g, |n, ctx| n.start_get(ctx, key)))
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_result(op)?;
        Some(matches!(r, DhtResult::Found { .. }))
    }

    fn reconcile(
        &mut self,
        sim: &mut Sim<Self>,
        ledger: &mut LoadLedger,
        pending: &mut Vec<Pending>,
    ) {
        let Some(h) = &self.handle else {
            return;
        };
        match self.policy {
            DhtPolicy::Cache => {
                if h.engaged() != self.cache_on {
                    self.cache_on = h.engaged();
                    for &g in &self.ids[DHT_DEVICES..] {
                        sim.node_mut(g).set_cache(self.cache_on);
                    }
                    let kind = if self.cache_on {
                        "policy.cache_on"
                    } else {
                        "policy.cache_off"
                    };
                    h.record(kind, 1);
                }
            }
            DhtPolicy::Shed => {
                let now = sim.now();
                let engaged = h.engaged();
                let mut still = Vec::with_capacity(self.shed_q.len());
                for mut item in std::mem::take(&mut self.shed_q) {
                    if now < item.due {
                        still.push(item);
                    } else if engaged {
                        // Still overloaded: back off again, or give up
                        // once the attempt budget runs out.
                        match item.retrier.next_backoff(&mut self.shed_rng) {
                            Some(b) => {
                                item.due = now + b;
                                still.push(item);
                            }
                            None => h.record("policy.shed_give_up", 1),
                        }
                    } else {
                        // Released: admit the deferred demand.
                        ledger.add(self.closest[item.rank], item.weight, item.bytes);
                        let g = self.ids[DHT_DEVICES + self.rr % DHT_GATEWAYS];
                        self.rr += 1;
                        let key = self.content_keys[item.rank];
                        if let Some(op) = sim.with_ctx(g, |n, ctx| n.start_get(ctx, key)) {
                            pending.push(Pending {
                                node: g,
                                op,
                                started: now,
                                weight: item.weight,
                            });
                        }
                        h.record("policy.shed_admit", 1);
                    }
                }
                self.shed_q = still;
            }
            DhtPolicy::Off => {}
        }
    }
}

pub(crate) fn run_dht_impl(
    seed: u64,
    population: u64,
    cohorts: u32,
    policy: DhtPolicy,
) -> (ClassOutcome, PolicyStats) {
    let spec = e16_spec_cohorts(population, cohorts);
    let build = |sim: &mut Simulation<DhtNode>| DhtFleet::build(sim, &spec, seed, policy);
    let (outcome, mut fleet) = e16_day(seed, &spec, build);
    fleet.give_up_queued();
    (outcome, stats_of(fleet.handle.as_ref()))
}

// ---------------------------------------------------------------------------
// Storage: the catalogue is erasure-coded (k=4, m=2) across churning
// consumer providers, audited and repaired by an always-on client that
// also issues the population's gets. Random shard placement spreads even
// the hot object's load across k providers — the imbalance antidote the
// other classes lack. Attribution models that placement with one seeded
// shuffle per object.
// ---------------------------------------------------------------------------

const STORAGE_OBJECTS: usize = 16;
const STORAGE_K: usize = 4;
const STORAGE_M: usize = 2;

struct StorageFleet {
    providers: Vec<NodeId>,
    client: NodeId,
    objects: Vec<Hash256>,
    datas: Vec<Vec<u8>>,
    /// Modeled serving set per object: its k data-shard holders, then the
    /// k more it also serves off once the policy has re-replicated it.
    holders: Vec<Vec<NodeId>>,
    /// Objects `..replicated` have been re-published by the policy.
    replicated: usize,
    handle: Option<PolicyHandle>,
}

impl StorageFleet {
    fn build(
        sim: &mut Simulation<StorageNode>,
        spec: &WorkloadSpec,
        seed: u64,
        rebalance: bool,
    ) -> StorageFleet {
        const PROVIDERS: usize = 12;
        let handle = rebalance.then(|| install_policy(sim));
        let providers: Vec<NodeId> = (0..PROVIDERS)
            .map(|_| {
                sim.add_node(
                    StorageNode::provider(ProviderStrategy::Honest),
                    DeviceClass::PersonalComputer,
                )
            })
            .collect();
        let client = sim.add_node(
            StorageNode::client(providers.clone(), SimDuration::from_secs(600)),
            DeviceClass::PersonalComputer,
        );
        let mut sizes_rng = SimRng::new(seed ^ 0x0B1E);
        let mut objects: Vec<Hash256> = Vec::new();
        let mut datas: Vec<Vec<u8>> = Vec::new();
        for o in 0..STORAGE_OBJECTS {
            let size = (spec.sizes.sample(&mut sizes_rng) as usize).max(STORAGE_K * 64);
            let data = vec![(o as u8).wrapping_mul(37).wrapping_add(1); size];
            let (_, object) = sim
                .with_ctx(client, |n, ctx| {
                    n.start_put(ctx, &data, STORAGE_K, STORAGE_M)
                })
                .expect("client up");
            objects.push(object);
            datas.push(data);
            sim.run_for(SimDuration::from_secs(5));
        }
        sim.run_for(SimDuration::from_mins(5));

        // Modeled placement for attribution: the real client scatters each
        // object's k+m shards over a shuffled provider order; mirror that
        // with one seeded shuffle per object and attribute a get to the k
        // data-shard holders. Once the policy has re-replicated an object
        // it serves off k more, drawn from a second seeded shuffle.
        let shuffled = |salt: u64| {
            let mut order = providers.clone();
            SimRng::new(seed ^ salt).shuffle(&mut order);
            order
        };
        let holders: Vec<Vec<NodeId>> = (0..STORAGE_OBJECTS as u64)
            .map(|o| {
                let mut set = shuffled(0x9A7 ^ o)[..STORAGE_K].to_vec();
                let extra = shuffled(0x9A8 ^ o);
                let fresh: Vec<NodeId> = extra.into_iter().filter(|p| !set.contains(p)).collect();
                set.extend(&fresh[..STORAGE_K]);
                set
            })
            .collect();
        StorageFleet {
            providers,
            client,
            objects,
            datas,
            holders,
            replicated: 0,
            handle,
        }
    }
}

impl ServingSubstrate for StorageFleet {
    type Node = StorageNode;
    const OP_HIST: &'static str = "storage.get_secs";
    const DRAIN_TIMED: bool = true;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        consumer_pcs(&self.providers)
    }

    fn churnable(&self) -> &[NodeId] {
        &self.providers
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        let o = d.rank as usize % STORAGE_OBJECTS;
        // Re-replicated objects serve off twice the providers.
        let k = if o < self.replicated { 2 } else { 1 } * STORAGE_K;
        let holders = &self.holders[o][..k];
        ledger.spread(holders, d.weight, d.bytes);
        let object = self.objects[o];
        Served::op(
            self.client,
            sim.with_ctx(self.client, |n, ctx| n.start_get(ctx, object)),
        )
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_result(op)?;
        Some(matches!(r, StorageResult::Retrieved(_)))
    }

    /// Each escalation level re-publishes one more of the hottest objects
    /// through the real market path; replicas persist after the policy
    /// releases.
    fn reconcile(
        &mut self,
        sim: &mut Sim<Self>,
        _ledger: &mut LoadLedger,
        _pending: &mut Vec<Pending>,
    ) {
        let Some(h) = &self.handle else {
            return;
        };
        let want = if h.engaged() {
            (h.level() as usize).min(STORAGE_OBJECTS)
        } else {
            self.replicated
        };
        while self.replicated < want {
            let data = &self.datas[self.replicated];
            sim.with_ctx(self.client, |n, ctx| {
                n.start_put(ctx, data, STORAGE_K, STORAGE_M);
            });
            h.record("policy.replicate", 1);
            self.replicated += 1;
        }
    }
}

pub(crate) fn run_storage_impl(
    seed: u64,
    population: u64,
    cohorts: u32,
    rebalance: bool,
) -> (ClassOutcome, PolicyStats) {
    let spec = e16_spec_cohorts(population, cohorts);
    let build =
        |sim: &mut Simulation<StorageNode>| StorageFleet::build(sim, &spec, seed, rebalance);
    let (outcome, fleet) = e16_day(seed, &spec, build);
    (outcome, stats_of(fleet.handle.as_ref()))
}

// ---------------------------------------------------------------------------
// Swarm: one site, seeded by its visitors. The origin and the seed
// population churn diurnally; a few always-on gateways issue the
// population's visits (and become seeders themselves — virality is the
// point). Load spreads over whoever is up and seeding.
// ---------------------------------------------------------------------------

struct SwarmFleet {
    /// The origin and the seed wave: the site must outlive its origin.
    churnable: Vec<NodeId>,
    gateways: Vec<NodeId>,
    /// Reserve seeders for the auto-join policy: always-on peers holding
    /// nothing until activated. Empty when the policy is off — the off
    /// run's node set (and therefore its bytes) is untouched.
    pool: Vec<NodeId>,
    /// Reserve seeders `..active` have been told to join.
    active: usize,
    site: Hash256,
    rr: usize,
    handle: Option<PolicyHandle>,
}

impl SwarmFleet {
    fn build(sim: &mut Simulation<SwarmNode>, seeder_pool: bool) -> SwarmFleet {
        const SEEDERS: usize = 20;
        const GATEWAYS: usize = 6;
        const POOL: usize = 24;
        let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let mut peers = |n: usize| -> Vec<NodeId> {
            (0..n)
                .map(|_| sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer))
                .collect()
        };
        let origin = peers(1)[0];
        let seeders = peers(SEEDERS);
        let gateways = peers(GATEWAYS);
        let pool = peers(if seeder_pool { POOL } else { 0 });
        let handle = seeder_pool.then(|| install_policy(sim));
        let mut publisher = SitePublisher::new(b"e16-site");
        let content = vec![42u8; 200_000];
        let bundle = publisher.publish(&[("index.html", content.as_slice())]);
        let site = publisher.site_id();
        sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle));
        sim.run_for(SimDuration::from_secs(5));
        // Seed wave: every seeder fetches the site while the origin is up.
        let mut warm = Vec::new();
        for &s in &seeders {
            if let Some(op) = sim.with_ctx(s, |n, ctx| n.start_visit(ctx, site)) {
                warm.push((s, op));
            }
        }
        sim.run_for(SimDuration::from_mins(5));
        for (s, op) in warm {
            let _ = sim.node_mut(s).take_result(op);
        }
        let mut churnable = vec![origin];
        churnable.extend(&seeders);
        SwarmFleet {
            churnable,
            gateways,
            pool,
            active: 0,
            site,
            rr: 0,
            handle,
        }
    }
}

impl ServingSubstrate for SwarmFleet {
    type Node = SwarmNode;
    const OP_HIST: &'static str = "web.visit_secs";
    const DRAIN_TIMED: bool = true;

    fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
        consumer_pcs(&[&self.churnable[..], &self.gateways, &self.pool].concat())
    }

    fn churnable(&self) -> &[NodeId] {
        &self.churnable
    }

    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served {
        // Serving capacity: whoever is up and has the pieces — the origin,
        // the seed wave, the gateways themselves, and any policy-activated
        // reserve seeders that finished fetching the site.
        let live: Vec<NodeId> = self
            .churnable
            .iter()
            .chain(self.gateways.iter())
            .copied()
            .filter(|&n| sim.is_up(n))
            .chain(
                self.pool[..self.active]
                    .iter()
                    .copied()
                    .filter(|&p| sim.node(p).seeds(&self.site)),
            )
            .collect();
        ledger.spread(&live, d.weight, d.bytes);
        let g = self.gateways[self.rr % self.gateways.len()];
        self.rr += 1;
        let site = self.site;
        Served::op(g, sim.with_ctx(g, |n, ctx| n.start_visit(ctx, site)))
    }

    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool> {
        let r = sim.node_mut(node).take_result(op)?;
        Some(matches!(r, VisitResult::Ok { .. }))
    }

    /// Four reserve seeders join per escalation level; all retire once the
    /// policy releases.
    fn reconcile(
        &mut self,
        sim: &mut Sim<Self>,
        _ledger: &mut LoadLedger,
        _pending: &mut Vec<Pending>,
    ) {
        let Some(h) = &self.handle else {
            return;
        };
        let site = self.site;
        let want = if h.engaged() {
            (h.level() as usize * 4).min(self.pool.len())
        } else {
            0
        };
        while self.active < want {
            sim.with_ctx(self.pool[self.active], |n, ctx| {
                n.start_visit(ctx, site);
            });
            h.record("policy.seed", 1);
            self.active += 1;
        }
        while self.active > want {
            self.active -= 1;
            sim.with_ctx(self.pool[self.active], |n, ctx| n.retire(ctx, site));
            h.record("policy.retire", 1);
        }
    }
}

pub(crate) fn run_swarm_impl(
    seed: u64,
    population: u64,
    cohorts: u32,
    seeder_pool: bool,
) -> (ClassOutcome, PolicyStats) {
    let spec = e16_spec_cohorts(population, cohorts);
    let build = |sim: &mut Simulation<SwarmNode>| SwarmFleet::build(sim, seeder_pool);
    let (outcome, fleet) = e16_day(seed, &spec, build);
    (outcome, stats_of(fleet.handle.as_ref()))
}

/// E16 at a single population: the same day on all five classes.
pub fn e16_population_point(seed: u64, population: u64) -> E16Result {
    E16Result {
        population,
        centralized: run_centralized(seed, population),
        federated: run_federated(seed + 1, population),
        dht: run_dht_impl(seed + 2, population, COHORTS, DhtPolicy::Off).0,
        storage: run_storage_impl(seed + 3, population, COHORTS, false).0,
        swarm: run_swarm_impl(seed + 4, population, COHORTS, false).0,
    }
}

/// E16: sweep the population grid and render the flash-crowd report.
pub fn e16_flash_crowd_sweep(seed: u64) -> (Vec<E16Result>, Report) {
    let results: Vec<E16Result> = E16_POPULATIONS
        .iter()
        .map(|&p| e16_population_point(seed, p))
        .collect();
    let mut body = String::from(
        "One diurnal day (three timezone regions, residential curve) with a\n\
         12x flash crowd at 12:45 UTC, cohort-aggregated so 1M users cost\n\
         O(cohorts) engine events. Weighted availability | busiest node's\n\
         share of demand | peak uplink overload factor:\n",
    );
    for r in &results {
        body.push_str(&format!("\n  population {:>9}:\n", r.population));
        for (name, c) in [
            ("centralized", &r.centralized),
            ("federated", &r.federated),
            ("dht", &r.dht),
            ("storage", &r.storage),
            ("swarm", &r.swarm),
        ] {
            body.push_str(&format!(
                "    {name:<12} avail {:>6.3}  busiest {:>5.3}  overload {:>10.2}  p99 {:>7.2}s\n",
                c.availability, c.busiest_share, c.peak_overload, c.p99
            ));
        }
    }
    let first = &results[0];
    let last = &results[results.len() - 1];
    body.push_str(&format!(
        "\nVerdict: the centralized server takes the whole flash crowd\n\
         (busiest share {:.3}) yet its datacenter uplink absorbs it\n\
         ({:.2}x at 1M users), while the consumer-uplink substrates\n\
         overload despite spreading demand: the DHT peaks at {:.0}x and\n\
         erasure-coded storage at {:.0}x per device (busiest shares\n\
         {:.3} / {:.3}). Growing 10k -> 1M multiplies P2P overload\n\
         {:.0}x but leaves the datacenter flat — the paper's \"roughly\n\
         sufficient\" capacity (S5) holds on average, not at the skewed\n\
         node the flash crowd actually hits.\n",
        last.centralized.busiest_share,
        last.centralized.peak_overload,
        last.dht.peak_overload,
        last.storage.peak_overload,
        last.dht.busiest_share,
        last.storage.busiest_share,
        last.dht.peak_overload / first.dht.peak_overload.max(1e-9),
    ));
    (
        results,
        Report {
            id: "E16",
            title: "Population-scale flash crowd across architecture classes",
            claim: "the paper's per-device capacity argument (§4, §5) survives \
                    population scale only when the architecture spreads \
                    heavy-tailed demand: load skew, not raw capacity, is what \
                    breaks decentralized substrates under a flash crowd",
            body,
        },
    )
}

fn class_metrics(m: &mut Metrics, prefix: &str, c: &ClassOutcome) {
    m.gauge_set(&format!("{prefix}.availability"), c.availability);
    m.gauge_set(&format!("{prefix}.p99_secs"), c.p99);
    m.gauge_set(&format!("{prefix}.op_p50_secs"), c.op_p50);
    m.gauge_set(&format!("{prefix}.op_p99_secs"), c.op_p99);
    m.gauge_set(&format!("{prefix}.busiest_share"), c.busiest_share);
    m.gauge_set(&format!("{prefix}.peak_overload"), c.peak_overload);
}

/// Flatten an E16 run at one population into harness metrics (keys
/// `e16.*`). The population is the harness sweep parameter.
pub fn e16_metrics(seed: u64, population: u64) -> Metrics {
    let r = e16_population_point(seed, population);
    let mut m = Metrics::new();
    class_metrics(&mut m, "e16.centralized", &r.centralized);
    class_metrics(&mut m, "e16.federated", &r.federated);
    class_metrics(&mut m, "e16.dht", &r.dht);
    class_metrics(&mut m, "e16.storage", &r.storage);
    class_metrics(&mut m, "e16.swarm", &r.swarm);
    let requests = r.centralized.requests
        + r.federated.requests
        + r.dht.requests
        + r.storage.requests
        + r.swarm.requests;
    m.incr("e16.requests", requests);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_point_is_sane_and_separates_classes() {
        let r = e16_population_point(61, 10_000);
        // Infrastructure classes stay available; device classes track churn.
        assert!(r.centralized.availability > 0.9, "{:?}", r.centralized);
        assert!(r.federated.availability > 0.8, "{:?}", r.federated);
        assert!(r.dht.availability > 0.3, "{:?}", r.dht);
        assert!(r.swarm.availability > 0.5, "{:?}", r.swarm);
        // Imbalance: one server carries everything; sharded classes less.
        assert!((r.centralized.busiest_share - 1.0).abs() < 1e-9);
        assert!(r.federated.busiest_share < 0.9, "{:?}", r.federated);
        assert!(
            r.storage.busiest_share < r.centralized.busiest_share,
            "erasure coding must spread load: {:?}",
            r.storage
        );
        // Demand volume is population-scale.
        assert!(r.centralized.requests > 150_000, "{:?}", r.centralized);
    }

    #[test]
    fn e16_overload_scales_with_population_not_event_count() {
        let small = run_centralized(67, 10_000);
        let large = run_centralized(67, 1_000_000);
        // 100x the population, ~100x the modeled peak load...
        assert!(
            large.peak_overload > small.peak_overload * 20.0,
            "small {small:?} large {large:?}"
        );
        // ...from the same order of representative requests (the cohort
        // layer's O(cohorts) claim, visible as comparable availability
        // denominators rather than 100x the ops).
        assert!(large.requests > small.requests * 50);
    }

    #[test]
    fn e16_runs_are_deterministic() {
        let a = e16_population_point(71, 10_000);
        let b = e16_population_point(71, 10_000);
        for (x, y) in [
            (&a.centralized, &b.centralized),
            (&a.federated, &b.federated),
            (&a.dht, &b.dht),
            (&a.storage, &b.storage),
            (&a.swarm, &b.swarm),
        ] {
            assert_eq!(x.availability, y.availability);
            assert_eq!(x.busiest_share, y.busiest_share);
            assert_eq!(x.peak_overload, y.peak_overload);
            assert_eq!(x.requests, y.requests);
        }
    }
}
