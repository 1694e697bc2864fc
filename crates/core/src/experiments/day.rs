//! The population-day runner: one diurnal day of cohort-weighted demand
//! replayed against any [`ServingSubstrate`] (DESIGN.md §13).
//!
//! [`run_day`] owns everything the E16 classes, their E16p policy variants
//! and E18's hosting modes share — the streamed schedule and its driver,
//! the tick / drain loop, the pending-op list, weighted availability, the
//! [`LoadLedger`] and its two per-tick probe notes, the tail drain and
//! outcome assembly. A substrate supplies only its fleet and how one
//! demand is attributed, issued and polled.
//!
//! Byte-identity rule: every hook runs at a tick or drain boundary — a
//! deterministic sim time in the canonical event order — or once per
//! demand at the demand's own instant, and the runner itself draws no
//! randomness. That is what keeps artifacts identical at any harness
//! thread count.

use agora_sim::probe::{SIG_DEMAND, SIG_UPLINK_UTIL};
use agora_sim::{
    DeviceClass, FastMap, Metrics, NodeId, P2Quantile, Protocol, SimDuration, SimTime, Simulation,
};
use agora_workload::{Demand, WorkloadDriver, WorkloadSpec};

/// Scheduling tick: demand integrates per tick, churn moves per tick.
pub(crate) const TICK: SimDuration = SimDuration::from_mins(15);
/// The simulated horizon: one full day.
pub(crate) const DAY: SimDuration = SimDuration::from_days(1);
/// How often pending substrate ops are drained (latency resolution for
/// the substrates without an event-time latency histogram).
pub(crate) const DRAIN: SimDuration = SimDuration::from_secs(30);
/// How long ops still in flight at day end get to complete.
const TAIL: SimDuration = SimDuration::from_mins(10);

/// One architecture's outcome under the E16 day.
#[derive(Clone, Copy, Debug)]
pub struct ClassOutcome {
    /// Weight-averaged fraction of demands that succeeded.
    pub availability: f64,
    /// Median latency (seconds).
    pub p50: f64,
    /// 95th-percentile latency (seconds).
    pub p95: f64,
    /// 99th-percentile latency (seconds).
    pub p99: f64,
    /// True per-operation median (seconds): quantile of the substrate's
    /// event-time completion histogram, free of the drain-granularity
    /// bias the legacy `p50`/`p95`/`p99` fields carry for the storage and
    /// swarm classes (their pending ops used to be timed at drain
    /// boundaries only).
    pub op_p50: f64,
    /// True per-operation 95th percentile (seconds).
    pub op_p95: f64,
    /// True per-operation 99th percentile (seconds).
    pub op_p99: f64,
    /// Busiest serving node's share of total weighted demand (1.0 = one
    /// node carries everything).
    pub busiest_share: f64,
    /// Peak modeled uplink utilization: max over nodes and ticks of
    /// weighted bytes·8 / tick / uplink_bps. > 1 means the §4 uplink
    /// cannot carry the attributed load.
    pub peak_overload: f64,
    /// Total population-scale requests represented by the schedule.
    pub requests: u64,
}

/// Weighted per-node load accounting shared by every substrate.
pub(crate) struct LoadLedger {
    /// uplink_bps per attributable serving node.
    uplink: FastMap<NodeId, f64>,
    total: FastMap<NodeId, f64>,
    tick_bytes: FastMap<NodeId, f64>,
    tick_weight: f64,
    grand_total: f64,
    peak_overload: f64,
}

impl LoadLedger {
    fn new(serving: &[(NodeId, DeviceClass)]) -> LoadLedger {
        LoadLedger {
            uplink: serving
                .iter()
                .map(|&(id, class)| (id, class.profile().uplink_bps as f64))
                .collect(),
            total: FastMap::default(),
            tick_bytes: FastMap::default(),
            tick_weight: 0.0,
            grand_total: 0.0,
            peak_overload: 0.0,
        }
    }

    /// Attribute `weight` requests of `bytes` each to one node.
    pub(crate) fn add(&mut self, node: NodeId, weight: f64, bytes: u64) {
        *self.total.entry(node).or_insert(0.0) += weight;
        *self.tick_bytes.entry(node).or_insert(0.0) += weight * bytes as f64;
        self.tick_weight += weight;
        self.grand_total += weight;
    }

    /// Attribute evenly across a serving set.
    pub(crate) fn spread(&mut self, nodes: &[NodeId], weight: f64, bytes: u64) {
        if nodes.is_empty() {
            return;
        }
        let w = weight / nodes.len() as f64;
        for &n in nodes {
            self.add(n, w, bytes);
        }
    }

    /// Close a tick: fold this tick's per-node bytes into the peak
    /// overload factor and reset the tick accumulators. Returns the tick's
    /// weighted demand and its max utilization factor (> 1 means some
    /// serving uplink cannot carry its attributed demand): demand is the
    /// smooth surge-shaped probe series (flash onset), utilization the
    /// noisy saturation level.
    fn end_tick(&mut self) -> (f64, f64) {
        let tick_secs = TICK.secs_f64();
        let mut tick_util = 0.0f64;
        for (n, b) in self.tick_bytes.drain() {
            let uplink = self.uplink.get(&n).copied().unwrap_or(f64::INFINITY);
            let demand_bps = b * 8.0 / tick_secs;
            tick_util = tick_util.max(demand_bps / uplink);
        }
        self.peak_overload = self.peak_overload.max(tick_util);
        let tick_weight = self.tick_weight;
        self.tick_weight = 0.0;
        (tick_weight, tick_util)
    }

    fn busiest_share(&self) -> f64 {
        if self.grand_total <= 0.0 {
            return 0.0;
        }
        self.total.values().cloned().fold(0.0, f64::max) / self.grand_total
    }
}

/// P² quantiles over an iterator of latency samples.
fn quantiles<I: IntoIterator<Item = f64>>(samples: I) -> (f64, f64, f64) {
    let (mut q50, mut q95, mut q99) = (P2Quantile::p50(), P2Quantile::p95(), P2Quantile::p99());
    for s in samples {
        q50.record(s);
        q95.record(s);
        q99.record(s);
    }
    (q50.value(), q95.value(), q99.value())
}

/// Quantiles straight from a recorded substrate histogram.
fn histogram_quantiles(m: &Metrics, key: &str) -> (f64, f64, f64) {
    let samples = m.histogram(key).map_or(&[][..], |h| h.samples());
    quantiles(samples.iter().copied())
}

/// What a substrate did with one demand.
pub(crate) enum Served {
    /// Issued a representative real op from `node`; the runner polls it at
    /// drain boundaries until it completes.
    Op {
        /// The node the op was issued from.
        node: NodeId,
        /// The substrate's op handle on that node.
        op: u64,
    },
    /// Settled on the spot: answered locally (`true`), or nothing could be
    /// issued — the issuing endpoint is down, or admission control turned
    /// the demand away (`false`). A demand the substrate merely deferred
    /// also reports `false`; its weight re-enters through the [`Pending`]
    /// op that [`ServingSubstrate::reconcile`] pushes on admission.
    Resolved(bool),
}

impl Served {
    /// The op `node` issued, or a failure when it could not (it is down).
    pub(crate) fn op(node: NodeId, op: Option<u64>) -> Served {
        op.map_or(Served::Resolved(false), |op| Served::Op { node, op })
    }
}

/// A real op in flight, carrying the weight of the demand it stands for.
pub(crate) struct Pending {
    pub(crate) node: NodeId,
    pub(crate) op: u64,
    pub(crate) started: SimTime,
    pub(crate) weight: f64,
}

/// The simulation a substrate's fleet lives on.
pub(crate) type Sim<S> = Simulation<<S as ServingSubstrate>::Node>;

/// An architecture the population day can be served from: a fleet built
/// on a [`Simulation`], plus how one weighted demand is attributed to
/// serving uplinks, issued as a real op, and polled to completion.
pub(crate) trait ServingSubstrate {
    /// The protocol the fleet's nodes run.
    type Node: Protocol;
    /// The substrate's event-time op-latency histogram (`op_p*` fields).
    const OP_HIST: &'static str;
    /// Whether the legacy `p50`/`p95`/`p99` fields time ops at drain
    /// boundaries (the pre-`op_*` storage / swarm / app-read behaviour the
    /// baseline still pins) instead of repeating the op histogram.
    const DRAIN_TIMED: bool;

    /// Nodes demand can be attributed to, with the device class whose §4
    /// uplink bounds them.
    fn serving(&self) -> Vec<(NodeId, DeviceClass)>;
    /// Nodes the diurnal churn curve may take offline.
    fn churnable(&self) -> &[NodeId];
    /// Tick `k` opens: the content-producing side (posts, authoring ops).
    fn begin_tick(&mut self, _sim: &mut Sim<Self>, _k: u64) {}
    /// Attribute one demand on `ledger` and issue its representative op.
    fn serve(&mut self, sim: &mut Sim<Self>, d: &Demand, ledger: &mut LoadLedger) -> Served;
    /// Take `op`'s result from `node` if it completed: `Some(succeeded)`.
    fn poll(&mut self, sim: &mut Sim<Self>, node: NodeId, op: u64) -> Option<bool>;
    /// Drain-boundary policy hook: the only place reactive-policy state
    /// takes effect on the substrate. Ops it issues go on `pending`.
    fn reconcile(
        &mut self,
        _sim: &mut Sim<Self>,
        _ledger: &mut LoadLedger,
        _pending: &mut Vec<Pending>,
    ) {
    }
    /// A tick closed `elapsed` into the day, after the runner's own
    /// `workload.demand` / `net.uplink_util` notes: substrate-side
    /// per-tick measurements and extra probe notes.
    fn end_tick(&mut self, _sim: &mut Sim<Self>, _elapsed: SimDuration) {}
}

/// Replay one day of `spec` (schedule seeded by `sched_seed`) against
/// `sub`, whose fleet is already built and warmed on `sim`.
pub(crate) fn run_day<S: ServingSubstrate>(
    sim: &mut Sim<S>,
    sub: &mut S,
    spec: &WorkloadSpec,
    sched_seed: u64,
) -> ClassOutcome {
    let events = spec.stream(sched_seed, sub.churnable(), DAY);
    let mut driver = WorkloadDriver::install_stream(sim, events);
    let requests_before = sim.metrics().counter("workload.requests");
    let mut ledger = LoadLedger::new(&sub.serving());
    // Weighted demand that arrived, and the part of it that succeeded.
    let (mut total_w, mut ok_w) = (0.0f64, 0.0f64);
    let mut pending: Vec<Pending> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut settle = |ok_w: &mut f64, p: &Pending, ok: bool, now: SimTime| {
        if ok {
            *ok_w += p.weight;
            if S::DRAIN_TIMED {
                latencies.push(now.since(p.started).secs_f64());
            }
        }
    };
    let base = sim.now();
    let ticks = DAY.micros() / TICK.micros();
    for k in 0..ticks {
        sub.begin_tick(sim, k);
        let tick_end = base + TICK * (k + 1);
        let mut t = base + TICK * k;
        while t < tick_end {
            t = (t + DRAIN).min(tick_end);
            driver.run_until(sim, t, &mut |sim, d| {
                total_w += d.weight;
                match sub.serve(sim, d, &mut ledger) {
                    Served::Op { node, op } => pending.push(Pending {
                        node,
                        op,
                        started: sim.now(),
                        weight: d.weight,
                    }),
                    Served::Resolved(true) => ok_w += d.weight,
                    Served::Resolved(false) => {}
                }
            });
            pending.retain(|p| match sub.poll(sim, p.node, p.op) {
                Some(ok) => {
                    settle(&mut ok_w, p, ok, t);
                    false
                }
                None => true,
            });
            sub.reconcile(sim, &mut ledger, &mut pending);
        }
        let (tick_demand, tick_util) = ledger.end_tick();
        sim.probe_note(SIG_DEMAND, tick_demand);
        sim.probe_note(SIG_UPLINK_UTIL, tick_util);
        sub.end_tick(sim, TICK * (k + 1));
    }
    sim.run_for(TAIL);
    let now = sim.now();
    for p in &pending {
        let ok = sub.poll(sim, p.node, p.op) == Some(true);
        settle(&mut ok_w, p, ok, now);
    }
    let (op_p50, op_p95, op_p99) = histogram_quantiles(sim.metrics(), S::OP_HIST);
    let (p50, p95, p99) = if S::DRAIN_TIMED {
        quantiles(latencies)
    } else {
        (op_p50, op_p95, op_p99)
    };
    ClassOutcome {
        availability: if total_w > 0.0 { ok_w / total_w } else { 0.0 },
        p50,
        p95,
        p99,
        op_p50,
        op_p95,
        op_p99,
        busiest_share: ledger.busiest_share(),
        peak_overload: ledger.peak_overload,
        // Every tick summary lies inside the day, so the driver has counted
        // the whole schedule's requests by now.
        requests: sim.metrics().counter("workload.requests") - requests_before,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use agora_sim::{Ctx, ProbeAnomaly, ProbeFrame, ProbeSink};
    use agora_workload::{BoundedPareto, DemandModel, DiurnalCurve, LogNormalSessions, ZoneMix};

    use super::*;

    struct Null;
    impl Protocol for Null {
        type Msg = ();
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
    }

    /// Every op completes `DELAY` after it was issued: longer than a drain
    /// step, shorter than the tail.
    const DELAY: SimDuration = SimDuration::from_mins(9);

    struct Fake {
        node: NodeId,
        day_start: SimTime,
        due: Vec<SimTime>,
        served_weight: f64,
        reconciles: u64,
        off_boundary_reconciles: u64,
        tail_resolved: u64,
    }

    impl ServingSubstrate for Fake {
        type Node = Null;
        const OP_HIST: &'static str = "fake.op_secs";
        const DRAIN_TIMED: bool = true;

        fn serving(&self) -> Vec<(NodeId, DeviceClass)> {
            vec![(self.node, DeviceClass::PersonalComputer)]
        }
        fn churnable(&self) -> &[NodeId] {
            &[]
        }
        fn serve(&mut self, sim: &mut Simulation<Null>, d: &Demand, l: &mut LoadLedger) -> Served {
            l.add(self.node, d.weight, d.bytes);
            self.served_weight += d.weight;
            self.due.push(sim.now() + DELAY);
            Served::Op {
                node: self.node,
                op: self.due.len() as u64 - 1,
            }
        }
        fn poll(&mut self, sim: &mut Simulation<Null>, _node: NodeId, op: u64) -> Option<bool> {
            if sim.now() < self.due[op as usize] {
                return None;
            }
            if sim.now() > self.day_start + DAY {
                self.tail_resolved += 1;
            }
            Some(true)
        }
        fn reconcile(
            &mut self,
            sim: &mut Simulation<Null>,
            _: &mut LoadLedger,
            _: &mut Vec<Pending>,
        ) {
            self.reconciles += 1;
            let into_day = (sim.now() - self.day_start).micros();
            if !into_day.is_multiple_of(DRAIN.micros()) {
                self.off_boundary_reconciles += 1;
            }
        }
    }

    /// One noted signal: when, which, what.
    type Note = (SimTime, &'static str, f64);

    /// Records every named signal the runner notes.
    struct Recorder(Rc<RefCell<Vec<Note>>>);
    impl ProbeSink for Recorder {
        fn on_signal(&mut self, now: SimTime, _node: NodeId, name: &'static str, value: f64) {
            self.0.borrow_mut().push((now, name, value));
        }
        fn on_frame(&mut self, _frame: &ProbeFrame<'_>) -> Vec<ProbeAnomaly> {
            Vec::new()
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            population: 50_000,
            cohorts: 4,
            actions_per_user_day: 20.0,
            model: DemandModel {
                zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
                flash: None,
            },
            ranks: 16,
            zipf_alpha: 0.9,
            sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
            sessions: LogNormalSessions::new(300.0, 1.0),
            tick: TICK,
            rep_cap: 2,
            churn: None,
        }
    }

    #[test]
    fn run_day_drives_a_fake_substrate_end_to_end() {
        let mut sim: Simulation<Null> = Simulation::new(7);
        let notes = Rc::new(RefCell::new(Vec::new()));
        sim.set_probe_sink(Box::new(Recorder(notes.clone())), SimDuration::from_mins(1));
        let node = sim.add_node(Null, DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(3));
        let day_start = sim.now();
        let mut fake = Fake {
            node,
            day_start,
            due: Vec::new(),
            served_weight: 0.0,
            reconciles: 0,
            off_boundary_reconciles: 0,
            tail_resolved: 0,
        };
        let out = run_day(&mut sim, &mut fake, &spec(), 11);

        // (a) Every representative was served, and their weights carry the
        // schedule's full population-scale request count.
        assert!(out.requests > 0);
        let requests = out.requests as f64;
        assert!((fake.served_weight - requests).abs() / requests < 0.01);
        // (c) Ops in flight at day end were settled by the tail drain, so
        // nothing issued went unresolved.
        assert!(fake.tail_resolved > 0);
        assert!((out.availability - 1.0).abs() < 1e-12, "{out:?}");
        assert_eq!(out.busiest_share, 1.0);
        // Drain-timed: an op resolves at the first drain boundary at or past
        // its fixed delay (tail-drained ones at the end of the tail).
        let (lo, hi) = (DELAY.secs_f64(), (DELAY + DRAIN).secs_f64());
        assert!((lo..=hi).contains(&out.p50), "{out:?}");
        // (d) The policy hook ran once per drain step, on the boundary.
        assert_eq!(fake.reconciles, DAY.micros() / DRAIN.micros());
        assert_eq!(fake.off_boundary_reconciles, 0);

        // (b) One demand / utilization note pair per tick, in tick order,
        // stamped at the tick boundary.
        let notes = notes.borrow();
        let ticks = DAY.micros() / TICK.micros();
        assert_eq!(notes.len() as u64, 2 * ticks);
        let mut noted_demand = 0.0;
        for (k, pair) in notes.chunks(2).enumerate() {
            let at = day_start + TICK * (k as u64 + 1);
            assert_eq!((pair[0].0, pair[0].1), (at, SIG_DEMAND));
            assert_eq!((pair[1].0, pair[1].1), (at, SIG_UPLINK_UTIL));
            noted_demand += pair[0].2;
        }
        assert!((noted_demand - fake.served_weight).abs() / requests < 1e-9);
    }

    fn pc(id: u32) -> (NodeId, DeviceClass) {
        (NodeId(id), DeviceClass::PersonalComputer)
    }

    #[test]
    fn ledger_spread_over_an_empty_set_is_a_no_op() {
        let mut l = LoadLedger::new(&[pc(0)]);
        l.spread(&[], 10.0, 1_000);
        assert_eq!(l.end_tick(), (0.0, 0.0));
        assert_eq!(l.busiest_share(), 0.0);
        l.spread(&[NodeId(0), NodeId(1)], 10.0, 1_000);
        assert_eq!(l.busiest_share(), 0.5);
    }

    #[test]
    fn ledger_end_tick_resets_tick_state_but_not_busiest_share() {
        let mut l = LoadLedger::new(&[pc(0), pc(1)]);
        l.add(NodeId(0), 3.0, 1_000);
        l.add(NodeId(1), 1.0, 1_000);
        let (demand, util) = l.end_tick();
        assert_eq!(demand, 4.0);
        assert!(util > 0.0);
        // A fresh tick starts from zero; the day-long totals persist.
        assert_eq!(l.end_tick(), (0.0, 0.0));
        assert_eq!(l.busiest_share(), 0.75);
        assert_eq!(l.peak_overload, util);
    }

    #[test]
    fn ledger_unknown_node_has_infinite_uplink_and_zero_util() {
        let mut l = LoadLedger::new(&[pc(0)]);
        l.add(NodeId(9), 1e9, 1_000_000);
        let (demand, util) = l.end_tick();
        assert_eq!((demand, util), (1e9, 0.0));
        assert_eq!(l.peak_overload, 0.0);
        assert_eq!(l.busiest_share(), 1.0);
    }
}
