//! The network model: per-node access links with latency, bandwidth
//! serialization, jitter, random loss and partitions.
//!
//! Topology is a star-of-access-links abstraction: every node reaches every
//! other through its uplink and the receiver's downlink, with class-dependent
//! propagation latency. This is the right fidelity for the paper's arguments,
//! which are about access-link quality (1 Mbps consumer uplinks vs datacenter
//! pipes), not about core routing.

use crate::device::DeviceProfile;
use crate::engine::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

struct NodeNet {
    profile: DeviceProfile,
    up: bool,
    partition: u32,
    /// Earliest instant the uplink is free to begin a new transmission.
    uplink_free: SimTime,
    /// Earliest instant the downlink is free to complete a new reception.
    downlink_free: SimTime,
    /// `profile.uplink_bps.max(1) as f64`, cached at `add_node` so the
    /// per-send hot path skips the integer clamp + conversion. The cached
    /// value is exactly the one the old code computed inline, so every f64
    /// operation (and therefore every rounded result) is unchanged.
    up_bps_f64: f64,
    /// `profile.downlink_bps.max(1) as f64`, cached likewise.
    down_bps_f64: f64,
    /// `profile.base_latency.secs_f64()`, cached likewise for jitter scaling.
    base_latency_secs: f64,
}

/// Why [`Network::transmit`] refused to deliver a message. Distinguishing
/// the cause costs nothing on the hot path (both arms were already computed)
/// and lets the engine count drops uniformly and the trace layer record the
/// reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendFailure {
    /// Sender and receiver are in different partition groups.
    Partitioned,
    /// The receiver address names no node of this simulation (a peer can
    /// put any address in a reply). Handled exactly like a partition.
    NoSuchNode,
    /// Random link loss.
    Lost,
    /// Dropped by the chaos layer: a downed link or a directed
    /// (asymmetric) chaos block between the endpoints' chaos groups.
    ChaosLink,
}

/// Per-message chaos verdict from [`Network::chaos_delivery`]: the possibly
/// reorder-delayed delivery instant, an optional duplicate delivery instant,
/// and whether a reorder delay was actually applied.
pub(crate) struct ChaosDelivery {
    pub(crate) at: SimTime,
    pub(crate) duplicate: Option<SimTime>,
    pub(crate) reordered: bool,
}

/// Fault-injection state layered on top of the base network model. Boxed
/// behind an `Option` in [`Network`] so the disabled case costs one untaken
/// branch on the send path and zero RNG draws. All randomness here comes
/// from a dedicated chaos RNG so enabling chaos never perturbs the main
/// simulation stream's draw sequence.
struct ChaosNet {
    rng: SimRng,
    /// Per-node chaos link state (flapping links), independent of `up`.
    link_up: Vec<bool>,
    /// Per-node chaos group for *directed* blocks (asymmetric partitions).
    group: Vec<u32>,
    /// Directed blocked pairs: `(from_group, to_group)` means messages from
    /// the first group to the second are dropped; the reverse direction is
    /// unaffected unless blocked separately.
    blocked: Vec<(u32, u32)>,
    /// Multiplier on propagation latency (storms); 1.0 = off.
    latency_factor: f64,
    /// Probability a delivered message is duplicated; 0.0 = off.
    dup_rate: f64,
    /// Bound on a uniform extra delivery delay (reordering); ZERO = off.
    reorder: SimDuration,
}

/// Link-layer state for all nodes.
pub struct Network {
    nodes: Vec<NodeNet>,
    loss_rate: f64,
    chaos: Option<Box<ChaosNet>>,
}

impl Network {
    pub(crate) fn new() -> Network {
        Network {
            nodes: Vec::new(),
            loss_rate: 0.0,
            chaos: None,
        }
    }

    pub(crate) fn add_node(&mut self, profile: DeviceProfile) {
        let up_bps_f64 = profile.uplink_bps.max(1) as f64;
        let down_bps_f64 = profile.downlink_bps.max(1) as f64;
        let base_latency_secs = profile.base_latency.secs_f64();
        self.nodes.push(NodeNet {
            profile,
            up: true,
            partition: 0,
            uplink_free: SimTime::ZERO,
            downlink_free: SimTime::ZERO,
            up_bps_f64,
            down_bps_f64,
            base_latency_secs,
        });
        if let Some(c) = &mut self.chaos {
            c.link_up.push(true);
            c.group.push(0);
        }
    }

    /// Enable the chaos layer with its own RNG stream. Idempotent: calling
    /// again resets fault state but keeps the layer on.
    pub(crate) fn enable_chaos(&mut self, seed: u64) {
        let n = self.nodes.len();
        self.chaos = Some(Box::new(ChaosNet {
            rng: SimRng::new(seed),
            link_up: vec![true; n],
            group: vec![0; n],
            blocked: Vec::new(),
            latency_factor: 1.0,
            dup_rate: 0.0,
            reorder: SimDuration::ZERO,
        }));
    }

    pub(crate) fn chaos_enabled(&self) -> bool {
        self.chaos.is_some()
    }

    fn chaos_mut(&mut self) -> &mut ChaosNet {
        self.chaos
            .as_deref_mut()
            .expect("chaos layer not enabled; call enable_chaos first")
    }

    pub(crate) fn set_chaos_link(&mut self, id: NodeId, up: bool) {
        let i = id.index();
        self.chaos_mut().link_up[i] = up;
    }

    pub(crate) fn set_chaos_group(&mut self, id: NodeId, group: u32) {
        let i = id.index();
        self.chaos_mut().group[i] = group;
    }

    pub(crate) fn chaos_block_directed(&mut self, from_group: u32, to_group: u32) {
        let c = self.chaos_mut();
        if !c.blocked.contains(&(from_group, to_group)) {
            c.blocked.push((from_group, to_group));
        }
    }

    pub(crate) fn chaos_clear_directed(&mut self) {
        self.chaos_mut().blocked.clear();
    }

    pub(crate) fn set_chaos_latency_factor(&mut self, f: f64) {
        self.chaos_mut().latency_factor = f.max(0.0);
    }

    pub(crate) fn set_chaos_dup_rate(&mut self, p: f64) {
        self.chaos_mut().dup_rate = p.clamp(0.0, 1.0);
    }

    pub(crate) fn set_chaos_reorder(&mut self, bound: SimDuration) {
        self.chaos_mut().reorder = bound;
    }

    /// Apply duplication/reordering to a delivery scheduled for `at`. With
    /// chaos disabled (the default) this is a single untaken branch and the
    /// message is delivered exactly once at exactly `at`.
    pub(crate) fn chaos_delivery(&mut self, at: SimTime) -> ChaosDelivery {
        let Some(c) = self.chaos.as_deref_mut() else {
            return ChaosDelivery {
                at,
                duplicate: None,
                reordered: false,
            };
        };
        let mut out = ChaosDelivery {
            at,
            duplicate: None,
            reordered: false,
        };
        if c.reorder > SimDuration::ZERO {
            let extra = SimDuration(c.rng.below(c.reorder.micros() + 1));
            if extra > SimDuration::ZERO {
                out.at = at + extra;
                out.reordered = true;
            }
        }
        if c.dup_rate > 0.0 && c.rng.chance(c.dup_rate) {
            // The duplicate takes its own (bounded) extra delay so the copy
            // does not always trail the original by a fixed offset.
            let lag = SimDuration(c.rng.below(c.reorder.micros().max(1_000) + 1));
            out.duplicate = Some(out.at + lag + SimDuration::from_micros(1));
        }
        out
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Link-saturation summary at `now` for the probe layer: the largest
    /// per-node uplink and downlink backlog — seconds of serialization
    /// already committed beyond `now` — and how many nodes have any at all.
    /// A pure read of the reservation cursors, so the result is a function
    /// of the canonical event order only.
    pub(crate) fn backlog_stats(&self, now: SimTime) -> (f64, u32, f64, u32) {
        let mut up_max = 0u64;
        let mut up_busy = 0u32;
        let mut down_max = 0u64;
        let mut down_busy = 0u32;
        for node in &self.nodes {
            let up = node.uplink_free.micros().saturating_sub(now.micros());
            if up > 0 {
                up_busy += 1;
                up_max = up_max.max(up);
            }
            let down = node.downlink_free.micros().saturating_sub(now.micros());
            if down > 0 {
                down_busy += 1;
                down_max = down_max.max(down);
            }
        }
        (
            up_max as f64 / 1e6,
            up_busy,
            down_max as f64 / 1e6,
            down_busy,
        )
    }

    pub(crate) fn is_up(&self, id: NodeId) -> bool {
        self.nodes[id.index()].up
    }

    pub(crate) fn set_up(&mut self, id: NodeId, up: bool) {
        self.nodes[id.index()].up = up;
    }

    pub(crate) fn profile(&self, id: NodeId) -> &DeviceProfile {
        &self.nodes[id.index()].profile
    }

    pub(crate) fn set_partition(&mut self, id: NodeId, group: u32) {
        self.nodes[id.index()].partition = group;
    }

    pub(crate) fn heal_partitions(&mut self) {
        for n in &mut self.nodes {
            n.partition = 0;
        }
    }

    pub(crate) fn set_loss_rate(&mut self, p: f64) {
        self.loss_rate = p.clamp(0.0, 1.0);
    }

    /// Compute the delivery instant for a `bytes`-sized message sent now from
    /// `from` to `to`, reserving uplink/downlink serialization slots.
    /// Returns `Err` if the message is dropped (unknown receiver, partition
    /// or random loss). Sender-side link state is charged even for dropped
    /// messages — the bits were transmitted.
    ///
    /// RNG discipline: the loss draw is short-circuited for unreachable
    /// receivers (`partitioned || rng.chance(..)` exactly as before the
    /// reason split), so the draw sequence — and therefore every downstream
    /// simulation result — is unchanged.
    pub(crate) fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        rng: &mut SimRng,
    ) -> Result<SimTime, SendFailure> {
        let (fi, ti) = (from.index(), to.index());
        let unreachable = match self.nodes.get(ti) {
            None => Some(SendFailure::NoSuchNode),
            Some(rx) if rx.partition != self.nodes[fi].partition => Some(SendFailure::Partitioned),
            Some(_) => None,
        };

        // Uplink serialization at the sender.
        let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.nodes[fi].up_bps_f64);
        let tx_start = self.nodes[fi].uplink_free.max(now);
        let tx_end = tx_start + tx;
        self.nodes[fi].uplink_free = tx_end;

        if let Some(failure) = unreachable {
            return Err(failure);
        }
        // Chaos link checks: pure lookups, no RNG draws, so the main
        // stream's draw sequence is untouched whether or not they fire.
        if let Some(c) = self.chaos.as_deref() {
            if !c.link_up[fi] || !c.link_up[ti] {
                return Err(SendFailure::ChaosLink);
            }
            let (fg, tg) = (c.group[fi], c.group[ti]);
            if fg != tg && c.blocked.contains(&(fg, tg)) {
                return Err(SendFailure::ChaosLink);
            }
        }
        if rng.chance(self.loss_rate) {
            return Err(SendFailure::Lost);
        }

        // Propagation latency: sum of both endpoints' access latencies, each
        // scaled by a log-normal jitter factor.
        let lat_from = jittered(
            &self.nodes[fi].profile,
            self.nodes[fi].base_latency_secs,
            rng,
        );
        let lat_to = jittered(
            &self.nodes[ti].profile,
            self.nodes[ti].base_latency_secs,
            rng,
        );
        let mut prop = lat_from + lat_to;
        if let Some(c) = self.chaos.as_deref() {
            if c.latency_factor != 1.0 {
                prop = SimDuration::from_secs_f64(prop.secs_f64() * c.latency_factor);
            }
        }

        // Downlink serialization at the receiver.
        let rx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.nodes[ti].down_bps_f64);
        let arrival_earliest = tx_end + prop;
        let rx_end = self.nodes[ti].downlink_free.max(arrival_earliest) + rx;
        self.nodes[ti].downlink_free = rx_end;

        Ok(rx_end)
    }
}

/// `base_secs` must equal `profile.base_latency.secs_f64()`; callers on the
/// hot path pass the per-node cached copy.
fn jittered(profile: &DeviceProfile, base_secs: f64, rng: &mut SimRng) -> SimDuration {
    if profile.latency_sigma <= 0.0 {
        return profile.base_latency;
    }
    let factor = rng.log_normal(0.0, profile.latency_sigma);
    SimDuration::from_secs_f64(base_secs * factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;

    fn net_with(classes: &[DeviceClass]) -> Network {
        let mut net = Network::new();
        for &c in classes {
            net.add_node(c.profile());
        }
        net
    }

    #[test]
    fn datacenter_pair_is_fast() {
        let mut net = net_with(&[DeviceClass::DatacenterServer, DeviceClass::DatacenterServer]);
        let mut rng = SimRng::new(1);
        let at = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1500, &mut rng)
            .expect("delivered");
        // Sub-10ms for a packet between two datacenter nodes.
        assert!(at.micros() < 10_000, "took {at:?}");
    }

    #[test]
    fn consumer_uplink_serializes() {
        let mut net = net_with(&[DeviceClass::PersonalComputer, DeviceClass::DatacenterServer]);
        let mut rng = SimRng::new(2);
        // 1 MB over 1 Mbps = 8 seconds of serialization minimum.
        let at = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, &mut rng)
            .expect("delivered");
        assert!(at.secs_f64() >= 8.0, "took {at:?}");
        assert!(at.secs_f64() < 12.0, "took {at:?}");
    }

    #[test]
    fn back_to_back_sends_queue_behind_each_other() {
        let mut net = net_with(&[DeviceClass::PersonalComputer, DeviceClass::DatacenterServer]);
        let mut rng = SimRng::new(3);
        let first = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 500_000, &mut rng)
            .unwrap();
        let second = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 500_000, &mut rng)
            .unwrap();
        assert!(second > first, "second must queue behind first");
        assert!(second.secs_f64() >= 8.0, "two 4s transmissions serialize");
    }

    #[test]
    fn partition_drops_but_charges_uplink() {
        // A receiver behind a partition, and one the network never had.
        for (to, failure) in [
            (NodeId(1), SendFailure::Partitioned),
            (NodeId(2), SendFailure::NoSuchNode),
        ] {
            let mut net = net_with(&[DeviceClass::PersonalComputer, DeviceClass::PersonalComputer]);
            let mut rng = SimRng::new(4);
            net.set_partition(NodeId(1), 9);
            assert_eq!(
                net.transmit(SimTime::ZERO, NodeId(0), to, 125_000, &mut rng),
                Err(failure)
            );
            // The drop drew nothing from the RNG.
            assert_eq!(rng.clone().next_u64(), SimRng::new(4).next_u64());
            // Uplink time was consumed: a follow-up send starts after ~1 s.
            net.heal_partitions();
            let at = net
                .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 125, &mut rng)
                .unwrap();
            assert!(at.secs_f64() >= 1.0, "uplink should have been busy: {at:?}");
        }
    }

    #[test]
    fn loss_rate_bounds_clamped() {
        let mut net = net_with(&[DeviceClass::DatacenterServer]);
        net.set_loss_rate(7.0);
        assert_eq!(net.loss_rate, 1.0);
        net.set_loss_rate(-2.0);
        assert_eq!(net.loss_rate, 0.0);
    }

    #[test]
    fn jitter_disabled_when_sigma_zero() {
        let mut profile = DeviceClass::DatacenterServer.profile();
        profile.latency_sigma = 0.0;
        let mut rng = SimRng::new(5);
        let d = jittered(&profile, profile.base_latency.secs_f64(), &mut rng);
        assert_eq!(d, profile.base_latency);
    }

    #[test]
    fn jitter_varies_when_sigma_positive() {
        let profile = DeviceClass::Smartphone.profile();
        let mut rng = SimRng::new(6);
        let base = profile.base_latency.secs_f64();
        let a = jittered(&profile, base, &mut rng);
        let b = jittered(&profile, base, &mut rng);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use crate::device::DeviceClass;

    #[test]
    fn fractional_loss_rate_converges() {
        let mut net = Network::new();
        net.add_node(DeviceClass::DatacenterServer.profile());
        net.add_node(DeviceClass::DatacenterServer.profile());
        net.set_loss_rate(0.25);
        let mut rng = SimRng::new(42);
        let trials = 4000;
        let mut lost = 0;
        for i in 0..trials {
            match net.transmit(SimTime(i * 1_000_000), NodeId(0), NodeId(1), 100, &mut rng) {
                Err(SendFailure::Lost) => lost += 1,
                Err(failure) => panic!("no partitions or chaos configured: {failure:?}"),
                Ok(_) => {}
            }
        }
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn delivery_time_monotone_with_size() {
        let mut net = Network::new();
        net.add_node(DeviceClass::PersonalComputer.profile());
        net.add_node(DeviceClass::DatacenterServer.profile());
        let mut rng = SimRng::new(7);
        let small = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000, &mut rng)
            .unwrap();
        // Fresh network so link state doesn't accumulate.
        let mut net2 = Network::new();
        net2.add_node(DeviceClass::PersonalComputer.profile());
        net2.add_node(DeviceClass::DatacenterServer.profile());
        let mut rng2 = SimRng::new(7);
        let big = net2
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, &mut rng2)
            .unwrap();
        assert!(big > small, "bigger payloads must take longer");
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::device::DeviceClass;

    fn pair() -> Network {
        let mut net = Network::new();
        net.add_node(DeviceClass::DatacenterServer.profile());
        net.add_node(DeviceClass::DatacenterServer.profile());
        net
    }

    #[test]
    fn asymmetric_partition_drops_one_direction_only() {
        let mut net = pair();
        net.enable_chaos(99);
        net.set_chaos_group(NodeId(1), 1);
        net.chaos_block_directed(1, 0);
        let mut rng = SimRng::new(1);
        // A(group 0) → B(group 1): delivered.
        assert!(net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100, &mut rng)
            .is_ok());
        // B(group 1) → A(group 0): dropped, chaos-attributed.
        assert_eq!(
            net.transmit(SimTime::ZERO, NodeId(1), NodeId(0), 100, &mut rng),
            Err(SendFailure::ChaosLink)
        );
        net.chaos_clear_directed();
        assert!(net
            .transmit(SimTime::ZERO, NodeId(1), NodeId(0), 100, &mut rng)
            .is_ok());
    }

    #[test]
    fn downed_chaos_link_drops_both_directions() {
        let mut net = pair();
        net.enable_chaos(99);
        net.set_chaos_link(NodeId(0), false);
        let mut rng = SimRng::new(2);
        assert_eq!(
            net.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100, &mut rng),
            Err(SendFailure::ChaosLink)
        );
        assert_eq!(
            net.transmit(SimTime::ZERO, NodeId(1), NodeId(0), 100, &mut rng),
            Err(SendFailure::ChaosLink)
        );
        net.set_chaos_link(NodeId(0), true);
        assert!(net
            .transmit(SimTime::ZERO, NodeId(1), NodeId(0), 100, &mut rng)
            .is_ok());
    }

    #[test]
    fn latency_factor_scales_propagation() {
        let mut slow = pair();
        slow.enable_chaos(99);
        slow.set_chaos_latency_factor(100.0);
        let mut fast = pair();
        fast.enable_chaos(99);
        let mut rng_a = SimRng::new(3);
        let mut rng_b = SimRng::new(3);
        let a = slow
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100, &mut rng_a)
            .unwrap();
        let b = fast
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100, &mut rng_b)
            .unwrap();
        assert!(a > b, "latency storm must slow delivery: {a:?} vs {b:?}");
    }

    #[test]
    fn duplication_and_reorder_fire_under_chaos() {
        let mut net = pair();
        net.enable_chaos(7);
        net.set_chaos_dup_rate(1.0);
        net.set_chaos_reorder(SimDuration::from_millis(50));
        let base = SimTime(1_000_000);
        let mut dup_seen = false;
        let mut reorder_seen = false;
        for _ in 0..64 {
            let d = net.chaos_delivery(base);
            assert!(d.at >= base, "reorder only delays, never time-travels");
            assert!(d.at <= base + SimDuration::from_millis(50));
            if let Some(dup) = d.duplicate {
                dup_seen = true;
                assert!(dup > d.at, "duplicate trails the original");
            }
            reorder_seen |= d.reordered;
        }
        assert!(dup_seen, "dup_rate=1.0 must duplicate");
        assert!(reorder_seen, "50ms reorder bound must delay at least once");
    }

    #[test]
    fn delivered_exactly_once_is_the_default() {
        // Chaos never enabled: chaos_delivery is the identity and the
        // transmit result stream is byte-identical to a network that has
        // no chaos layer at all (it *is* that network).
        let mut net = pair();
        assert!(!net.chaos_enabled());
        let d = net.chaos_delivery(SimTime(123));
        assert_eq!(d.at, SimTime(123));
        assert!(d.duplicate.is_none());
        assert!(!d.reordered);

        // And an enabled-but-quiescent chaos layer changes nothing either:
        // same seed, same transmit outcomes, delivered exactly once.
        let mut plain = pair();
        let mut quiet = pair();
        quiet.enable_chaos(5);
        let mut rng_a = SimRng::new(11);
        let mut rng_b = SimRng::new(11);
        for i in 0..32u64 {
            let a = plain.transmit(SimTime(i * 500), NodeId(0), NodeId(1), 200, &mut rng_a);
            let b = quiet.transmit(SimTime(i * 500), NodeId(0), NodeId(1), 200, &mut rng_b);
            assert_eq!(a, b);
            if let Ok(at) = b {
                let d = quiet.chaos_delivery(at);
                assert_eq!(d.at, at);
                assert!(d.duplicate.is_none());
            }
        }
    }
}
