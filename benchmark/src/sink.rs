//! A `TraceSink` that only counts. Installed with
//! `agora_sim::trace::with_thread_sink` around the traced pass, it sees
//! every engine record of every `Simulation` a trial builds, which is how
//! the benchmark gets per-layer work counts from outside the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use agora_sim::trace::{TraceEvent, TraceKind, TraceSink};

/// Engine records seen, by kind; protocol trace points, by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub sims_built: u64,
    pub sends: u64,
    pub send_bytes: u64,
    pub drop_sends: u64,
    pub delivers: u64,
    pub drop_delivers: u64,
    pub timer_fires: u64,
    pub timer_drops: u64,
    pub points: BTreeMap<&'static str, u64>,
}

impl Counts {
    /// Message and timer events the engine popped and dispatched.
    pub fn dispatched(&self) -> u64 {
        self.delivers + self.drop_delivers + self.timer_fires + self.timer_drops
    }

    /// Messages dropped, at send or at delivery.
    pub fn drops(&self) -> u64 {
        self.drop_sends + self.drop_delivers
    }

    /// How often the named trace point was hit.
    pub fn point(&self, name: &str) -> u64 {
        self.points.get(name).copied().unwrap_or(0)
    }

    /// Hits of every trace point whose name starts with `prefix`.
    pub fn points_with_prefix(&self, prefix: &str) -> u64 {
        self.points
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, n)| n)
            .sum()
    }
}

/// Shared handle: every simulation's sink adds into the same [`Counts`].
#[derive(Clone, Default)]
pub struct CountingSink(Rc<RefCell<Counts>>);

impl CountingSink {
    pub fn snapshot(&self) -> Counts {
        self.0.borrow().clone()
    }

    pub fn dispatched(&self) -> u64 {
        self.0.borrow().dispatched()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut c = self.0.borrow_mut();
        match ev.kind {
            TraceKind::SimStart { .. } => c.sims_built += 1,
            TraceKind::Send { bytes, .. } => {
                c.sends += 1;
                c.send_bytes += bytes;
            }
            TraceKind::DropSend { bytes, .. } => {
                // The engine counts a dropped send as sent: the uplink
                // was charged for it.
                c.sends += 1;
                c.send_bytes += bytes;
                c.drop_sends += 1;
            }
            TraceKind::Deliver { .. } => c.delivers += 1,
            TraceKind::DropDeliver { .. } => c.drop_delivers += 1,
            TraceKind::TimerFire { .. } => c.timer_fires += 1,
            TraceKind::TimerDrop { .. } => c.timer_drops += 1,
            TraceKind::Point { name, .. } => *c.points.entry(name).or_insert(0) += 1,
            TraceKind::TimerSet { .. }
            | TraceKind::ChurnUp
            | TraceKind::ChurnDown
            | TraceKind::Partition { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_core;
    use agora_sim::trace::with_thread_sink;

    #[test]
    fn dispatched_equals_the_engines_own_event_count() {
        let sink = CountingSink::default();
        let factory = sink.clone();
        let events = with_thread_sink(
            move || Box::new(factory.clone()),
            || engine_core::ring_flood(7, 3).counter(engine_core::EVENTS),
        );
        let counts = sink.snapshot();
        assert_eq!(events, 3 * engine_core::RING_EVENTS_PER_ROUND);
        assert_eq!(counts.dispatched(), events);
        assert_eq!(counts.sims_built, 1);
        assert_eq!(counts.drops(), 0);
        assert_eq!(counts.sends, counts.delivers);
        assert_eq!(
            counts.send_bytes,
            counts.sends * engine_core::RING_MSG_BYTES
        );
    }
}
