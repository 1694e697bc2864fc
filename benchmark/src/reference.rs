//! The reference kernel: a fixed piece of the benchmark's own work, timed
//! beside every measured call, so that host time can be reported at the
//! speed of one reference host instead of at the host's speed of the
//! minute.
//!
//! Why: on the 2-vCPU sandbox this was written on, the same single-thread
//! work ran 15-35 % slower in some minutes than in others (README, "Host
//! noise"), for stretches longer than a run, so no statistic over the
//! passes of one run removes it. The kernel slows down with the program:
//! it churns a `BTreeMap` of small heap allocations and a `BinaryHeap` of
//! boxed payloads, the cache- and allocator-bound mix the simulator's own
//! hot paths have. A measured span's time divided by the kernel's slowdown
//! beside it is the span's time on a quiet reference host.
//!
//! The kernel shares no code with the program, so a change to the program
//! moves the numerator only.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on a quiet core of the reference host: the
/// 5th percentile of the samples the four workloads took on the 2.1 GHz
/// Xeon sandbox of the README (0.0112-0.0120 s by workload). It only fixes
/// the unit: parent and change are divided by the same constant.
pub const QUIET_SECS: f64 = 0.0115;

const MAP_INSERTS: u64 = 40_000;
const HEAP_DEPTH: usize = 4096;
const HEAP_CHURN: usize = 60_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the kernel once; seconds it took.
pub fn kernel_secs() -> f64 {
    let started = Instant::now();

    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..MAP_INSERTS {
        let r = xorshift(&mut s);
        map.insert(r >> 44, vec![i as u8; 24 + (r & 63) as usize]);
        if i % 3 == 0 {
            map.pop_first();
        }
    }
    black_box(map.len());

    let mut heap: BinaryHeap<(u128, Box<[u8; 48]>)> = BinaryHeap::with_capacity(HEAP_DEPTH);
    for _ in 0..HEAP_DEPTH {
        heap.push((u128::from(xorshift(&mut s)), Box::new([0u8; 48])));
    }
    for _ in 0..HEAP_CHURN {
        let (key, payload) = heap.pop().expect("the heap stays HEAP_DEPTH deep");
        heap.push((
            key.wrapping_add(u128::from(xorshift(&mut s) >> 40)),
            payload,
        ));
    }
    black_box(heap.len());

    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_measurable_time() {
        let secs = kernel_secs();
        assert!(secs > 0.0 && secs.is_finite());
    }
}
