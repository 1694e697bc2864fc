//! Microprobes: one public function of one layer, timed alone, so a change
//! to that function shows under its own name before it shows in a pass.
//! They run in the traced run only, and each takes well under 0.2 s.
//!
//! A probe prepares its input, hands the work to the caller's [`Timer`]
//! and turns the seconds it gets back into a rate.

use std::hint::black_box;

use agora::app::{Contract, GuestEntry, Guestbook};
use agora::chain::BlockHeader;
use agora::crypto::{sha256, sha256_into, MerkleTree};
use agora::storage::ReedSolomon;
use agora_sim::{Histogram, NodeId, SimDuration, SimRng};
use agora_workload::{
    BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, FlashCrowd, LogNormalSessions,
    WorkloadSpec, ZoneMix,
};

const MIB: f64 = 1024.0 * 1024.0;

/// Times a named piece of work: runs it once and returns its seconds.
pub type Timer<'a> = &'a mut dyn FnMut(&str, &mut dyn FnMut()) -> f64;

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    SimRng::new(seed).bytes(len)
}

/// `Histogram::record` calls per second (every metric sample pays one).
pub fn hist_record_per_s(seed: u64, time: Timer<'_>) -> f64 {
    const N: u64 = 2_000_000;
    let mut rng = SimRng::new(seed);
    let mut h = Histogram::new();
    let secs = time("probe/hist_record", &mut || {
        for _ in 0..N {
            h.record(rng.f64());
        }
    });
    black_box(h.count());
    N as f64 / secs
}

/// SHA-256 over 64 KiB buffers, MiB/s.
pub fn sha256_mib_s(seed: u64, time: Timer<'_>) -> f64 {
    const LEN: usize = 64 * 1024;
    const ITERS: usize = 256;
    let data = patterned(LEN, seed);
    let mut out = [0u8; 32];
    sha256_into(&data, &mut out);
    let secs = time("probe/sha256", &mut || {
        for _ in 0..ITERS {
            sha256_into(black_box(&data), &mut out);
        }
    });
    (LEN * ITERS) as f64 / MIB / secs
}

/// Merkle tree construction over 1 KiB leaves, leaves/s.
pub fn merkle_build_leaves_per_s(seed: u64, time: Timer<'_>) -> f64 {
    const LEAVES: usize = 4096;
    let data = patterned(LEAVES * 1024, seed);
    let items: Vec<&[u8]> = data.chunks(1024).collect();
    let secs = time("probe/merkle_build", &mut || {
        black_box(MerkleTree::from_data(&items).root());
    });
    LEAVES as f64 / secs
}

/// Nonces ground per second through the frozen header midstate, the path
/// `mine_block` takes.
pub fn mine_hashes_per_s(seed: u64, time: Timer<'_>) -> f64 {
    const NONCES: u64 = 200_000;
    let header = BlockHeader {
        height: 42,
        prev: sha256(&seed.to_le_bytes()),
        merkle_root: sha256(b"bench-merkle"),
        time_micros: 1_234_567,
        difficulty_bits: 64, // unreachable: the grind never ends early
        nonce: 0,
    };
    let mid = header.pow_midstate();
    let secs = time("probe/mine", &mut || {
        let mut best = 0;
        for nonce in 0..NONCES {
            best = best.max(mid.hash_nonce(nonce).leading_zero_bits());
        }
        black_box(best);
    });
    NONCES as f64 / secs
}

const RS_LEN: usize = 256 * 1024;
const RS_ITERS: usize = 16;

/// RS(4,2) encode, MiB of source data per second.
pub fn rs42_encode_mib_s(seed: u64, time: Timer<'_>) -> f64 {
    let rs = ReedSolomon::new(4, 2).expect("RS(4,2) is valid");
    let data = patterned(RS_LEN, seed);
    black_box(rs.encode(&data));
    let secs = time("probe/rs42_encode", &mut || {
        for _ in 0..RS_ITERS {
            black_box(rs.encode(black_box(&data)));
        }
    });
    (RS_LEN * RS_ITERS) as f64 / MIB / secs
}

/// RS(4,2) reconstruction with two data shards lost (the matrix-inversion
/// path), MiB of recovered data per second.
pub fn rs42_reconstruct_mib_s(seed: u64, time: Timer<'_>) -> f64 {
    let rs = ReedSolomon::new(4, 2).expect("RS(4,2) is valid");
    let data = patterned(RS_LEN, seed);
    let shards = rs.encode(&data);
    let survivors: Vec<(usize, &[u8])> = (2..6).map(|i| (i, shards[i].as_slice())).collect();
    let recovered = rs.reconstruct(&survivors, RS_LEN).expect("four shards");
    assert_eq!(recovered, data, "reconstruction returns the source");
    let secs = time("probe/rs42_reconstruct", &mut || {
        for _ in 0..RS_ITERS {
            black_box(
                rs.reconstruct(black_box(&survivors), RS_LEN)
                    .expect("four shards"),
            );
        }
    });
    (RS_LEN * RS_ITERS) as f64 / MIB / secs
}

/// 1024 singleton deltas from four writers folded into a guestbook one at
/// a time (a subscriber's per-push path), ops/s.
pub fn merge_1024_ops_per_s(time: Timer<'_>) -> f64 {
    const OPS: u64 = 1024;
    const WRITERS: u64 = 4;
    let deltas: Vec<_> = (0..OPS)
        .map(|i| {
            let entry = GuestEntry {
                body: format!("entry {i}: merge probe payload").into_bytes(),
            };
            Guestbook::singleton_delta((i % WRITERS) as u32, i / WRITERS + 1, entry)
        })
        .collect();
    let mut state = Guestbook::empty();
    let secs = time("probe/merge_1024", &mut || {
        for d in &deltas {
            state = Guestbook::apply(&state, d);
        }
    });
    black_box(&state);
    OPS as f64 / secs
}

/// The E16 day (`e16_spec_cohorts` in `exp_workload.rs`, which is private
/// there): three time zones, a 12x flash crowd at 12:45 UTC, diurnal churn.
fn e16_day(population: u64, cohorts: u32) -> WorkloadSpec {
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
        ranks: 64,
        zipf_alpha: 0.9,
        sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: SimDuration::from_mins(15),
        rep_cap: 2,
        churn: Some(ChurnCurve {
            offline_at_peak: 0.1,
            offline_at_trough: 0.5,
        }),
    }
}

/// Seconds to compile one E16 day into a schedule for 48 churnable nodes.
pub fn compile_day_s(seed: u64, population: u64, cohorts: u32, time: Timer<'_>) -> f64 {
    let nodes: Vec<NodeId> = (0..48).map(NodeId).collect();
    let spec = e16_day(population, cohorts);
    time("probe/compile_day", &mut || {
        black_box(spec.compile(seed, &nodes, SimDuration::from_days(1)).len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_positive_number() {
        let mut wall = |_: &str, work: &mut dyn FnMut()| {
            let started = std::time::Instant::now();
            work();
            started.elapsed().as_secs_f64()
        };
        let values = [
            hist_record_per_s(1, &mut wall),
            sha256_mib_s(1, &mut wall),
            merkle_build_leaves_per_s(1, &mut wall),
            mine_hashes_per_s(1, &mut wall),
            rs42_encode_mib_s(1, &mut wall),
            rs42_reconstruct_mib_s(1, &mut wall),
            merge_1024_ops_per_s(&mut wall),
            compile_day_s(1, 10_000, 8, &mut wall),
        ];
        for v in values {
            assert!(v.is_finite() && v > 0.0, "{values:?}");
        }
    }
}
