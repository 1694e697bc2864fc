//! Provider attack models vs. proof schemes (experiment E5).
//!
//! §3.3: proof-of-replication "allows a node to convince others that they are
//! storing exactly the same number of copies as they have claimed instead of
//! creating multiple identities and storing data just once (Sybil Attacks),
//! of fetching from others (Outsourcing Attacks), or of generating on-demand
//! (Generation Attacks)". This module plays each cheating strategy against
//! each proof scheme and measures detection.

use agora_crypto::sha256;
use agora_sim::{SimDuration, SimRng};

use crate::chunk::{Chunk, Manifest};
use crate::proofs::{seal, PorepChallenge, PosChallenge, PosResponse, SealParams};

/// Cheating strategies from §3.3 (plus the honest baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheatStrategy {
    /// Stores every sealed replica faithfully.
    Honest,
    /// Claims `claimed_replicas` replicas but stores the data once, unsealed,
    /// under multiple identities (the Sybil attack).
    Sybil,
    /// Stores nothing; fetches the unsealed data from another holder when
    /// challenged (the Outsourcing attack).
    Outsource,
    /// Stores nothing; regenerates the (deterministic) data on demand when
    /// challenged (the Generation attack).
    Generation,
}

impl CheatStrategy {
    /// All strategies.
    pub fn all() -> [CheatStrategy; 4] {
        [
            CheatStrategy::Honest,
            CheatStrategy::Sybil,
            CheatStrategy::Outsource,
            CheatStrategy::Generation,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CheatStrategy::Honest => "honest",
            CheatStrategy::Sybil => "sybil (dedupe replicas)",
            CheatStrategy::Outsource => "outsourcing (fetch on demand)",
            CheatStrategy::Generation => "generation (recompute on demand)",
        }
    }
}

/// Timing environment for the challenge game.
#[derive(Clone, Debug)]
pub struct AttackEnv {
    /// Sealing parameters (deadline, throughput).
    pub seal: SealParams,
    /// Time to fetch the unsealed data from a remote holder.
    pub fetch_time: SimDuration,
    /// Time to regenerate the data from its generator.
    pub regen_time: SimDuration,
    /// Honest local read latency.
    pub local_read: SimDuration,
}

impl Default for AttackEnv {
    fn default() -> AttackEnv {
        AttackEnv {
            seal: SealParams::default(),
            fetch_time: SimDuration::from_secs(2),
            regen_time: SimDuration::from_millis(200),
            local_read: SimDuration::from_millis(20),
        }
    }
}

/// Result of playing one strategy against proof-of-replication.
#[derive(Clone, Copy, Debug)]
pub struct AttackResult {
    /// The strategy played.
    pub strategy: CheatStrategy,
    /// Replicas the provider claimed.
    pub claimed_replicas: u32,
    /// Fraction of challenges answered validly and in time.
    pub pass_rate: f64,
    /// Fraction of challenges detected as cheating (1 − pass for non-honest).
    pub detection_rate: f64,
}

/// What a provider claiming some number of replicas of one object has
/// published, and what answering a challenge takes: each claimed replica's
/// sealed commitment and the sealed chunks it commits to. Sealing and
/// chunking are the expensive part of the game and depend on neither the
/// strategy nor the challenge, so they are done once, here.
pub struct SealedReplicas {
    /// Length of the unsealed object (what sealing on demand would cost).
    data_len: usize,
    /// Per claimed replica: the commitment and the chunks under it.
    replicas: Vec<(Manifest, Vec<Chunk>)>,
}

impl SealedReplicas {
    /// Seal `data` once per claimed replica (replica ids are
    /// `sha256("replica-{i}")`) and commit to each sealed copy in chunks of
    /// `params.sealed_chunk_size`.
    pub fn new(data: &[u8], claimed_replicas: u32, params: &SealParams) -> SealedReplicas {
        let replicas = (0..claimed_replicas)
            .map(|i| {
                let id = sha256(format!("replica-{i}").as_bytes());
                Manifest::build(&seal(data, &id), params.sealed_chunk_size)
            })
            .collect();
        SealedReplicas {
            data_len: data.len(),
            replicas,
        }
    }

    /// Replicas the provider claimed.
    pub fn claimed(&self) -> u32 {
        self.replicas.len() as u32
    }
}

/// Play `challenges` random proof-of-replication challenges against a
/// provider running `strategy` that claims the replicas in `replicas`.
/// Returns the measured pass/detection rates.
///
/// The game is faithful to the mechanism: commitments are real sealed-Merkle
/// roots; the cheater's best response is simulated under the timing
/// environment (sealing on demand, fetching, regenerating), and a response
/// that would land after the deadline — or that opens to the wrong sealed
/// bytes — is a detection.
pub fn play_porep_game(
    strategy: CheatStrategy,
    replicas: &SealedReplicas,
    challenges: u32,
    env: &AttackEnv,
    rng: &mut SimRng,
) -> AttackResult {
    // What the cheater actually keeps on disk:
    // Honest: all sealed replicas. Sybil: only replica 0's sealed bytes.
    // Outsource/Generation: nothing.
    let claimed_replicas = replicas.claimed();
    let deadline = env.seal.response_deadline;
    let seal_time = env.seal.seal_time(replicas.data_len);

    // Every claimed replica has a published sealed commitment; the verifier
    // challenges a random (replica, sealed-chunk) pair each round.
    let mut passed = 0u32;
    for _ in 0..challenges {
        let r = rng.below(claimed_replicas as u64) as usize;
        let (manifest, chunks) = &replicas.replicas[r];
        let idx = rng.below(manifest.chunk_count() as u64) as u32;
        let nonce = rng.next_u64();
        let challenge = PorepChallenge {
            pos: PosChallenge::new(manifest, idx, nonce),
            deadline_micros: deadline.micros(),
        };

        // The provider's response time and the bytes it can open.
        let (elapsed, can_answer) = match strategy {
            CheatStrategy::Honest => (env.local_read, true),
            CheatStrategy::Sybil => {
                if r == 0 {
                    // The one replica it actually sealed and kept.
                    (env.local_read, true)
                } else {
                    // Must seal replica r's bytes from the unsealed copy now.
                    (seal_time, true)
                }
            }
            CheatStrategy::Outsource => {
                // Fetch unsealed data, then seal for replica r.
                (env.fetch_time + seal_time, true)
            }
            CheatStrategy::Generation => {
                // Regenerate data, then seal for replica r.
                (env.regen_time + seal_time, true)
            }
        };

        if !can_answer || elapsed > deadline {
            continue; // late ⇒ detected
        }
        // Build the actual response from the true sealed bytes (the cheater,
        // having paid the time, can produce correct bytes).
        let resp = PosResponse::build(&challenge.pos, manifest, chunks[idx as usize].clone())
            .expect("index in range");
        if crate::proofs::porep_verify(&challenge, &resp, elapsed.micros()) {
            passed += 1;
        }
    }
    let pass_rate = passed as f64 / challenges as f64;
    AttackResult {
        strategy,
        claimed_replicas,
        pass_rate,
        detection_rate: if strategy == CheatStrategy::Honest {
            0.0
        } else {
            1.0 - pass_rate
        },
    }
}

/// Detection probability of an ack-then-discard provider after `n` audits
/// when it kept a `keep_fraction` of shards (proof-of-retrievability /
/// proof-of-storage schemes; experiment E5's second panel).
pub fn discard_detection_probability(keep_fraction: f64, n_audits: u32) -> f64 {
    1.0 - keep_fraction.clamp(0.0, 1.0).powi(n_audits as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> AttackEnv {
        // Scale the timing so the test shard (500 KB) takes 10 s to seal
        // against a 1 s deadline — same deadline-to-seal ratio as a
        // production 64 MB sector, at a fraction of the host cost.
        let mut e = AttackEnv::default();
        e.seal.seal_throughput_bps = 50_000;
        e.seal.response_deadline = SimDuration::from_secs(1);
        e
    }

    /// `claimed` replicas of the 500 KB test object.
    fn replicas(claimed: u32) -> SealedReplicas {
        SealedReplicas::new(&vec![0xabu8; 500_000], claimed, &env().seal)
    }

    #[test]
    fn honest_provider_always_passes() {
        let mut rng = SimRng::new(1);
        let r = play_porep_game(CheatStrategy::Honest, &replicas(3), 30, &env(), &mut rng);
        assert_eq!(r.pass_rate, 1.0);
        assert_eq!(r.detection_rate, 0.0);
    }

    #[test]
    fn sybil_detected_on_phantom_replicas() {
        let mut rng = SimRng::new(2);
        let r = play_porep_game(CheatStrategy::Sybil, &replicas(3), 300, &env(), &mut rng);
        // Only ~1/3 of challenges hit the one real sealed replica.
        assert!(r.pass_rate < 0.45, "pass {}", r.pass_rate);
        assert!(r.pass_rate > 0.2, "pass {}", r.pass_rate);
        assert!(r.detection_rate > 0.5);
    }

    #[test]
    fn outsourcing_and_generation_always_detected() {
        let mut rng = SimRng::new(3);
        let replicas = replicas(2);
        for s in [CheatStrategy::Outsource, CheatStrategy::Generation] {
            let r = play_porep_game(s, &replicas, 50, &env(), &mut rng);
            assert_eq!(r.pass_rate, 0.0, "{s:?} should always miss the deadline");
            assert_eq!(r.detection_rate, 1.0);
        }
    }

    #[test]
    fn small_data_weakens_the_deadline_defence() {
        // If sealing is faster than the deadline, generation attacks pass —
        // the scheme's security depends on seal time >> deadline.
        let mut rng = SimRng::new(4);
        let small = vec![1u8; 10_000]; // 0.2 s seal at 50 kB/s, under deadline
        let small = SealedReplicas::new(&small, 2, &env().seal);
        let r = play_porep_game(CheatStrategy::Generation, &small, 50, &env(), &mut rng);
        assert_eq!(r.pass_rate, 1.0);
    }

    #[test]
    fn strategies_sharing_one_sealed_value_play_as_against_their_own() {
        // The game only reads the sealed replicas: playing two strategies
        // against one value is playing each against a fresh one.
        let play = |s, replicas: &SealedReplicas, rng: &mut SimRng| {
            play_porep_game(s, replicas, 60, &env(), rng).pass_rate
        };
        let shared = replicas(3);
        let mut rng = SimRng::new(5);
        let honest_shared = play(CheatStrategy::Honest, &shared, &mut rng);
        let sybil_shared = play(CheatStrategy::Sybil, &shared, &mut rng);
        let mut rng = SimRng::new(5);
        let honest_own = play(CheatStrategy::Honest, &replicas(3), &mut rng);
        let sybil_own = play(CheatStrategy::Sybil, &replicas(3), &mut rng);
        assert_eq!(honest_shared, honest_own);
        assert_eq!(sybil_shared, sybil_own);
        assert!(sybil_shared > 0.0 && sybil_shared < honest_shared);
    }

    #[test]
    fn discard_detection_math() {
        assert_eq!(discard_detection_probability(0.0, 1), 1.0);
        assert_eq!(discard_detection_probability(1.0, 100), 0.0);
        let p = discard_detection_probability(0.9, 20);
        assert!((p - (1.0 - 0.9f64.powi(20))).abs() < 1e-12);
        assert!(p > 0.85);
    }

    #[test]
    fn all_strategies_enumerated() {
        assert_eq!(CheatStrategy::all().len(), 4);
        for s in CheatStrategy::all() {
            assert!(!s.label().is_empty());
        }
    }
}
