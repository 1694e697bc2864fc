//! Storage proof schemes: proof-of-storage, proof-of-retrievability,
//! proof-of-replication, and proof-of-spacetime.
//!
//! Table 2 of the paper attributes one of these to each surveyed system;
//! this module implements the mechanism class of each:
//!
//! * **Proof-of-storage** (Sia-style): the verifier knows the object's
//!   Merkle root; the prover returns a challenged chunk plus its inclusion
//!   proof. Anyone with the root can verify; response size = chunk size.
//! * **Proof-of-retrievability** (Storj-style): at upload time the owner
//!   keeps audit pairs `(nonce, H(nonce ‖ data))`; each challenge reveals a
//!   fresh nonce and expects the matching digest. Constant-size responses,
//!   but only the owner (who holds the pairs) can verify, and audits are
//!   finite. The simulator evaluates a pair when it is first read, from the
//!   immutable buffer the owner encoded ([`AuditBook`]).
//! * **Proof-of-replication** (Filecoin-style): each replica is *sealed* by
//!   a deliberately slow, replica-id-keyed sequential transform; challenges
//!   sample sealed chunks against the sealed commitment under a response
//!   deadline shorter than sealing time. This defeats Sybil (each claimed
//!   replica needs distinct sealed bytes), outsourcing (fetching another
//!   holder's *unsealed* data doesn't answer sealed challenges in time) and
//!   generation attacks (re-sealing on demand exceeds the deadline).
//! * **Proof-of-spacetime**: proof-of-replication repeated over scheduled
//!   windows, demonstrating continuous storage over an interval.

use std::rc::Rc;

use agora_crypto::{sha256_concat, Hash256, MerkleProof};
use agora_sim::{SimDuration, SimRng};

use crate::chunk::{Chunk, Manifest};

// ---------------------------------------------------------------------------
// Proof-of-storage (Merkle challenge)
// ---------------------------------------------------------------------------

/// A proof-of-storage challenge: produce chunk `index` of `object`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PosChallenge {
    /// Object id (Merkle root over chunk ids).
    pub object: Hash256,
    /// Challenged chunk index.
    pub index: u32,
    /// The object's chunk count, from the verifier's manifest: with `index`
    /// it fixes the proof's path, so only chunk `index` answers.
    pub chunk_count: u32,
    /// Anti-replay nonce.
    pub nonce: u64,
}

impl PosChallenge {
    /// Challenge chunk `index` of the object `manifest` describes.
    pub fn new(manifest: &Manifest, index: u32, nonce: u64) -> PosChallenge {
        PosChallenge {
            object: manifest.object_id,
            index,
            chunk_count: manifest.chunk_count() as u32,
            nonce,
        }
    }
}

/// The prover's response: the chunk and its membership proof.
#[derive(Clone, Debug)]
pub struct PosResponse {
    /// Echoed nonce.
    pub nonce: u64,
    /// The challenged chunk.
    pub chunk: Chunk,
    /// Inclusion proof of the chunk in the object.
    pub proof: MerkleProof,
}

impl PosResponse {
    /// Build a response from locally stored data.
    pub fn build(
        challenge: &PosChallenge,
        manifest: &Manifest,
        chunk: Chunk,
    ) -> Option<PosResponse> {
        let proof = manifest.prove_chunk(challenge.index as usize)?;
        Some(PosResponse {
            nonce: challenge.nonce,
            chunk,
            proof,
        })
    }

    /// Verify against the challenge: the object id, the challenged index and
    /// the chunk count are all it needs.
    pub fn verify(&self, challenge: &PosChallenge) -> bool {
        self.nonce == challenge.nonce
            && Manifest::verify_chunk(
                &challenge.object,
                challenge.index as usize,
                challenge.chunk_count as usize,
                &self.chunk,
                &self.proof,
            )
    }

    /// Wire size (the dominant cost of this scheme).
    pub fn wire_size(&self) -> u64 {
        8 + 32 + self.chunk.data.len() as u64 + self.proof.wire_size()
    }
}

// ---------------------------------------------------------------------------
// Proof-of-retrievability (owner-held audit pairs)
// ---------------------------------------------------------------------------

/// One audit pair, kept secret by the data owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Audit {
    /// The nonce revealed at challenge time.
    pub nonce: u64,
    /// Expected digest `H(nonce ‖ data)`.
    pub expected: Hash256,
}

/// The digest a prover holding `data` computes for a revealed nonce.
pub fn por_respond(nonce: u64, data: &[u8]) -> Hash256 {
    sha256_concat(&[b"por", &nonce.to_be_bytes(), data])
}

/// The audit pairs an owner holds for one placed shard: `n` nonces drawn at
/// placement, each pair's digest computed when the audit is issued — most of
/// a book is never read, and an unread pair costs one `u64`.
///
/// The digest comes from the owner's own encoding of the shard, which
/// nothing can reach through the book: there is no constructor that takes a
/// digest and no accessor for the bytes, so what a provider's answer is
/// compared with is always a hash this side computed itself. Not `Clone`: a
/// second copy would issue the same nonces again.
pub struct AuditBook {
    shard: Rc<[u8]>,
    nonces: Vec<u64>,
}

impl AuditBook {
    /// A book of `n` audits over `shard`: `n` draws of `next_u64`, no
    /// hashing.
    pub fn new(shard: Rc<[u8]>, n: usize, rng: &mut SimRng) -> AuditBook {
        AuditBook {
            shard,
            nonces: (0..n).map(|_| rng.next_u64()).collect(),
        }
    }

    /// The next unused pair, last drawn first; `None` once the book is
    /// spent. `expected` is what [`por_respond`] gives an honest holder.
    pub fn pop(&mut self) -> Option<Audit> {
        let nonce = self.nonces.pop()?;
        Some(Audit {
            nonce,
            expected: por_respond(nonce, &self.shard),
        })
    }
}

/// Verify a response against a (not yet used) audit pair.
pub fn por_verify(audit: &Audit, response: &Hash256) -> bool {
    &audit.expected == response
}

// ---------------------------------------------------------------------------
// Proof-of-replication (sealing)
// ---------------------------------------------------------------------------

/// Sealing parameters.
#[derive(Clone, Debug)]
pub struct SealParams {
    /// Sealed bytes produced per simulated second (deliberately slow).
    pub seal_throughput_bps: u64,
    /// Deadline for answering a replication challenge. Must be far below the
    /// time to seal a shard for the scheme to be sound.
    pub response_deadline: SimDuration,
    /// Sealed-chunk size used for the sealed commitment tree.
    pub sealed_chunk_size: usize,
}

impl Default for SealParams {
    fn default() -> SealParams {
        SealParams {
            seal_throughput_bps: 1_000_000, // 1 MB/s: a 64 MB shard takes ~64 s
            response_deadline: SimDuration::from_secs(5),
            sealed_chunk_size: 4096,
        }
    }
}

impl SealParams {
    /// How long sealing `len` bytes takes in simulated time.
    pub fn seal_time(&self, len: usize) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.seal_throughput_bps.max(1) as f64)
    }
}

/// Seal `data` for a specific replica id: a sequential keyed chain, so each
/// replica's sealed bytes are unique and cannot be deduplicated or produced
/// without doing the (slow) work for that id.
pub fn seal(data: &[u8], replica_id: &Hash256) -> Vec<u8> {
    let mut sealed = Vec::with_capacity(data.len());
    let mut prev = *replica_id;
    for (i, block) in data.chunks(32).enumerate() {
        let key = sha256_concat(&[
            b"seal",
            replica_id.as_bytes(),
            &(i as u64).to_be_bytes(),
            prev.as_bytes(),
        ]);
        let mut out = [0u8; 32];
        for (j, &b) in block.iter().enumerate() {
            out[j] = b ^ key.as_bytes()[j];
        }
        sealed.extend_from_slice(&out[..block.len()]);
        prev = sha256_concat(&[&out[..block.len()]]);
    }
    sealed
}

/// Unseal (the transform is an XOR stream keyed by the chain over *sealed*
/// blocks, so decoding replays the same chain).
pub fn unseal(sealed: &[u8], replica_id: &Hash256) -> Vec<u8> {
    let mut data = Vec::with_capacity(sealed.len());
    let mut prev = *replica_id;
    for (i, block) in sealed.chunks(32).enumerate() {
        let key = sha256_concat(&[
            b"seal",
            replica_id.as_bytes(),
            &(i as u64).to_be_bytes(),
            prev.as_bytes(),
        ]);
        for (j, &b) in block.iter().enumerate() {
            data.push(b ^ key.as_bytes()[j]);
        }
        prev = sha256_concat(&[block]);
    }
    data
}

/// Commitment to a sealed replica: manifest over the sealed bytes.
pub fn sealed_commitment(sealed: &[u8], params: &SealParams) -> Manifest {
    Manifest::build(sealed, params.sealed_chunk_size).0
}

/// A replication challenge: a proof-of-storage challenge against the
/// *sealed* commitment, due by a deadline.
#[derive(Clone, Copy, Debug)]
pub struct PorepChallenge {
    /// The sealed chunk to open, against the sealed commitment.
    pub pos: PosChallenge,
    /// Simulated deadline (absolute) for the response.
    pub deadline_micros: u64,
}

/// Response: the sealed chunk and its proof (same shape as PoS but against
/// the *sealed* tree).
pub type PorepResponse = PosResponse;

/// Verify a replication response, including the timing check.
pub fn porep_verify(
    challenge: &PorepChallenge,
    response: &PorepResponse,
    responded_at_micros: u64,
) -> bool {
    responded_at_micros <= challenge.deadline_micros && response.verify(&challenge.pos)
}

// ---------------------------------------------------------------------------
// Proof-of-spacetime
// ---------------------------------------------------------------------------

/// A proof-of-spacetime audit trail: one bit per scheduled window.
#[derive(Clone, Debug, Default)]
pub struct SpacetimeRecord {
    windows: Vec<bool>,
}

impl SpacetimeRecord {
    /// Record the outcome of one window's replication challenge.
    pub fn record(&mut self, passed: bool) {
        self.windows.push(passed);
    }

    /// Number of windows audited so far.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Fraction of windows passed.
    pub fn uptime_fraction(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().filter(|&&b| b).count() as f64 / self.windows.len() as f64
    }

    /// Whether the provider satisfied the contract (all windows passed, with
    /// up to `grace` misses allowed).
    pub fn satisfied(&self, grace: usize) -> bool {
        self.windows.iter().filter(|&&b| !b).count() <= grace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    fn object(len: usize) -> (Manifest, Vec<Chunk>, Vec<u8>) {
        let data: Vec<u8> = (0..len as u32).map(|i| (i % 253) as u8).collect();
        let (m, c) = Manifest::build(&data, 1024);
        (m, c, data)
    }

    #[test]
    fn pos_round_trip() {
        let (manifest, chunks, _) = object(5000);
        let ch = PosChallenge::new(&manifest, 3, 99);
        let resp = PosResponse::build(&ch, &manifest, chunks[3].clone()).unwrap();
        assert!(resp.verify(&ch));
        assert!(resp.wire_size() > 1024);
    }

    #[test]
    fn pos_wrong_chunk_or_nonce_fails() {
        let (manifest, chunks, _) = object(5000);
        let ch = PosChallenge::new(&manifest, 3, 99);
        let resp = PosResponse::build(&ch, &manifest, chunks[2].clone()).unwrap();
        assert!(!resp.verify(&ch), "wrong chunk data");
        let mut resp2 = PosResponse::build(&ch, &manifest, chunks[3].clone()).unwrap();
        resp2.nonce = 100;
        assert!(!resp2.verify(&ch), "replayed nonce");
    }

    #[test]
    fn pos_answer_for_another_index_fails() {
        // A provider holding only chunk i and its proof answers every
        // challenge with them. Chunks differ (`object` cycles mod 253 over
        // 1 KiB chunks), so only the challenge for i may pass.
        let (manifest, chunks, _) = object(5000);
        let held = 1;
        let proof = manifest.prove_chunk(held).unwrap();
        for j in 0..manifest.chunk_count() as u32 {
            let ch = PosChallenge::new(&manifest, j, 7);
            let resp = PosResponse {
                nonce: ch.nonce,
                chunk: chunks[held].clone(),
                proof: proof.clone(),
            };
            assert_eq!(resp.verify(&ch), j as usize == held, "challenge {j}");
        }
    }

    #[test]
    fn por_audits_work_once_each() {
        let mut rng = SimRng::new(1);
        let data = vec![5u8; 10_000];
        let mut book = AuditBook::new(Rc::from(&data[..]), 10, &mut rng);
        let audits: Vec<Audit> = std::iter::from_fn(|| book.pop()).collect();
        assert_eq!(audits.len(), 10);
        assert_eq!(book.pop(), None, "a spent book stays spent");
        for a in &audits {
            assert!(por_verify(a, &por_respond(a.nonce, &data)));
        }
        // A prover who dropped the data cannot answer.
        let wrong = por_respond(audits[0].nonce, &data[..9_999]);
        assert!(!por_verify(&audits[0], &wrong));
    }

    #[test]
    fn audit_book_is_the_precomputed_pairs_popped_in_order() {
        // Deferring the digests must be invisible: the nonces a per-nonce
        // loop draws, handed out as `Vec::pop` handed out the precomputed
        // pairs, each with the digest the prover computes, and the RNG left
        // where that loop leaves it. Lengths sit either side of where the
        // 11-byte prefix pushes the padding into a second block (44/45) and
        // where prefix plus data fill the first block (53/54).
        let data: Vec<u8> = (0..250_000u32).map(|i| (i % 241) as u8).collect();
        for len in [0, 1, 44, 45, 53, 54, 4_096, 250_000] {
            for n in [0, 1, 3, 64] {
                let mut rng = SimRng::new(17 + len as u64);
                let mut reference = rng.clone();
                let mut book = AuditBook::new(Rc::from(&data[..len]), n, &mut rng);
                let mut expect: Vec<Audit> = (0..n)
                    .map(|_| {
                        let nonce = reference.next_u64();
                        Audit {
                            nonce,
                            expected: por_respond(nonce, &data[..len]),
                        }
                    })
                    .collect();
                expect.reverse();
                let popped: Vec<Audit> = std::iter::from_fn(|| book.pop()).collect();
                assert_eq!(popped, expect, "n {n} len {len}");
                assert_eq!(rng.next_u64(), reference.next_u64(), "n {n} len {len}");
            }
        }
    }

    #[test]
    fn seal_unseal_round_trip() {
        let id = sha256(b"replica-1");
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let sealed = seal(&data, &id);
        assert_eq!(sealed.len(), data.len());
        assert_ne!(sealed, data);
        assert_eq!(unseal(&sealed, &id), data);
    }

    #[test]
    fn sealed_replicas_are_unique_per_id() {
        let data = vec![9u8; 4096];
        let s1 = seal(&data, &sha256(b"replica-1"));
        let s2 = seal(&data, &sha256(b"replica-2"));
        assert_ne!(s1, s2, "replicas must not be dedupable");
        // Unsealing with the wrong id yields garbage.
        assert_ne!(unseal(&s1, &sha256(b"replica-2")), data);
    }

    #[test]
    fn porep_challenge_round_trip_and_deadline() {
        let params = SealParams::default();
        let data = vec![3u8; 20_000];
        let id = sha256(b"replica-7");
        let sealed = seal(&data, &id);
        let commitment = sealed_commitment(&sealed, &params);
        let (_, sealed_chunks) = Manifest::build(&sealed, params.sealed_chunk_size);
        let ch = PorepChallenge {
            pos: PosChallenge::new(&commitment, 2, 7),
            deadline_micros: 1_000_000,
        };
        let resp = PosResponse::build(&ch.pos, &commitment, sealed_chunks[2].clone()).unwrap();
        assert!(porep_verify(&ch, &resp, 500_000), "in time");
        assert!(!porep_verify(&ch, &resp, 2_000_000), "late response fails");
    }

    #[test]
    fn porep_answer_for_another_index_fails() {
        // Sealed chunk 0, opened in time, against a challenge for sealed
        // chunk 3: genuine sealed bytes at the wrong position.
        let params = SealParams::default();
        let id = sha256(b"replica-8");
        let sealed = seal(&vec![3u8; 20_000], &id);
        let commitment = sealed_commitment(&sealed, &params);
        let (_, sealed_chunks) = Manifest::build(&sealed, params.sealed_chunk_size);
        let held = PosChallenge::new(&commitment, 0, 7);
        let resp = PosResponse::build(&held, &commitment, sealed_chunks[0].clone()).unwrap();
        let ch = PorepChallenge {
            pos: PosChallenge::new(&commitment, 3, 7),
            deadline_micros: 1_000_000,
        };
        assert!(!porep_verify(&ch, &resp, 500_000));
        let own = PorepChallenge { pos: held, ..ch };
        assert!(
            porep_verify(&own, &resp, 500_000),
            "chunk 0 answers its own"
        );
    }

    #[test]
    fn seal_time_scales_with_length() {
        let p = SealParams::default();
        assert!(p.seal_time(64_000_000) > SimDuration::from_secs(60));
        assert!(p.seal_time(64_000_000) > p.response_deadline * 10);
        assert_eq!(p.seal_time(0), SimDuration::ZERO);
    }

    #[test]
    fn spacetime_record_tracks_windows() {
        let mut rec = SpacetimeRecord::default();
        assert_eq!(rec.uptime_fraction(), 0.0);
        for i in 0..10 {
            rec.record(i != 4);
        }
        assert_eq!(rec.window_count(), 10);
        assert!((rec.uptime_fraction() - 0.9).abs() < 1e-9);
        assert!(rec.satisfied(1));
        assert!(!rec.satisfied(0));
    }

    #[test]
    fn unaligned_seal_lengths() {
        let id = sha256(b"r");
        for len in [1usize, 31, 32, 33, 63, 65] {
            let data: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            assert_eq!(unseal(&seal(&data, &id), &id), data, "len {len}");
        }
    }
}
