//! Property tests for the storage substrate: erasure coding, the market's
//! challenge oracle, chunk manifests, sealing, PoR audits and the contract
//! codec and settlement. Always on, 256 seeded `SimRng` cases per
//! property, no registry dependency.

use agora_crypto::sha256;
use agora_sim::SimRng;
use agora_storage::{
    por_respond, por_verify, seal, unseal, Audit, AuditBook, Chunk, Manifest, MarketSpec,
    ProofScheme, ReedSolomon, SpacetimeRecord, StorageContract, TokenBank,
};

const CASES: u64 = 256;

/// Uniform length in `[lo, hi)`, then that many random bytes.
fn bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.range(lo, hi) as usize;
    rng.bytes(len)
}

/// RS(k, m) reconstructs from *any* k-subset of shards (randomly chosen
/// per case), for arbitrary data.
#[test]
fn rs_reconstructs_from_random_subsets() {
    let mut cases = SimRng::new(0x7374_6f31);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 3000);
        let (k, m) = (cases.range(1, 7) as usize, cases.below(6) as usize);
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        let picks = cases.sample_indices(k + m, k);
        let avail: Vec<(usize, &[u8])> = picks.iter().map(|&i| (i, &shards[i][..])).collect();
        let got = rs.reconstruct(&avail, data.len()).expect("any k suffice");
        assert_eq!(got, data, "case {case}: RS({k}, {m}) from {picks:?}");
    }
}

/// Encode∘decode is the identity at arbitrary (data length, k, m)
/// combinations — i.e. arbitrary shard sizes, including the k ∤ len
/// padding cases and single-byte shards — via the all-data fast path.
#[test]
fn rs_encode_decode_roundtrip_at_random_shard_sizes() {
    let mut cases = SimRng::new(0x7374_6f32);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 5000);
        let (k, m) = (cases.range(1, 10) as usize, cases.below(6) as usize);
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        assert_eq!(shards.len(), k + m);
        let shard_len = data.len().div_ceil(k).max(1);
        for s in &shards {
            assert_eq!(s.len(), shard_len, "case {case}");
        }
        let avail: Vec<(usize, &[u8])> = (0..k).map(|i| (i, &shards[i][..])).collect();
        let got = rs.reconstruct(&avail, data.len()).expect("all data shards");
        assert_eq!(got, data, "case {case}: RS({k}, {m})");
    }
}

/// The market's challenge oracle is a pure function of (spec, seed):
/// recompiling yields the identical schedule, sorted by open time, with
/// exactly rounds × objects challenges all targeting valid slots.
#[test]
fn market_oracle_is_deterministic_sorted_and_in_range() {
    let mut cases = SimRng::new(0x7374_6f33);
    for case in 0..CASES {
        let seed = cases.next_u64();
        let spec = MarketSpec {
            objects: cases.range(1, 12) as usize,
            k: cases.range(1, 9) as usize,
            m: cases.range(1, 5) as usize,
            ..MarketSpec::default()
        };
        let a = spec.compile_oracle(seed);
        let b = spec.compile_oracle(seed);
        assert_eq!(a.challenges(), b.challenges(), "case {case}");
        assert_eq!(a.len(), spec.rounds() as usize * spec.objects);
        for c in a.challenges() {
            assert!((c.object as usize) < spec.objects, "case {case}: {c:?}");
            assert!((c.slot as usize) < spec.k + spec.m, "case {case}: {c:?}");
        }
        for w in a.challenges().windows(2) {
            assert!(w[0].at <= w[1].at, "case {case}: unsorted");
        }
    }
}

/// Fewer than k shards can never reconstruct.
#[test]
fn rs_under_k_always_fails() {
    let mut cases = SimRng::new(0x7374_6f34);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 500);
        let (k, m) = (cases.range(2, 6) as usize, cases.range(1, 5) as usize);
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        let avail: Vec<(usize, &[u8])> = (0..k - 1).map(|i| (i, &shards[i][..])).collect();
        assert!(rs.reconstruct(&avail, data.len()).is_err(), "case {case}");
    }
}

/// Chunk/manifest round-trip for arbitrary data and chunk sizes; every
/// chunk proof verifies; any flipped bit in any chunk is caught.
#[test]
fn manifest_integrity() {
    let mut cases = SimRng::new(0x7374_6f35);
    for case in 0..CASES {
        let data = bytes(&mut cases, 0, 4000);
        let chunk_size = cases.range(1, 700) as usize;
        let (manifest, chunks) = Manifest::build(&data, chunk_size);
        assert_eq!(manifest.assemble(&chunks).expect("round trip"), data);
        let (id, n) = (&manifest.object_id, manifest.chunk_count());
        for (i, c) in chunks.iter().enumerate() {
            let p = manifest.prove_chunk(i).expect("in range");
            assert!(Manifest::verify_chunk(id, i, n, c, &p), "case {case}");
        }
        if data.is_empty() {
            continue;
        }
        let (victim, bit) = (cases.below_usize(chunks.len()), cases.below(8));
        let mut evil = chunks[victim].clone();
        if !evil.data.is_empty() {
            evil.data[0] ^= 1 << bit;
            let p = manifest.prove_chunk(victim).expect("in range");
            assert!(
                !Manifest::verify_chunk(id, victim, n, &evil, &p),
                "case {case}"
            );
            // Re-addressing doesn't help either.
            let readdressed = Chunk::new(evil.data);
            assert!(
                !Manifest::verify_chunk(id, victim, n, &readdressed, &p),
                "case {case}"
            );
        }
    }
}

/// Sealing round-trips and is replica-unique for arbitrary inputs.
#[test]
fn sealing_properties() {
    let mut cases = SimRng::new(0x7374_6f36);
    for case in 0..CASES {
        let data = bytes(&mut cases, 0, 2000);
        let (id_a, id_b) = (cases.next_u64(), cases.next_u64());
        let a = sha256(&id_a.to_be_bytes());
        let sealed = seal(&data, &a);
        assert_eq!(sealed.len(), data.len());
        assert_eq!(unseal(&sealed, &a), data, "case {case}");
        if id_a != id_b && data.len() >= 8 {
            let b = sha256(&id_b.to_be_bytes());
            assert_ne!(seal(&data, &b), sealed, "case {case}");
        }
    }
}

/// PoR audits verify only with the exact data.
#[test]
fn por_binds_exact_data() {
    let mut cases = SimRng::new(0x7374_6f37);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 2000);
        let mut rng = SimRng::new(cases.next_u64());
        let mut book = AuditBook::new(data.as_slice().into(), 3, &mut rng);
        let audits: Vec<Audit> = std::iter::from_fn(|| book.pop()).collect();
        assert_eq!(audits.len(), 3);
        for a in &audits {
            assert!(por_verify(a, &por_respond(a.nonce, &data)), "case {case}");
        }
        let mut evil = data.clone();
        evil[cases.below_usize(data.len())] ^= 0x01;
        assert!(
            !por_verify(&audits[0], &por_respond(audits[0].nonce, &evil)),
            "case {case}"
        );
    }
}

/// A book's pairs are the per-nonce sequence popped last-first: the
/// nonces a plain loop draws, the digest `por_respond` gives for each,
/// and the RNG left in the same state.
#[test]
fn audit_book_matches_one_at_a_time() {
    let mut cases = SimRng::new(0x7374_6f38);
    for case in 0..CASES {
        let data = bytes(&mut cases, 0, 2000);
        let (n, seed) = (cases.below_usize(70), cases.next_u64());
        let (mut rng, mut reference) = (SimRng::new(seed), SimRng::new(seed));
        let mut book = AuditBook::new(data.as_slice().into(), n, &mut rng);
        let mut nonces: Vec<u64> = (0..n).map(|_| reference.next_u64()).collect();
        assert_eq!(rng.next_u64(), reference.next_u64(), "case {case}");
        while let Some(a) = book.pop() {
            assert_eq!(Some(a.nonce), nonces.pop(), "case {case}");
            assert_eq!(a.expected, por_respond(a.nonce, &data), "case {case}");
        }
        assert!(nonces.is_empty(), "case {case}");
    }
}

fn contract(rng: &mut SimRng) -> StorageContract {
    StorageContract {
        client: sha256(b"c"),
        provider: sha256(b"p"),
        object: sha256(b"o"),
        size_bytes: rng.next_u64(),
        price_per_window: rng.below(10_000),
        windows: rng.range(1, 64) as u32,
        collateral: rng.below(10_000),
        proof: ProofScheme::ProofOfReplication,
    }
}

/// Contract codec round-trips arbitrary field values, and settlement is
/// always zero-sum.
#[test]
fn contract_roundtrip_and_zero_sum_settlement() {
    let mut cases = SimRng::new(0x7374_6f39);
    for case in 0..CASES {
        let c = contract(&mut cases);
        assert_eq!(
            StorageContract::decode(&c.encode()).expect("round trip"),
            c,
            "case {case}"
        );
        let mut rec = SpacetimeRecord::default();
        for _ in 0..cases.range(1, 64) {
            rec.record(cases.chance(0.5));
        }
        let grace = cases.below_usize(4);
        let mut bank = TokenBank::new();
        let (earned, slashed) = c.settle(&rec, grace, &mut bank);
        assert!(earned <= c.max_payout(), "case {case}");
        assert!(slashed == 0 || slashed == c.collateral, "case {case}");
        assert_eq!(bank.total(), 0, "case {case}: settlement must be zero-sum");
    }
}

/// Arbitrary byte strings never panic the decoder, and a mutated encoding
/// (one flipped bit, or cut short) is refused or decodes to a different
/// contract — never silently to the original.
#[test]
fn contract_decode_rejects_or_differs() {
    let mut cases = SimRng::new(0x7374_6f3a);
    for case in 0..CASES {
        let _ = StorageContract::decode(&bytes(&mut cases, 0, 200));
        let c = contract(&mut cases);
        let mut wire = c.encode();
        if cases.chance(0.5) {
            let at = cases.below_usize(wire.len() * 8);
            wire[at / 8] ^= 1 << (at % 8);
        } else {
            wire.truncate(cases.below_usize(wire.len()));
        }
        if let Ok(d) = StorageContract::decode(&wire) {
            assert_ne!(d, c, "case {case}: mutated bytes decode to the original");
        }
    }
}
