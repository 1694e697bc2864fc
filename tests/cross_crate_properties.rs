//! Cross-crate property tests: invariants that only hold if multiple crates
//! agree with each other, over their public APIs. Always on, 64 seeded
//! `SimRng` cases per property, no registry dependency.

use agora::chain::{ChainParams, Ledger, Transaction, TxPayload};
use agora::crypto::{sha256, Hash256, MerkleTree, SimKeyPair, WotsKeyPair};
use agora::naming::{NameDb, NameOp, NamingRules};
use agora::sim::SimRng;
use agora::storage::{seal, unseal, Manifest, ReedSolomon};
use agora::web::SitePublisher;

const CASES: u64 = 64;

/// Uniform length in `[lo, hi)`, then that many random bytes.
fn bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.range(lo, hi) as usize;
    rng.bytes(len)
}

/// Any payload stored through RS + chunking round-trips, for arbitrary data
/// and any valid (k, m) in a practical range.
#[test]
fn erasure_then_chunk_round_trip() {
    let mut cases = SimRng::new(0x7863_6331);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 5_000);
        let (k, m) = (cases.range(1, 8) as usize, cases.below(6) as usize);
        let rs = ReedSolomon::new(k, m).expect("params valid");
        let shards = rs.encode(&data);
        // Drop up to m shards (the last m), reconstruct from the first k.
        let avail: Vec<(usize, Vec<u8>)> = (0..k).map(|i| (i, shards[i].clone())).collect();
        let got = rs.reconstruct(&avail, data.len()).expect("reconstructs");
        assert_eq!(got, data, "case {case}: RS({k}, {m})");
        // Chunk + manifest round-trip on the same data.
        let (manifest, chunks) = Manifest::build(&data, 512);
        assert_eq!(manifest.assemble(&chunks).expect("assembles"), data);
    }
}

/// Sealing is a bijection for every replica id and data length, and the
/// sealed bytes differ across replica ids (no dedup).
#[test]
fn sealing_bijective_and_replica_unique() {
    let mut cases = SimRng::new(0x7863_6332);
    for case in 0..CASES {
        let data = bytes(&mut cases, 1, 2_000);
        let (tag_a, tag_b) = (cases.next_u64(), cases.next_u64());
        let id_a = sha256(&tag_a.to_be_bytes());
        let sealed_a = seal(&data, &id_a);
        assert_eq!(unseal(&sealed_a, &id_a), data, "case {case}");
        if tag_a != tag_b && data.len() >= 16 {
            let sealed_b = seal(&data, &sha256(&tag_b.to_be_bytes()));
            assert_ne!(sealed_a, sealed_b, "case {case}");
        }
    }
}

/// A signed site manifest verifies iff untampered, for arbitrary file sets.
#[test]
fn site_manifests_verify_iff_untouched() {
    let mut cases = SimRng::new(0x7863_6333);
    for case in 0..CASES {
        // One to five `[a-z]{1,8}.[a-z]{2,3}` paths, each up to 499 bytes.
        let files: Vec<(String, Vec<u8>)> = (0..cases.range(1, 6))
            .map(|_| {
                let mut word = |lo, hi| -> String {
                    (0..cases.range(lo, hi))
                        .map(|_| char::from(b'a' + cases.below(26) as u8))
                        .collect()
                };
                let path = format!("{}.{}", word(1, 9), word(2, 4));
                (path, bytes(&mut cases, 0, 500))
            })
            .collect();
        let refs: Vec<(&str, &[u8])> = files
            .iter()
            .map(|(p, d)| (p.as_str(), d.as_slice()))
            .collect();
        let bundle = SitePublisher::new(b"prop-site").publish(&refs);
        assert!(bundle.signed.verify(), "case {case}");
        let mut evil = bundle.signed.clone();
        evil.manifest.version = evil.manifest.version.wrapping_add(1 + cases.below(7));
        assert!(!evil.verify(), "case {case}");
    }
}

/// Name-state machine: whoever registers first (with a valid preorder) owns
/// the name, regardless of op interleavings afterwards by others.
#[test]
fn first_valid_register_wins() {
    let mut cases = SimRng::new(0x7863_6334);
    let rules = NamingRules {
        min_preorder_age: 1,
        preorder_ttl: 50,
        expiry_blocks: 1000,
        preorder_required: true,
    };
    let alice = sha256(b"prop-alice");
    let bob = sha256(b"prop-bob");
    for case in 0..CASES {
        let (salt_a, salt_b) = (cases.next_u64(), cases.next_u64());
        let mut db = NameDb::default();
        for (who, salt) in [(alice, salt_a), (bob, salt_b)] {
            let commitment = NameOp::commitment("n.x", salt, &who);
            db.apply(NameOp::Preorder { commitment }, who, 1, &rules);
        }
        for (height, who, salt, zone) in [(3, alice, salt_a, b"a"), (4, bob, salt_b, b"b")] {
            let op = NameOp::Register {
                name: "n.x".into(),
                salt,
                zone_hash: sha256(zone),
            };
            db.apply(op, who, height, &rules);
        }
        for i in 0..cases.below(4) {
            let update = NameOp::Update {
                name: "n.x".into(),
                zone_hash: sha256(&[i as u8]),
            };
            db.apply(update, bob, 5 + i, &rules);
            let transfer = NameOp::Transfer {
                name: "n.x".into(),
                new_owner: bob,
            };
            db.apply(transfer, bob, 6 + i, &rules);
        }
        let rec = db.resolve("n.x", 20).expect("registered");
        assert_eq!(rec.owner, alice, "case {case}: bob wrestled the name away");
    }
}

/// Merkle trees built independently over the same leaves agree, and a proof
/// from one verifies against the other's root at its own position.
#[test]
fn merkle_proofs_transfer() {
    let mut cases = SimRng::new(0x7863_6335);
    for case in 0..CASES {
        let hashes: Vec<Hash256> = (0..cases.range(1, 40))
            .map(|_| sha256(&cases.next_u64().to_be_bytes()))
            .collect();
        let t1 = MerkleTree::from_leaf_hashes(hashes.clone());
        let t2 = MerkleTree::from_leaf_hashes(hashes.clone());
        assert_eq!(t1.root(), t2.root(), "case {case}");
        let i = cases.below_usize(hashes.len());
        let proof = t1.prove(i).expect("in range");
        assert!(
            proof.verify_at(hashes[i], i, hashes.len(), t2.root()),
            "case {case}"
        );
    }
}

#[test]
fn chain_accepts_naming_payloads_and_namedb_sees_them() {
    // A plain cross-crate check: naming ops mined into real blocks surface
    // in the NameDb exactly once each.
    use agora::chain::mine_block;

    let alice = SimKeyPair::from_seed(b"xc-alice");
    let mut ledger = Ledger::new("xc", ChainParams::test(), &[(alice.public().id(), 1000)]);
    let mut rng = SimRng::new(5);
    let rules = NamingRules {
        min_preorder_age: 1,
        ..NamingRules::default()
    };

    let pre = NameOp::Preorder {
        commitment: NameOp::commitment("xc.name", 9, &alice.public().id()),
    }
    .into_tx(&alice, 0, 1);
    let reg = NameOp::Register {
        name: "xc.name".into(),
        salt: 9,
        zone_hash: sha256(b"zone"),
    }
    .into_tx(&alice, 1, 1);

    let miner = sha256(b"xc-miner");
    for (i, tx) in [pre, reg].into_iter().enumerate() {
        let parent = ledger.best_tip();
        let bits = ledger.next_difficulty(&parent);
        let (block, _) = mine_block(
            parent,
            i as u64 + 1,
            miner,
            vec![tx],
            (i as u64 + 1) * 1_000_000,
            bits,
            &mut rng,
        );
        ledger.submit_block(block).expect("valid block");
    }
    let db = NameDb::from_ledger(&ledger, &rules);
    let rec = db
        .resolve("xc.name", ledger.best_height())
        .expect("resolves");
    assert_eq!(rec.owner, alice.public().id());
    assert_eq!(rec.zone_hash, sha256(b"zone"));
    assert!(db.rejected.is_empty(), "{:?}", db.rejected);
}

#[test]
fn wots_can_sign_chain_transactions_out_of_band() {
    // The hash-based scheme signs arbitrary bytes — here a chain tx id —
    // demonstrating the low-volume real-crypto path (DESIGN.md §5).
    let alice = SimKeyPair::from_seed(b"wots-alice");
    let tx = Transaction::create(
        &alice,
        0,
        1,
        TxPayload::Transfer {
            to: sha256(b"bob"),
            amount: 1,
        },
    );
    let mut wots = WotsKeyPair::generate(sha256(b"wots-seed"), 2);
    let pk = wots.public();
    let sig = wots.sign(tx.id().as_bytes()).expect("capacity");
    assert!(pk.verify(tx.id().as_bytes(), &sig));
    assert!(!pk.verify(sha256(b"other").as_bytes(), &sig));
}
