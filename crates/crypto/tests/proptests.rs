//! Property tests for the cryptographic substrate: SHA-256, HMAC, Merkle
//! proofs, the codec and both signature schemes. Always on, 256 seeded
//! `SimRng` cases per property (16 for WOTS, whose keygen is pricey), no
//! registry dependency.

use agora_crypto::{
    hmac_sha256, leaf_hash, sha256, Dec, Enc, Hash256, MerkleTree, Sha256, SimKeyPair, WotsKeyPair,
};
use agora_sim::SimRng;

const CASES: u64 = 256;

/// Uniform length in `[lo, hi)`, then that many random bytes.
fn bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let len = rng.range(lo, hi) as usize;
    rng.bytes(len)
}

/// Up to 64 chars drawn from the first three Unicode planes, so one-, two-,
/// three- and four-byte UTF-8 encodings all occur.
fn text(rng: &mut SimRng) -> String {
    (0..rng.below(65))
        .filter_map(|_| char::from_u32(rng.below(0x3_0000) as u32))
        .collect()
}

/// The 64-byte block HMAC pads a key to (RFC 2104): a key over 64 bytes is
/// replaced by its SHA-256 digest, then zeros fill the block.
fn padded_key(key: &[u8]) -> [u8; 64] {
    let digest;
    let key = if key.len() > 64 {
        digest = sha256(key);
        digest.as_bytes().as_slice()
    } else {
        key
    };
    let mut block = [0u8; 64];
    block[..key.len()].copy_from_slice(key);
    block
}

/// Incremental hashing equals one-shot for every chunking of the input.
#[test]
fn sha256_incremental_equals_oneshot() {
    let mut cases = SimRng::new(0x6372_7931);
    for case in 0..CASES {
        let data = bytes(&mut cases, 0, 4096);
        let mut positions: Vec<usize> = (0..cases.below(8))
            .map(|_| cases.below_usize(data.len() + 1))
            .chain([0, data.len()])
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let mut h = Sha256::new();
        for w in positions.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        assert_eq!(
            h.finalize(),
            sha256(&data),
            "case {case}: cuts {positions:?}"
        );
    }
}

/// SHA-256 behaves injectively on distinct small inputs (no accidental
/// state-sharing bugs between calls).
#[test]
fn sha256_distinct_inputs_distinct_digests() {
    let mut cases = SimRng::new(0x6372_7932);
    for case in 0..CASES {
        let a = bytes(&mut cases, 0, 100);
        // A short `b` is often `a` or a prefix of it.
        let b = if cases.chance(0.5) {
            a[..cases.below_usize(a.len() + 1)].to_vec()
        } else {
            bytes(&mut cases, 0, 100)
        };
        if a != b {
            assert_ne!(sha256(&a), sha256(&b), "case {case}");
        }
    }
}

/// HMAC depends on its key only through the padded key block: keys that
/// pad alike MAC alike, keys that pad differently MAC differently. And it
/// separates messages under one key. (Different keys do *not* always give
/// different MACs; `hmac.rs` pins both equivalences.)
#[test]
fn hmac_key_and_message_sensitivity() {
    let mut cases = SimRng::new(0x6372_7933);
    let mut alike = 0;
    for case in 0..CASES {
        let k1 = bytes(&mut cases, 1, 100);
        let k2 = match cases.below(4) {
            // k1 with trailing zeros, padding to the same block when short.
            0 => {
                let mut k = k1.clone();
                k.resize(k1.len() + cases.range(1, 40) as usize, 0);
                k
            }
            // A long key's digest stands in for it.
            1 if k1.len() > 64 => sha256(&k1).as_bytes().to_vec(),
            _ => bytes(&mut cases, 1, 100),
        };
        let (msg, msg2) = (bytes(&mut cases, 0, 100), bytes(&mut cases, 0, 100));
        let same_block = padded_key(&k1) == padded_key(&k2);
        alike += u64::from(same_block && k1 != k2);
        assert_eq!(
            hmac_sha256(&k1, &msg) == hmac_sha256(&k2, &msg),
            same_block,
            "case {case}: {k1:?} vs {k2:?}"
        );
        if msg != msg2 {
            assert_ne!(
                hmac_sha256(&k1, &msg),
                hmac_sha256(&k1, &msg2),
                "case {case}"
            );
        }
    }
    assert!(
        alike > CASES / 16,
        "only {alike} cases had distinct keys that pad alike"
    );
}

/// Every leaf of every tree proves at its own index and nowhere else; a
/// proof does not carry another leaf or verify under another root.
#[test]
fn merkle_proofs_sound_and_bound() {
    let mut cases = SimRng::new(0x6372_7934);
    for case in 0..CASES {
        let n = cases.range(1, 64) as usize;
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&(i as u64).to_be_bytes())).collect();
        let tree = MerkleTree::from_leaf_hashes(leaves.clone());
        let i = cases.below_usize(n);
        let proof = tree.prove(i).expect("in range");
        assert!(proof.verify_at(leaves[i], i, n, tree.root()), "case {case}");
        for j in (0..n).filter(|&j| j != i) {
            assert!(
                !proof.verify_at(leaves[i], j, n, tree.root()),
                "case {case}: proof {i} verified at index {j} of {n}"
            );
            assert!(
                !proof.verify_at(leaves[j], i, n, tree.root()),
                "case {case}: proof {i} carried leaf {j} of {n}"
            );
        }
        assert!(!proof.verify_at(leaves[i], i, n, sha256(b"other-root")));
    }
}

/// Leaf-domain hashing never collides with raw hashing.
#[test]
fn leaf_domain_separated() {
    let mut cases = SimRng::new(0x6372_7935);
    for case in 0..CASES {
        let data = bytes(&mut cases, 0, 100);
        assert_ne!(leaf_hash(&data), sha256(&data), "case {case}");
    }
}

/// The codec round-trips arbitrary field sequences.
#[test]
fn codec_round_trip() {
    let mut cases = SimRng::new(0x6372_7936);
    for case in 0..CASES {
        let (a, b, c) = (
            cases.next_u64() as u8,
            cases.next_u64() as u32,
            cases.next_u64(),
        );
        let (bytes, text) = (bytes(&mut cases, 0, 100), text(&mut cases));
        let h = sha256(&bytes);
        let buf = Enc::new()
            .u8(a)
            .u32(b)
            .u64(c)
            .hash(&h)
            .bytes(&bytes)
            .str(&text)
            .done();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), a, "case {case}");
        assert_eq!(d.u32().unwrap(), b, "case {case}");
        assert_eq!(d.u64().unwrap(), c, "case {case}");
        assert_eq!(d.hash().unwrap(), h, "case {case}");
        assert_eq!(d.bytes().unwrap(), bytes, "case {case}");
        assert_eq!(d.str().unwrap(), text, "case {case}");
        assert!(d.finished(), "case {case}");
    }
}

/// Truncating an encoding at any point yields an error, never a panic or a
/// silent wrong value.
#[test]
fn codec_truncation_safe() {
    let mut cases = SimRng::new(0x6372_7937);
    for case in 0..CASES {
        let c = cases.next_u64();
        let buf = Enc::new().u64(c).bytes(&bytes(&mut cases, 0, 100)).done();
        // Strictly shorter than the full encoding.
        let mut d = Dec::new(&buf[..cases.below_usize(buf.len())]);
        // Either the u64 fails, or the bytes fail; nothing panics.
        if let Ok(v) = d.u64() {
            assert_eq!(v, c, "case {case}");
            assert!(d.bytes().is_err(), "case {case}");
        }
    }
}

/// SimSig: valid signatures verify; any other (key, message) pair fails.
#[test]
fn simsig_eufcma_in_model() {
    let mut cases = SimRng::new(0x6372_7938);
    for case in 0..CASES {
        let (seed1, seed2) = (bytes(&mut cases, 0, 40), bytes(&mut cases, 0, 40));
        let (msg1, msg2) = (bytes(&mut cases, 0, 100), bytes(&mut cases, 0, 100));
        let k1 = SimKeyPair::from_seed(&seed1);
        let sig = k1.sign(&msg1);
        assert!(k1.public().verify(&msg1, &sig), "case {case}");
        if msg1 != msg2 {
            assert!(!k1.public().verify(&msg2, &sig), "case {case}");
        }
        if seed1 != seed2 {
            let k2 = SimKeyPair::from_seed(&seed2);
            assert!(!k2.public().verify(&msg1, &sig), "case {case}");
        }
    }
}

/// WOTS: arbitrary messages sign and verify; cross-verification fails.
#[test]
fn wots_arbitrary_messages() {
    let mut cases = SimRng::new(0x6372_7939);
    for case in 0..16 {
        let msgs: Vec<Vec<u8>> = (0..cases.range(1, 4))
            .map(|_| bytes(&mut cases, 0, 100))
            .collect();
        let mut kp = WotsKeyPair::generate(sha256(b"prop-wots"), 2);
        let pk = kp.public();
        let sigs: Vec<_> = msgs
            .iter()
            .map(|m| kp.sign(m).expect("capacity 4"))
            .collect();
        for (m, s) in msgs.iter().zip(&sigs) {
            assert!(pk.verify(m, s), "case {case}");
        }
        // A signature for message i must not verify message j != i.
        if msgs.len() >= 2 && msgs[0] != msgs[1] {
            assert!(!pk.verify(&msgs[1], &sigs[0]), "case {case}");
        }
    }
}
