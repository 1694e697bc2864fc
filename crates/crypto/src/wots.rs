//! A real hash-based many-time signature scheme: Winternitz one-time
//! signatures (w = 16) under a Merkle tree of one-time keys (XMSS-style,
//! without the bitmask hardening — adequate for a research artifact, and
//! genuinely unforgeable given SHA-256, unlike the oracle scheme in
//! [`crate::sig`]).
//!
//! A keypair with tree height `h` can sign `2^h` messages; signing past that
//! returns [`SignError::Exhausted`]. Key generation costs roughly
//! `2^h × 67 × 15` hashes, so pick the height to fit the use: name
//! registrations and site manifests sign rarely (h = 4–8), while high-volume
//! protocol simulation should use [`crate::sig`] instead.

use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::{sha256_concat, tagged_hash, Hash256};

/// Winternitz parameter: digits are base-16 (4 bits per chain).
const W: u32 = 16;
/// 256-bit digests → 64 message digits.
const MSG_CHAINS: usize = 64;
/// Max checksum = 64 × 15 = 960 < 16^3, so 3 checksum digits.
const CSUM_CHAINS: usize = 3;
/// Total chains per one-time key.
const CHAINS: usize = MSG_CHAINS + CSUM_CHAINS;

/// Errors from signing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignError {
    /// All `2^h` one-time keys have been used.
    Exhausted,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::Exhausted => write!(f, "one-time keys exhausted"),
        }
    }
}

impl std::error::Error for SignError {}

/// Public key: the Merkle root over one-time public keys, plus tree height.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WotsPublicKey {
    /// Merkle root committing to all one-time public keys.
    pub root: Hash256,
    /// Tree height (capacity = 2^height signatures).
    pub height: u8,
}

impl WotsPublicKey {
    /// Wire size in bytes (root + height).
    pub const WIRE_SIZE: u64 = 33;
}

/// A signature: which leaf was used, the Winternitz chain values, and the
/// Merkle path from that one-time key to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WotsSignature {
    leaf_index: u32,
    chain_values: Vec<Hash256>,
    proof: MerkleProof,
}

impl WotsSignature {
    /// Wire size in bytes: 67 chain hashes + Merkle path + index.
    pub fn wire_size(&self) -> u64 {
        4 + self.chain_values.len() as u64 * 32 + self.proof.wire_size()
    }
}

/// The signing key: a seed, the precomputed Merkle tree, and a use counter.
pub struct WotsKeyPair {
    seed: Hash256,
    height: u8,
    next_leaf: u32,
    tree: MerkleTree,
}

/// Split a 256-bit digest into 64 base-16 digits plus 3 checksum digits.
fn digits(msg_hash: &Hash256) -> [u8; CHAINS] {
    let mut out = [0u8; CHAINS];
    for (i, &b) in msg_hash.as_bytes().iter().enumerate() {
        out[2 * i] = b >> 4;
        out[2 * i + 1] = b & 0x0f;
    }
    let csum: u32 = out[..MSG_CHAINS].iter().map(|&d| (W - 1) - d as u32).sum();
    // Base-16 big-endian checksum digits.
    out[MSG_CHAINS] = ((csum >> 8) & 0x0f) as u8;
    out[MSG_CHAINS + 1] = ((csum >> 4) & 0x0f) as u8;
    out[MSG_CHAINS + 2] = (csum & 0x0f) as u8;
    out
}

/// Iterate the chain function `n` times.
fn chain(mut x: Hash256, n: u32) -> Hash256 {
    for _ in 0..n {
        x = sha256_concat(&[b"wots-chain", x.as_bytes()]);
    }
    x
}

/// Secret chain start for (leaf, chain) derived from the seed.
fn chain_secret(seed: &Hash256, leaf: u32, chain_idx: u32) -> Hash256 {
    let mut data = Vec::with_capacity(40);
    data.extend_from_slice(seed.as_bytes());
    data.extend_from_slice(&leaf.to_be_bytes());
    data.extend_from_slice(&chain_idx.to_be_bytes());
    tagged_hash("wots-sk", &data)
}

/// Hash all chain tops of a leaf into its one-time public key hash.
fn leaf_public(seed: &Hash256, leaf: u32) -> Hash256 {
    let mut concat = Vec::with_capacity(CHAINS * 32);
    for c in 0..CHAINS as u32 {
        let top = chain(chain_secret(seed, leaf, c), W - 1);
        concat.extend_from_slice(top.as_bytes());
    }
    tagged_hash("wots-leaf", &concat)
}

impl WotsKeyPair {
    /// Generate a keypair from a seed. Capacity is `2^height` signatures;
    /// `height` is clamped to [0, 16] (65,536 signatures max).
    pub fn generate(seed: Hash256, height: u8) -> WotsKeyPair {
        let height = height.min(16);
        let n_leaves = 1u32 << height;
        let leaves: Vec<Hash256> = (0..n_leaves).map(|i| leaf_public(&seed, i)).collect();
        let tree = MerkleTree::from_leaf_hashes(leaves);
        WotsKeyPair {
            seed,
            height,
            next_leaf: 0,
            tree,
        }
    }

    /// The public key.
    pub fn public(&self) -> WotsPublicKey {
        WotsPublicKey {
            root: self.tree.root(),
            height: self.height,
        }
    }

    /// Signatures remaining before exhaustion.
    pub fn remaining(&self) -> u32 {
        (1u32 << self.height) - self.next_leaf
    }

    /// Sign a message (the message is hashed internally). Consumes one
    /// one-time key.
    pub fn sign(&mut self, msg: &[u8]) -> Result<WotsSignature, SignError> {
        if self.next_leaf >= (1u32 << self.height) {
            return Err(SignError::Exhausted);
        }
        let leaf = self.next_leaf;
        self.next_leaf += 1;
        let msg_hash = tagged_hash("wots-msg", msg);
        let d = digits(&msg_hash);
        let chain_values = (0..CHAINS)
            .map(|c| chain(chain_secret(&self.seed, leaf, c as u32), d[c] as u32))
            .collect();
        let proof = self.tree.prove(leaf as usize).expect("leaf in range");
        Ok(WotsSignature {
            leaf_index: leaf,
            chain_values,
            proof,
        })
    }
}

impl WotsPublicKey {
    /// Verify a signature over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &WotsSignature) -> bool {
        if sig.chain_values.len() != CHAINS {
            return false;
        }
        let msg_hash = tagged_hash("wots-msg", msg);
        let d = digits(&msg_hash);
        // Walk each chain the *remaining* w-1-d steps to recover the tops.
        let mut concat = Vec::with_capacity(CHAINS * 32);
        for (value, digit) in sig.chain_values.iter().zip(d.iter()) {
            let top = chain(*value, (W - 1) - u32::from(*digit));
            concat.extend_from_slice(top.as_bytes());
        }
        let leaf = tagged_hash("wots-leaf", &concat);
        // The claimed index fixes the path, so a signature verifies only at
        // the one-time key it used and leaf reuse can be audited.
        sig.proof.verify_at(
            leaf,
            sig.leaf_index as usize,
            1usize << self.height,
            self.root,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn kp(height: u8) -> WotsKeyPair {
        WotsKeyPair::generate(sha256(b"test-seed"), height)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut k = kp(2);
        let pk = k.public();
        let sig = k.sign(b"hello agora").unwrap();
        assert!(pk.verify(b"hello agora", &sig));
    }

    #[test]
    fn wrong_message_fails() {
        let mut k = kp(2);
        let pk = k.public();
        let sig = k.sign(b"message A").unwrap();
        assert!(!pk.verify(b"message B", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let mut k1 = kp(2);
        let k2 = WotsKeyPair::generate(sha256(b"other-seed"), 2);
        let sig = k1.sign(b"msg").unwrap();
        assert!(!k2.public().verify(b"msg", &sig));
    }

    #[test]
    fn each_signature_uses_fresh_leaf() {
        let mut k = kp(2);
        let pk = k.public();
        let s1 = k.sign(b"one").unwrap();
        let s2 = k.sign(b"two").unwrap();
        assert_ne!(s1.leaf_index, s2.leaf_index);
        assert!(pk.verify(b"one", &s1));
        assert!(pk.verify(b"two", &s2));
    }

    #[test]
    fn exhaustion() {
        let mut k = kp(1); // capacity 2
        assert_eq!(k.remaining(), 2);
        k.sign(b"1").unwrap();
        k.sign(b"2").unwrap();
        assert_eq!(k.remaining(), 0);
        assert_eq!(k.sign(b"3"), Err(SignError::Exhausted));
    }

    #[test]
    fn height_zero_single_signature() {
        let mut k = kp(0);
        let pk = k.public();
        let sig = k.sign(b"only").unwrap();
        assert!(pk.verify(b"only", &sig));
        assert_eq!(k.sign(b"again"), Err(SignError::Exhausted));
    }

    #[test]
    fn tampered_signature_fails() {
        let mut k = kp(2);
        let pk = k.public();
        let mut sig = k.sign(b"msg").unwrap();
        sig.chain_values[10] = sha256(b"tamper");
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_leaf_index_fails() {
        let mut k = kp(3);
        let pk = k.public();
        let mut sig = k.sign(b"msg").unwrap();
        sig.leaf_index = 5; // valid range but wrong proof path
        assert!(!pk.verify(b"msg", &sig));
        sig.leaf_index = 1u32 << 7; // out of range entirely
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn truncated_signature_fails() {
        let mut k = kp(2);
        let pk = k.public();
        let mut sig = k.sign(b"msg").unwrap();
        sig.chain_values.pop();
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn digits_checksum_invariant() {
        // Checksum digits must encode sum(15 - d_i) exactly.
        let h = sha256(b"whatever");
        let d = digits(&h);
        let csum: u32 = d[..MSG_CHAINS].iter().map(|&x| 15 - x as u32).sum();
        let encoded = ((d[MSG_CHAINS] as u32) << 8)
            | ((d[MSG_CHAINS + 1] as u32) << 4)
            | d[MSG_CHAINS + 2] as u32;
        assert_eq!(csum, encoded);
    }

    #[test]
    fn signature_wire_size_realistic() {
        let mut k = kp(4);
        let sig = k.sign(b"msg").unwrap();
        // 67 chains × 32 B ≈ 2.1 KB plus a 4-step Merkle path.
        assert!(sig.wire_size() > 2_000);
        assert!(sig.wire_size() < 3_000);
    }

    #[test]
    fn deterministic_keygen() {
        let a = WotsKeyPair::generate(sha256(b"s"), 2).public();
        let b = WotsKeyPair::generate(sha256(b"s"), 2).public();
        assert_eq!(a, b);
        let c = WotsKeyPair::generate(sha256(b"s"), 3).public();
        assert_ne!(a.root, c.root);
    }
}
