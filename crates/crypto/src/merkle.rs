//! Merkle trees with inclusion proofs.
//!
//! Used for block transaction commitments (`agora-chain`), proof-of-storage
//! challenges (`agora-storage`), site manifests (`agora-web`) and the
//! many-time signature scheme (`wots`).
//!
//! Leaf and interior hashes are domain-separated (`0x00`/`0x01` prefixes) so a
//! 64-byte leaf cannot masquerade as an interior node (the classic Merkle
//! second-preimage pitfall). Odd nodes are promoted, not duplicated, avoiding
//! the CVE-2012-2459 duplication ambiguity.
//!
//! A proof is only the sibling hashes. Which side each sibling sits on, and
//! how many there are, follow from the leaf's index and the tree's leaf
//! count, which the verifier supplies ([`MerkleProof::verify_at`]): a prover
//! cannot choose them, so a proof for one leaf never verifies at another
//! position.

use crate::sha256::{sha256_concat, Hash256};

/// Hash a leaf's raw bytes (domain-separated).
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    sha256_concat(&[&[0x00], data])
}

fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    sha256_concat(&[&[0x01], left.as_bytes(), right.as_bytes()])
}

/// An inclusion proof for one leaf: its siblings, bottom-up.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MerkleProof {
    /// One sibling per level where the path node has one; a node promoted
    /// as the odd one out of its level contributes none.
    pub siblings: Vec<Hash256>,
}

impl MerkleProof {
    /// Verify that `leaf` is leaf `index` of a `leaf_count`-leaf tree under
    /// `root`. Each level's direction is the parity of the path node's index
    /// there; a level where that node is the last of an odd count promotes
    /// it and consumes no sibling. The proof must have exactly the siblings
    /// this walk consumes.
    pub fn verify_at(&self, leaf: Hash256, index: usize, leaf_count: usize, root: Hash256) -> bool {
        if index >= leaf_count {
            return false;
        }
        let mut siblings = self.siblings.iter();
        let (mut acc, mut idx, mut width) = (leaf, index, leaf_count);
        while width > 1 {
            if idx ^ 1 < width {
                let Some(sibling) = siblings.next() else {
                    return false;
                };
                acc = if idx % 2 == 0 {
                    node_hash(&acc, sibling)
                } else {
                    node_hash(sibling, &acc)
                };
            }
            idx /= 2;
            width = width.div_ceil(2);
        }
        siblings.next().is_none() && acc == root
    }

    /// Wire size estimate in bytes (for simulated message sizing).
    pub fn wire_size(&self) -> u64 {
        self.siblings.len() as u64 * 32
    }
}

/// A Merkle tree over a list of leaf hashes. Stores all levels for O(log n)
/// proof extraction.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaves; last level has exactly one node (the root).
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Build from pre-hashed leaves. An empty leaf set yields a tree whose
    /// root is the hash of the empty string under the leaf domain (a defined,
    /// stable sentinel).
    pub fn from_leaf_hashes(leaves: Vec<Hash256>) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![leaf_hash(b"")]],
            };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < prev.len() {
                next.push(node_hash(&prev[i], &prev[i + 1]));
                i += 2;
            }
            if i < prev.len() {
                // Odd node: promote unchanged.
                next.push(prev[i]);
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Build from raw leaf data (hashes each leaf with the leaf domain).
    pub fn from_data<D: AsRef<[u8]>>(items: &[D]) -> MerkleTree {
        MerkleTree::from_leaf_hashes(items.iter().map(|d| leaf_hash(d.as_ref())).collect())
    }

    /// The root commitment.
    pub fn root(&self) -> Hash256 {
        self.levels.last().expect("root level")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True if built from zero leaves (sentinel tree).
    pub fn is_empty(&self) -> bool {
        self.levels.len() == 1 && self.levels[0].len() == 1 && self.levels[0][0] == leaf_hash(b"")
    }

    /// Leaf hash at an index.
    pub fn leaf(&self, index: usize) -> Option<Hash256> {
        self.levels[0].get(index).copied()
    }

    /// Inclusion proof for the leaf at `index`. `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            // If no sibling (odd promoted node) the node carries up unchanged
            // and contributes none.
            if let Some(&sibling) = level.get(idx ^ 1) {
                siblings.push(sibling);
            }
            idx /= 2;
        }
        Some(MerkleProof { siblings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n)
            .map(|i| sha256(format!("leaf-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let t = MerkleTree::from_leaf_hashes(l.clone());
        assert_eq!(t.root(), l[0]);
        assert_eq!(t.len(), 1);
        let p = t.prove(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(p.verify_at(l[0], 0, 1, t.root()));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100] {
            let l = leaves(n);
            let t = MerkleTree::from_leaf_hashes(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let p = t.prove(i).unwrap_or_else(|| panic!("proof {i}/{n}"));
                assert!(p.verify_at(*leaf, i, n, t.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaf_hashes(l.clone());
        let p = t.prove(3).unwrap();
        assert!(!p.verify_at(l[4], 3, 8, t.root()));
        assert!(!p.verify_at(sha256(b"forged"), 3, 8, t.root()));
    }

    #[test]
    fn wrong_position_or_leaf_count_fails() {
        // The right leaf with its own proof, at any other index or under
        // any other leaf count whose path differs, fails.
        let l = leaves(5);
        let t = MerkleTree::from_leaf_hashes(l.clone());
        let p = t.prove(4).unwrap();
        assert!(p.verify_at(l[4], 4, 5, t.root()));
        for j in 0..4 {
            assert!(!p.verify_at(l[4], j, 5, t.root()), "index {j}");
        }
        assert!(!p.verify_at(l[4], 5, 5, t.root()), "index past the end");
        assert!(!p.verify_at(l[4], 4, 8, t.root()), "one sibling short");
        assert!(!p.verify_at(l[4], 4, 4, t.root()), "index past the end");
    }

    #[test]
    fn tampered_proof_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaf_hashes(l.clone());
        let mut p = t.prove(2).unwrap();
        p.siblings[1] = sha256(b"evil");
        assert!(!p.verify_at(l[2], 2, 8, t.root()));
        let mut extra = t.prove(2).unwrap();
        extra.siblings.push(t.root());
        assert!(!extra.verify_at(l[2], 2, 8, t.root()), "trailing sibling");
        let mut short = t.prove(2).unwrap();
        short.siblings.pop();
        assert!(!short.verify_at(l[2], 2, 8, t.root()), "missing sibling");
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::from_leaf_hashes(leaves(4));
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::from_leaf_hashes(leaves(4));
        let mut other = leaves(4);
        other[2] = sha256(b"changed");
        let b = MerkleTree::from_leaf_hashes(other);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn order_matters() {
        let l = leaves(2);
        let a = MerkleTree::from_leaf_hashes(vec![l[0], l[1]]);
        let b = MerkleTree::from_leaf_hashes(vec![l[1], l[0]]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn from_data_uses_leaf_domain() {
        let t = MerkleTree::from_data(&[b"a".as_slice(), b"b".as_slice()]);
        assert_eq!(t.leaf(0).unwrap(), leaf_hash(b"a"));
        // Raw sha256 of the data is NOT the leaf hash (domain separation).
        assert_ne!(t.leaf(0).unwrap(), sha256(b"a"));
    }

    #[test]
    fn empty_tree_sentinel() {
        let t = MerkleTree::from_leaf_hashes(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.root(), leaf_hash(b""));
        let t2 = MerkleTree::from_data::<&[u8]>(&[]);
        assert_eq!(t2.root(), t.root());
    }

    #[test]
    fn proof_wire_size_logarithmic() {
        let t = MerkleTree::from_leaf_hashes(leaves(1024));
        let p = t.prove(512).unwrap();
        assert_eq!(p.siblings.len(), 10);
        assert_eq!(p.wire_size(), 320);
    }

    #[test]
    fn leaf_cannot_fake_interior() {
        // An attacker who controls leaf *data* equal to two concatenated
        // hashes cannot produce an interior node, because domains differ.
        let l = leaves(2);
        let t = MerkleTree::from_leaf_hashes(l.clone());
        let mut fake = vec![0x01u8];
        fake.extend_from_slice(l[0].as_bytes());
        fake.extend_from_slice(l[1].as_bytes());
        assert_ne!(leaf_hash(&fake[1..]), t.root());
    }
}
