//! One deterministic hasher for every protocol table in the workspace.
//!
//! `std`'s default `RandomState` seeds SipHash-1-3 from the OS once per
//! process. That defends a server against keys chosen to collide; in a
//! simulator it buys nothing and costs twice: SipHash is several rounds per
//! word on paths that hash on every event (a storage client hashes its op
//! ids on every get tick), and a map's iteration order changes from one
//! process to the next, so any output that walks a map is irreproducible
//! unless its author remembered to sort.
//!
//! [`FastHasher`] is FxHash-style: each word is added to the state and the
//! sum multiplied by an odd constant; `finish` rotates, so the product's
//! well-mixed high bits land in the low bits the table indexes its buckets
//! with. It has no seed, so the same keys inserted in the same order
//! iterate in the same order in every process, on every run. It is not a
//! defence against chosen collisions, and nothing here needs one: the keys
//! are SHA-256 digests, simulator-assigned ids and counters.
//!
//! [`FastMap`] and [`FastSet`] are the workspace's only hash tables; build
//! them with `FastMap::default()`. `ci.sh` fails if `std`'s `HashMap`,
//! `HashSet` or `RandomState` is named under `crates/*/src` outside this
//! file.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// An odd 64-bit multiplier with evenly spread bits: multiplication by it
/// is a bijection on `u64`, so distinct single-word keys never collide
/// before the table reduces them to a bucket.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The workspace's hasher: add a word, multiply by [`K`]; rotate on finish.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn no_seed_same_fill_same_iteration_order() {
        let fill = || {
            let mut m: FastMap<u64, u64> = FastMap::default();
            for i in 0..5_000u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            }
            for i in (0..5_000u64).step_by(3) {
                m.remove(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            m
        };
        let (a, b) = (fill(), fill());
        assert!(a.iter().eq(b.iter()), "two maps filled alike iterate alike");
        // No per-process seed: these are the values every process computes.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), K.rotate_left(26));
        assert_eq!(hash_of(&NodeId(1)), hash_of(&1u32));
    }

    /// Bucket spread for one key shape: 4 096 keys into a 1 024-bucket
    /// index (the low bits a table uses) and the 7-bit tag (the top bits).
    fn assert_spreads(shape: &str, hashes: impl Iterator<Item = u64>) {
        let mut buckets = vec![0u32; 1024];
        let mut tags = [false; 128];
        for h in hashes {
            buckets[(h & 1023) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        // A uniform hash fills ≈ 1 005 buckets with a fullest one of ≈ 12.
        let used = buckets.iter().filter(|&&n| n > 0).count();
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        assert!(used >= 950, "{shape}: {used} of 1024 buckets used");
        assert!(fullest <= 20, "{shape}: {fullest} keys in one bucket");
        let tag_count = tags.iter().filter(|&&t| t).count();
        assert!(tag_count >= 120, "{shape}: {tag_count} of 128 tags");
    }

    #[test]
    fn workspace_key_shapes_spread_across_buckets() {
        let digest = |i: u32| {
            // `Hash256` derives `Hash` over its `[u8; 32]`, so the bare
            // array hashes exactly like it. Harder than a real digest: a
            // fixed pattern that differs in only eight bytes per key.
            let mut b = [0xA5u8; 32];
            b[..4].copy_from_slice(&i.to_be_bytes());
            b[28..].copy_from_slice(&i.rotate_left(13).to_le_bytes());
            b
        };
        assert_spreads("u64 op ids", (0..4096u64).map(|i| hash_of(&i)));
        assert_spreads("Hash256", (0..4096u32).map(|i| hash_of(&digest(i))));
        assert_spreads(
            "(Hash256, u32)",
            (0..4096u32).map(|i| hash_of(&(digest(i / 4), i % 4))),
        );
        assert_spreads("NodeId", (0..4096u32).map(|i| hash_of(&NodeId(i))));
        assert_spreads(
            "u128 event keys",
            (0..4096u128).map(|i| hash_of(&((i / 8) << 64 | i))),
        );
    }
}
