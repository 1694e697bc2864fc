//! Kademlia routing table: 256 XOR-distance buckets of `k` contacts each.

use agora_crypto::Hash256;
use agora_sim::NodeId;

/// A DHT contact: overlay key plus transport address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    /// Overlay key (position in XOR space).
    pub key: Hash256,
    /// Simulator transport address.
    pub addr: NodeId,
}

/// XOR distance between two keys, as the two big-endian halves of the
/// 256-bit value: the derived order is the byte array's order, in two
/// machine compares. Computed once per (contact, target) and carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Distance(u128, u128);

impl Distance {
    pub(crate) fn between(a: &Hash256, b: &Hash256) -> Distance {
        let half = |h: &Hash256, at: usize| {
            u128::from_be_bytes(h.0[at..at + 16].try_into().expect("16 bytes"))
        };
        Distance(half(a, 0) ^ half(b, 0), half(a, 16) ^ half(b, 16))
    }

    /// Leading zero bits of the 256-bit distance (256 for distance zero).
    fn leading_zeros(self) -> u32 {
        if self.0 != 0 {
            self.0.leading_zeros()
        } else {
            128 + self.1.leading_zeros()
        }
    }
}

/// The routing table of one node.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    own_key: Hash256,
    k: usize,
    buckets: Vec<Vec<Contact>>,
    /// Contacts stored across all buckets.
    len: usize,
    /// Every non-empty bucket's index lies in this range (it may also hold
    /// empty ones, after removals).
    occupied: std::ops::Range<usize>,
}

impl RoutingTable {
    /// Create an empty table for a node with the given overlay key.
    pub fn new(own_key: Hash256, k: usize) -> RoutingTable {
        RoutingTable {
            own_key,
            k: k.max(1),
            buckets: vec![Vec::new(); 256],
            len: 0,
            occupied: 0..0,
        }
    }

    /// Bucket index for a key: floor(log2(distance)). `None` for self.
    fn bucket_index(&self, key: &Hash256) -> Option<usize> {
        let lz = Distance::between(&self.own_key, key).leading_zeros();
        if lz == 256 {
            None // distance zero: never store self
        } else {
            Some(255 - lz as usize)
        }
    }

    /// Record that a contact is alive. Known contacts move to the bucket's
    /// most-recently-seen end; new contacts fill free slots. Full buckets
    /// drop the newcomer (classic Kademlia favours long-lived contacts;
    /// failures are pruned via [`RoutingTable::remove`]).
    pub fn observe(&mut self, contact: Contact) {
        let Some(idx) = self.bucket_index(&contact.key) else {
            return;
        };
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|c| c.key == contact.key) {
            let c = bucket.remove(pos);
            bucket.push(c);
        } else if bucket.len() < self.k {
            bucket.push(contact);
            self.len += 1;
            self.occupied = if self.occupied.is_empty() {
                idx..idx + 1
            } else {
                self.occupied.start.min(idx)..self.occupied.end.max(idx + 1)
            };
        }
    }

    /// Remove a contact that failed to respond.
    pub fn remove(&mut self, key: &Hash256) {
        if let Some(idx) = self.bucket_index(key) {
            let bucket = &mut self.buckets[idx];
            let before = bucket.len();
            bucket.retain(|c| &c.key != key);
            self.len -= before - bucket.len();
        }
    }

    /// The `n` known contacts closest to `target` (by XOR distance).
    pub fn closest(&self, target: &Hash256, n: usize) -> Vec<Contact> {
        self.nearest(target, n)
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    /// [`RoutingTable::closest`] with each contact's distance to `target`.
    ///
    /// Bounded insertion, not a sort: every lookup step calls this with
    /// `n = k` against a few dozen contacts, so each contact's distance is
    /// computed once and placed into an `n`-sized ascending buffer, or
    /// dropped after one compare with the buffer's last entry. Distances to
    /// a fixed target are unique for distinct keys (XOR is a bijection), so
    /// the result is identical to sorting everything — locked down by
    /// `closest_matches_full_sort_reference` below.
    pub(crate) fn nearest(&self, target: &Hash256, n: usize) -> Vec<(Distance, Contact)> {
        let n = n.min(self.len);
        let mut best: Vec<(Distance, Contact)> = Vec::with_capacity(n);
        if n == 0 {
            return best;
        }
        for c in self.buckets[self.occupied.clone()].iter().flatten() {
            let d = Distance::between(&c.key, target);
            if best.len() == n {
                if d > best[n - 1].0 {
                    continue;
                }
                best.pop();
            }
            let at = best.partition_point(|(e, _)| *e < d);
            best.insert(at, (d, *c));
        }
        best
    }

    /// Total contacts stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no contacts are known.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &Hash256) -> bool {
        self.bucket_index(key)
            .is_some_and(|i| self.buckets[i].iter().any(|c| &c.key == key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    fn contact(i: u32) -> Contact {
        Contact {
            key: sha256(&i.to_be_bytes()),
            addr: NodeId(i),
        }
    }

    #[test]
    fn self_key_never_stored() {
        let own = sha256(b"me");
        let mut t = RoutingTable::new(own, 20);
        t.observe(Contact {
            key: own,
            addr: NodeId(0),
        });
        assert!(t.is_empty());
    }

    #[test]
    fn observe_and_contains() {
        let mut t = RoutingTable::new(sha256(b"me"), 20);
        let c = contact(1);
        t.observe(c);
        assert!(t.contains(&c.key));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn full_bucket_drops_newcomer() {
        let own = sha256(b"me");
        let mut t = RoutingTable::new(own, 2);
        // Find several keys landing in the same bucket.
        let mut same_bucket = Vec::new();
        let mut i = 0u32;
        let target_idx = {
            let c = contact(0);
            let lz = own.xor(&c.key).leading_zero_bits();
            255 - lz as usize
        };
        while same_bucket.len() < 4 {
            let c = contact(i);
            let lz = own.xor(&c.key).leading_zero_bits() as usize;
            if lz < 256 && 255 - lz == target_idx {
                same_bucket.push(c);
            }
            i += 1;
        }
        for c in &same_bucket {
            t.observe(*c);
        }
        assert_eq!(t.len(), 2, "bucket capacity enforced");
        assert!(t.contains(&same_bucket[0].key), "oldest kept");
        assert!(!t.contains(&same_bucket[3].key), "newcomer dropped");
    }

    #[test]
    fn remove_prunes_failures() {
        let mut t = RoutingTable::new(sha256(b"me"), 20);
        let c = contact(1);
        t.observe(c);
        t.remove(&c.key);
        assert!(!t.contains(&c.key));
    }

    #[test]
    fn closest_orders_by_xor_distance() {
        let own = sha256(b"me");
        let mut t = RoutingTable::new(own, 20);
        for i in 0..50 {
            t.observe(contact(i));
        }
        let target = sha256(b"target");
        let got = t.closest(&target, 5);
        assert_eq!(got.len(), 5);
        for w in got.windows(2) {
            assert!(w[0].key.xor(&target) <= w[1].key.xor(&target));
        }
        // The first result really is the global minimum among stored.
        let all = t.closest(&target, 100);
        assert_eq!(got[0].key, all[0].key);
    }

    #[test]
    fn re_observe_moves_to_most_recent() {
        // With k=1 the bucket keeps its single occupant; re-observing it
        // must not duplicate.
        let mut t = RoutingTable::new(sha256(b"me"), 1);
        let c = contact(1);
        t.observe(c);
        t.observe(c);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn closest_on_empty_table() {
        let t = RoutingTable::new(sha256(b"me"), 20);
        assert!(t.closest(&sha256(b"x"), 3).is_empty());
    }

    #[test]
    fn closest_zero_returns_empty() {
        let mut t = RoutingTable::new(sha256(b"me"), 20);
        t.observe(contact(1));
        assert!(t.closest(&sha256(b"x"), 0).is_empty());
    }

    #[test]
    fn closest_matches_full_sort_reference() {
        // The selection-based `closest` must return exactly what the naive
        // sort-everything implementation returned, for every n from 0 past
        // the table size — order included.
        let own = sha256(b"me");
        let mut t = RoutingTable::new(own, 20);
        for i in 0..200 {
            t.observe(contact(i));
        }
        let stored = t.len();
        assert!(stored > 50, "need a meaningfully sized table, got {stored}");
        for target in [sha256(b"t1"), sha256(b"t2"), own, contact(7).key] {
            let mut reference: Vec<Contact> = t.buckets.iter().flatten().copied().collect();
            reference.sort_by_key(|c| c.key.xor(&target));
            for n in [0, 1, 2, 3, 5, 8, 16, 20, stored - 1, stored, stored + 10] {
                let mut want = reference.clone();
                want.truncate(n);
                assert_eq!(t.closest(&target, n), want, "n = {n}");
            }
        }
    }

    #[test]
    fn closest_tracks_interleaved_observes_and_removes() {
        // The O(1) count and the occupied-bucket range are bookkeeping on
        // top of the buckets; after every mutation `closest` must still be
        // the full sort of what the buckets hold, for every n.
        let own = sha256(b"me");
        let mut t = RoutingTable::new(own, 3);
        let target = sha256(b"somewhere");
        let mut rng = 0x9E37_79B9u32;
        for step in 0..400u32 {
            rng = rng.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let c = contact(rng >> 16 & 63);
            // Mostly grow at first, mostly shrink at the end (down to empty).
            if rng % 400 >= step {
                t.observe(c);
            } else {
                t.remove(&c.key);
            }
            let mut reference: Vec<Contact> = t.buckets.iter().flatten().copied().collect();
            reference.sort_by_key(|c| c.key.xor(&target));
            assert_eq!(t.len(), reference.len(), "step {step}");
            assert_eq!(t.is_empty(), reference.is_empty());
            for n in 0..=reference.len() + 1 {
                let want = &reference[..n.min(reference.len())];
                assert_eq!(t.closest(&target, n), want, "step {step} n {n}");
            }
        }
        for i in 0..64 {
            t.remove(&contact(i).key);
        }
        assert!(t.is_empty() && t.closest(&target, 8).is_empty());
        t.observe(contact(9));
        assert_eq!(t.closest(&target, 8), vec![contact(9)]);
    }

    #[test]
    fn distance_orders_like_the_xor_bytes() {
        let keys: Vec<Hash256> = (0..40u32).map(|i| contact(i).key).collect();
        let target = sha256(b"t");
        for a in &keys {
            for b in &keys {
                assert_eq!(
                    Distance::between(a, &target).cmp(&Distance::between(b, &target)),
                    a.xor(&target).cmp(&b.xor(&target))
                );
            }
            assert_eq!(
                Distance::between(a, &target).leading_zeros(),
                a.xor(&target).leading_zero_bits()
            );
        }
        // The halves' seam: keys differing only in the low half.
        let mut low = target;
        low.0[31] ^= 1;
        assert_eq!(Distance::between(&low, &target).leading_zeros(), 255);
        assert_eq!(Distance::between(&target, &target).leading_zeros(), 256);
    }
}
