//! Property tests for the Kademlia routing table. Always on, 256 seeded
//! `SimRng` cases per property, no registry dependency.

use agora_crypto::{sha256, Hash256};
use agora_dht::{Contact, RoutingTable};
use agora_sim::{NodeId, SimRng};

const CASES: u64 = 256;

fn contacts(n: usize) -> Vec<Contact> {
    (0..n)
        .map(|i| Contact {
            key: sha256(&(i as u64).to_be_bytes()),
            addr: NodeId(i as u32),
        })
        .collect()
}

/// The table never stores its own key, never exceeds k per bucket, and
/// never duplicates a contact — under arbitrary observe/remove storms.
#[test]
fn table_invariants() {
    let mut cases = SimRng::new(0x6468_7431);
    for case in 0..CASES {
        let k = cases.range(1, 12) as usize;
        let own = sha256(b"own-key");
        let mut table = RoutingTable::new(own, k);
        table.observe(Contact {
            key: own,
            addr: NodeId(9999),
        });
        for _ in 0..cases.below(300) {
            // A narrow key space, so removes hit stored contacts.
            let x = cases.below(1 << 9) as u16;
            let c = Contact {
                key: sha256(&x.to_be_bytes()),
                addr: NodeId(x as u32),
            };
            if cases.chance(0.5) {
                table.observe(c);
            } else {
                table.remove(&c.key);
            }
            assert!(!table.contains(&own), "case {case}: self-key stored");
        }
        // No duplicates: closest over everything returns unique keys.
        let all = table.closest(&own, usize::MAX);
        let mut keys: Vec<Hash256> = all.iter().map(|c| c.key).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "case {case}: duplicate contacts");
        assert_eq!(all.len(), table.len(), "case {case}");
    }
}

/// closest(target, n) is sorted by XOR distance and globally optimal
/// among stored contacts.
#[test]
fn closest_is_sorted_and_optimal() {
    let mut cases = SimRng::new(0x6468_7432);
    for case in 0..CASES {
        let (n_contacts, want) = (cases.range(1, 150) as usize, cases.range(1, 25) as usize);
        let own = sha256(b"me");
        let mut table = RoutingTable::new(own, 20);
        for c in contacts(n_contacts) {
            table.observe(c);
        }
        let target = sha256(&cases.next_u64().to_be_bytes());
        let got = table.closest(&target, want);
        assert!(got.len() <= want, "case {case}");
        for w in got.windows(2) {
            assert!(
                w[0].key.xor(&target) <= w[1].key.xor(&target),
                "case {case}"
            );
        }
        // The head of the result is the global minimum among *stored*.
        if let Some(first) = got.first() {
            let stored = table.closest(&target, usize::MAX);
            assert_eq!(first.key, stored[0].key, "case {case}");
        }
    }
}

/// Re-observing contacts is idempotent on size.
#[test]
fn observe_idempotent() {
    let mut cases = SimRng::new(0x6468_7433);
    for case in 0..CASES {
        let (n, repeats) = (cases.range(1, 80) as usize, cases.range(1, 4));
        let cs = contacts(n);
        let table = |repeats: u64| {
            let mut t = RoutingTable::new(sha256(b"me"), 8);
            for _ in 0..repeats {
                for c in &cs {
                    t.observe(*c);
                }
            }
            t.len()
        };
        assert_eq!(table(repeats), table(1), "case {case}: n {n} x{repeats}");
    }
}

/// XOR distance is symmetric and zero exactly on identical keys, which
/// routing correctness relies on.
#[test]
fn xor_metric_identity_symmetry() {
    let mut cases = SimRng::new(0x6468_7434);
    for _ in 0..CASES {
        let (a, b) = (cases.next_u64(), cases.next_u64());
        let ha = sha256(&a.to_be_bytes());
        let hb = sha256(&b.to_be_bytes());
        assert_eq!(ha.xor(&ha), Hash256::ZERO);
        assert_eq!(ha.xor(&hb), hb.xor(&ha));
        if a != b {
            assert_ne!(ha.xor(&hb), Hash256::ZERO, "{a} {b}");
        }
    }
}
