//! Property tests for the naming substrate. Always on, 256 seeded `SimRng`
//! cases per property (32 for the front-running game), no registry
//! dependency.

use agora_crypto::{sha256, Hash256};
use agora_naming::{valid_name, NameDb, NameOp, NamingRules, ZoneFile};
use agora_sim::SimRng;

const CASES: u64 = 256;

/// A string of `lo..hi` chars drawn from `alphabet`.
fn word(rng: &mut SimRng, alphabet: &[u8], lo: u64, hi: u64) -> String {
    (0..rng.range(lo, hi))
        .map(|_| char::from(*rng.pick(alphabet)))
        .collect()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";

/// `[a-z0-9][a-z0-9.-]{0,inner}[a-z0-9]`: the documented name alphabet,
/// never starting or ending with a separator.
fn name(rng: &mut SimRng, inner: u64) -> String {
    format!(
        "{}{}{}",
        word(rng, ALNUM, 1, 2),
        word(rng, NAME, 0, inner + 1),
        word(rng, ALNUM, 1, 2)
    )
}

/// Up to `max` chars, half of the draws from the name alphabet plus a few
/// near misses (upper case, `_`, space) and half from the first three
/// Unicode planes, so multi-byte UTF-8 occurs.
fn text(rng: &mut SimRng, max: u64) -> String {
    (0..rng.below(max + 1))
        .filter_map(|_| {
            if rng.chance(0.5) {
                Some(char::from(*rng.pick(b"abz09.-A_ ")))
            } else {
                char::from_u32(rng.below(0x3_0000) as u32)
            }
        })
        .collect()
}

/// Name ops round-trip the codec for arbitrary field values.
#[test]
fn name_ops_round_trip() {
    let mut cases = SimRng::new(0x6e61_6d31);
    for case in 0..CASES {
        let name = name(&mut cases, 40);
        let (salt, zone) = (cases.next_u64(), sha256(&cases.next_u64().to_be_bytes()));
        let owner = sha256(b"owner");
        for op in [
            NameOp::Preorder { commitment: zone },
            NameOp::Register {
                name: name.clone(),
                salt,
                zone_hash: zone,
            },
            NameOp::Update {
                name: name.clone(),
                zone_hash: zone,
            },
            NameOp::Transfer {
                name: name.clone(),
                new_owner: owner,
            },
            NameOp::Renew { name: name.clone() },
            NameOp::Revoke { name: name.clone() },
        ] {
            assert_eq!(
                NameOp::decode(&op.encode()).expect("round trip"),
                op,
                "case {case}"
            );
        }
    }
}

/// Decoding arbitrary bytes never panics.
#[test]
fn name_op_decode_total() {
    let mut cases = SimRng::new(0x6e61_6d32);
    for _ in 0..CASES {
        let len = cases.below_usize(300);
        let _ = NameOp::decode(&cases.bytes(len));
    }
}

/// Zone files round-trip for arbitrary endpoint sets.
#[test]
fn zone_files_round_trip() {
    let mut cases = SimRng::new(0x6e61_6d33);
    for case in 0..CASES {
        let z = ZoneFile {
            name: name(&mut cases, 30),
            public_key: sha256(&cases.next_u64().to_be_bytes()),
            endpoints: (0..cases.below(8)).map(|_| text(&mut cases, 60)).collect(),
        };
        let decoded = ZoneFile::decode(&z.encode()).expect("round trip");
        assert_eq!(decoded, z, "case {case}");
        assert_eq!(decoded.hash(), z.hash(), "case {case}");
    }
}

/// The NameDb state machine is total (no panics) and safe (names never
/// owned by anyone who didn't validly register/receive them) under arbitrary
/// op sequences from two principals.
#[test]
fn namedb_safety_under_arbitrary_ops() {
    let mut cases = SimRng::new(0x6e61_6d34);
    let rules = NamingRules {
        preorder_required: true,
        min_preorder_age: 1,
        preorder_ttl: 100,
        expiry_blocks: 1000,
    };
    let alice = sha256(b"prop-alice");
    let mallory = sha256(b"prop-mallory");
    for case in 0..CASES {
        let mut db = NameDb::default();
        let mut height = 1u64;
        // Alice performs a canonical valid registration first.
        let c = NameOp::commitment("the.name", 7, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, height, &rules);
        height += 2;
        db.apply(
            NameOp::Register {
                name: "the.name".into(),
                salt: 7,
                zone_hash: sha256(b"z"),
            },
            alice,
            height,
            &rules,
        );
        // Then an arbitrary storm of operations, with Mallory's ops chosen
        // arbitrarily and Alice only issuing renews (never transfers).
        for _ in 0..cases.below(60) {
            let (kind, is_mallory, x) = (cases.below(6), cases.chance(0.5), cases.next_u64());
            height += 1;
            let who = if is_mallory { mallory } else { alice };
            let name = || "the.name".to_owned();
            let op = match kind {
                0 => NameOp::Preorder {
                    commitment: sha256(&x.to_be_bytes()),
                },
                1 => NameOp::Register {
                    name: name(),
                    salt: x,
                    zone_hash: sha256(b"evil"),
                },
                2 => NameOp::Update {
                    name: name(),
                    zone_hash: sha256(&x.to_be_bytes()),
                },
                3 if is_mallory => NameOp::Transfer {
                    name: name(),
                    new_owner: mallory,
                },
                5 if is_mallory => NameOp::Revoke { name: name() },
                _ => NameOp::Renew { name: name() },
            };
            db.apply(op, who, height, &rules);
        }
        // Safety: if the name still resolves, Alice owns it (she never
        // transferred; Mallory's takeover attempts must all have failed).
        if let Some(rec) = db.resolve("the.name", height) {
            assert_eq!(rec.owner, alice, "case {case}");
        }
    }
}

/// valid_name is a proper predicate: accepts the documented alphabet,
/// rejects everything else, never panics on arbitrary strings.
#[test]
fn valid_name_total() {
    let mut cases = SimRng::new(0x6e61_6d35);
    let mut accepted = 0;
    for case in 0..CASES {
        let s = if cases.chance(0.5) {
            name(&mut cases, 40)
        } else {
            text(&mut cases, 80)
        };
        if valid_name(&s) {
            accepted += 1;
            assert!(!s.is_empty() && s.len() <= 63, "case {case}: {s:?}");
            assert!(
                s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '-'),
                "case {case}: {s:?}"
            );
        }
    }
    assert!(accepted > CASES / 4, "only {accepted} names were valid");
}

/// Commitments are binding: different (name, salt, account) triples yield
/// different commitments.
#[test]
fn commitments_binding() {
    let mut cases = SimRng::new(0x6e61_6d36);
    for case in 0..CASES {
        // Names and salts are often shared, so each alone must separate.
        let n1 = word(&mut cases, LOWER, 1, 11);
        let n2 = if cases.chance(0.5) {
            n1.clone()
        } else {
            word(&mut cases, LOWER, 1, 11)
        };
        let s1 = cases.next_u64();
        let s2 = if cases.chance(0.5) {
            s1
        } else {
            cases.next_u64()
        };
        let a = sha256(b"acct");
        if n1 != n2 || s1 != s2 {
            assert_ne!(
                NameOp::commitment(&n1, s1, &a),
                NameOp::commitment(&n2, s2, &a),
                "case {case}"
            );
        }
        let b: Hash256 = sha256(b"other");
        assert_ne!(
            NameOp::commitment(&n1, s1, &a),
            NameOp::commitment(&n1, s1, &b),
            "case {case}"
        );
    }
}

/// Front-running with preorders never succeeds at any priority.
#[test]
fn preorder_defence_universal() {
    let mut cases = SimRng::new(0x6e61_6d37);
    for case in 0..32 {
        // Both ends of [0, 1] are cases of their own.
        let priority = match case {
            0 => 0.0,
            1 => 1.0,
            _ => cases.f64(),
        };
        let mut rng = SimRng::new(cases.next_u64());
        let r = agora_naming::front_running_game(true, priority, 200, &mut rng);
        assert_eq!(r.steal_rate, 0.0, "case {case}: priority {priority}");
    }
}
