//! Property tests pinning the contract laws the delta-sync substrate
//! relies on: CRDT join laws (commutative, associative, idempotent) for
//! both shipped contracts, summary→delta round-trip exactness, subscriber
//! convergence from any delta interleaving, canonical codecs, and the
//! equivalence of the in-place `try_apply` with the clone-then-validate
//! reference it replaced. Always on, 256 seeded `SimRng` cases per
//! property, no registry dependency.

use std::cell::Cell;
use std::fmt::Debug;

use agora_app::{
    Contract, GuestEntry, Guestbook, KvDoc, KvWrite, OpLog, VersionVector, MAX_OP_BYTES,
};
use agora_crypto::sha256;
use agora_sim::SimRng;

const CASES: u64 = 256;

/// The one honest history every generated state is a prefix of: the op at
/// `(writer, seq)` is a function of its key, as it is wherever a single
/// authority assigns sequence numbers.
fn guest_op(w: u32, s: u64) -> GuestEntry {
    GuestEntry {
        body: format!("w{w}-{s}").into_bytes(),
    }
}

/// The KV history: paths collide across writers and stamps are scattered,
/// so last-writer-wins has real contests to settle.
fn kv_op(w: u32, s: u64) -> KvWrite {
    let value_hash = sha256(format!("v{w}-{s}").as_bytes());
    KvWrite {
        path: format!("p{}.html", (w as u64 + s) % 3),
        stamp: u64::from(value_hash.0[0]) % 100,
        value_hash,
        len: s,
        delete: s % 4 == 3,
    }
}

/// A random valid state: up to three runs of up to `max_run - 1` ops, each
/// extending one of four writers' contiguous prefixes.
fn state_of<O: Clone>(rng: &mut SimRng, max_run: u64, op: fn(u32, u64) -> O) -> OpLog<O> {
    let mut log = OpLog::new();
    for _ in 0..rng.below(4) {
        let w = rng.below(4) as u32;
        for _ in 0..rng.range(1, max_run) {
            let s = log.writer_max(w) + 1;
            log.ops.insert((w, s), op(w, s));
        }
    }
    log
}

fn guestbook_state(rng: &mut SimRng) -> OpLog<GuestEntry> {
    state_of(rng, 6, guest_op)
}

fn kv_state(rng: &mut SimRng) -> OpLog<KvWrite> {
    state_of(rng, 5, kv_op)
}

/// Split a state's ops into `k` deltas by round-robin (an arbitrary
/// partition of a history into push units).
fn partition<O: Clone>(state: &OpLog<O>, k: usize) -> Vec<OpLog<O>> {
    let k = k.max(1);
    let mut parts: Vec<OpLog<O>> = (0..k).map(|_| OpLog::new()).collect();
    for (i, (key, op)) in state.ops.iter().enumerate() {
        parts[i % k].ops.insert(*key, op.clone());
    }
    parts
}

/// The join laws, generic over both contracts (states double as deltas).
fn join_laws<C>(seed: u64, state: fn(&mut SimRng) -> C::Delta)
where
    C: Contract,
{
    let mut rng = SimRng::new(seed);
    for case in 0..CASES {
        let (a, b, c) = (state(&mut rng), state(&mut rng), state(&mut rng));
        assert_eq!(
            C::merge_deltas(&a, &b),
            C::merge_deltas(&b, &a),
            "case {case}: commutative"
        );
        assert_eq!(
            C::merge_deltas(&C::merge_deltas(&a, &b), &c),
            C::merge_deltas(&a, &C::merge_deltas(&b, &c)),
            "case {case}: associative"
        );
        assert_eq!(C::merge_deltas(&a, &a), a, "case {case}: idempotent");
    }
}

#[test]
fn guestbook_join_laws() {
    join_laws::<Guestbook>(0x6a01, guestbook_state);
}

#[test]
fn kv_join_laws() {
    join_laws::<KvDoc>(0x6a02, kv_state);
}

/// The laws above are laws of *one* history. The suite this file was
/// ported from drew each KV state with its own random stamps, so two
/// states could carry different ops at one key, and there commutativity
/// fails: keyed union keeps the op already held. That is the designed
/// behaviour (an op is immutable under its key, and what makes a key's op
/// unique is the authority's `DeltaCert`, not the join), pinned here so
/// nobody reads the join as last-writer-wins over op content.
#[test]
fn join_keeps_the_held_op_where_histories_conflict() {
    let ours = KvDoc::singleton_delta(0, 1, kv_op(0, 1));
    let theirs = KvDoc::singleton_delta(0, 1, kv_op(3, 9));
    assert_eq!(KvDoc::merge_deltas(&ours, &theirs), ours);
    assert_eq!(KvDoc::merge_deltas(&theirs, &ours), theirs);
    let mut held = ours.clone();
    assert!(KvDoc::try_apply(&mut held, &theirs));
    assert_eq!(held, ours);
}

/// `delta_from_summary` is exact: for two valid states drawn from a
/// common history, B's suffix past A's summary merged into A equals the
/// full join of A and B — and a holder of the join is missing nothing.
#[test]
fn summary_round_trip_is_exact() {
    let mut rng = SimRng::new(0x6a03);
    for case in 0..CASES {
        let full = guestbook_state(&mut rng);
        let k = rng.range(1, 4);
        // A = an arbitrary per-writer prefix of the history, B = full.
        let summary_full = full.summarize();
        let mut a = OpLog::new();
        for (&(w, s), op) in &full.ops {
            if s <= summary_full.get(w).saturating_sub(k) {
                a.ops.insert((w, s), op.clone());
            }
        }
        assert!(Guestbook::validate_state(&a), "case {case}");
        let delta = Guestbook::delta_from_summary(&full, &Guestbook::summarize(&a));
        // Exactness: delta ∪ A == full, and |delta| == |full| - |A|.
        assert_eq!(Guestbook::apply(&a, &delta), full, "case {case}");
        assert_eq!(delta.len(), full.len() - a.len(), "case {case}");
        // The in-place path takes the same suffix in one step.
        let mut in_place = a.clone();
        assert!(Guestbook::try_apply(&mut in_place, &delta), "case {case}");
        assert_eq!(in_place, full, "case {case}");
        // A holder of everything needs nothing.
        let empty = Guestbook::delta_from_summary(&full, &Guestbook::summarize(&full));
        assert!(empty.is_empty(), "case {case}");
    }
}

/// A subscriber that receives the publisher's deltas in *any*
/// interleaving (here: every rotation of an arbitrary partition, with
/// duplicates) converges to the same state.
#[test]
fn subscriber_converges_from_any_interleaving() {
    let mut rng = SimRng::new(0x6a04);
    for case in 0..CASES {
        let full = kv_state(&mut rng);
        let parts = partition(&full, rng.range(1, 5) as usize);
        let (rot, dup) = (rng.below_usize(5), rng.chance(0.5));
        let n = parts.len();
        let mut replica = KvDoc::empty();
        for i in 0..n {
            let d = &parts[(i + rot) % n];
            replica = KvDoc::apply(&replica, d);
            if dup {
                // Redelivery is harmless: the join is idempotent.
                replica = KvDoc::apply(&replica, d);
            }
        }
        assert_eq!(replica, full, "case {case}");
        // The materialized LWW views agree too.
        assert_eq!(
            KvDoc::materialize(&replica),
            KvDoc::materialize(&full),
            "case {case}"
        );
    }
}

/// Codecs are canonical: decode(encode(x)) == x and re-encoding is
/// byte-identical, for states, deltas, and summaries.
#[test]
fn codecs_round_trip_canonically() {
    let mut rng = SimRng::new(0x6a05);
    for case in 0..CASES {
        let state = kv_state(&mut rng);
        let bytes = KvDoc::encode_state(&state);
        let back = KvDoc::decode_state(&bytes).unwrap();
        assert_eq!(back, state, "case {case}");
        assert_eq!(KvDoc::encode_state(&back), bytes, "case {case}");
        let vv = KvDoc::summarize(&state);
        assert_eq!(
            VersionVector::decode(&vv.encode()).unwrap(),
            vv,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------------
// `try_apply` against the reference it replaced: for a valid state and any
// delta, `try_apply(&mut s, &d)` returns `validate_state(&apply(&s, &d))`,
// leaves `s == apply(&s, &d)` on true and `s` untouched on false.
// ---------------------------------------------------------------------------

/// The delta shapes a replica meets, each with the verdict it must get.
const SHAPES: [(&str, bool); 11] = [
    ("empty", true),
    ("pure duplicate", true),
    ("exact next op", true),
    ("suffix straddling the held prefix", true),
    ("gap", false),
    ("new writer starting at seq 2", false),
    ("invalid op at a new key", false),
    ("invalid op at a held key", true),
    ("several writers at once", true),
    ("several writers, the last one gapped", false),
    ("seq 0, below the first", false),
];

/// Writers `0..HELD` hold a non-empty prefix in every drawn state;
/// `HELD..HELD + 2` are never seen.
const HELD: u32 = 4;

fn held_state<O: Clone>(rng: &mut SimRng, op: fn(u32, u64) -> O) -> OpLog<O> {
    let mut log = OpLog::new();
    for w in 0..HELD {
        for s in 1..rng.range(2, 7) {
            log.ops.insert((w, s), op(w, s));
        }
    }
    log
}

fn delta_of<O: Clone>(
    shape: &str,
    state: &OpLog<O>,
    rng: &mut SimRng,
    op: fn(u32, u64) -> O,
    invalid: &O,
) -> OpLog<O> {
    let mut d = OpLog::new();
    let w = rng.below(HELD as u64) as u32;
    let max = state.writer_max(w);
    match shape {
        "empty" => {}
        "pure duplicate" => {
            for (k, o) in &state.ops {
                if rng.chance(0.5) {
                    d.ops.insert(*k, o.clone());
                }
            }
            d.ops.insert((w, max), op(w, max));
        }
        "exact next op" => {
            d.ops.insert((w, max + 1), op(w, max + 1));
        }
        "suffix straddling the held prefix" => {
            for s in rng.range(1, max + 1)..=max + rng.range(1, 4) {
                d.ops.insert((w, s), op(w, s));
            }
        }
        "gap" => {
            d.ops.insert((w, max + 2), op(w, max + 2));
        }
        "new writer starting at seq 2" => {
            d.ops.insert((HELD, 2), op(HELD, 2));
        }
        "invalid op at a new key" => {
            d.ops.insert((w, max + 1), invalid.clone());
        }
        "invalid op at a held key" => {
            d.ops.insert((w, rng.range(1, max + 1)), invalid.clone());
        }
        "seq 0, below the first" => {
            d.ops.insert((w, 0), op(w, 0));
        }
        "several writers at once" | "several writers, the last one gapped" => {
            // Every held writer advances and a new one starts at seq 1; in
            // the gapped shape the last key of all is a second new writer
            // at seq 2, so a verdict that merged as it walked would already
            // have written everything before it.
            for v in 0..=HELD {
                let from = state.writer_max(v);
                for s in from + 1..=from + rng.range(1, 4) {
                    d.ops.insert((v, s), op(v, s));
                }
            }
            if shape.ends_with("gapped") {
                d.ops.insert((HELD + 1, 2), op(HELD + 1, 2));
            }
        }
        other => panic!("no generator for shape {other:?}"),
    }
    d
}

fn try_apply_matches_reference<C, O>(seed: u64, op: fn(u32, u64) -> O, invalid: O)
where
    O: Clone + Debug + PartialEq,
    C: Contract<Op = O, State = OpLog<O>, Delta = OpLog<O>, Summary = VersionVector>,
{
    assert!(!C::validate_op(&invalid));
    let mut rng = SimRng::new(seed);
    for case in 0..CASES {
        for (name, verdict) in SHAPES {
            let state = held_state(&mut rng, op);
            assert!(C::validate_state(&state));
            let delta = delta_of(name, &state, &mut rng, op, &invalid);
            let joined = C::apply(&state, &delta);
            let at = format!("case {case}, {name}: {delta:?} into {state:?}");
            assert_eq!(C::validate_state(&joined), verdict, "{at}");
            let mut in_place = state.clone();
            assert_eq!(C::try_apply(&mut in_place, &delta), verdict, "{at}");
            assert_eq!(
                in_place,
                if verdict { joined } else { state.clone() },
                "{at}"
            );
            // The per-writer max is the version vector's entry, for held
            // and unknown writers alike.
            let vv = C::summarize(&in_place);
            for w in 0..HELD + 3 {
                assert_eq!(C::writer_seq(&in_place, w), vv.get(w), "{at}, writer {w}");
            }
        }
    }
}

#[test]
fn guestbook_try_apply_matches_clone_then_validate() {
    try_apply_matches_reference::<Guestbook, _>(0x6a06, guest_op, GuestEntry { body: Vec::new() });
}

#[test]
fn kv_try_apply_matches_clone_then_validate() {
    let oversize = KvWrite {
        path: "x".repeat(MAX_OP_BYTES + 1),
        ..kv_op(0, 1)
    };
    try_apply_matches_reference::<KvDoc, _>(0x6a07, kv_op, oversize);
}

// ---------------------------------------------------------------------------
// The complexity claim without a timer: folding n singleton deltas into a
// growing log clones n ops, not the whole log per delta.
// ---------------------------------------------------------------------------

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug, PartialEq)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Counted {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0)
    }
}

#[test]
fn ingesting_n_singleton_deltas_clones_n_ops() {
    const N: u64 = 512;
    const WRITERS: u64 = 4;
    let deltas: Vec<OpLog<Counted>> = (0..N)
        .map(|i| {
            let mut d = OpLog::new();
            d.ops
                .insert(((i % WRITERS) as u32, i / WRITERS + 1), Counted(i));
            d
        })
        .collect();
    let mut log = OpLog::new();
    CLONES.with(|c| c.set(0));
    for d in &deltas {
        assert!(log.try_join(d, |_| true));
        // A redelivery is checked and ignored without a clone.
        assert!(log.try_join(d, |_| true));
    }
    assert_eq!(log.len(), N);
    assert_eq!(CLONES.with(Cell::get), N);
}
