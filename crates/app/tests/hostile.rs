//! Hostile-input table for the app substrate: every message a peer can
//! put on the wire that a replica or an authority must refuse, fed by
//! direct `on_message`. Each row names the counter that must fire; the
//! node's state must come out unchanged and still valid, and nothing may
//! panic.

use std::rc::Rc;

use agora_app::{
    AppMsg, AppNode, AppPublisher, Contract, ContractKind, GuestEntry, Guestbook, OpLog,
    MAX_OP_BYTES,
};
use agora_sim::{DeviceClass, NodeId, Protocol, Simulation};

type Log = OpLog<GuestEntry>;

const SEED: &[u8] = b"hostile-pub";

fn entry(body: &[u8]) -> GuestEntry {
    GuestEntry {
        body: body.to_vec(),
    }
}

fn log_of(ops: &[(u64, &[u8])]) -> Log {
    let mut log = OpLog::new();
    for &(seq, body) in ops {
        log.ops.insert((1, seq), entry(body));
    }
    log
}

/// What the authority's own bootstrap looks like: its signed contract and
/// a two-op state at `pub_seq` 2.
fn sub_ack(signer: &AppPublisher, kind: ContractKind, state: &Log) -> AppMsg {
    AppMsg::SubAck {
        contract: Box::new(signer.sign_manifest(kind, "hostile", 1)),
        state: Guestbook::encode_state(state).into(),
        pub_seq: 2,
        published_us: 0,
    }
}

/// A push of `delta` certified by the publisher's own key for `pub_seq`.
fn push(signer: &AppPublisher, pub_seq: u64, delta: &Log) -> AppMsg {
    let bytes = Guestbook::encode_delta(delta);
    AppMsg::Push {
        pub_seq,
        published_us: 0,
        cert: Box::new(signer.sign_delta(pub_seq, &bytes)),
        delta: bytes.into(),
    }
}

/// The same push with its announced sequence or delta bytes edited after
/// signing.
fn tampered(msg: AppMsg, edit: impl Fn(&mut u64, &mut Vec<u8>)) -> AppMsg {
    let AppMsg::Push {
        mut pub_seq,
        published_us,
        delta,
        cert,
    } = msg
    else {
        panic!("a push");
    };
    let mut bytes = delta.to_vec();
    edit(&mut pub_seq, &mut bytes);
    AppMsg::Push {
        pub_seq,
        published_us,
        delta: bytes.into(),
        cert,
    }
}

struct Fixture {
    sim: Simulation<AppNode<Guestbook>>,
    publisher: NodeId,
    replica: NodeId,
    stranger: NodeId,
    /// The publisher's signing identity (same seed, same keys): what a
    /// replayed or publisher-certified hostile delta is signed with.
    keys: AppPublisher,
}

impl Fixture {
    /// A publisher, one subscriber of it and a bystander. Nothing is ever
    /// run: every delivery in this file is a direct `on_message`.
    fn new(bootstrapped: bool) -> Fixture {
        let mut sim = Simulation::new(23);
        let publisher = sim.add_node(
            AppNode::publisher(SEED, "hostile"),
            DeviceClass::PersonalComputer,
        );
        let app = sim.node(publisher).app_id();
        let replica = sim.add_node(
            AppNode::subscriber(publisher, app),
            DeviceClass::PersonalComputer,
        );
        let stranger = sim.add_node(AppNode::client(publisher), DeviceClass::PersonalComputer);
        let mut fx = Fixture {
            sim,
            publisher,
            replica,
            stranger,
            keys: AppPublisher::new(SEED),
        };
        if bootstrapped {
            let held = log_of(&[(1, b"one"), (2, b"two")]);
            let ack = sub_ack(&fx.keys, ContractKind::Guestbook, &held);
            fx.deliver(replica, publisher, ack);
            assert_eq!(fx.sim.metrics().counter("app.bootstraps"), 1);
            assert_eq!(fx.sim.node(replica).state(), Some(&held));
        }
        fx
    }

    fn deliver(&mut self, to: NodeId, from: NodeId, msg: AppMsg) {
        self.sim
            .with_ctx(to, |n, ctx| n.on_message(ctx, from, msg))
            .expect("node is up");
    }
}

/// One hostile delivery and what it must (only) do.
#[derive(Clone, Copy)]
struct Row {
    name: &'static str,
    /// Deliver to a bootstrapped replica (or to a fresh one).
    bootstrapped: bool,
    /// Deliver to the publisher instead of the replica.
    at_authority: bool,
    from_stranger: bool,
    msg: fn(&AppPublisher) -> AppMsg,
    counter: &'static str,
    /// Messages the target may send in response (a `PullReq` for a gap).
    sends: u64,
}

fn rows() -> Vec<Row> {
    let replica = Row {
        name: "",
        bootstrapped: true,
        at_authority: false,
        from_stranger: false,
        msg: |_| AppMsg::Subscribe,
        counter: "",
        sends: 0,
    };
    vec![
        Row {
            name: "push before any SubAck",
            bootstrapped: false,
            msg: |k| push(k, 1, &log_of(&[(1, b"one")])),
            counter: "app.delta_unverified",
            ..replica
        },
        Row {
            name: "cert for another pub_seq",
            msg: |k| tampered(push(k, 3, &log_of(&[(3, b"three")])), |seq, _| *seq = 4),
            counter: "app.delta_rejected",
            ..replica
        },
        Row {
            name: "one flipped delta byte",
            msg: |k| {
                tampered(push(k, 3, &log_of(&[(3, b"three")])), |_, b| {
                    *b.last_mut().unwrap() ^= 1
                })
            },
            counter: "app.delta_rejected",
            ..replica
        },
        Row {
            name: "truncated delta under the original cert",
            msg: |k| tampered(push(k, 3, &log_of(&[(3, b"three")])), |_, b| b.truncate(9)),
            counter: "app.delta_rejected",
            ..replica
        },
        Row {
            name: "certified bytes that do not decode",
            msg: |k| {
                let bytes = Guestbook::encode_delta(&log_of(&[(3, b"three")]));
                let cut = &bytes[..bytes.len() - 2];
                AppMsg::Push {
                    pub_seq: 3,
                    published_us: 0,
                    delta: cut.into(),
                    cert: Box::new(k.sign_delta(3, cut)),
                }
            },
            counter: "app.delta_rejected",
            ..replica
        },
        Row {
            name: "empty-body op at a new key",
            msg: |k| push(k, 3, &log_of(&[(3, b"")])),
            counter: "app.delta_gap",
            sends: 1,
            ..replica
        },
        Row {
            name: "oversize op at a new key",
            msg: |k| push(k, 3, &log_of(&[(3, &[7; MAX_OP_BYTES + 1])])),
            counter: "app.delta_gap",
            sends: 1,
            ..replica
        },
        Row {
            name: "gap delta",
            msg: |k| push(k, 4, &log_of(&[(4, b"four")])),
            counter: "app.delta_gap",
            sends: 1,
            ..replica
        },
        Row {
            name: "replayed push",
            msg: |k| push(k, 2, &log_of(&[(2, b"two")])),
            counter: "app.delta_replayed",
            ..replica
        },
        Row {
            name: "SubAck from a node that is not the origin",
            bootstrapped: false,
            from_stranger: true,
            msg: |k| sub_ack(k, ContractKind::Guestbook, &log_of(&[(1, b"one")])),
            counter: "app.bad_contracts",
            ..replica
        },
        Row {
            name: "SubAck for another app",
            bootstrapped: false,
            msg: |_| {
                let other = AppPublisher::new(b"some-other-app");
                sub_ack(&other, ContractKind::Guestbook, &log_of(&[(1, b"one")]))
            },
            counter: "app.bad_contracts",
            ..replica
        },
        Row {
            name: "SubAck of the wrong kind",
            bootstrapped: false,
            msg: |k| sub_ack(k, ContractKind::KvDoc, &log_of(&[(1, b"one")])),
            counter: "app.bad_contracts",
            ..replica
        },
        Row {
            name: "SubAck with a non-contiguous state",
            bootstrapped: false,
            msg: |k| {
                sub_ack(
                    k,
                    ContractKind::Guestbook,
                    &log_of(&[(1, b"one"), (3, b"three")]),
                )
            },
            counter: "app.bad_contracts",
            ..replica
        },
        Row {
            name: "re-bootstrap with a non-contiguous state",
            msg: |k| {
                sub_ack(
                    k,
                    ContractKind::Guestbook,
                    &log_of(&[(1, b"one"), (2, b"two"), (4, b"four")]),
                )
            },
            counter: "app.bad_contracts",
            ..replica
        },
        Row {
            name: "Submit that does not decode",
            at_authority: true,
            from_stranger: true,
            msg: |_| AppMsg::Submit {
                op: 0,
                body: Rc::from(&[0xff_u8][..]),
            },
            counter: "app.bad_ops",
            ..replica
        },
        Row {
            name: "Submit of an oversize op",
            at_authority: true,
            from_stranger: true,
            msg: |_| AppMsg::Submit {
                op: 0,
                body: Guestbook::encode_op(&entry(&[7; MAX_OP_BYTES + 1])).into(),
            },
            counter: "app.bad_ops",
            ..replica
        },
    ]
}

#[test]
fn hostile_messages_are_counted_and_leave_the_state_alone() {
    for row in rows() {
        let mut fx = Fixture::new(row.bootstrapped);
        // One accepted write, so the authority rows have a state to keep.
        let me = fx.publisher;
        fx.sim
            .with_ctx(me, |n, ctx| n.start_submit(ctx, &entry(b"own")))
            .expect("publisher is up");
        let to = if row.at_authority {
            fx.publisher
        } else {
            fx.replica
        };
        let from = if row.from_stranger {
            fx.stranger
        } else {
            fx.publisher
        };
        let state = fx.sim.node(to).state().cloned().expect("holds a state");
        let pub_seq = fx.sim.node(to).pub_seq();
        let lag = fx.sim.node(to).last_lag_secs();
        let count = |fx: &Fixture, key: &str| fx.sim.metrics().counter(key);
        // What a refused message may not move, whatever else it fires.
        let accepted = |fx: &Fixture| count(fx, "app.deltas_applied") + count(fx, "app.bootstraps");
        let (accepted_before, sent_before) = (accepted(&fx), count(&fx, "net.sent"));

        let msg = (row.msg)(&fx.keys);
        fx.deliver(to, from, msg);

        assert_eq!(count(&fx, row.counter), 1, "{}: {}", row.name, row.counter);
        assert_eq!(
            accepted(&fx),
            accepted_before,
            "{}: nothing applied",
            row.name
        );
        let sent = count(&fx, "net.sent") - sent_before;
        assert_eq!(sent, row.sends, "{}: messages sent", row.name);
        let node = fx.sim.node(to);
        assert_eq!(node.state(), Some(&state), "{}: state untouched", row.name);
        assert!(Guestbook::validate_state(&state), "{}", row.name);
        assert_eq!(node.pub_seq(), pub_seq, "{}", row.name);
        // Staleness is sampled from applied deltas only.
        assert!(
            fx.sim.metrics().histogram("app.delta_lag").is_none(),
            "{}: no app.delta_lag sample",
            row.name
        );
        assert_eq!(node.last_lag_secs(), lag, "{}", row.name);
    }
}

/// The control: the fixture's replica does take the honest next push, and
/// that is what samples staleness — so the rows above pass because each
/// message is refused, not because the fixture refuses everything.
#[test]
fn the_honest_next_push_is_applied_and_sampled() {
    let mut fx = Fixture::new(true);
    let (replica, publisher) = (fx.replica, fx.publisher);
    let msg = push(&fx.keys, 3, &log_of(&[(3, b"three")]));
    fx.deliver(replica, publisher, msg);
    assert_eq!(fx.sim.metrics().counter("app.deltas_applied"), 1);
    assert_eq!(fx.sim.node(replica).applied_ops(), 3);
    let lag = fx.sim.metrics().histogram("app.delta_lag");
    assert_eq!(lag.map(|h| h.count()), Some(1));
    // Sent again it is a replay: counted, and staleness is not re-sampled.
    let again = push(&fx.keys, 3, &log_of(&[(3, b"three")]));
    fx.deliver(replica, publisher, again);
    assert_eq!(fx.sim.metrics().counter("app.delta_replayed"), 1);
    assert_eq!(fx.sim.metrics().counter("app.deltas_applied"), 1);
    let lag = fx.sim.metrics().histogram("app.delta_lag");
    assert_eq!(lag.map(|h| h.count()), Some(1));
}
