//! The typed-contract abstraction: a mutable application is a
//! deterministic [`Contract`] over one shared op-log CRDT.
//!
//! Freenet's contract shape, specialized to an op-log CRDT: state is the
//! set of ops keyed by `(writer, seq)` (an [`OpLog`]), a delta is any
//! subset of ops (an `OpLog` too), and the summary is a [`VersionVector`]
//! (per-writer max seq). Because a valid state holds a *contiguous* prefix
//! per writer, [`OpLog::suffix_from`] returns exactly the suffix the
//! holder of that summary is missing — nothing more, nothing less — and
//! merging is plain keyed union, which is commutative, associative, and
//! idempotent by construction (the CRDT laws pinned by
//! `tests/proptests.rs`). A contract states only what differs between
//! apps: its op type, which ops are valid, and the op codec.
//!
//! Everything artifact-visible iterates `BTreeMap`s sorted by key: no
//! hash-table iteration order can leak into encodings or metrics.

use std::collections::BTreeMap;
use std::fmt;

use agora_crypto::{sha256, Dec, DecodeError, Enc, Hash256};
use agora_web::SiteFile;

/// Per-writer sequence numbers start at 1; 0 means "nothing from this
/// writer yet" in a version vector.
pub const FIRST_SEQ: u64 = 1;

/// Largest accepted op payload (guestbook body or KV path+metadata).
pub const MAX_OP_BYTES: usize = 4096;

/// An app's state and every delta between states: ops keyed by
/// `(writer, seq)`. The `BTreeMap` makes every iteration writer-then-seq
/// ordered, so encodings are canonical byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct OpLog<O> {
    /// The ops, keyed by `(writer, seq)`.
    pub ops: BTreeMap<(u32, u64), O>,
}

/// A version vector: per-writer highest contiguous sequence number, the
/// summary of an [`OpLog`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VersionVector {
    /// Highest seq per writer (absent writer == 0).
    pub seen: BTreeMap<u32, u64>,
}

impl VersionVector {
    /// Highest seq recorded for `writer` (0 when unknown).
    pub fn get(&self, writer: u32) -> u64 {
        self.seen.get(&writer).copied().unwrap_or(0)
    }

    /// Canonical encoding: sorted `(writer, seq)` pairs.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new().u32(self.seen.len() as u32);
        for (&w, &s) in &self.seen {
            e = e.u32(w).u64(s);
        }
        e.done()
    }

    /// Decode an encoded vector.
    pub fn decode(buf: &[u8]) -> Result<VersionVector, DecodeError> {
        let mut d = Dec::new(buf);
        let n = d.u32()?;
        let mut seen = BTreeMap::new();
        for _ in 0..n {
            let w = d.u32()?;
            let s = d.u64()?;
            seen.insert(w, s);
        }
        Ok(VersionVector { seen })
    }
}

impl<O: Clone> OpLog<O> {
    /// The empty log.
    pub fn new() -> OpLog<O> {
        OpLog {
            ops: BTreeMap::new(),
        }
    }

    /// Total ops held.
    pub fn len(&self) -> u64 {
        self.ops.len() as u64
    }

    /// True when no ops are held.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Highest sequence held for `writer` (0 when none): one range hop,
    /// not a scan.
    pub fn writer_max(&self, writer: u32) -> u64 {
        self.ops
            .range((writer, 0)..=(writer, u64::MAX))
            .next_back()
            .map_or(0, |(&(_, s), _)| s)
    }

    /// Append `op` for `writer` at the next sequence number; returns the
    /// assigned seq. Publisher-side: keeps the per-writer prefix
    /// contiguous by construction.
    pub fn append(&mut self, writer: u32, op: O) -> u64 {
        let next = self.writer_max(writer) + 1;
        self.ops.insert((writer, next), op);
        next
    }

    /// Keyed union in place: the CRDT join. Commutative, associative,
    /// idempotent (same key always carries the same op in any honest
    /// history); clones only the ops `self` lacks.
    pub fn join(&mut self, other: &OpLog<O>) {
        for (k, op) in &other.ops {
            self.ops.entry(*k).or_insert_with(|| op.clone());
        }
    }

    /// [`join`](OpLog::join) into a copy.
    pub fn merge(&self, other: &OpLog<O>) -> OpLog<O> {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Join `other` in iff the result is a valid log, in O(|other| log n).
    /// `self` must be valid (contiguous, every op passing `valid_op`), so
    /// only what `other` *adds* needs checking: each new op must pass
    /// `valid_op` and extend its writer's prefix by exactly one. Ops at
    /// keys already held are ignored, as `join` ignores them. On `false`
    /// `self` is untouched.
    pub fn try_join(&mut self, other: &OpLog<O>, valid_op: impl Fn(&O) -> bool) -> bool {
        // `other` iterates writer-then-seq: look a writer's prefix up once
        // per run, then count along it.
        let (mut writer, mut next) = (None, 0);
        for (&(w, s), op) in &other.ops {
            if writer != Some(w) {
                (writer, next) = (Some(w), self.writer_max(w) + 1);
            }
            if (FIRST_SEQ..next).contains(&s) {
                continue;
            }
            if s != next || !valid_op(op) {
                return false;
            }
            next += 1;
        }
        self.join(other);
        true
    }

    /// The version vector of this log: per-writer max seq.
    pub fn summarize(&self) -> VersionVector {
        let mut seen = BTreeMap::new();
        for &(w, s) in self.ops.keys() {
            let e = seen.entry(w).or_insert(0u64);
            if s > *e {
                *e = s;
            }
        }
        VersionVector { seen }
    }

    /// Exactly the ops the holder of `summary` is missing: per writer,
    /// the suffix past the summarized seq.
    pub fn suffix_from(&self, summary: &VersionVector) -> OpLog<O> {
        let mut out = OpLog::new();
        for (&(w, s), op) in &self.ops {
            if s > summary.get(w) {
                out.ops.insert((w, s), op.clone());
            }
        }
        out
    }

    /// Per-writer sequences are contiguous `1..=max` — the structural
    /// invariant that makes version vectors an exact summary.
    pub fn contiguous(&self) -> bool {
        let mut expect: BTreeMap<u32, u64> = BTreeMap::new();
        for &(w, s) in self.ops.keys() {
            let e = expect.entry(w).or_insert(FIRST_SEQ);
            if s != *e {
                return false;
            }
            *e += 1;
        }
        true
    }

    /// Structural validity: would an honest node ever hold this log?
    /// Contiguous per writer, and every op passes `valid_op`.
    pub fn is_valid(&self, valid_op: impl Fn(&O) -> bool) -> bool {
        self.contiguous() && self.ops.values().all(valid_op)
    }

    /// Canonical encoding: the op count, then `(writer, seq, op bytes)` in
    /// key order, each op through `enc_op`.
    pub fn encode(&self, enc_op: impl Fn(&O) -> Vec<u8>) -> Vec<u8> {
        let mut e = Enc::new().u32(self.ops.len() as u32);
        for (&(w, s), op) in &self.ops {
            e = e.u32(w).u64(s).bytes(&enc_op(op));
        }
        e.done()
    }

    /// Decode an [`encode`](OpLog::encode)d log, each op through `dec_op`.
    pub fn decode(
        buf: &[u8],
        dec_op: impl Fn(&[u8]) -> Result<O, DecodeError>,
    ) -> Result<OpLog<O>, DecodeError> {
        let mut d = Dec::new(buf);
        let n = d.u32()?;
        let mut ops = BTreeMap::new();
        for _ in 0..n {
            let w = d.u32()?;
            let s = d.u64()?;
            let op = dec_op(&d.bytes()?)?;
            ops.insert((w, s), op);
        }
        Ok(OpLog { ops })
    }
}

/// Discriminant of the shipped contracts (wire-stable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ContractKind {
    /// Append-only guestbook / public log.
    Guestbook,
    /// Last-writer-wins key-value document (a mutable site).
    KvDoc,
}

impl ContractKind {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            ContractKind::Guestbook => 1,
            ContractKind::KvDoc => 2,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(t: u8) -> Result<ContractKind, DecodeError> {
        match t {
            1 => Ok(ContractKind::Guestbook),
            2 => Ok(ContractKind::KvDoc),
            _ => Err(DecodeError::BadTag(t)),
        }
    }
}

impl fmt::Display for ContractKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractKind::Guestbook => write!(f, "guestbook"),
            ContractKind::KvDoc => write!(f, "kvdoc"),
        }
    }
}

/// A deterministic application contract: what one app's ops are, which of
/// them are valid, and how they encode. State and deltas are
/// `OpLog<Self::Op>` and the summary is its [`VersionVector`]; everything
/// else lives on [`OpLog`] once. All functions are free of hidden state —
/// two nodes evaluating the same bytes agree forever.
pub trait Contract {
    /// One submitted operation (the payload a writer authors).
    type Op: Clone + fmt::Debug + PartialEq;

    /// Which shipped contract this is.
    const KIND: ContractKind;

    /// Op-level validity (size bounds, well-formedness).
    fn validate_op(op: &Self::Op) -> bool;
    /// Canonical op encoding (what a writer submits).
    fn encode_op(op: &Self::Op) -> Vec<u8>;
    /// Decode an op.
    fn decode_op(buf: &[u8]) -> Result<Self::Op, DecodeError>;

    /// The empty state.
    fn empty() -> OpLog<Self::Op> {
        OpLog::new()
    }

    /// A delta carrying exactly one op at `(writer, seq)` (the
    /// publisher's push unit).
    fn singleton_delta(writer: u32, seq: u64, op: Self::Op) -> OpLog<Self::Op> {
        let mut d = OpLog::new();
        d.ops.insert((writer, seq), op);
        d
    }

    /// Apply a delta to a copy of a state: the reference
    /// [`try_apply`](Contract::try_apply) is tested against.
    fn apply(state: &OpLog<Self::Op>, delta: &OpLog<Self::Op>) -> OpLog<Self::Op> {
        state.merge(delta)
    }

    /// Apply `delta` in place iff the result is valid. `state` must be
    /// valid; returns `apply(state, delta).is_valid(validate_op)`, leaving
    /// `state` equal to that join on `true` and untouched on `false`, at
    /// the cost of the delta rather than of the state.
    fn try_apply(state: &mut OpLog<Self::Op>, delta: &OpLog<Self::Op>) -> bool {
        state.try_join(delta, Self::validate_op)
    }
}

// ---------------------------------------------------------------------------
// Guestbook: an append-only public log. The simplest mutable app — every
// op is one signed-in entry, the rendered view is the entries in
// (writer, seq) order.
// ---------------------------------------------------------------------------

/// One guestbook entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestEntry {
    /// Entry body (opaque bytes; the app renders them).
    pub body: Vec<u8>,
}

/// The append-log / guestbook contract.
pub struct Guestbook;

impl Contract for Guestbook {
    type Op = GuestEntry;

    const KIND: ContractKind = ContractKind::Guestbook;

    fn validate_op(op: &Self::Op) -> bool {
        !op.body.is_empty() && op.body.len() <= MAX_OP_BYTES
    }
    fn encode_op(op: &Self::Op) -> Vec<u8> {
        Enc::new().bytes(&op.body).done()
    }
    fn decode_op(buf: &[u8]) -> Result<Self::Op, DecodeError> {
        let mut d = Dec::new(buf);
        let body = d.bytes()?;
        Ok(GuestEntry { body })
    }
}

// ---------------------------------------------------------------------------
// KvDoc: a last-writer-wins key-value document — the mutable half of a
// hostless site. Ops are path writes (or deletes); the materialized view
// picks per path the op with the greatest (stamp, writer, seq), and
// `to_site_files` renders the surviving paths as `agora-web` SiteFiles,
// reusing the static-asset semantics of `site::merge_files`.
// ---------------------------------------------------------------------------

/// One key-value write (or delete) op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvWrite {
    /// Document path (e.g. `"index.html"`).
    pub path: String,
    /// Writer-supplied timestamp (sim micros); LWW tiebreak is
    /// `(stamp, writer, seq)`.
    pub stamp: u64,
    /// Content hash of the value (content-addressed; bulk bytes travel on
    /// the storage path, the contract carries only the address).
    pub value_hash: Hash256,
    /// Value length in bytes.
    pub len: u64,
    /// True for a tombstone (path deleted).
    pub delete: bool,
}

/// The last-writer-wins key-value document contract.
pub struct KvDoc;

/// The winning cell for one path in a materialized [`KvDoc`] view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvCell {
    /// Winning write's content hash.
    pub value_hash: Hash256,
    /// Winning write's value length.
    pub len: u64,
    /// True when the winning write is a tombstone.
    pub deleted: bool,
    /// The `(stamp, writer, seq)` that won.
    pub winner: (u64, u32, u64),
}

impl KvDoc {
    /// Materialize the LWW view: per path, the op with the greatest
    /// `(stamp, writer, seq)` wins. Iteration is `BTreeMap`-ordered, so
    /// ties resolve identically everywhere.
    pub fn materialize(state: &OpLog<KvWrite>) -> BTreeMap<String, KvCell> {
        let mut view: BTreeMap<String, KvCell> = BTreeMap::new();
        for (&(w, s), op) in &state.ops {
            let key = (op.stamp, w, s);
            let cell = KvCell {
                value_hash: op.value_hash,
                len: op.len,
                deleted: op.delete,
                winner: key,
            };
            match view.get_mut(&op.path) {
                Some(existing) if existing.winner >= key => {}
                Some(existing) => *existing = cell,
                None => {
                    view.insert(op.path.clone(), cell);
                }
            }
        }
        view
    }

    /// Render the live (non-deleted) paths as `agora-web` site files,
    /// sorted by path — the static-asset half of the contract. The
    /// output is directly comparable to `agora_web::merge_files` over
    /// forked manifests.
    pub fn to_site_files(state: &OpLog<KvWrite>) -> Vec<SiteFile> {
        Self::materialize(state)
            .into_iter()
            .filter(|(_, cell)| !cell.deleted)
            .map(|(path, cell)| SiteFile {
                path,
                content_hash: cell.value_hash,
                len: cell.len,
            })
            .collect()
    }
}

impl Contract for KvDoc {
    type Op = KvWrite;

    const KIND: ContractKind = ContractKind::KvDoc;

    fn validate_op(op: &Self::Op) -> bool {
        !op.path.is_empty() && op.path.len() <= MAX_OP_BYTES
    }
    fn encode_op(op: &Self::Op) -> Vec<u8> {
        Enc::new()
            .str(&op.path)
            .u64(op.stamp)
            .hash(&op.value_hash)
            .u64(op.len)
            .u8(op.delete as u8)
            .done()
    }
    fn decode_op(buf: &[u8]) -> Result<Self::Op, DecodeError> {
        let mut d = Dec::new(buf);
        let path = d.str()?;
        let stamp = d.u64()?;
        let value_hash = d.hash()?;
        let len = d.u64()?;
        let delete = match d.u8()? {
            0 => false,
            1 => true,
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(KvWrite {
            path,
            stamp,
            value_hash,
            len,
            delete,
        })
    }
}

/// Convenience: a content-addressed KV value hash.
pub fn kv_value_hash(value: &[u8]) -> Hash256 {
    sha256(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: &str) -> GuestEntry {
        GuestEntry {
            body: s.as_bytes().to_vec(),
        }
    }

    fn sample_log() -> OpLog<GuestEntry> {
        let mut log = OpLog::new();
        log.append(1, entry("a1"));
        log.append(1, entry("a2"));
        log.append(2, entry("b1"));
        log.append(1, entry("a3"));
        log
    }

    #[test]
    fn append_assigns_contiguous_seqs_per_writer() {
        let log = sample_log();
        assert_eq!(log.len(), 4);
        assert!(log.contiguous());
        assert_eq!(log.summarize().get(1), 3);
        assert_eq!(log.summarize().get(2), 1);
        assert_eq!(log.summarize().get(3), 0);
    }

    #[test]
    fn suffix_from_is_exactly_the_missing_suffix() {
        let full = sample_log();
        let mut partial = OpLog::new();
        partial.append(1, entry("a1"));
        let suffix = full.suffix_from(&partial.summarize());
        assert_eq!(suffix.len(), 3);
        let rejoined = partial.merge(&suffix);
        assert_eq!(rejoined, full);
        // A holder of the full state is missing nothing.
        assert!(full.suffix_from(&full.summarize()).is_empty());
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let a = sample_log();
        let mut b = OpLog::new();
        b.append(2, entry("b1"));
        b.append(3, entry("c1"));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&a), a);
    }

    #[test]
    fn guestbook_codec_round_trips_canonically() {
        let log = sample_log();
        let bytes = log.encode(Guestbook::encode_op);
        let back = OpLog::decode(&bytes, Guestbook::decode_op).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.encode(Guestbook::encode_op), bytes);
        let vv = log.summarize();
        assert_eq!(
            VersionVector::decode(&vv.encode()).unwrap(),
            vv,
            "summary codec round-trips"
        );
    }

    #[test]
    fn gap_breaks_contiguity_and_validation() {
        let mut log = sample_log();
        log.ops.insert((2, 5), entry("hole"));
        assert!(!log.contiguous());
        assert!(!log.is_valid(Guestbook::validate_op));
    }

    #[test]
    fn kv_lww_picks_highest_stamp_then_writer() {
        let h1 = kv_value_hash(b"v1");
        let h2 = kv_value_hash(b"v2");
        let mut log: OpLog<KvWrite> = OpLog::new();
        log.append(
            1,
            KvWrite {
                path: "index.html".into(),
                stamp: 100,
                value_hash: h1,
                len: 2,
                delete: false,
            },
        );
        log.append(
            2,
            KvWrite {
                path: "index.html".into(),
                stamp: 200,
                value_hash: h2,
                len: 2,
                delete: false,
            },
        );
        let view = KvDoc::materialize(&log);
        assert_eq!(view["index.html"].value_hash, h2);
        // Equal stamps: higher writer id wins deterministically.
        log.append(
            3,
            KvWrite {
                path: "index.html".into(),
                stamp: 200,
                value_hash: h1,
                len: 2,
                delete: false,
            },
        );
        assert_eq!(KvDoc::materialize(&log)["index.html"].value_hash, h1);
    }

    #[test]
    fn kv_delete_tombstones_drop_out_of_site_files() {
        let h = kv_value_hash(b"v");
        let mut log: OpLog<KvWrite> = OpLog::new();
        for (path, stamp, delete) in [
            ("a.html", 1, false),
            ("b.html", 2, false),
            ("a.html", 3, true),
        ] {
            log.append(
                1,
                KvWrite {
                    path: path.into(),
                    stamp,
                    value_hash: h,
                    len: 1,
                    delete,
                },
            );
        }
        let files = KvDoc::to_site_files(&log);
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].path, "b.html");
        assert!(files.windows(2).all(|w| w[0].path < w[1].path));
    }

    #[test]
    fn kv_codec_round_trips() {
        let op = KvWrite {
            path: "x/y.css".into(),
            stamp: 42,
            value_hash: kv_value_hash(b"css"),
            len: 3,
            delete: false,
        };
        let back = KvDoc::decode_op(&KvDoc::encode_op(&op)).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn kv_render_matches_merge_files_semantics() {
        // The KV contract is the mutable half of a hostless site; its
        // rendered view must agree with `agora_web::merge_files` — the
        // static-asset merge — on the same divergence: union by path,
        // one winner per contested path, output sorted by path.
        use agora_web::{merge_files, SitePublisher};
        let ours_files: &[(&str, &[u8])] = &[("a.css", b"css"), ("index.html", b"ours")];
        let theirs_files: &[(&str, &[u8])] = &[("b.js", b"js"), ("index.html", b"theirs")];
        let mut pa = SitePublisher::new(b"kv-a");
        let mut pb = SitePublisher::new(b"kv-b");
        let ma = pa.publish(ours_files).signed.manifest;
        let mb = pb.publish(theirs_files).signed.manifest;
        let (merged, conflicts) = merge_files(&ma, &mb);
        assert_eq!(conflicts.len(), 1, "index.html diverged");

        // The same divergence as KV ops: "ours" carries the higher
        // stamp, so LWW picks the same winner merge_files' ours-bias
        // picks.
        let mut state: OpLog<KvWrite> = OpLog::new();
        for (writer, stamp, files) in [(1u32, 2u64, ours_files), (2, 1, theirs_files)] {
            for &(path, data) in files {
                state.append(
                    writer,
                    KvWrite {
                        path: path.into(),
                        stamp,
                        value_hash: kv_value_hash(data),
                        len: data.len() as u64,
                        delete: false,
                    },
                );
            }
        }
        assert_eq!(KvDoc::to_site_files(&state), merged);
    }

    #[test]
    fn contract_kind_tags_round_trip() {
        for k in [ContractKind::Guestbook, ContractKind::KvDoc] {
            assert_eq!(ContractKind::from_tag(k.tag()).unwrap(), k);
        }
        assert!(ContractKind::from_tag(9).is_err());
    }
}
