//! # agora-app — typed-contract mutable applications
//!
//! §3.4's hardest survey row is *hostless web applications*: `agora-web`
//! serves immutable signed bundles, but real apps mutate. This crate adds
//! Freenet-style typed contracts — an app is a deterministic [`Contract`]
//! over one op-log CRDT ([`OpLog`] state and deltas, [`VersionVector`]
//! summaries, merge obeying the join laws) that states only its op type,
//! op validity and op codec — plus the delta-sync substrate that hosts
//! them on simulated consumer devices:
//!
//! * [`contract`] — the [`Contract`] trait, the shared op-log/version-
//!   vector machinery, and two shipped contracts: [`Guestbook`] (append
//!   log) and [`KvDoc`] (last-writer-wins key-value document whose live
//!   view renders as `agora-web` site files).
//! * [`manifest`] — signed, key-addressed app identity
//!   ([`SignedContract`]) and per-delta certificates ([`DeltaCert`]),
//!   on the same `SimKeyPair`/`Hash256` machinery as `agora-web`.
//! * [`node`] — the [`AppNode`] protocol: publishers push signed deltas,
//!   subscribers hold summaries and pull exactly the missing suffix, and
//!   a centralized server/client pair serves the same contract for
//!   comparison (E18).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod manifest;
pub mod node;

pub use contract::{
    kv_value_hash, Contract, ContractKind, GuestEntry, Guestbook, KvCell, KvDoc, KvWrite, OpLog,
    VersionVector, FIRST_SEQ, MAX_OP_BYTES,
};
pub use manifest::{AppManifest, AppPublisher, DeltaCert, SignedContract};
pub use node::{AppMsg, AppNode, AppResult, ANTI_ENTROPY};
