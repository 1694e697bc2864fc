//! # agora-storage — decentralized storage networks
//!
//! Everything §3.3 of the paper surveys, implemented and runnable:
//!
//! * [`chunk`] — content addressing: chunks, manifests, inclusion proofs.
//! * [`erasure`] — Reed–Solomon over GF(2^8) from scratch (replication is
//!   the k = 1 special case).
//! * [`proofs`] — proof-of-storage, proof-of-retrievability, sealed
//!   proof-of-replication, proof-of-spacetime.
//! * [`incentives`] — bitswap debt ledgers (IPFS), token banks
//!   (Sia/Storj/Filecoin/Swarm), proof-of-resource standing (MaidSafe).
//! * [`contract`] — on-chain storage contracts and settlement/slashing.
//! * [`profiles`] — the seven Table 2 systems as live configurations, and
//!   the Table 2 renderer.
//! * [`node`] — the storage network as an `agora-sim` protocol: erasure-
//!   coded placement, retrievability audits, automatic repair, cheating
//!   providers.
//! * [`durability`] — fast Monte-Carlo durability/repair design-space sweeps
//!   (experiment E6).
//! * [`attacks`] — Sybil / outsourcing / generation attacks against the
//!   proof schemes (experiment E5).
//! * [`market`] — the live storage market: erasure-coded placement by
//!   reputation, staked contracts, a deterministic challenge oracle with
//!   an Open → Resolved / Expired lifecycle, slashing, and a repair actor
//!   (experiment E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod chunk;
pub mod contract;
pub mod durability;
pub mod erasure;
pub mod incentives;
pub mod market;
pub mod node;
pub mod profiles;
pub mod proofs;

pub use attacks::{
    discard_detection_probability, play_porep_game, AttackEnv, AttackResult, CheatStrategy,
    SealedReplicas,
};
pub use chunk::{Chunk, Manifest, DEFAULT_CHUNK_SIZE};
pub use contract::{ProofScheme, StorageContract};
pub use durability::{simulate_durability, DurabilityParams, DurabilityResult};
pub use erasure::{ErasureError, ReedSolomon};
pub use incentives::{BitswapLedger, EwmaReputation, IncentiveScheme, ResourceScore, TokenBank};
pub use market::{
    ChallengeRecord, ChallengeState, MarketSpec, OracleSchedule, PlannedChallenge, StorageMarket,
};
pub use node::{ProviderStrategy, StorageMsg, StorageNode, StorageResult};
pub use profiles::{render_table2, table2_profiles, BlockchainUsage, Redundancy, StorageProfile};
pub use proofs::{
    por_respond, por_verify, seal, sealed_commitment, unseal, Audit, AuditBook, PorepChallenge,
    PosChallenge, PosResponse, SealParams, SpacetimeRecord,
};
