//! # agora-crypto — cryptographic substrate, built from scratch
//!
//! Every system the paper surveys leans on the same primitives: content
//! addressing, Merkle commitments, proof-of-work, signatures, and key-derived
//! session secrets. This crate implements them without external dependencies:
//!
//! * [`sha256`](crate::sha256) — real FIPS 180-4 SHA-256 (test-vector
//!   checked) and the universal [`Hash256`] identifier type. Runs on the
//!   x86-64 SHA extensions where the CPU reports them ([`sha256_backend`]).
//! * [`hmac`](crate::hmac) — HMAC-SHA256 (RFC 4231-checked) and an
//!   HKDF-style KDF.
//! * [`merkle`](crate::merkle) — domain-separated Merkle trees with
//!   inclusion proofs.
//! * [`wots`](crate::wots) — a *real* hash-based many-time signature scheme
//!   (Winternitz OTS under a Merkle tree), genuinely unforgeable, capacity-
//!   bounded; for low-volume signing (name registrations, site manifests).
//! * [`sig`](crate::sig) — a fast, interface-faithful signature *simulation*
//!   for high-volume protocol experiments (see that module's security note).
//!
//! Content addressing, PoW and Merkle proofs throughout the workspace are
//! honest because SHA-256 here is real; only discrete-log-style asymmetric
//! crypto is simulated, as documented in DESIGN.md §5.

// `unsafe` is denied, not forbidden, so that exactly one module can allow it:
// `sha256::ni`, whose calls into `#[target_feature]` functions are the only
// `unsafe` in the workspace (DESIGN.md §10). Every block there carries a
// `// SAFETY:` comment, which clippy checks.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod codec;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sig;
pub mod wots;

pub use codec::{Dec, DecodeError, Enc};
pub use hmac::{derive_key, hkdf_expand, hkdf_extract, hmac_sha256};
pub use merkle::{leaf_hash, MerkleProof, MerkleTree};
pub use sha256::{
    sha256, sha256_backend, sha256_concat, sha256_into, tagged_hash, Hash256, Sha256, TailHasher,
};
pub use sig::{SimKeyPair, SimPublicKey, SimSignature, PK_WIRE_SIZE, SIG_WIRE_SIZE};
pub use wots::{SignError, WotsKeyPair, WotsPublicKey, WotsSignature};
