//! Light-client name resolution (Blockstack-style thin clients).
//!
//! §3.1's naming systems are only usable if phones and browsers can verify
//! name bindings *without* storing the chain. A [`LightResolver`] holds only
//! the header chain (kilobytes) and verifies a [`NameProof`] — the
//! registration/update transactions plus their Merkle inclusion proofs —
//! against it, replaying the name's operation history through the same
//! [`NameDb`] rules a full node uses.
//!
//! What a light client *cannot* see is a superseding operation it was never
//! shown (e.g. a later transfer). The proof therefore carries every
//! operation for the name up to the resolver's tip, and freshness is
//! enforced by requiring the proof to cover a recent height — the standard
//! SPV trust model, made explicit in [`LightError::Stale`].

use agora_chain::{InclusionProof, Ledger, SpvClient, Transaction, TxPayload, APP_NAMING};

use crate::chain_naming::{NameDb, NameOp, NamingRules};
use crate::record::NameRecord;

/// A transaction relevant to one name, with its inclusion proof.
#[derive(Clone, Debug)]
pub struct ProvenOp {
    /// The transaction carrying the name operation.
    pub tx: Transaction,
    /// Inclusion proof tying it to a block header.
    pub proof: InclusionProof,
}

/// Everything a light client needs to resolve one name.
#[derive(Clone, Debug)]
pub struct NameProof {
    /// The name being proven.
    pub name: String,
    /// All of the name's operations (and their preorders), oldest first.
    pub ops: Vec<ProvenOp>,
    /// Chain height the proof claims to be complete up to.
    pub as_of_height: u64,
}

/// Light-resolution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LightError {
    /// An inclusion proof failed verification.
    BadInclusion,
    /// A proven transaction decodes to no valid name operation.
    BadOp,
    /// The proof's claimed height exceeds the resolver's header chain.
    AheadOfHeaders,
    /// The proof is older than the resolver's freshness bound.
    Stale,
    /// The operations do not produce a live record for the name.
    NoRecord,
}

impl std::fmt::Display for LightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
impl std::error::Error for LightError {}

/// Build a [`NameProof`] for `name` from a full node's ledger: every
/// APP_NAMING transaction that names it (or preorders anything — preorder
/// commitments are opaque, so all of them ride along; they are tiny).
pub fn build_name_proof(ledger: &Ledger, name: &str) -> NameProof {
    let mut ops = Vec::new();
    for (_, tx) in ledger.app_txs(APP_NAMING) {
        let TxPayload::App { data, .. } = &tx.payload else {
            continue;
        };
        let relevant = match NameOp::decode(data) {
            Ok(NameOp::Preorder { .. }) => true,
            Ok(NameOp::Register { name: n, .. })
            | Ok(NameOp::Update { name: n, .. })
            | Ok(NameOp::Transfer { name: n, .. })
            | Ok(NameOp::Renew { name: n })
            | Ok(NameOp::Revoke { name: n }) => n == name,
            Err(_) => false,
        };
        if relevant {
            let proof =
                InclusionProof::build(ledger, &tx.id()).expect("app tx is on the main chain");
            ops.push(ProvenOp { tx, proof });
        }
    }
    NameProof {
        name: name.to_owned(),
        ops,
        as_of_height: ledger.best_height(),
    }
}

/// A header-only name resolver.
pub struct LightResolver {
    spv: SpvClient,
    rules: NamingRules,
    /// Reject proofs claiming completeness more than this many blocks
    /// behind our best header.
    pub max_staleness: u64,
}

impl LightResolver {
    /// Create from a synced SPV client and the chain's naming rules.
    pub fn new(spv: SpvClient, rules: NamingRules) -> LightResolver {
        LightResolver {
            spv,
            rules,
            max_staleness: 16,
        }
    }

    /// Verify a proof and resolve the name.
    pub fn resolve(&self, proof: &NameProof) -> Result<NameRecord, LightError> {
        if proof.as_of_height > self.spv.height() {
            return Err(LightError::AheadOfHeaders);
        }
        if self.spv.height() - proof.as_of_height > self.max_staleness {
            return Err(LightError::Stale);
        }
        let mut db = NameDb::default();
        for p in &proof.ops {
            // 1. The tx really is in a block on our best header chain
            //    (confirmation depth 1 suffices; headers carry the work).
            if !self.spv.verify_inclusion(&p.tx.id(), &p.proof, 1) {
                return Err(LightError::BadInclusion);
            }
            // 2. The tx signature is genuine.
            if !p.tx.verify_signature() {
                return Err(LightError::BadInclusion);
            }
            // 3. Replay through the consensus name rules at the proven
            //    height.
            let TxPayload::App { data, .. } = &p.tx.payload else {
                return Err(LightError::BadOp);
            };
            let op = NameOp::decode(data).map_err(|_| LightError::BadOp)?;
            db.apply(
                op,
                p.tx.sender_account(),
                p.proof.header.height,
                &self.rules,
            );
        }
        db.resolve(&proof.name, proof.as_of_height)
            .cloned()
            .ok_or(LightError::NoRecord)
    }

    /// Header storage footprint in bytes (the light client's whole state).
    pub fn storage_bytes(&self) -> u64 {
        self.spv.storage_bytes()
    }
}

/// Convenience: sync headers + verify the name in one call against a full
/// node (the shape a wallet RPC would take).
pub fn light_resolve(
    ledger: &Ledger,
    rules: &NamingRules,
    name: &str,
) -> Result<(NameRecord, u64), LightError> {
    let genesis = ledger
        .block(&ledger.genesis_hash())
        .expect("genesis present")
        .clone();
    let mut spv = SpvClient::new(&genesis);
    spv.sync_from(ledger);
    let resolver = LightResolver::new(spv, rules.clone());
    let proof = build_name_proof(ledger, name);
    let rec = resolver.resolve(&proof)?;
    Ok((rec, resolver.storage_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_chain::{mine_block, ChainParams};
    use agora_crypto::{sha256, SimKeyPair};
    use agora_sim::SimRng;

    fn rules() -> NamingRules {
        NamingRules {
            min_preorder_age: 1,
            ..NamingRules::default()
        }
    }

    /// Mine a chain registering (and then updating) "lite.agora".
    fn chain_with_name() -> (Ledger, SimKeyPair) {
        let alice = SimKeyPair::from_seed(b"light-alice");
        let mut ledger = Ledger::new("light", ChainParams::test(), &[(alice.public().id(), 1000)]);
        let mut rng = SimRng::new(3);
        let miner = sha256(b"m");
        let ops = vec![
            NameOp::Preorder {
                commitment: NameOp::commitment("lite.agora", 5, &alice.public().id()),
            }
            .into_tx(&alice, 0, 1),
            NameOp::Register {
                name: "lite.agora".into(),
                salt: 5,
                zone_hash: sha256(b"z1"),
            }
            .into_tx(&alice, 1, 1),
            NameOp::Update {
                name: "lite.agora".into(),
                zone_hash: sha256(b"z2"),
            }
            .into_tx(&alice, 2, 1),
        ];
        for (i, tx) in ops.into_iter().enumerate() {
            let parent = ledger.best_tip();
            let bits = ledger.next_difficulty(&parent);
            let (block, _) = mine_block(
                parent,
                i as u64 + 1,
                miner,
                vec![tx],
                (i as u64 + 1) * 1_000_000,
                bits,
                &mut rng,
            );
            ledger.submit_block(block).unwrap();
        }
        (ledger, alice)
    }

    #[test]
    fn light_resolution_matches_full_node() {
        let (ledger, alice) = chain_with_name();
        let (rec, header_bytes) = light_resolve(&ledger, &rules(), "lite.agora").unwrap();
        assert_eq!(rec.owner, alice.public().id());
        assert_eq!(rec.zone_hash, sha256(b"z2"), "update applied");
        // The light client stored only headers — far less than the chain.
        assert!(header_bytes < ledger.main_chain_bytes());
        // And it matches the full node's view.
        let db = NameDb::from_ledger(&ledger, &rules());
        assert_eq!(
            db.resolve("lite.agora", ledger.best_height()).unwrap(),
            &rec
        );
    }

    #[test]
    fn unknown_name_is_no_record() {
        let (ledger, _) = chain_with_name();
        assert_eq!(
            light_resolve(&ledger, &rules(), "ghost.agora").unwrap_err(),
            LightError::NoRecord
        );
    }

    #[test]
    fn tampered_proof_rejected() {
        let (ledger, alice) = chain_with_name();
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        spv.sync_from(&ledger);
        let resolver = LightResolver::new(spv, rules());
        let mut proof = build_name_proof(&ledger, "lite.agora");
        // Swap in a forged update claiming a different zone hash: the tx id
        // no longer matches its inclusion proof.
        let forged = NameOp::Update {
            name: "lite.agora".into(),
            zone_hash: sha256(b"evil"),
        }
        .into_tx(&alice, 9, 1);
        proof.ops[2].tx = forged;
        assert_eq!(
            resolver.resolve(&proof).unwrap_err(),
            LightError::BadInclusion
        );
    }

    #[test]
    fn omitting_the_update_shows_stale_zone_but_same_owner() {
        // A malicious proof server can *omit* later ops (SPV limitation):
        // the resolver then sees the old zone hash. Ownership still cannot
        // be forged; only freshness degrades — exactly the documented SPV
        // trust model.
        let (ledger, alice) = chain_with_name();
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        spv.sync_from(&ledger);
        let resolver = LightResolver::new(spv, rules());
        let mut proof = build_name_proof(&ledger, "lite.agora");
        proof.ops.pop(); // drop the update
        let rec = resolver.resolve(&proof).unwrap();
        assert_eq!(rec.owner, alice.public().id());
        assert_eq!(rec.zone_hash, sha256(b"z1"), "stale but owner-correct");
    }

    #[test]
    fn stale_proofs_rejected() {
        let (ledger, _) = chain_with_name();
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        spv.sync_from(&ledger);
        let mut resolver = LightResolver::new(spv, rules());
        resolver.max_staleness = 0;
        let mut proof = build_name_proof(&ledger, "lite.agora");
        proof.as_of_height = 0; // claims completeness only up to genesis
        assert_eq!(resolver.resolve(&proof).unwrap_err(), LightError::Stale);
        // A proof from the "future" is also rejected.
        proof.as_of_height = 999;
        assert_eq!(
            resolver.resolve(&proof).unwrap_err(),
            LightError::AheadOfHeaders
        );
    }
}
