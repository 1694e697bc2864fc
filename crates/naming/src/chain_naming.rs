//! Blockchain name registration (the Namecoin / Blockstack mechanism class).
//!
//! Name operations ride the chain as [`APP_NAMING`] application payloads;
//! the [`NameDb`] derives the authoritative name set by scanning the best
//! chain and applying the state machine:
//!
//! `preorder (salted hash) → register (reveal) → update / transfer / renew →
//! expiry`.
//!
//! The preorder/reveal two-phase commit is what defeats front-running: a
//! mempool observer sees only `H(name ‖ salt ‖ account)` and cannot race the
//! registration of a name it cannot read (experiment E2).

use agora_chain::{Ledger, Transaction, TxPayload, APP_NAMING};
use agora_crypto::{sha256_concat, Dec, DecodeError, Enc, Hash256, SimKeyPair};
use agora_sim::FastMap;

use crate::record::{valid_name, NameRecord};

/// Naming-system consensus rules.
#[derive(Clone, Debug)]
pub struct NamingRules {
    /// Whether registration requires a prior preorder (Namecoin: yes).
    pub preorder_required: bool,
    /// Minimum blocks between preorder and register (anti-same-block race).
    pub min_preorder_age: u64,
    /// Blocks after which an unclaimed preorder lapses.
    pub preorder_ttl: u64,
    /// Blocks a registration lasts before it needs renewal.
    pub expiry_blocks: u64,
}

impl Default for NamingRules {
    fn default() -> NamingRules {
        NamingRules {
            preorder_required: true,
            min_preorder_age: 1,
            preorder_ttl: 144,
            expiry_blocks: 52_560, // ~1 year of 10-minute blocks
        }
    }
}

/// A name operation (the App payload body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NameOp {
    /// Commit to a future registration without revealing the name.
    Preorder {
        /// `H("preorder" ‖ name ‖ salt ‖ account)`.
        commitment: Hash256,
    },
    /// Reveal and claim the name.
    Register {
        /// The name being claimed.
        name: String,
        /// Salt matching the preorder commitment.
        salt: u64,
        /// Hash of the initial zone file.
        zone_hash: Hash256,
    },
    /// Replace the zone-file hash (owner only).
    Update {
        /// The name.
        name: String,
        /// New zone-file hash.
        zone_hash: Hash256,
    },
    /// Transfer ownership (current owner only).
    Transfer {
        /// The name.
        name: String,
        /// Receiving account.
        new_owner: Hash256,
    },
    /// Extend the registration (owner only).
    Renew {
        /// The name.
        name: String,
    },
    /// Permanently retire the name (owner only).
    Revoke {
        /// The name.
        name: String,
    },
}

impl NameOp {
    /// Compute a preorder commitment.
    pub fn commitment(name: &str, salt: u64, account: &Hash256) -> Hash256 {
        sha256_concat(&[
            b"preorder",
            name.as_bytes(),
            &salt.to_be_bytes(),
            account.as_bytes(),
        ])
    }

    /// Canonical encoding (App payload body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            NameOp::Preorder { commitment } => Enc::new().u8(0).hash(commitment).done(),
            NameOp::Register {
                name,
                salt,
                zone_hash,
            } => Enc::new().u8(1).str(name).u64(*salt).hash(zone_hash).done(),
            NameOp::Update { name, zone_hash } => Enc::new().u8(2).str(name).hash(zone_hash).done(),
            NameOp::Transfer { name, new_owner } => {
                Enc::new().u8(3).str(name).hash(new_owner).done()
            }
            NameOp::Renew { name } => Enc::new().u8(4).str(name).done(),
            NameOp::Revoke { name } => Enc::new().u8(5).str(name).done(),
        }
    }

    /// Decode an App payload body.
    pub fn decode(bytes: &[u8]) -> Result<NameOp, DecodeError> {
        let mut d = Dec::new(bytes);
        let op = match d.u8()? {
            0 => NameOp::Preorder {
                commitment: d.hash()?,
            },
            1 => NameOp::Register {
                name: d.str()?,
                salt: d.u64()?,
                zone_hash: d.hash()?,
            },
            2 => NameOp::Update {
                name: d.str()?,
                zone_hash: d.hash()?,
            },
            3 => NameOp::Transfer {
                name: d.str()?,
                new_owner: d.hash()?,
            },
            4 => NameOp::Renew { name: d.str()? },
            5 => NameOp::Revoke { name: d.str()? },
            t => return Err(DecodeError::BadTag(t)),
        };
        if !d.finished() {
            return Err(DecodeError::BadLength);
        }
        Ok(op)
    }

    /// Wrap into a signed chain transaction.
    pub fn into_tx(self, keys: &SimKeyPair, nonce: u64, fee: u64) -> Transaction {
        Transaction::create(
            keys,
            nonce,
            fee,
            TxPayload::App {
                tag: APP_NAMING,
                data: self.encode(),
            },
        )
    }
}

/// The derived name database (view over a chain).
#[derive(Clone, Debug, Default)]
pub struct NameDb {
    names: FastMap<String, NameRecord>,
    revoked: FastMap<String, ()>,
    preorders: FastMap<Hash256, (Hash256, u64)>, // commitment → (account, height)
    /// Operations rejected during the scan, with reasons (diagnostics).
    pub rejected: Vec<(u64, String)>,
}

impl NameDb {
    /// Build the authoritative view by scanning a ledger's best chain.
    pub fn from_ledger(ledger: &Ledger, rules: &NamingRules) -> NameDb {
        let mut db = NameDb::default();
        for (height, tx) in ledger.app_txs(APP_NAMING) {
            let TxPayload::App { data, .. } = &tx.payload else {
                continue;
            };
            match NameOp::decode(data) {
                Ok(op) => db.apply(op, tx.sender_account(), height, rules),
                Err(e) => db.rejected.push((height, format!("undecodable op: {e}"))),
            }
        }
        db
    }

    /// Apply one operation (exposed for incremental/experimental use).
    pub fn apply(&mut self, op: NameOp, sender: Hash256, height: u64, rules: &NamingRules) {
        match op {
            NameOp::Preorder { commitment } => {
                // First preorder wins; later ones are ignored until expiry.
                let entry = self.preorders.entry(commitment).or_insert((sender, height));
                if entry.0 != sender && height - entry.1 > rules.preorder_ttl {
                    *entry = (sender, height);
                }
            }
            NameOp::Register {
                name,
                salt,
                zone_hash,
            } => {
                if !valid_name(&name) {
                    self.rejected
                        .push((height, format!("invalid name '{name}'")));
                    return;
                }
                if self.revoked.contains_key(&name) {
                    self.rejected.push((height, format!("'{name}' is revoked")));
                    return;
                }
                if let Some(existing) = self.names.get(&name) {
                    if existing.expires_at >= height {
                        self.rejected
                            .push((height, format!("'{name}' already owned")));
                        return;
                    }
                }
                if rules.preorder_required {
                    let commitment = NameOp::commitment(&name, salt, &sender);
                    match self.preorders.get(&commitment) {
                        Some((who, when))
                            if *who == sender
                                && height - when >= rules.min_preorder_age
                                && height - when <= rules.preorder_ttl =>
                        {
                            self.preorders.remove(&commitment);
                        }
                        _ => {
                            self.rejected.push((
                                height,
                                format!("'{name}' register without valid preorder"),
                            ));
                            return;
                        }
                    }
                }
                self.names.insert(
                    name.clone(),
                    NameRecord {
                        name,
                        owner: sender,
                        zone_hash,
                        registered_at: height,
                        expires_at: height + rules.expiry_blocks,
                    },
                );
            }
            NameOp::Update { name, zone_hash } => match self.owned_by(&name, &sender, height) {
                Some(rec) => rec.zone_hash = zone_hash,
                None => self
                    .rejected
                    .push((height, format!("update '{name}' not owner/expired"))),
            },
            NameOp::Transfer { name, new_owner } => match self.owned_by(&name, &sender, height) {
                Some(rec) => rec.owner = new_owner,
                None => self
                    .rejected
                    .push((height, format!("transfer '{name}' not owner/expired"))),
            },
            NameOp::Renew { name } => {
                let expiry = rules.expiry_blocks;
                match self.owned_by(&name, &sender, height) {
                    Some(rec) => rec.expires_at = height + expiry,
                    None => self
                        .rejected
                        .push((height, format!("renew '{name}' not owner/expired"))),
                }
            }
            NameOp::Revoke { name } => {
                if self.owned_by(&name, &sender, height).is_some() {
                    self.names.remove(&name);
                    self.revoked.insert(name, ());
                } else {
                    self.rejected
                        .push((height, format!("revoke '{name}' not owner/expired")));
                }
            }
        }
    }

    fn owned_by(&mut self, name: &str, sender: &Hash256, height: u64) -> Option<&mut NameRecord> {
        self.names
            .get_mut(name)
            .filter(|r| &r.owner == sender && r.expires_at >= height)
    }

    /// Resolve a name at the given chain height (None if missing/expired).
    pub fn resolve(&self, name: &str, height: u64) -> Option<&NameRecord> {
        self.names.get(name).filter(|r| r.expires_at >= height)
    }

    /// Number of live (possibly expired) entries.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    fn rules() -> NamingRules {
        NamingRules {
            preorder_required: true,
            min_preorder_age: 1,
            preorder_ttl: 10,
            expiry_blocks: 100,
        }
    }

    fn acct(s: &str) -> Hash256 {
        sha256(s.as_bytes())
    }

    #[test]
    fn op_encode_decode_round_trip() {
        let ops = vec![
            NameOp::Preorder {
                commitment: sha256(b"c"),
            },
            NameOp::Register {
                name: "alice.id".into(),
                salt: 42,
                zone_hash: sha256(b"z"),
            },
            NameOp::Update {
                name: "alice.id".into(),
                zone_hash: sha256(b"z2"),
            },
            NameOp::Transfer {
                name: "alice.id".into(),
                new_owner: acct("bob"),
            },
            NameOp::Renew {
                name: "alice.id".into(),
            },
            NameOp::Revoke {
                name: "alice.id".into(),
            },
        ];
        for op in ops {
            assert_eq!(NameOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(NameOp::decode(&[9]).is_err());
    }

    #[test]
    fn preorder_then_register() {
        let mut db = NameDb::default();
        let r = rules();
        let alice = acct("alice");
        let c = NameOp::commitment("alice.id", 7, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 10, &r);
        db.apply(
            NameOp::Register {
                name: "alice.id".into(),
                salt: 7,
                zone_hash: sha256(b"z"),
            },
            alice,
            12,
            &r,
        );
        let rec = db.resolve("alice.id", 12).expect("registered");
        assert_eq!(rec.owner, alice);
        assert_eq!(rec.expires_at, 112);
    }

    #[test]
    fn register_without_preorder_rejected() {
        let mut db = NameDb::default();
        let r = rules();
        db.apply(
            NameOp::Register {
                name: "alice.id".into(),
                salt: 7,
                zone_hash: sha256(b"z"),
            },
            acct("alice"),
            12,
            &r,
        );
        assert!(db.resolve("alice.id", 12).is_none());
        assert_eq!(db.rejected.len(), 1);
    }

    #[test]
    fn same_block_register_rejected_min_age() {
        let mut db = NameDb::default();
        let r = rules();
        let alice = acct("alice");
        let c = NameOp::commitment("alice.id", 7, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 10, &r);
        db.apply(
            NameOp::Register {
                name: "alice.id".into(),
                salt: 7,
                zone_hash: sha256(b"z"),
            },
            alice,
            10,
            &r,
        );
        assert!(db.resolve("alice.id", 10).is_none());
    }

    #[test]
    fn stale_preorder_lapses() {
        let mut db = NameDb::default();
        let r = rules();
        let alice = acct("alice");
        let c = NameOp::commitment("alice.id", 7, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 10, &r);
        db.apply(
            NameOp::Register {
                name: "alice.id".into(),
                salt: 7,
                zone_hash: sha256(b"z"),
            },
            alice,
            25, // > ttl of 10 after preorder
            &r,
        );
        assert!(db.resolve("alice.id", 25).is_none());
    }

    #[test]
    fn someone_elses_preorder_does_not_serve() {
        // Mallory sees Alice's commitment hash but registering under
        // Mallory's account computes a different commitment ⇒ rejected.
        let mut db = NameDb::default();
        let r = rules();
        let alice = acct("alice");
        let mallory = acct("mallory");
        let c = NameOp::commitment("alice.id", 7, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 10, &r);
        db.apply(
            NameOp::Register {
                name: "alice.id".into(),
                salt: 7,
                zone_hash: sha256(b"evil"),
            },
            mallory,
            12,
            &r,
        );
        assert!(db.resolve("alice.id", 12).is_none());
    }

    #[test]
    fn double_register_first_wins() {
        let mut db = NameDb::default();
        let r = rules();
        let (alice, bob) = (acct("alice"), acct("bob"));
        for (who, salt, h) in [(alice, 1u64, 10u64), (bob, 2, 11)] {
            let c = NameOp::commitment("the.name", salt, &who);
            db.apply(NameOp::Preorder { commitment: c }, who, h, &r);
        }
        db.apply(
            NameOp::Register {
                name: "the.name".into(),
                salt: 1,
                zone_hash: sha256(b"a"),
            },
            alice,
            12,
            &r,
        );
        db.apply(
            NameOp::Register {
                name: "the.name".into(),
                salt: 2,
                zone_hash: sha256(b"b"),
            },
            bob,
            13,
            &r,
        );
        assert_eq!(db.resolve("the.name", 13).unwrap().owner, alice);
    }

    #[test]
    fn update_transfer_renew_revoke_lifecycle() {
        let mut db = NameDb::default();
        let r = rules();
        let (alice, bob) = (acct("alice"), acct("bob"));
        let c = NameOp::commitment("n.id", 1, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 1, &r);
        db.apply(
            NameOp::Register {
                name: "n.id".into(),
                salt: 1,
                zone_hash: sha256(b"z1"),
            },
            alice,
            2,
            &r,
        );
        // Non-owner update rejected.
        db.apply(
            NameOp::Update {
                name: "n.id".into(),
                zone_hash: sha256(b"evil"),
            },
            bob,
            3,
            &r,
        );
        assert_eq!(db.resolve("n.id", 3).unwrap().zone_hash, sha256(b"z1"));
        // Owner update.
        db.apply(
            NameOp::Update {
                name: "n.id".into(),
                zone_hash: sha256(b"z2"),
            },
            alice,
            4,
            &r,
        );
        assert_eq!(db.resolve("n.id", 4).unwrap().zone_hash, sha256(b"z2"));
        // Transfer to bob; alice can no longer update.
        db.apply(
            NameOp::Transfer {
                name: "n.id".into(),
                new_owner: bob,
            },
            alice,
            5,
            &r,
        );
        db.apply(
            NameOp::Update {
                name: "n.id".into(),
                zone_hash: sha256(b"z3"),
            },
            alice,
            6,
            &r,
        );
        assert_eq!(db.resolve("n.id", 6).unwrap().zone_hash, sha256(b"z2"));
        // Bob renews, extending expiry from height 7.
        db.apply(
            NameOp::Renew {
                name: "n.id".into(),
            },
            bob,
            7,
            &r,
        );
        assert_eq!(db.resolve("n.id", 7).unwrap().expires_at, 107);
        // Bob revokes; re-registration is forever rejected.
        db.apply(
            NameOp::Revoke {
                name: "n.id".into(),
            },
            bob,
            8,
            &r,
        );
        assert!(db.resolve("n.id", 8).is_none());
        let c2 = NameOp::commitment("n.id", 9, &alice);
        db.apply(NameOp::Preorder { commitment: c2 }, alice, 9, &r);
        db.apply(
            NameOp::Register {
                name: "n.id".into(),
                salt: 9,
                zone_hash: sha256(b"z4"),
            },
            alice,
            11,
            &r,
        );
        assert!(db.resolve("n.id", 11).is_none());
    }

    #[test]
    fn expiry_frees_the_name() {
        let mut db = NameDb::default();
        let r = rules(); // expiry 100
        let (alice, bob) = (acct("alice"), acct("bob"));
        let c = NameOp::commitment("n.id", 1, &alice);
        db.apply(NameOp::Preorder { commitment: c }, alice, 1, &r);
        db.apply(
            NameOp::Register {
                name: "n.id".into(),
                salt: 1,
                zone_hash: sha256(b"z"),
            },
            alice,
            2,
            &r,
        );
        assert!(db.resolve("n.id", 102).is_some());
        assert!(db.resolve("n.id", 103).is_none(), "expired");
        // Bob can now claim it.
        let c2 = NameOp::commitment("n.id", 2, &bob);
        db.apply(NameOp::Preorder { commitment: c2 }, bob, 110, &r);
        db.apply(
            NameOp::Register {
                name: "n.id".into(),
                salt: 2,
                zone_hash: sha256(b"zb"),
            },
            bob,
            112,
            &r,
        );
        assert_eq!(db.resolve("n.id", 112).unwrap().owner, bob);
    }

    #[test]
    fn invalid_names_rejected() {
        let mut db = NameDb::default();
        let mut r = rules();
        r.preorder_required = false;
        db.apply(
            NameOp::Register {
                name: "BAD NAME".into(),
                salt: 0,
                zone_hash: sha256(b"z"),
            },
            acct("x"),
            1,
            &r,
        );
        assert!(db.is_empty());
    }
}
