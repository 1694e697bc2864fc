//! The centralized registrar baseline: fast, cheap, convenient — and fully
//! at the operator's mercy (censorship, seizure, front-running by the
//! operator itself). The quantitative half of E1's comparison.

use agora_crypto::Hash256;
use agora_sim::FastMap;

use crate::record::{valid_name, NameRecord};

/// Why the registrar refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistrarError {
    /// Name malformed.
    InvalidName,
    /// Name already registered.
    Taken,
    /// Name not registered.
    NotFound,
    /// Caller is not the owner.
    NotOwner,
    /// The operator has censored this name or account.
    Censored,
}

/// A centralized name registrar (the operator's database).
#[derive(Clone, Debug, Default)]
pub struct CentralRegistrar {
    names: FastMap<String, NameRecord>,
    banned_names: Vec<String>,
    banned_accounts: Vec<Hash256>,
    seq: u64,
    /// Registrations the operator processed (for throughput accounting).
    pub ops_processed: u64,
}

impl CentralRegistrar {
    /// Fresh registrar.
    pub fn new() -> CentralRegistrar {
        CentralRegistrar::default()
    }

    /// Operator action: censor a name (existing registration is seized).
    pub fn censor_name(&mut self, name: &str) {
        self.banned_names.push(name.to_owned());
        self.names.remove(name);
    }

    /// Operator action: ban an account entirely.
    pub fn ban_account(&mut self, account: Hash256) {
        self.banned_accounts.push(account);
        self.names.retain(|_, r| r.owner != account);
    }

    /// Register a name — immediate, no proof-of-work, no confirmation wait.
    pub fn register(
        &mut self,
        name: &str,
        owner: Hash256,
        zone_hash: Hash256,
    ) -> Result<&NameRecord, RegistrarError> {
        self.ops_processed += 1;
        if !valid_name(name) {
            return Err(RegistrarError::InvalidName);
        }
        if self.banned_names.iter().any(|n| n == name) || self.banned_accounts.contains(&owner) {
            return Err(RegistrarError::Censored);
        }
        if self.names.contains_key(name) {
            return Err(RegistrarError::Taken);
        }
        self.seq += 1;
        let rec = NameRecord {
            name: name.to_owned(),
            owner,
            zone_hash,
            registered_at: self.seq,
            expires_at: u64::MAX, // operator policy, not consensus
        };
        Ok(self.names.entry(name.to_owned()).or_insert(rec))
    }

    /// Update the zone hash (owner only).
    pub fn update(
        &mut self,
        name: &str,
        caller: Hash256,
        zone_hash: Hash256,
    ) -> Result<(), RegistrarError> {
        self.ops_processed += 1;
        let rec = self.names.get_mut(name).ok_or(RegistrarError::NotFound)?;
        if rec.owner != caller {
            return Err(RegistrarError::NotOwner);
        }
        rec.zone_hash = zone_hash;
        Ok(())
    }

    /// Resolve a name.
    pub fn resolve(&self, name: &str) -> Option<&NameRecord> {
        self.names.get(name)
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    #[test]
    fn register_resolve_update() {
        let mut reg = CentralRegistrar::new();
        let alice = sha256(b"alice");
        reg.register("alice.id", alice, sha256(b"z1")).unwrap();
        assert_eq!(reg.resolve("alice.id").unwrap().owner, alice);
        reg.update("alice.id", alice, sha256(b"z2")).unwrap();
        assert_eq!(reg.resolve("alice.id").unwrap().zone_hash, sha256(b"z2"));
    }

    #[test]
    fn duplicate_and_invalid_rejected() {
        let mut reg = CentralRegistrar::new();
        reg.register("alice.id", sha256(b"a"), sha256(b"z"))
            .unwrap();
        assert_eq!(
            reg.register("alice.id", sha256(b"b"), sha256(b"z"))
                .unwrap_err(),
            RegistrarError::Taken
        );
        assert_eq!(
            reg.register("BAD", sha256(b"b"), sha256(b"z")).unwrap_err(),
            RegistrarError::InvalidName
        );
    }

    #[test]
    fn non_owner_update_rejected() {
        let mut reg = CentralRegistrar::new();
        reg.register("alice.id", sha256(b"a"), sha256(b"z"))
            .unwrap();
        assert_eq!(
            reg.update("alice.id", sha256(b"mallory"), sha256(b"evil"))
                .unwrap_err(),
            RegistrarError::NotOwner
        );
    }

    #[test]
    fn operator_censorship_is_total() {
        let mut reg = CentralRegistrar::new();
        let dissident = sha256(b"dissident");
        reg.register("freedom.press", dissident, sha256(b"z"))
            .unwrap();
        reg.censor_name("freedom.press");
        assert!(reg.resolve("freedom.press").is_none(), "seized");
        assert_eq!(
            reg.register("freedom.press", dissident, sha256(b"z"))
                .unwrap_err(),
            RegistrarError::Censored
        );
        // Account-level ban wipes all the account's names.
        reg.register("other.name", dissident, sha256(b"z")).unwrap();
        reg.ban_account(dissident);
        assert!(reg.resolve("other.name").is_none());
        assert_eq!(
            reg.register("third.name", dissident, sha256(b"z"))
                .unwrap_err(),
            RegistrarError::Censored
        );
    }
}
