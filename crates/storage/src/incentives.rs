//! Incentive schemes: why a selfish node would serve your bytes.
//!
//! §3.3: "selfish nodes can interfere with this sharing model if they do not
//! have incentives to behave correctly". Table 2's systems answer this three
//! ways, all implemented here:
//!
//! * [`BitswapLedger`] — IPFS: pairwise byte-debt accounting; peers refuse
//!   service to freeloaders whose debt ratio is too high.
//! * [`TokenBank`] — Sia/Storj/Filecoin/Swarm: tokens move from storage
//!   consumers to providers per contract (on-chain settlement is modeled by
//!   `agora-chain` transfers at contract boundaries; within a contract this
//!   bank tracks accrual).
//! * [`ResourceScore`] — MaidSafe: proof-of-resource rank; nodes earn
//!   standing by answering audits, and lose it by failing them.

use agora_crypto::Hash256;
use agora_sim::FastMap;

/// The incentive scheme labels of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IncentiveScheme {
    /// Pairwise bitswap-style debt ledgers (IPFS).
    BitswapLedger,
    /// Proof-of-resource + distributed transactions (MaidSafe).
    ProofOfResource,
    /// Blockchain contract with proof-of-storage payouts (Sia).
    ProofOfStorage,
    /// Payment token with proof-of-retrievability audits (Storj).
    ProofOfRetrievability,
    /// Deposit-backed proof-of-storage insurance (Swarm's SWEAR).
    Swear,
    /// Proof-of-replication / proof-of-spacetime payouts (Filecoin).
    ProofOfReplication,
    /// No storage incentive (Blockstack delegates storage elsewhere).
    None,
}

impl IncentiveScheme {
    /// Human label as in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            IncentiveScheme::BitswapLedger => "Bitswap ledgers",
            IncentiveScheme::ProofOfResource => "Proof-of-resource / distributed transaction",
            IncentiveScheme::ProofOfStorage => "Proof-of-storage",
            IncentiveScheme::ProofOfRetrievability => "Proof-of-retrievability",
            IncentiveScheme::Swear => "Proof-of-storage: SWEAR",
            IncentiveScheme::ProofOfReplication => "Proof-of-replication / spacetime / work",
            IncentiveScheme::None => "N/A",
        }
    }
}

/// Pairwise byte-debt ledger (one node's view of all its peers).
#[derive(Clone, Debug, Default)]
pub struct BitswapLedger {
    /// peer → (bytes we sent them, bytes they sent us).
    entries: FastMap<Hash256, (u64, u64)>,
    /// Refuse to serve a peer whose debt (sent − received) exceeds this.
    pub debt_limit: u64,
}

impl BitswapLedger {
    /// New ledger with a debt limit in bytes.
    pub fn new(debt_limit: u64) -> BitswapLedger {
        BitswapLedger {
            entries: FastMap::default(),
            debt_limit,
        }
    }

    /// Record bytes we served to `peer`.
    pub fn record_sent(&mut self, peer: Hash256, bytes: u64) {
        self.entries.entry(peer).or_insert((0, 0)).0 += bytes;
    }

    /// Record bytes `peer` served to us.
    pub fn record_received(&mut self, peer: Hash256, bytes: u64) {
        self.entries.entry(peer).or_insert((0, 0)).1 += bytes;
    }

    /// `peer`'s debt to us (bytes we sent beyond what we received).
    pub fn debt_of(&self, peer: &Hash256) -> u64 {
        let (sent, recv) = self.entries.get(peer).copied().unwrap_or((0, 0));
        sent.saturating_sub(recv)
    }

    /// Whether we are willing to serve `bytes` more to `peer`.
    pub fn will_serve(&self, peer: &Hash256, bytes: u64) -> bool {
        self.debt_of(peer) + bytes <= self.debt_limit
    }
}

/// A token account bank for contract accrual (off-chain running balance;
/// settle on-chain at contract end).
#[derive(Clone, Debug, Default)]
pub struct TokenBank {
    balances: FastMap<Hash256, i64>,
}

impl TokenBank {
    /// Fresh bank.
    pub fn new() -> TokenBank {
        TokenBank::default()
    }

    /// Credit (positive) or debit (negative) an account.
    pub fn adjust(&mut self, account: Hash256, delta: i64) {
        *self.balances.entry(account).or_insert(0) += delta;
    }

    /// Move tokens between accounts.
    pub fn transfer(&mut self, from: Hash256, to: Hash256, amount: i64) {
        self.adjust(from, -amount);
        self.adjust(to, amount);
    }

    /// Account balance (may be negative mid-contract: accrued liability).
    pub fn balance(&self, account: &Hash256) -> i64 {
        self.balances.get(account).copied().unwrap_or(0)
    }

    /// Sum over all balances — zero in a closed system.
    pub fn total(&self) -> i64 {
        self.balances.values().sum()
    }
}

/// EWMA audit-success reputation: the storage market's placement signal.
///
/// Each audit outcome folds into an exponentially-weighted moving average
/// of pass (1.0) / fail (0.0), so a provider's standing tracks its *recent*
/// reliability: one miss dents a long clean record only slightly, while a
/// flapping or discarding provider converges to zero and falls below the
/// placement floor. Fresh providers start at 1.0 (optimistic bootstrap —
/// the market discovers cheaters through audits, not priors).
#[derive(Clone, Debug)]
pub struct EwmaReputation {
    alpha: f64,
    scores: FastMap<Hash256, f64>,
}

impl EwmaReputation {
    /// New table with smoothing weight `alpha` in (0, 1]: the fraction of
    /// the score replaced by each new observation.
    pub fn new(alpha: f64) -> EwmaReputation {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaReputation {
            alpha,
            scores: FastMap::default(),
        }
    }

    /// Fold one audit outcome into a provider's score.
    pub fn observe(&mut self, provider: Hash256, passed: bool) {
        let s = self.scores.entry(provider).or_insert(1.0);
        let x = if passed { 1.0 } else { 0.0 };
        *s = (1.0 - self.alpha) * *s + self.alpha * x;
    }

    /// A provider's standing (1.0 = fresh / perfect, → 0.0 = always missing).
    pub fn score(&self, provider: &Hash256) -> f64 {
        self.scores.get(provider).copied().unwrap_or(1.0)
    }

    /// Whether a provider clears the placement floor.
    pub fn eligible(&self, provider: &Hash256, floor: f64) -> bool {
        self.score(provider) >= floor
    }
}

/// MaidSafe-style proof-of-resource standing.
#[derive(Clone, Debug, Default)]
pub struct ResourceScore {
    scores: FastMap<Hash256, f64>,
}

impl ResourceScore {
    /// Fresh score table.
    pub fn new() -> ResourceScore {
        ResourceScore::default()
    }

    /// Record an audit outcome for a node; passing grows standing, failing
    /// shrinks it multiplicatively (fast fall, slow climb).
    pub fn record_audit(&mut self, node: Hash256, passed: bool) {
        let s = self.scores.entry(node).or_insert(1.0);
        if passed {
            *s += 1.0;
        } else {
            *s *= 0.5;
        }
    }

    /// A node's standing (1.0 = fresh).
    pub fn score(&self, node: &Hash256) -> f64 {
        self.scores.get(node).copied().unwrap_or(1.0)
    }

    /// Whether a node is in good standing (eligible for new contracts).
    pub fn eligible(&self, node: &Hash256) -> bool {
        self.score(node) >= 0.5
    }

    /// Rank nodes by standing, best first.
    pub fn ranked(&self) -> Vec<(Hash256, f64)> {
        let mut v: Vec<(Hash256, f64)> = self.scores.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    #[test]
    fn bitswap_debt_gates_service() {
        let mut l = BitswapLedger::new(1000);
        let peer = sha256(b"peer");
        assert!(l.will_serve(&peer, 1000));
        l.record_sent(peer, 900);
        assert_eq!(l.debt_of(&peer), 900);
        assert!(l.will_serve(&peer, 100));
        assert!(!l.will_serve(&peer, 101), "over the debt limit");
        // Reciprocation restores service.
        l.record_received(peer, 600);
        assert_eq!(l.debt_of(&peer), 300);
        assert!(l.will_serve(&peer, 700));
    }

    #[test]
    fn bitswap_unknown_peer_has_no_debt() {
        let l = BitswapLedger::new(10);
        assert_eq!(l.debt_of(&sha256(b"nobody")), 0);
        assert!(l.will_serve(&sha256(b"nobody"), 10));
    }

    #[test]
    fn token_bank_is_zero_sum() {
        let mut bank = TokenBank::new();
        let (a, b) = (sha256(b"a"), sha256(b"b"));
        bank.transfer(a, b, 50);
        bank.transfer(b, a, 20);
        assert_eq!(bank.balance(&a), -30);
        assert_eq!(bank.balance(&b), 30);
        assert_eq!(bank.total(), 0);
    }

    #[test]
    fn ewma_reputation_falls_fast_and_recovers_slowly() {
        let mut rep = EwmaReputation::new(0.3);
        let p = sha256(b"provider");
        assert_eq!(rep.score(&p), 1.0, "fresh providers start optimistic");
        assert!(rep.eligible(&p, 0.5));
        // Three consecutive misses: 0.7, 0.49, 0.343 — below a 0.5 floor.
        for _ in 0..3 {
            rep.observe(p, false);
        }
        assert!(rep.score(&p) < 0.5);
        assert!(!rep.eligible(&p, 0.5));
        // Recovery is gradual: one pass does not restore standing.
        rep.observe(p, true);
        assert!(rep.score(&p) < 0.6);
        for _ in 0..10 {
            rep.observe(p, true);
        }
        assert!(
            rep.eligible(&p, 0.5),
            "sustained passes restore eligibility"
        );
    }

    #[test]
    fn ewma_reputation_one_miss_barely_dents_a_clean_record() {
        let mut rep = EwmaReputation::new(0.1);
        let p = sha256(b"steady");
        for _ in 0..50 {
            rep.observe(p, true);
        }
        rep.observe(p, false);
        assert!(rep.score(&p) > 0.85, "{}", rep.score(&p));
    }

    #[test]
    fn resource_score_rises_and_falls() {
        let mut rs = ResourceScore::new();
        let n = sha256(b"node");
        assert!(rs.eligible(&n));
        for _ in 0..5 {
            rs.record_audit(n, true);
        }
        assert_eq!(rs.score(&n), 6.0);
        // Failures halve: 6 → 3 → 1.5 → 0.75 → 0.375.
        for _ in 0..4 {
            rs.record_audit(n, false);
        }
        assert!(!rs.eligible(&n));
    }

    #[test]
    fn resource_ranking_orders_best_first() {
        let mut rs = ResourceScore::new();
        let (good, bad) = (sha256(b"good"), sha256(b"bad"));
        rs.record_audit(good, true);
        rs.record_audit(bad, false);
        let ranked = rs.ranked();
        assert_eq!(ranked[0].0, good);
        assert_eq!(ranked[1].0, bad);
    }

    #[test]
    fn scheme_labels_match_table2() {
        assert_eq!(IncentiveScheme::BitswapLedger.label(), "Bitswap ledgers");
        assert_eq!(IncentiveScheme::None.label(), "N/A");
    }
}
