//! The ledger: block store, validation, fork choice, and account state.
//!
//! Fork choice is heaviest-total-work (longest-chain generalized to variable
//! difficulty). State is maintained at the best tip and rebuilt from genesis
//! when a reorg adopts a side branch — O(chain) but simulation-scale chains
//! are short. Blocks with unknown parents wait in a bounded orphan pool.

use agora_crypto::Hash256;
use agora_sim::FastMap;

use crate::block::Block;
use crate::params::ChainParams;
use crate::tx::{Transaction, TxPayload};

/// Why a block or transaction was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// Parent not known (block parked as orphan).
    UnknownParent,
    /// Header hash does not meet its declared difficulty.
    BadPow,
    /// Declared difficulty differs from the consensus-required difficulty.
    WrongDifficulty {
        /// What the chain requires at this height.
        required: u32,
        /// What the header declared.
        declared: u32,
    },
    /// Header height is not parent height + 1.
    BadHeight,
    /// Merkle root does not commit to the body.
    BadMerkle,
    /// Timestamp precedes the parent's.
    BadTimestamp,
    /// Too many transactions.
    TooManyTxs,
    /// Block already known.
    Duplicate,
    /// A transaction failed validation.
    TxInvalid(TxError),
}

/// Why a transaction is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// Signature check failed.
    BadSignature,
    /// Nonce does not match the account's next expected nonce.
    BadNonce {
        /// Expected account nonce.
        expected: u64,
        /// Nonce in the transaction.
        got: u64,
    },
    /// Balance insufficient for amount + fee.
    InsufficientFunds,
    /// Application payload exceeds the chain's size limit.
    PayloadTooBig,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
impl std::error::Error for BlockError {}

/// Result of accepting a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// Extended the best chain.
    ExtendedBest,
    /// Stored on a side branch (best chain unchanged).
    SideBranch,
    /// Triggered a reorganization; `depth` best-chain blocks were replaced.
    Reorg {
        /// Number of blocks disconnected from the old best chain.
        depth: u64,
    },
}

/// Account state at a chain tip.
#[derive(Clone, Debug, Default)]
pub struct ChainState {
    balances: FastMap<Hash256, u64>,
    nonces: FastMap<Hash256, u64>,
    /// txid → (height, block hash) on the main chain.
    tx_index: FastMap<Hash256, (u64, Hash256)>,
}

impl ChainState {
    /// Balance of an account (0 if unknown).
    pub fn balance(&self, account: &Hash256) -> u64 {
        self.balances.get(account).copied().unwrap_or(0)
    }

    /// Next expected nonce for an account.
    pub fn nonce(&self, account: &Hash256) -> u64 {
        self.nonces.get(account).copied().unwrap_or(0)
    }

    /// Validate a transaction against this state (without applying it).
    pub fn validate_tx(&self, tx: &Transaction, params: &ChainParams) -> Result<(), TxError> {
        if tx.payload.payload_len() > params.max_payload_bytes {
            return Err(TxError::PayloadTooBig);
        }
        if !tx.verify_signature() {
            return Err(TxError::BadSignature);
        }
        let acct = tx.sender_account();
        let expected = self.nonce(&acct);
        if tx.nonce != expected {
            return Err(TxError::BadNonce {
                expected,
                got: tx.nonce,
            });
        }
        if self.balance(&acct) < tx.total_debit() {
            return Err(TxError::InsufficientFunds);
        }
        Ok(())
    }

    /// Apply a validated tx's nonce/balance effects without a containing
    /// block — used when building block templates from a mempool (fees and
    /// rewards don't matter there, only sequential validity).
    pub fn apply_tx_for_template(&mut self, tx: &Transaction) {
        let acct = tx.sender_account();
        *self.balances.entry(acct).or_insert(0) -= tx.total_debit();
        *self.nonces.entry(acct).or_insert(0) += 1;
        if let TxPayload::Transfer { to, amount } = &tx.payload {
            *self.balances.entry(*to).or_insert(0) += amount;
        }
    }

    fn apply_tx(&mut self, tx: &Transaction, miner: &Hash256) {
        let acct = tx.sender_account();
        *self.balances.entry(acct).or_insert(0) -= tx.total_debit();
        *self.nonces.entry(acct).or_insert(0) += 1;
        *self.balances.entry(*miner).or_insert(0) += tx.fee;
        if let TxPayload::Transfer { to, amount } = &tx.payload {
            *self.balances.entry(*to).or_insert(0) += amount;
        }
    }

    /// Apply `block`, whose header hashes to `bh`.
    fn apply_block(
        &mut self,
        block: &Block,
        bh: Hash256,
        params: &ChainParams,
    ) -> Result<(), TxError> {
        for tx in &block.txs {
            self.validate_tx(tx, params)?;
            self.apply_tx(tx, &block.miner);
        }
        *self.balances.entry(block.miner).or_insert(0) += params.block_reward;
        for tx in &block.txs {
            self.tx_index.insert(tx.id(), (block.header.height, bh));
        }
        Ok(())
    }
}

struct StoredBlock {
    block: Block,
    total_work: f64,
}

/// The ledger.
pub struct Ledger {
    params: ChainParams,
    genesis: Hash256,
    blocks: FastMap<Hash256, StoredBlock>,
    orphans: FastMap<Hash256, Vec<Block>>, // keyed by missing parent
    best_tip: Hash256,
    state: ChainState,
    premine: Vec<(Hash256, u64)>,
    /// Cumulative bytes of every block ever accepted (the paper's "endless
    /// ledger problem" metric — storage only grows, across all branches).
    pub total_ledger_bytes: u64,
}

const MAX_ORPHANS: usize = 256;

impl Ledger {
    /// Create a ledger with a deterministic genesis for `chain_tag` and an
    /// initial token allocation (the premine funds simulation accounts).
    pub fn new(chain_tag: &str, params: ChainParams, premine: &[(Hash256, u64)]) -> Ledger {
        let genesis = Block::genesis(chain_tag);
        let ghash = genesis.hash();
        let mut state = ChainState::default();
        for (acct, amount) in premine {
            *state.balances.entry(*acct).or_insert(0) += amount;
        }
        let total_ledger_bytes = genesis.wire_size();
        let mut blocks = FastMap::default();
        blocks.insert(
            ghash,
            StoredBlock {
                block: genesis,
                total_work: 0.0,
            },
        );
        Ledger {
            params,
            genesis: ghash,
            blocks,
            orphans: FastMap::default(),
            best_tip: ghash,
            state,
            premine: premine.to_vec(),
            total_ledger_bytes,
        }
    }

    /// Consensus parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// Genesis hash.
    pub fn genesis_hash(&self) -> Hash256 {
        self.genesis
    }

    /// Best tip hash.
    pub fn best_tip(&self) -> Hash256 {
        self.best_tip
    }

    /// Height of the best tip.
    pub fn best_height(&self) -> u64 {
        self.blocks[&self.best_tip].block.header.height
    }

    /// Look up a block by hash.
    pub fn block(&self, hash: &Hash256) -> Option<&Block> {
        self.blocks.get(hash).map(|s| &s.block)
    }

    /// Whether a block is known (main chain or side branch).
    pub fn contains(&self, hash: &Hash256) -> bool {
        self.blocks.contains_key(hash)
    }

    /// Account state at the best tip.
    pub fn state(&self) -> &ChainState {
        &self.state
    }

    /// The best-chain block hashes from genesis to tip.
    pub fn main_chain(&self) -> Vec<Hash256> {
        let mut chain = Vec::with_capacity(self.best_height() as usize + 1);
        let mut cur = self.best_tip;
        loop {
            chain.push(cur);
            if cur == self.genesis {
                break;
            }
            cur = self.blocks[&cur].block.header.prev;
        }
        chain.reverse();
        chain
    }

    /// Confirmations of a transaction on the best chain (1 = in tip block).
    /// `None` if not on the best chain.
    pub fn confirmations(&self, txid: &Hash256) -> Option<u64> {
        let (height, _) = self.state.tx_index.get(txid)?;
        Some(self.best_height() - height + 1)
    }

    /// Whether a transaction has reached the params' confirmation depth.
    pub fn is_confirmed(&self, txid: &Hash256) -> bool {
        self.confirmations(txid)
            .is_some_and(|c| c >= self.params.confirmation_depth)
    }

    /// All application transactions with `tag` on the best chain, in
    /// (height, intra-block) order, with their confirmation heights.
    pub fn app_txs(&self, tag: u32) -> Vec<(u64, Transaction)> {
        let mut out = Vec::new();
        for bh in self.main_chain() {
            let stored = &self.blocks[&bh];
            for tx in &stored.block.txs {
                if let TxPayload::App { tag: t, .. } = &tx.payload {
                    if *t == tag {
                        out.push((stored.block.header.height, tx.clone()));
                    }
                }
            }
        }
        out
    }

    /// Bytes of the current best chain (distinct from
    /// [`Ledger::total_ledger_bytes`], which never shrinks).
    pub fn main_chain_bytes(&self) -> u64 {
        self.main_chain()
            .iter()
            .map(|h| self.blocks[h].block.wire_size())
            .sum()
    }

    /// The difficulty consensus requires for a child of `parent`.
    pub fn next_difficulty(&self, parent: &Hash256) -> u32 {
        let Some(stored) = self.blocks.get(parent) else {
            return self.params.initial_difficulty_bits;
        };
        let child_height = stored.block.header.height + 1;
        let window = self.params.retarget_window;
        if child_height <= window || child_height % window != 0 {
            // Inherit: genesis children start at initial difficulty.
            if stored.block.header.height == 0 {
                return self.params.initial_difficulty_bits;
            }
            return stored.block.header.difficulty_bits;
        }
        // Retarget: compare the actual span of the last `window` blocks with
        // the target span; shift difficulty by the rounded log2 ratio,
        // clamped to ±2 bits per retarget and the params' absolute bounds.
        let mut ancestor = *parent;
        for _ in 0..window - 1 {
            ancestor = self.blocks[&ancestor].block.header.prev;
        }
        let newest = stored.block.header.time_micros as f64;
        let oldest = self.blocks[&ancestor].block.header.time_micros as f64;
        let actual = (newest - oldest).max(1.0);
        let expected = self.params.target_block_interval.micros() as f64 * (window - 1) as f64;
        let ratio = expected / actual; // >1 ⇒ blocks too fast ⇒ raise difficulty
        let shift = ratio.log2().round().clamp(-2.0, 2.0) as i64;
        let old = stored.block.header.difficulty_bits as i64;
        (old + shift).clamp(
            self.params.min_difficulty_bits as i64,
            self.params.max_difficulty_bits as i64,
        ) as u32
    }

    /// Validate and accept a block. Orphans (unknown parent) are parked and
    /// retried automatically when their parent arrives; the error is still
    /// returned so callers can request the parent.
    pub fn submit_block(&mut self, block: Block) -> Result<Accepted, BlockError> {
        let hash = block.hash();
        self.submit_hashed(block, hash)
    }

    /// [`Ledger::submit_block`] for a caller that has hashed the header
    /// already: `hash` is `block.hash()`, and it is the header's only hash
    /// here (the PoW test reads its leading zeros).
    pub(crate) fn submit_hashed(
        &mut self,
        block: Block,
        hash: Hash256,
    ) -> Result<Accepted, BlockError> {
        debug_assert_eq!(hash, block.hash());
        if self.blocks.contains_key(&hash) {
            return Err(BlockError::Duplicate);
        }
        let Some(parent) = self.blocks.get(&block.header.prev) else {
            if self.orphans.values().map(|v| v.len()).sum::<usize>() < MAX_ORPHANS {
                self.orphans
                    .entry(block.header.prev)
                    .or_default()
                    .push(block);
            }
            return Err(BlockError::UnknownParent);
        };

        // Header checks.
        if block.header.height != parent.block.header.height + 1 {
            return Err(BlockError::BadHeight);
        }
        if block.header.time_micros < parent.block.header.time_micros {
            return Err(BlockError::BadTimestamp);
        }
        let required = self.next_difficulty(&block.header.prev);
        if block.header.difficulty_bits != required {
            return Err(BlockError::WrongDifficulty {
                required,
                declared: block.header.difficulty_bits,
            });
        }
        if hash.leading_zero_bits() < block.header.difficulty_bits {
            return Err(BlockError::BadPow);
        }
        if block.txs.len() > self.params.max_block_txs {
            return Err(BlockError::TooManyTxs);
        }
        if !block.merkle_valid() {
            return Err(BlockError::BadMerkle);
        }

        // Transaction validity against the branch state.
        let branch_state = if block.header.prev == self.best_tip {
            self.state.clone()
        } else {
            self.rebuild_state_at(&block.header.prev)
        };
        let mut new_state = branch_state;
        new_state
            .apply_block(&block, hash, &self.params)
            .map_err(BlockError::TxInvalid)?;

        let total_work = self.blocks[&block.header.prev].total_work + block.header.work();
        self.total_ledger_bytes += block.wire_size();
        let extends_best = block.header.prev == self.best_tip;
        let old_best = self.best_tip;
        let old_chain_len = self.best_height();
        self.blocks.insert(hash, StoredBlock { block, total_work });

        let result = if extends_best {
            self.best_tip = hash;
            self.state = new_state;
            Ok(Accepted::ExtendedBest)
        } else if total_work > self.blocks[&old_best].total_work {
            // Reorg: measure how deep the old chain is abandoned.
            let fork_height = self.fork_point_height(&hash, &old_best);
            self.best_tip = hash;
            self.state = new_state;
            Ok(Accepted::Reorg {
                depth: old_chain_len - fork_height,
            })
        } else {
            Ok(Accepted::SideBranch)
        };

        // Un-orphan any children waiting on this block.
        if let Some(children) = self.orphans.remove(&hash) {
            for child in children {
                let _ = self.submit_block(child);
            }
        }
        result
    }

    /// Height of the common ancestor of two blocks.
    fn fork_point_height(&self, a: &Hash256, b: &Hash256) -> u64 {
        let (mut a, mut b) = (*a, *b);
        let mut ha = self.blocks[&a].block.header.height;
        let mut hb = self.blocks[&b].block.header.height;
        while ha > hb {
            a = self.blocks[&a].block.header.prev;
            ha -= 1;
        }
        while hb > ha {
            b = self.blocks[&b].block.header.prev;
            hb -= 1;
        }
        while a != b {
            a = self.blocks[&a].block.header.prev;
            b = self.blocks[&b].block.header.prev;
            ha -= 1;
        }
        ha
    }

    /// Rebuild account state from genesis along the branch ending at `tip`.
    fn rebuild_state_at(&self, tip: &Hash256) -> ChainState {
        let mut path = Vec::new();
        let mut cur = *tip;
        while cur != self.genesis {
            path.push(cur);
            cur = self.blocks[&cur].block.header.prev;
        }
        path.reverse();
        let mut state = ChainState::default();
        for (acct, amount) in &self.premine {
            *state.balances.entry(*acct).or_insert(0) += amount;
        }
        for h in path {
            state
                .apply_block(&self.blocks[&h].block, h, &self.params)
                .expect("stored blocks were validated on acceptance");
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::mine_block;
    use agora_crypto::{sha256, SimKeyPair};
    use agora_sim::SimRng;

    fn keys(name: &str) -> SimKeyPair {
        SimKeyPair::from_seed(name.as_bytes())
    }

    fn test_ledger() -> (Ledger, SimKeyPair) {
        let alice = keys("alice");
        let ledger = Ledger::new("test", ChainParams::test(), &[(alice.public().id(), 1000)]);
        (ledger, alice)
    }

    /// Mine a block of `txs` on top of `parent` and submit it.
    fn extend(
        ledger: &mut Ledger,
        parent: Hash256,
        miner: Hash256,
        txs: Vec<Transaction>,
        time: u64,
        rng: &mut SimRng,
    ) -> Result<Accepted, BlockError> {
        let bits = ledger.next_difficulty(&parent);
        let height = ledger.block(&parent).unwrap().header.height + 1;
        let (block, _hashes) = mine_block(parent, height, miner, txs, time, bits, rng);
        ledger.submit_block(block)
    }

    #[test]
    fn extend_best_chain() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(1);
        let miner = sha256(b"miner");
        let tip = ledger.best_tip();
        let r = extend(&mut ledger, tip, miner, vec![], 1_000_000, &mut rng).unwrap();
        assert_eq!(r, Accepted::ExtendedBest);
        assert_eq!(ledger.best_height(), 1);
        assert_eq!(ledger.state().balance(&miner), ledger.params().block_reward);
    }

    #[test]
    fn transfer_moves_funds_and_pays_fee() {
        let (mut ledger, alice) = test_ledger();
        let mut rng = SimRng::new(2);
        let miner = sha256(b"miner");
        let bob = keys("bob").public().id();
        let tx = Transaction::create(
            &alice,
            0,
            2,
            TxPayload::Transfer {
                to: bob,
                amount: 100,
            },
        );
        let txid = tx.id();
        let tip = ledger.best_tip();
        extend(&mut ledger, tip, miner, vec![tx], 1_000_000, &mut rng).unwrap();
        assert_eq!(ledger.state().balance(&bob), 100);
        assert_eq!(ledger.state().balance(&alice.public().id()), 898);
        assert_eq!(
            ledger.state().balance(&miner),
            ledger.params().block_reward + 2
        );
        assert_eq!(ledger.confirmations(&txid), Some(1));
    }

    #[test]
    fn rejects_bad_nonce_and_overdraft() {
        let (ledger, alice) = test_ledger();
        let bob = keys("bob").public().id();
        let bad_nonce =
            Transaction::create(&alice, 5, 1, TxPayload::Transfer { to: bob, amount: 1 });
        assert_eq!(
            ledger.state().validate_tx(&bad_nonce, ledger.params()),
            Err(TxError::BadNonce {
                expected: 0,
                got: 5
            })
        );
        let overdraft = Transaction::create(
            &alice,
            0,
            1,
            TxPayload::Transfer {
                to: bob,
                amount: 10_000,
            },
        );
        assert_eq!(
            ledger.state().validate_tx(&overdraft, ledger.params()),
            Err(TxError::InsufficientFunds)
        );
    }

    #[test]
    fn rejects_oversized_payload() {
        let (ledger, alice) = test_ledger();
        let huge = Transaction::create(
            &alice,
            0,
            1,
            TxPayload::App {
                tag: 1,
                data: vec![0; ledger.params().max_payload_bytes + 1],
            },
        );
        assert_eq!(
            ledger.state().validate_tx(&huge, ledger.params()),
            Err(TxError::PayloadTooBig)
        );
    }

    #[test]
    fn orphan_then_connect() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(3);
        let miner = sha256(b"miner");
        let tip = ledger.best_tip();
        // Mine two blocks privately, submit child first.
        let bits = ledger.next_difficulty(&tip);
        let (b1, _) = mine_block(tip, 1, miner, vec![], 1_000_000, bits, &mut rng);
        let (b2, _) = mine_block(b1.hash(), 2, miner, vec![], 2_000_000, bits, &mut rng);
        assert_eq!(ledger.submit_block(b2), Err(BlockError::UnknownParent));
        assert_eq!(ledger.submit_block(b1), Ok(Accepted::ExtendedBest));
        // b2 was un-orphaned automatically.
        assert_eq!(ledger.best_height(), 2);
    }

    #[test]
    fn reorg_adopts_heavier_branch() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(4);
        let honest = sha256(b"honest");
        let attacker = sha256(b"attacker");
        let genesis = ledger.best_tip();
        // Honest chain: 1 block.
        extend(&mut ledger, genesis, honest, vec![], 1_000_000, &mut rng).unwrap();
        assert_eq!(ledger.best_height(), 1);
        let honest_tip = ledger.best_tip();
        // Attacker branch from genesis: 2 blocks → heavier.
        let bits = ledger.next_difficulty(&genesis);
        let (a1, _) = mine_block(genesis, 1, attacker, vec![], 1_500_000, bits, &mut rng);
        let a1h = a1.hash();
        assert_eq!(ledger.submit_block(a1), Ok(Accepted::SideBranch));
        let bits2 = ledger.next_difficulty(&a1h);
        let (a2, _) = mine_block(a1h, 2, attacker, vec![], 2_000_000, bits2, &mut rng);
        match ledger.submit_block(a2) {
            Ok(Accepted::Reorg { depth }) => assert_eq!(depth, 1),
            other => panic!("expected reorg, got {other:?}"),
        }
        assert_eq!(ledger.best_height(), 2);
        assert_ne!(ledger.best_tip(), honest_tip);
        // Honest miner's reward was reorged away.
        assert_eq!(ledger.state().balance(&honest), 0);
        assert_eq!(
            ledger.state().balance(&attacker),
            2 * ledger.params().block_reward
        );
    }

    #[test]
    fn duplicate_rejected() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(5);
        let tip = ledger.best_tip();
        let bits = ledger.next_difficulty(&tip);
        let (b, _) = mine_block(tip, 1, sha256(b"m"), vec![], 1, bits, &mut rng);
        ledger.submit_block(b.clone()).unwrap();
        assert_eq!(ledger.submit_block(b), Err(BlockError::Duplicate));
    }

    #[test]
    fn wrong_difficulty_rejected() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(6);
        let tip = ledger.best_tip();
        let required = ledger.next_difficulty(&tip);
        let (b, _) = mine_block(tip, 1, sha256(b"m"), vec![], 1, required + 1, &mut rng);
        assert!(matches!(
            ledger.submit_block(b),
            Err(BlockError::WrongDifficulty { .. })
        ));
    }

    #[test]
    fn a_header_short_of_its_declared_work_is_bad_pow() {
        // The declared difficulty is the required one, only the nonce is
        // wrong: the one check left is the header hash's leading zeros.
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(8);
        let tip = ledger.best_tip();
        let bits = ledger.next_difficulty(&tip);
        assert!(bits > 0);
        let (mut b, _) = mine_block(tip, 1, sha256(b"m"), vec![], 1, bits, &mut rng);
        while b.header.meets_difficulty() {
            b.header.nonce = b.header.nonce.wrapping_add(1);
        }
        assert_eq!(ledger.submit_block(b), Err(BlockError::BadPow));
        assert_eq!(ledger.best_tip(), tip);
    }

    #[test]
    fn timestamp_must_not_go_backwards() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(7);
        let miner = sha256(b"m");
        let tip = ledger.best_tip();
        extend(&mut ledger, tip, miner, vec![], 5_000_000, &mut rng).unwrap();
        let tip2 = ledger.best_tip();
        let bits = ledger.next_difficulty(&tip2);
        let (b, _) = mine_block(tip2, 2, miner, vec![], 4_000_000, bits, &mut rng);
        assert_eq!(ledger.submit_block(b), Err(BlockError::BadTimestamp));
    }

    #[test]
    fn app_txs_in_order_and_ledger_grows() {
        let (mut ledger, alice) = test_ledger();
        let mut rng = SimRng::new(8);
        let miner = sha256(b"m");
        let before = ledger.total_ledger_bytes;
        for i in 0..3u64 {
            let tx = Transaction::create(
                &alice,
                i,
                1,
                TxPayload::App {
                    tag: 7,
                    data: vec![i as u8],
                },
            );
            let tip = ledger.best_tip();
            extend(
                &mut ledger,
                tip,
                miner,
                vec![tx],
                (i + 1) * 1_000_000,
                &mut rng,
            )
            .unwrap();
        }
        let app = ledger.app_txs(7);
        assert_eq!(app.len(), 3);
        assert_eq!(app[0].0, 1);
        assert_eq!(app[2].0, 3);
        assert!(ledger.app_txs(99).is_empty());
        assert!(ledger.total_ledger_bytes > before);
        assert!(ledger.main_chain_bytes() <= ledger.total_ledger_bytes);
    }

    #[test]
    fn retarget_raises_difficulty_when_blocks_too_fast() {
        let (mut ledger, _alice) = test_ledger();
        let mut rng = SimRng::new(9);
        let miner = sha256(b"m");
        // Mine a full retarget window with near-zero spacing (far faster than
        // the 1 s target of ChainParams::test()).
        let window = ledger.params().retarget_window;
        let initial = ledger.params().initial_difficulty_bits;
        // Two full windows so a retarget boundary (child_height % window == 0
        // with child_height > window) is actually crossed.
        for i in 1..=2 * window {
            let tip = ledger.best_tip();
            extend(&mut ledger, tip, miner, vec![], i * 10, &mut rng).unwrap();
        }
        let next = ledger.next_difficulty(&ledger.best_tip());
        assert!(
            next > initial,
            "difficulty should rise: {next} vs {initial}"
        );
        assert!(next <= initial + 2, "clamped to +2 per retarget");
    }

    #[test]
    fn confirmation_depth() {
        let (mut ledger, alice) = test_ledger();
        let mut rng = SimRng::new(10);
        let miner = sha256(b"m");
        let bob = keys("bob").public().id();
        let tx = Transaction::create(&alice, 0, 1, TxPayload::Transfer { to: bob, amount: 1 });
        let txid = tx.id();
        let tip = ledger.best_tip();
        extend(&mut ledger, tip, miner, vec![tx], 1_000_000, &mut rng).unwrap();
        assert!(!ledger.is_confirmed(&txid), "needs depth 2 in test params");
        let tip = ledger.best_tip();
        extend(&mut ledger, tip, miner, vec![], 2_000_000, &mut rng).unwrap();
        assert!(ledger.is_confirmed(&txid));
        assert_eq!(ledger.confirmations(&sha256(b"unknown")), None);
    }
}
