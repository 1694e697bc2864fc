//! A full node as a simulated protocol: block/tx gossip, mempool, mining.
//!
//! Every node carries its own [`Ledger`] replica; convergence happens through
//! flooding of blocks and transactions. Miners model hash power by sampling
//! exponential block-discovery times (scaled by difficulty and their
//! configured hashrate) and then *really* grinding a valid block when the
//! timer fires, so all validation stays honest.

use std::collections::BTreeMap;

use agora_crypto::Hash256;
use agora_sim::{Ctx, DeviceClass, FastSet, NodeId, Protocol, Simulation};

use crate::block::Block;
use crate::ledger::{Accepted, BlockError, Ledger};
use crate::mining::{mine_block, sample_mining_time};
use crate::params::ChainParams;
use crate::tx::Transaction;

/// Wire messages of the chain protocol.
#[derive(Clone, Debug)]
pub enum ChainMsg {
    /// A full block (flooded).
    BlockMsg(Box<Block>),
    /// Request for a block by hash (used to fetch orphan parents).
    GetBlock(Hash256),
    /// A transaction (flooded).
    TxMsg(Box<Transaction>),
}

impl ChainMsg {
    fn wire_size(&self) -> u64 {
        match self {
            ChainMsg::BlockMsg(b) => b.wire_size(),
            ChainMsg::GetBlock(_) => 33,
            ChainMsg::TxMsg(t) => t.wire_size(),
        }
    }
}

/// Mining configuration for a node.
#[derive(Clone, Debug)]
pub struct MinerConfig {
    /// Account credited with rewards.
    pub account: Hash256,
    /// Simulated hash rate (hashes per simulated second).
    pub hashrate: f64,
}

/// A chain full node (optionally mining).
pub struct ChainNode {
    ledger: Ledger,
    peers: Vec<NodeId>,
    mempool: BTreeMap<Hash256, Transaction>,
    seen_txs: FastSet<Hash256>,
    miner: Option<MinerConfig>,
    mining_epoch: u64,
}

impl ChainNode {
    /// Create a node with its own ledger replica.
    pub fn new(
        chain_tag: &str,
        params: ChainParams,
        premine: &[(Hash256, u64)],
        miner: Option<MinerConfig>,
    ) -> ChainNode {
        ChainNode {
            ledger: Ledger::new(chain_tag, params, premine),
            peers: Vec::new(),
            mempool: BTreeMap::new(),
            seen_txs: FastSet::default(),
            miner,
            mining_epoch: 0,
        }
    }

    /// A full mesh of `n` data-center nodes on one chain, miner `i` set by
    /// `miner(i)`; every node's peers are all `n` ids, itself included.
    /// Returns the ids, which start at `sim`'s next id.
    pub fn mesh(
        sim: &mut Simulation<ChainNode>,
        n: usize,
        chain_tag: &str,
        params: &ChainParams,
        premine: &[(Hash256, u64)],
        mut miner: impl FnMut(usize) -> Option<MinerConfig>,
    ) -> Vec<NodeId> {
        let first = sim.node_count() as u32;
        let ids: Vec<NodeId> = (first..first + n as u32).map(NodeId).collect();
        for i in 0..n {
            let mut node = ChainNode::new(chain_tag, params.clone(), premine, miner(i));
            node.set_peers(ids.clone());
            sim.add_node(node, DeviceClass::DatacenterServer);
        }
        ids
    }

    /// Set the gossip peer list.
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        self.peers = peers;
    }

    /// This node's ledger replica.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Submit a locally-created transaction: validate, pool, flood.
    /// Returns false if it failed stateless/stateful validation.
    pub fn submit_tx(&mut self, ctx: &mut Ctx<'_, ChainMsg>, tx: Transaction) -> bool {
        // Future nonces are admissible: they queue in the mempool until the
        // account's earlier transactions confirm (template building applies
        // them in nonce order).
        match self.ledger.state().validate_tx(&tx, self.ledger.params()) {
            Ok(()) => {}
            Err(crate::ledger::TxError::BadNonce { expected, got }) if got > expected => {}
            Err(_) => return false,
        }
        let id = tx.id();
        if !self.seen_txs.insert(id) {
            return false;
        }
        self.mempool.insert(id, tx.clone());
        self.flood(ctx, ChainMsg::TxMsg(Box::new(tx)));
        true
    }

    fn flood(&self, ctx: &mut Ctx<'_, ChainMsg>, msg: ChainMsg) {
        let size = msg.wire_size();
        for &p in &self.peers {
            if p != ctx.id() {
                ctx.send(p, msg.clone(), size);
            }
        }
    }

    /// (Re)start the mining clock for the current tip.
    fn schedule_mining(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let Some(miner) = &self.miner else { return };
        self.mining_epoch += 1;
        let bits = self.ledger.next_difficulty(&self.ledger.best_tip());
        let delay = sample_mining_time(bits, miner.hashrate, ctx.rng());
        ctx.set_timer(delay, self.mining_epoch);
    }

    /// Pull a valid transaction set from the mempool, highest fee first
    /// (the fee market: this is what makes front-running priority *buyable*
    /// on chains without preorders — experiment E2). Repeated passes let
    /// lower-fee transactions whose nonces depend on higher-fee ones still
    /// enter the same block.
    fn block_template(&self) -> Vec<Transaction> {
        let mut state = self.ledger.state().clone();
        let mut candidates: Vec<&Transaction> = self.mempool.values().collect();
        // Fee descending; txid as a deterministic tiebreak.
        candidates.sort_by(|a, b| b.fee.cmp(&a.fee).then(a.id().cmp(&b.id())));
        let mut txs = Vec::new();
        let mut included = vec![false; candidates.len()];
        loop {
            let mut progressed = false;
            for (i, tx) in candidates.iter().enumerate() {
                if included[i] || txs.len() >= self.ledger.params().max_block_txs {
                    continue;
                }
                if state.validate_tx(tx, self.ledger.params()).is_ok() {
                    state.apply_tx_for_template(tx);
                    txs.push((*tx).clone());
                    included[i] = true;
                    progressed = true;
                }
            }
            if !progressed || txs.len() >= self.ledger.params().max_block_txs {
                break;
            }
        }
        txs
    }

    fn accept_block(&mut self, ctx: &mut Ctx<'_, ChainMsg>, block: Block, from: Option<NodeId>) {
        let hash = block.hash();
        if self.ledger.contains(&hash) {
            return;
        }
        let prev = block.header.prev;
        match self.ledger.submit_hashed(block.clone(), hash) {
            Ok(accepted) => {
                ctx.metrics().incr("chain.blocks_accepted", 1);
                if let Accepted::Reorg { depth } = accepted {
                    ctx.metrics().incr("chain.reorgs", 1);
                    ctx.metrics().sample("chain.reorg_depth", depth as f64);
                }
                // Drop included txs from the mempool.
                for tx in &block.txs {
                    self.mempool.remove(&tx.id());
                }
                self.flood(ctx, ChainMsg::BlockMsg(Box::new(block)));
                // Tip (possibly) moved: restart mining.
                self.schedule_mining(ctx);
            }
            Err(BlockError::UnknownParent) => {
                ctx.metrics().incr("chain.orphans", 1);
                if let Some(from) = from {
                    ctx.send(from, ChainMsg::GetBlock(prev), 33);
                }
            }
            Err(_) => {
                ctx.metrics().incr("chain.blocks_rejected", 1);
            }
        }
    }
}

impl Protocol for ChainNode {
    type Msg = ChainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        self.schedule_mining(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ChainMsg>, from: NodeId, msg: ChainMsg) {
        match msg {
            ChainMsg::BlockMsg(block) => self.accept_block(ctx, *block, Some(from)),
            ChainMsg::GetBlock(hash) => {
                if let Some(block) = self.ledger.block(&hash) {
                    let msg = ChainMsg::BlockMsg(Box::new(block.clone()));
                    let size = msg.wire_size();
                    ctx.send(from, msg, size);
                }
            }
            ChainMsg::TxMsg(tx) => {
                let id = tx.id();
                if self.seen_txs.insert(id) && tx.verify_signature() {
                    self.mempool.insert(id, *tx.clone());
                    self.flood(ctx, ChainMsg::TxMsg(tx));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ChainMsg>, tag: u64) {
        // Stale mining epoch ⇒ tip changed since this timer was armed.
        if tag != self.mining_epoch {
            return;
        }
        let Some(miner) = self.miner.clone() else {
            return;
        };
        let parent = self.ledger.best_tip();
        let height = self.ledger.best_height() + 1;
        let bits = self.ledger.next_difficulty(&parent);
        let txs = self.block_template();
        let (block, hashes) = mine_block(
            parent,
            height,
            miner.account,
            txs,
            ctx.now().micros(),
            bits,
            ctx.rng(),
        );
        ctx.metrics().incr("chain.hashes_ground", hashes);
        ctx.metrics().incr("chain.blocks_mined", 1);
        ctx.metrics()
            .incr("chain.energy_proxy_hashes", 2u64.saturating_pow(bits));
        self.accept_block(ctx, block, None);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        // After an outage, ask peers for their tip's ancestry by re-flooding
        // our tip; peers respond with anything we're missing via orphan
        // fetch. Simplest robust resync: request nothing, restart mining —
        // incoming blocks will resync us (flooding is continuous).
        self.schedule_mining(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TxPayload;
    use agora_crypto::{sha256, SimKeyPair};
    use agora_sim::SimDuration;

    fn build_net(
        n_nodes: usize,
        n_miners: usize,
        premine: &[(Hash256, u64)],
        seed: u64,
    ) -> (Simulation<ChainNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let ids = ChainNode::mesh(
            &mut sim,
            n_nodes,
            "test",
            &ChainParams::test(),
            premine,
            |i| {
                (i < n_miners).then(|| MinerConfig {
                    account: sha256(format!("miner-{i}").as_bytes()),
                    hashrate: 64.0, // ~2^4/64 = 0.25 s per block at 4 bits
                })
            },
        );
        (sim, ids)
    }

    #[test]
    fn single_miner_grows_chain() {
        let (mut sim, ids) = build_net(3, 1, &[], 42);
        sim.run_for(SimDuration::from_secs(30));
        let h0 = sim.node(ids[0]).ledger().best_height();
        assert!(h0 >= 3, "miner should have produced blocks, got {h0}");
        // All replicas converge to the same tip.
        let tip = sim.node(ids[0]).ledger().best_tip();
        for &id in &ids[1..] {
            assert_eq!(sim.node(id).ledger().best_tip(), tip);
        }
    }

    #[test]
    fn competing_miners_converge() {
        let (mut sim, ids) = build_net(4, 2, &[], 43);
        sim.run_for(SimDuration::from_secs(60));
        let tip = sim.node(ids[0]).ledger().best_tip();
        for &id in &ids[1..] {
            assert_eq!(sim.node(id).ledger().best_tip(), tip, "replicas diverged");
        }
        assert!(sim.node(ids[0]).ledger().best_height() >= 5);
    }

    #[test]
    fn transaction_reaches_confirmation() {
        let alice = SimKeyPair::from_seed(b"alice");
        let bob = SimKeyPair::from_seed(b"bob").public().id();
        let premine = vec![(alice.public().id(), 1000)];
        let (mut sim, ids) = build_net(3, 1, &premine, 44);
        sim.run_for(SimDuration::from_secs(2));
        let tx = Transaction::create(
            &alice,
            0,
            1,
            TxPayload::Transfer {
                to: bob,
                amount: 10,
            },
        );
        let txid = tx.id();
        // Submit at a non-miner node.
        let ok = sim
            .with_ctx(ids[2], |node, ctx| node.submit_tx(ctx, tx))
            .unwrap();
        assert!(ok);
        sim.run_for(SimDuration::from_secs(30));
        let node0 = sim.node(ids[0]);
        assert!(
            node0.ledger().is_confirmed(&txid),
            "tx should confirm; height={} conf={:?}",
            node0.ledger().best_height(),
            node0.ledger().confirmations(&txid)
        );
        assert_eq!(node0.ledger().state().balance(&bob), 10);
    }

    #[test]
    fn invalid_tx_rejected_at_submission() {
        let alice = SimKeyPair::from_seed(b"alice");
        let bob = SimKeyPair::from_seed(b"bob").public().id();
        let (mut sim, ids) = build_net(2, 1, &[], 45); // no premine ⇒ no funds
        sim.run_for(SimDuration::from_secs(1));
        let tx = Transaction::create(
            &alice,
            0,
            1,
            TxPayload::Transfer {
                to: bob,
                amount: 10,
            },
        );
        let ok = sim
            .with_ctx(ids[1], |node, ctx| node.submit_tx(ctx, tx))
            .unwrap();
        assert!(!ok);
    }

    #[test]
    fn node_recovers_after_outage() {
        let (mut sim, ids) = build_net(3, 1, &[], 46);
        sim.run_for(SimDuration::from_secs(10));
        sim.kill(ids[2]);
        sim.run_for(SimDuration::from_secs(20));
        sim.revive(ids[2]);
        sim.run_for(SimDuration::from_secs(30));
        // The revived node catches up through continuing block floods plus
        // orphan-parent fetches.
        let tip = sim.node(ids[0]).ledger().best_tip();
        assert_eq!(sim.node(ids[2]).ledger().best_tip(), tip);
    }

    #[test]
    fn higher_fees_win_scarce_block_space() {
        // Block space of 2 txs; three independent senders bid different
        // fees; the template takes the two highest.
        let users: Vec<SimKeyPair> = (0..3)
            .map(|i| SimKeyPair::from_seed(format!("fee-{i}").as_bytes()))
            .collect();
        let premine: Vec<(Hash256, u64)> = users.iter().map(|k| (k.public().id(), 1000)).collect();
        let mut params = ChainParams::test();
        params.max_block_txs = 2;
        let mut node = ChainNode::new("fees", params, &premine, None);
        let mut sim: Simulation<ChainNode> = Simulation::new(77);
        // Use a standalone sim node just to get a Ctx for submissions.
        let id = sim.add_node(
            ChainNode::new("fees", ChainParams::test(), &premine, None),
            DeviceClass::DatacenterServer,
        );
        let fees = [1u64, 9, 5];
        for (u, &fee) in users.iter().zip(&fees) {
            let tx = Transaction::create(
                u,
                0,
                fee,
                TxPayload::Transfer {
                    to: sha256(b"sink"),
                    amount: 1,
                },
            );
            // Insert directly into the template-building node's mempool.
            sim.with_ctx(id, |_, ctx| {
                let _ = ctx; // ctx unused; direct mempool insert below
            });
            node.mempool.insert(tx.id(), tx);
        }
        let template = node.block_template();
        assert_eq!(template.len(), 2);
        assert_eq!(template[0].fee, 9);
        assert_eq!(template[1].fee, 5);
    }

    #[test]
    fn nonce_chains_survive_fee_ordering() {
        // One sender with nonces 0..3 at *ascending* fees: fee ordering
        // alone would try nonce 3 first; the multi-pass template must still
        // include all four in nonce order.
        let alice = SimKeyPair::from_seed(b"fee-chain");
        let premine = vec![(alice.public().id(), 1000)];
        let mut node = ChainNode::new("fees2", ChainParams::test(), &premine, None);
        for nonce in 0..4u64 {
            let tx = Transaction::create(
                &alice,
                nonce,
                1 + nonce, // later nonces pay more
                TxPayload::Transfer {
                    to: sha256(b"sink"),
                    amount: 1,
                },
            );
            node.mempool.insert(tx.id(), tx);
        }
        let template = node.block_template();
        assert_eq!(template.len(), 4);
        let nonces: Vec<u64> = template.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, vec![0, 1, 2, 3]);
    }

    #[test]
    fn energy_proxy_accumulates() {
        let (mut sim, _ids) = build_net(2, 1, &[], 47);
        sim.run_for(SimDuration::from_secs(20));
        assert!(sim.metrics().counter("chain.hashes_ground") > 0);
        assert!(sim.metrics().counter("chain.blocks_mined") > 0);
    }

    #[test]
    fn mesh_peers_its_own_ids_on_a_sim_that_holds_nodes() {
        let (mut sim, first) = build_net(2, 0, &[], 48);
        let ids = ChainNode::mesh(&mut sim, 3, "test", &ChainParams::test(), &[], |i| {
            (i == 1).then(|| MinerConfig {
                account: sha256(b"mesh-miner"),
                hashrate: 1.0,
            })
        });
        assert_eq!(ids, [NodeId(2), NodeId(3), NodeId(4)]);
        for &id in &first {
            assert_eq!(sim.node(id).peers, first);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(sim.node(id).peers, ids);
            assert_eq!(sim.node(id).miner.is_some(), i == 1);
        }
    }
}
