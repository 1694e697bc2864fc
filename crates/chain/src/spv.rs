//! Simplified Payment Verification: header-only clients and inclusion proofs.
//!
//! The paper's naming discussion assumes light clients can verify name
//! records without storing the chain; this module provides that: an
//! [`SpvClient`] tracks the header chain (validating continuity and PoW, not
//! transactions), and an [`InclusionProof`] ties a transaction id to a header
//! via the block's Merkle root.

use agora_crypto::{Hash256, MerkleProof};

use crate::block::{Block, BlockHeader};
use crate::ledger::Ledger;

/// Proof that a transaction is included in a specific block.
///
/// The header commits to the Merkle root but to no leaf count, so `index`
/// and `leaf_count` are the prover's word: the proof binds membership, not
/// position. Any `(index, leaf_count)` that walks the same sibling sides
/// verifies too.
#[derive(Clone, Debug)]
pub struct InclusionProof {
    /// The containing block's header.
    pub header: BlockHeader,
    /// The transaction's leaf index (the miner's coinbase leaf is 0).
    pub index: u32,
    /// Leaves in the block's tree: its transactions plus the coinbase.
    pub leaf_count: u32,
    /// Merkle path from the transaction id to the header's root.
    pub merkle: MerkleProof,
}

impl InclusionProof {
    /// Build a proof for `txid` from a full node's ledger.
    /// `None` if the transaction is not on the best chain.
    pub fn build(ledger: &Ledger, txid: &Hash256) -> Option<InclusionProof> {
        // Locate the block containing the tx on the main chain.
        for bh in ledger.main_chain() {
            let block = ledger.block(&bh).expect("main chain block");
            if let Some(pos) = block.txs.iter().position(|t| &t.id() == txid) {
                // Leaves are [miner, tx0, tx1, ...]; see Block::compute_merkle_root.
                let mut leaves = vec![block.miner];
                leaves.extend(block.txs.iter().map(|t| t.id()));
                let tree = agora_crypto::MerkleTree::from_leaf_hashes(leaves);
                return Some(InclusionProof {
                    header: block.header.clone(),
                    index: pos as u32 + 1,
                    leaf_count: tree.len() as u32,
                    merkle: tree.prove(pos + 1).expect("position in range"),
                });
            }
        }
        None
    }

    /// Verify the Merkle linkage (header trust is the [`SpvClient`]'s job).
    pub fn verify(&self, txid: &Hash256) -> bool {
        self.header.meets_difficulty()
            && self.merkle.verify_at(
                *txid,
                self.index as usize,
                self.leaf_count as usize,
                self.header.merkle_root,
            )
    }

    /// Wire size for message accounting: header, position, path.
    pub fn wire_size(&self) -> u64 {
        BlockHeader::WIRE_SIZE + 8 + self.merkle.wire_size()
    }
}

/// A header-only light client.
pub struct SpvClient {
    headers: Vec<BlockHeader>,
}

/// Errors from feeding headers to an [`SpvClient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpvError {
    /// Header does not link to our current tip.
    Discontinuous,
    /// Header hash fails its declared difficulty.
    BadPow,
}

impl SpvClient {
    /// Start from a trusted genesis block.
    pub fn new(genesis: &Block) -> SpvClient {
        SpvClient {
            headers: vec![genesis.header.clone()],
        }
    }

    /// Current best height.
    pub fn height(&self) -> u64 {
        self.headers.len() as u64 - 1
    }

    /// Append the next header (must extend the current tip).
    pub fn add_header(&mut self, header: BlockHeader) -> Result<(), SpvError> {
        let tip = self.headers.last().expect("genesis present");
        if header.prev != tip.hash() || header.height != tip.height + 1 {
            return Err(SpvError::Discontinuous);
        }
        if !header.meets_difficulty() {
            return Err(SpvError::BadPow);
        }
        self.headers.push(header);
        Ok(())
    }

    /// Sync all missing headers from a full node's main chain.
    pub fn sync_from(&mut self, ledger: &Ledger) -> usize {
        let chain = ledger.main_chain();
        let mut added = 0;
        for bh in chain.iter().skip(self.headers.len()) {
            let header = ledger.block(bh).expect("main chain").header.clone();
            if self.add_header(header).is_ok() {
                added += 1;
            } else {
                break;
            }
        }
        added
    }

    /// Verify a transaction inclusion proof against the tracked header chain,
    /// requiring `min_confirmations` headers on top.
    pub fn verify_inclusion(
        &self,
        txid: &Hash256,
        proof: &InclusionProof,
        min_confirmations: u64,
    ) -> bool {
        let h = proof.header.height as usize;
        let Some(known) = self.headers.get(h) else {
            return false;
        };
        if known.hash() != proof.header.hash() {
            return false; // proof is for a block not on our best chain
        }
        if self.height() - proof.header.height + 1 < min_confirmations {
            return false;
        }
        proof.verify(txid)
    }

    /// Total storage the light client needs (bytes of headers), versus a full
    /// node's ledger — the quantitative version of "SPV is cheap".
    pub fn storage_bytes(&self) -> u64 {
        self.headers.len() as u64 * BlockHeader::WIRE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Accepted;
    use crate::mining::mine_block;
    use crate::params::ChainParams;
    use crate::tx::{Transaction, TxPayload};
    use agora_crypto::{sha256, SimKeyPair};
    use agora_sim::SimRng;

    fn build_chain(n_blocks: usize) -> (Ledger, Hash256) {
        let alice = SimKeyPair::from_seed(b"alice");
        let mut ledger = Ledger::new(
            "spv-test",
            ChainParams::test(),
            &[(alice.public().id(), 1000)],
        );
        let mut rng = SimRng::new(7);
        let miner = sha256(b"miner");
        let mut txid = Hash256::ZERO;
        for i in 0..n_blocks {
            let txs = if i == 1 {
                let tx = Transaction::create(
                    &alice,
                    0,
                    1,
                    TxPayload::Transfer {
                        to: sha256(b"bob"),
                        amount: 5,
                    },
                );
                txid = tx.id();
                vec![tx]
            } else {
                vec![]
            };
            let parent = ledger.best_tip();
            let bits = ledger.next_difficulty(&parent);
            let (block, _) = mine_block(
                parent,
                i as u64 + 1,
                miner,
                txs,
                (i as u64 + 1) * 1_000_000,
                bits,
                &mut rng,
            );
            assert_eq!(ledger.submit_block(block).unwrap(), Accepted::ExtendedBest);
        }
        (ledger, txid)
    }

    #[test]
    fn sync_and_verify_inclusion() {
        let (ledger, txid) = build_chain(5);
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        assert_eq!(spv.sync_from(&ledger), 5);
        assert_eq!(spv.height(), 5);
        let proof = InclusionProof::build(&ledger, &txid).expect("tx on chain");
        assert!(spv.verify_inclusion(&txid, &proof, 2));
        // Too-strict confirmation requirement fails.
        assert!(!spv.verify_inclusion(&txid, &proof, 100));
        // Wrong txid fails.
        assert!(!spv.verify_inclusion(&sha256(b"other"), &proof, 1));
        // So does a claimed position whose sibling sides differ: the tx is
        // leaf 1 of [coinbase, tx], and leaf 0 hashes the pair reversed.
        let moved = InclusionProof {
            index: 0,
            ..proof.clone()
        };
        assert!(!spv.verify_inclusion(&txid, &moved, 2));
    }

    #[test]
    fn discontinuous_header_rejected() {
        let (ledger, _) = build_chain(3);
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        // Skip a header: height-2 header against genesis tip.
        let chain = ledger.main_chain();
        let h2 = ledger.block(&chain[2]).unwrap().header.clone();
        assert_eq!(spv.add_header(h2), Err(SpvError::Discontinuous));
    }

    #[test]
    fn fake_pow_header_rejected() {
        let (ledger, _) = build_chain(1);
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        let chain = ledger.main_chain();
        let mut h1 = ledger.block(&chain[1]).unwrap().header.clone();
        h1.nonce = h1.nonce.wrapping_add(1); // almost surely breaks PoW at 4 bits
        if !h1.meets_difficulty() {
            assert_eq!(spv.add_header(h1), Err(SpvError::BadPow));
        }
    }

    #[test]
    fn proof_not_found_for_unknown_tx() {
        let (ledger, _) = build_chain(3);
        assert!(InclusionProof::build(&ledger, &sha256(b"missing")).is_none());
    }

    #[test]
    fn spv_storage_much_smaller_than_ledger() {
        let (ledger, _) = build_chain(10);
        let genesis = ledger.block(&ledger.genesis_hash()).unwrap().clone();
        let mut spv = SpvClient::new(&genesis);
        spv.sync_from(&ledger);
        assert!(spv.storage_bytes() < ledger.main_chain_bytes());
    }
}
