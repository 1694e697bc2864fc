//! Property tests for the chain: ledger invariants under arbitrary valid
//! histories, and order-independence of replica convergence. Always on, 24
//! seeded `SimRng` cases per property (each mines a chain), no registry
//! dependency.

use agora_chain::{mine_block, Accepted, Block, ChainParams, Ledger, Transaction, TxPayload};
use agora_crypto::{sha256, Hash256, SimKeyPair};
use agora_sim::SimRng;

const CASES: u64 = 24;

/// Build a random but *valid* chain of `n` blocks over `n_accounts` premined
/// accounts, with random transfers, returning the blocks in order.
fn build_blocks(
    n: usize,
    n_accounts: usize,
    seed: u64,
) -> (Vec<Block>, Vec<SimKeyPair>, Vec<(Hash256, u64)>) {
    let keys: Vec<SimKeyPair> = (0..n_accounts)
        .map(|i| SimKeyPair::from_seed(format!("prop-{i}").as_bytes()))
        .collect();
    let premine: Vec<(Hash256, u64)> = keys.iter().map(|k| (k.public().id(), 1000)).collect();
    let mut ledger = Ledger::new("prop", ChainParams::test(), &premine);
    let mut rng = SimRng::new(seed);
    let mut nonces = vec![0u64; n_accounts];
    let mut blocks = Vec::new();
    for h in 1..=n as u64 {
        let mut txs = Vec::new();
        let n_txs = rng.below(4);
        for _ in 0..n_txs {
            let s = rng.below_usize(n_accounts);
            let r = rng.below_usize(n_accounts);
            let tx = Transaction::create(
                &keys[s],
                nonces[s],
                1,
                TxPayload::Transfer {
                    to: keys[r].public().id(),
                    amount: 1 + rng.below(5),
                },
            );
            // Only include if it validates sequentially (simple filter).
            let mut probe = ledger.state().clone();
            for t in &txs {
                probe.apply_tx_for_template(t);
            }
            if probe.validate_tx(&tx, ledger.params()).is_ok() {
                nonces[s] += 1;
                txs.push(tx);
            }
        }
        let parent = ledger.best_tip();
        let bits = ledger.next_difficulty(&parent);
        let (block, _) = mine_block(
            parent,
            h,
            sha256(b"prop-miner"),
            txs,
            h * 1_000_000,
            bits,
            &mut rng,
        );
        assert_eq!(
            ledger.submit_block(block.clone()).unwrap(),
            Accepted::ExtendedBest
        );
        blocks.push(block);
    }
    (blocks, keys, premine)
}

/// Token conservation: premine + rewards = total balances, always.
#[test]
fn tokens_conserved() {
    let mut cases = SimRng::new(0x6368_6131);
    for case in 0..CASES {
        let n = cases.range(1, 12) as usize;
        let (blocks, keys, premine) = build_blocks(n, 3, cases.next_u64());
        let mut ledger = Ledger::new("prop", ChainParams::test(), &premine);
        for b in blocks {
            ledger.submit_block(b).unwrap();
        }
        let premined: u64 = premine.iter().map(|(_, v)| v).sum();
        let minted = ledger.best_height() * ledger.params().block_reward;
        let mut total = ledger.state().balance(&sha256(b"prop-miner"));
        for k in &keys {
            total += ledger.state().balance(&k.public().id());
        }
        assert_eq!(total, premined + minted, "case {case}");
    }
}

/// Replica convergence is order-independent: feeding the same blocks in a
/// shuffled order (orphans and all) converges to the same tip/state.
#[test]
fn replicas_converge_regardless_of_order() {
    let mut cases = SimRng::new(0x6368_6132);
    for case in 0..CASES {
        let n = cases.range(2, 10) as usize;
        let (blocks, keys, premine) = build_blocks(n, 3, cases.next_u64());
        let mut in_order = Ledger::new("prop", ChainParams::test(), &premine);
        for b in &blocks {
            in_order.submit_block(b.clone()).unwrap();
        }
        let mut shuffled = blocks.clone();
        cases.shuffle(&mut shuffled);
        let mut out_of_order = Ledger::new("prop", ChainParams::test(), &premine);
        for b in shuffled {
            let _ = out_of_order.submit_block(b); // orphans auto-connect
        }
        assert_eq!(out_of_order.best_tip(), in_order.best_tip(), "case {case}");
        assert_eq!(out_of_order.best_height(), in_order.best_height());
        for k in &keys {
            assert_eq!(
                out_of_order.state().balance(&k.public().id()),
                in_order.state().balance(&k.public().id()),
                "case {case}"
            );
        }
    }
}

/// No balance ever goes "negative" (they're u64 — so the real property is
/// that every historical state transition validated; replaying from scratch
/// cannot underflow or panic).
#[test]
fn replay_never_panics() {
    let mut cases = SimRng::new(0x6368_6133);
    for case in 0..CASES {
        let n = cases.range(1, 10) as usize;
        let (blocks, _, premine) = build_blocks(n, 4, cases.next_u64());
        let mut ledger = Ledger::new("prop", ChainParams::test(), &premine);
        for b in blocks {
            assert!(ledger.submit_block(b).is_ok(), "case {case}");
        }
        assert!(ledger.main_chain_bytes() <= ledger.total_ledger_bytes);
        assert_eq!(ledger.main_chain().len() as u64, ledger.best_height() + 1);
    }
}

/// Tampering with any mined block's contents is always rejected.
#[test]
fn tampered_blocks_rejected() {
    let mut cases = SimRng::new(0x6368_6134);
    for case in 0..CASES {
        let (blocks, _, premine) = build_blocks(3, 2, cases.next_u64());
        let mut ledger = Ledger::new("prop", ChainParams::test(), &premine);
        ledger.submit_block(blocks[0].clone()).unwrap();
        let mut evil = blocks[1].clone();
        let tweak = cases.below(3);
        match tweak {
            0 => evil.miner = sha256(b"thief"), // breaks merkle
            1 => evil.header.height += 1,       // breaks height
            _ => evil.header.time_micros = 0,   // breaks PoW hash
        }
        assert!(
            ledger.submit_block(evil).is_err(),
            "case {case}: tweak {tweak}"
        );
    }
}
