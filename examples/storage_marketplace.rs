//! Scenario: a Sia/Filecoin-style storage marketplace — contracts anchored
//! on the chain, sealed replicas, spacetime audits, settlement and slashing.
//!
//! Run with: `cargo run --release --example storage_marketplace`

use agora::chain::{ChainParams, Ledger, Transaction, TxPayload, APP_STORAGE};
use agora::crypto::{sha256, SimKeyPair};
use agora::sim::SimRng;
use agora::storage::{
    seal, sealed_commitment, Manifest, PosChallenge, PosResponse, ProofScheme, SealParams,
    SpacetimeRecord, StorageContract, TokenBank,
};

fn main() {
    let mut rng = SimRng::new(99);
    let client_keys = SimKeyPair::from_seed(b"marketplace-client");
    let client = client_keys.public().id();
    let provider = sha256(b"marketplace-provider");

    println!("— agora storage marketplace —\n");

    // The client's file, sealed by the provider into a unique replica.
    let file: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let params = SealParams::default();
    let replica_id = sha256(b"deal-1-replica-1");
    let sealed = seal(&file, &replica_id);
    let commitment = sealed_commitment(&sealed, &params);
    println!(
        "sealed replica: {} bytes, commitment {}",
        sealed.len(),
        commitment.object_id.short()
    );

    // The contract, anchored on-chain as an application payload.
    let contract = StorageContract {
        client,
        provider,
        object: commitment.object_id,
        size_bytes: file.len() as u64,
        price_per_window: 3,
        windows: 12,
        collateral: 50,
        proof: ProofScheme::ProofOfReplication,
    };
    let ledger = Ledger::new("marketplace", ChainParams::test(), &[(client, 1_000)]);
    let anchor_tx = Transaction::create(
        &client_keys,
        0,
        1,
        TxPayload::App {
            tag: APP_STORAGE,
            data: contract.encode(),
        },
    );
    println!(
        "contract {} anchored (tx {}, {} bytes on-chain)",
        contract.id().short(),
        anchor_tx.id().short(),
        anchor_tx.wire_size()
    );
    // (A real deployment mines it into a block; the encoding is what matters
    // here — decode proves the chain carries everything needed.)
    let decoded = StorageContract::decode(&contract.encode()).expect("decodes");
    assert_eq!(decoded, contract);
    let _ = &ledger;

    // Twelve audit windows: the provider answers sealed challenges; we make
    // it miss two windows (simulated outage).
    let (_, sealed_chunks) = Manifest::build(&sealed, params.sealed_chunk_size);
    let mut record = SpacetimeRecord::default();
    for window in 0..contract.windows {
        let offline = window == 5 || window == 9;
        if offline {
            record.record(false);
            continue;
        }
        let idx = rng.below(commitment.chunk_count() as u64) as u32;
        let ch = PosChallenge::new(&commitment, idx, rng.next_u64());
        let resp = PosResponse::build(&ch, &commitment, sealed_chunks[idx as usize].clone())
            .expect("chunk held");
        record.record(resp.verify(&ch));
    }
    println!(
        "audits: {}/{} windows passed ({:.0}% uptime)",
        (record.uptime_fraction() * record.window_count() as f64).round(),
        record.window_count(),
        record.uptime_fraction() * 100.0
    );

    // Settlement: earnings per passed window; collateral slashed if the
    // record breaches the grace allowance.
    let mut bank = TokenBank::new();
    let (earned, slashed) = contract.settle(&record, 1, &mut bank);
    println!("\nsettlement (grace = 1 missed window):");
    println!("  provider earned  : {earned} tokens");
    println!("  collateral slashed: {slashed} tokens (2 misses > grace)");
    println!("  provider net     : {}", bank.balance(&provider));
    println!("  client net       : {}", bank.balance(&client));
    assert_eq!(bank.total(), 0, "closed system");
    println!("\nIncentives make selfish nodes store other people's bytes (§3.3).");
}
