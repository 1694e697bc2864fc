//! The composed democratized stack: identity on the chain, zone files in
//! the DHT, content in the swarm — the §3 subsystems working *together*.
//!
//! Composition is at the artifact level: each subsystem runs in its own
//! deterministic simulation and the cryptographic artifacts (ledger, zone
//! files, signed site manifests) flow between them, exactly as a Blockstack-
//! style deployment separates its layers. Every hand-off is verified — the
//! zone file must hash to the on-chain commitment, and the fetched site must
//! be signed by the key the zone file names.

use agora_chain::{ChainNode, ChainParams, MinerConfig};
use agora_crypto::{sha256, Hash256, SimKeyPair};
use agora_dht::{DhtNode, DhtResult};
use agora_naming::{NameDb, NameOp, NamingRules, ZoneFile};
use agora_sim::{DeviceClass, SimDuration, Simulation};
use agora_web::{SitePublisher, SwarmNode, VisitResult};

/// Errors from the full-stack scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackError {
    /// The name never confirmed on the chain.
    NameNotConfirmed,
    /// The zone file could not be fetched from the DHT.
    ZoneFetchFailed,
    /// Fetched zone file does not hash to the on-chain commitment.
    ZoneHashMismatch,
    /// The zone file was undecodable.
    ZoneCorrupt,
    /// The site could not be fetched from the swarm.
    SiteFetchFailed,
    /// The fetched site is not signed by the zone file's key.
    SiteKeyMismatch,
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
impl std::error::Error for StackError {}

/// Outcome of the end-to-end scenario.
#[derive(Clone, Debug)]
pub struct FullStackOutcome {
    /// The human-meaningful name registered and resolved.
    pub name: String,
    /// The owning account on-chain.
    pub resolved_owner: Hash256,
    /// Chain height at resolution time.
    pub chain_height: u64,
    /// DHT replicas holding the zone file.
    pub zone_replicas: usize,
    /// Site version fetched from the swarm.
    pub site_version: u64,
    /// Site bytes transferred.
    pub site_bytes: u64,
}

/// Run the full democratized stack end-to-end:
///
/// 1. Alice publishes a site (signed, key-addressed) — `agora-web`.
/// 2. She writes a zone file naming her key and the site address.
/// 3. She preorders + registers `name` on the chain, committing to the zone
///    file hash — `agora-chain` + `agora-naming`.
/// 4. The zone file is stored in the DHT under its hash — `agora-dht`.
/// 5. Bob resolves: chain → zone hash → DHT → zone file → site address →
///    swarm → verified site.
pub fn demo_full_stack(seed: u64, name: &str) -> Result<FullStackOutcome, StackError> {
    // -- 1. the site ---------------------------------------------------------
    let alice = SimKeyPair::from_seed(b"alice-stack");
    let mut publisher = SitePublisher::new(b"alice-stack");
    let bundle = publisher.publish(&[
        ("index.html", b"<h1>alice, feudal-lord-free</h1>".as_slice()),
        ("style.css", b"h1 { color: teal }".as_slice()),
    ]);
    let site_id = publisher.site_id();
    debug_assert_eq!(site_id, alice.public().id(), "same seed, same key");

    // -- 2. the zone file -----------------------------------------------------
    let zone = ZoneFile {
        name: name.to_owned(),
        public_key: alice.public().id(),
        endpoints: vec![format!("site={}", site_id.to_hex())],
    };
    let zone_hash = zone.hash();

    // -- 3. chain registration -------------------------------------------------
    let params = ChainParams {
        target_block_interval: SimDuration::from_secs(10),
        initial_difficulty_bits: 8,
        confirmation_depth: 3,
        ..ChainParams::default()
    };
    let premine = vec![(alice.public().id(), 10_000)];
    let mut chain_sim: Simulation<ChainNode> = Simulation::new(seed);
    let chain_ids = ChainNode::mesh(&mut chain_sim, 3, "stack", &params, &premine, |i| {
        (i == 0).then(|| MinerConfig {
            account: sha256(b"stack-miner"),
            hashrate: 256.0 / 10.0,
        })
    });
    chain_sim.run_for(SimDuration::from_secs(30));

    let salt = seed;
    let pre = NameOp::Preorder {
        commitment: NameOp::commitment(name, salt, &alice.public().id()),
    }
    .into_tx(&alice, 0, 1);
    chain_sim.with_ctx(chain_ids[1], |n, ctx| n.submit_tx(ctx, pre));
    chain_sim.run_for(SimDuration::from_secs(60));
    let reg = NameOp::Register {
        name: name.to_owned(),
        salt,
        zone_hash,
    }
    .into_tx(&alice, 1, 1);
    let reg_id = reg.id();
    chain_sim.with_ctx(chain_ids[1], |n, ctx| n.submit_tx(ctx, reg));
    let deadline = chain_sim.now() + SimDuration::from_mins(20);
    while !chain_sim.node(chain_ids[2]).ledger().is_confirmed(&reg_id) {
        if chain_sim.now() >= deadline {
            return Err(StackError::NameNotConfirmed);
        }
        chain_sim.run_for(SimDuration::from_secs(30));
    }

    // -- 4. zone file into the DHT ----------------------------------------------
    let mut dht_sim: Simulation<DhtNode> = Simulation::new(seed + 1);
    let (_, dht_ids) =
        DhtNode::overlay(&mut dht_sim, 12, |i| sha256(format!("dht-{i}").as_bytes()));
    dht_sim.run_for(SimDuration::from_secs(30));
    let put_op = dht_sim
        .with_ctx(dht_ids[1], |n, ctx| {
            n.start_put(ctx, zone_hash, zone.encode())
        })
        .expect("node up");
    dht_sim.run_for(SimDuration::from_secs(30));
    let zone_replicas = match dht_sim.node_mut(dht_ids[1]).take_result(put_op) {
        Some(DhtResult::Stored { replicas }) => replicas,
        _ => return Err(StackError::ZoneFetchFailed),
    };

    // -- 5. Bob resolves -----------------------------------------------------------
    // Chain → name record.
    let ledger = chain_sim.node(chain_ids[2]).ledger();
    let rules = NamingRules {
        min_preorder_age: 1,
        ..NamingRules::default()
    };
    let db = NameDb::from_ledger(ledger, &rules);
    let height = ledger.best_height();
    let record = db
        .resolve(name, height)
        .ok_or(StackError::NameNotConfirmed)?;

    // DHT → zone file (verified against the on-chain hash).
    let get_op = dht_sim
        .with_ctx(dht_ids[7], |n, ctx| n.start_get(ctx, record.zone_hash))
        .expect("node up");
    dht_sim.run_for(SimDuration::from_secs(30));
    let zone_bytes = match dht_sim.node_mut(dht_ids[7]).take_result(get_op) {
        Some(DhtResult::Found { data, .. }) => data,
        _ => return Err(StackError::ZoneFetchFailed),
    };
    if sha256(&zone_bytes) != record.zone_hash {
        return Err(StackError::ZoneHashMismatch);
    }
    let fetched_zone = ZoneFile::decode(&zone_bytes).map_err(|_| StackError::ZoneCorrupt)?;

    // Zone → site address → swarm fetch.
    let site_hex = fetched_zone
        .endpoints
        .iter()
        .find_map(|e| e.strip_prefix("site="))
        .ok_or(StackError::ZoneCorrupt)?;
    let mut site_key = [0u8; 32];
    for (i, byte) in site_key.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&site_hex[2 * i..2 * i + 2], 16)
            .map_err(|_| StackError::ZoneCorrupt)?;
    }
    let site_addr = Hash256(site_key);

    let mut swarm_sim: Simulation<SwarmNode> = Simulation::new(seed + 2);
    let tracker = swarm_sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
    let origin = swarm_sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer);
    let bob = swarm_sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer);
    swarm_sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle));
    swarm_sim.run_for(SimDuration::from_secs(2));
    let visit = swarm_sim
        .with_ctx(bob, |n, ctx| n.start_visit(ctx, site_addr))
        .expect("bob up");
    swarm_sim.run_for(SimDuration::from_mins(3));
    let (site_version, site_bytes) = match swarm_sim.node_mut(bob).take_result(visit) {
        Some(VisitResult::Ok { version, bytes }) => (version, bytes),
        _ => return Err(StackError::SiteFetchFailed),
    };
    // The site address IS the publisher key fingerprint, and the swarm
    // verified the manifest signature against it; confirm the zone file
    // named the same key.
    if fetched_zone.public_key != site_addr {
        return Err(StackError::SiteKeyMismatch);
    }

    Ok(FullStackOutcome {
        name: name.to_owned(),
        resolved_owner: record.owner,
        chain_height: height,
        zone_replicas,
        site_version,
        site_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_end_to_end() {
        let out = demo_full_stack(71, "alice.agora").expect("stack works");
        assert_eq!(out.name, "alice.agora");
        assert_eq!(
            out.resolved_owner,
            SimKeyPair::from_seed(b"alice-stack").public().id()
        );
        assert!(out.zone_replicas >= 2);
        assert_eq!(out.site_version, 1);
        assert!(out.site_bytes > 30);
        assert!(out.chain_height >= 3);
    }

    #[test]
    fn full_stack_is_deterministic() {
        let a = demo_full_stack(72, "bob.agora").expect("ok");
        let b = demo_full_stack(72, "bob.agora").expect("ok");
        assert_eq!(a.chain_height, b.chain_height);
        assert_eq!(a.zone_replicas, b.zone_replicas);
        assert_eq!(a.site_bytes, b.site_bytes);
    }
}
