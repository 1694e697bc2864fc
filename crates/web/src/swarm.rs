//! The peer-to-peer site swarm (ZeroNet mechanism class): "web applications
//! are seeded and served by visitors via the BitTorrent protocol".
//!
//! Peers announce the sites they seed to a tracker, visitors discover peers,
//! fetch the signed manifest, pull pieces in parallel from multiple seeders
//! (verifying each piece against the manifest's piece hashes), and — the
//! load-bearing §3.4 property — become seeders of what they visited.

use std::rc::Rc;

use agora_crypto::Hash256;
use agora_sim::{Ctx, FastMap, NodeId, Protocol, SimDuration, SimTime};

use crate::site::{Piece, SealedManifest, SiteBundle};

/// Wire messages.
#[derive(Clone, Debug)]
pub enum SwarmMsg {
    /// Peer → tracker: I can serve this site.
    Announce {
        /// Site address.
        site: Hash256,
    },
    /// Peer → tracker: who serves this site?
    GetPeers {
        /// Site address.
        site: Hash256,
        /// Requester op id.
        req: u64,
    },
    /// Tracker's peer list.
    Peers {
        /// Echoed op id.
        req: u64,
        /// Known seeders (possibly stale).
        peers: Vec<NodeId>,
    },
    /// Fetch the signed manifest.
    GetManifest {
        /// Site address.
        site: Hash256,
        /// Requester op id.
        req: u64,
    },
    /// Manifest response.
    ManifestResp {
        /// Echoed op id.
        req: u64,
        /// The manifest if held: the responder's own sealed copy, shared.
        manifest: Option<Rc<SealedManifest>>,
    },
    /// Fetch one piece.
    GetPiece {
        /// Site address.
        site: Hash256,
        /// Piece index.
        index: u32,
        /// Requester op id.
        req: u64,
    },
    /// Piece response.
    PieceResp {
        /// Echoed op id.
        req: u64,
        /// Piece index.
        index: u32,
        /// The piece if held: the responder's own buffer, shared.
        data: Option<Rc<Piece>>,
    },
    /// Peer → tracker: I no longer serve this site (a policy-managed
    /// seeder standing down after the crowd passes).
    Retire {
        /// Site address.
        site: Hash256,
    },
}

impl SwarmMsg {
    fn wire_size(&self) -> u64 {
        match self {
            SwarmMsg::Announce { .. } | SwarmMsg::Retire { .. } => 40,
            SwarmMsg::GetPeers { .. } | SwarmMsg::GetManifest { .. } => 48,
            SwarmMsg::Peers { peers, .. } => 16 + peers.len() as u64 * 4,
            SwarmMsg::ManifestResp { manifest, .. } => {
                16 + manifest.as_ref().map_or(0, |m| m.wire_size())
            }
            SwarmMsg::GetPiece { .. } => 52,
            SwarmMsg::PieceResp { data, .. } => {
                20 + data.as_ref().map_or(0, |p| p.data().len() as u64)
            }
        }
    }
}

/// Outcome of a site visit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisitResult {
    /// Site fetched and verified; the visitor is now a seeder.
    Ok {
        /// Version fetched.
        version: u64,
        /// Total bytes transferred (content only).
        bytes: u64,
    },
    /// No live seeders / manifest unobtainable / pieces missing.
    Failed,
}

struct LocalSite {
    signed: Rc<SealedManifest>,
    pieces: FastMap<u32, Rc<Piece>>,
}

#[derive(PartialEq)]
enum VisitPhase {
    FindingPeers,
    FetchingManifest,
    FetchingPieces,
}

struct Visit {
    site: Hash256,
    phase: VisitPhase,
    peers: Vec<NodeId>,
    manifest: Option<Rc<SealedManifest>>,
    got: FastMap<u32, Rc<Piece>>,
    ticks: u32,
    /// When the visit was issued — feeds the `web.visit_secs` latency
    /// histogram so experiments report true per-visit tail latency.
    started: SimTime,
}

struct PeerState {
    trackers: Vec<NodeId>,
    sites: FastMap<Hash256, LocalSite>,
    visits: FastMap<u64, Visit>,
    results: FastMap<u64, VisitResult>,
    next_op: u64,
}

enum Role {
    Tracker(FastMap<Hash256, Vec<NodeId>>),
    Peer(Box<PeerState>),
}

/// A swarm participant.
pub struct SwarmNode {
    role: Role,
}

const VISIT_TICK: SimDuration = SimDuration::from_secs(2);
const MAX_VISIT_TICKS: u32 = 90;

impl SwarmNode {
    /// A tracker.
    pub fn tracker() -> SwarmNode {
        SwarmNode {
            role: Role::Tracker(FastMap::default()),
        }
    }

    /// A peer using `tracker` for discovery.
    pub fn peer(tracker: NodeId) -> SwarmNode {
        SwarmNode::peer_with_trackers(vec![tracker])
    }

    /// A peer with redundant trackers: announces to all of them and merges
    /// their peer lists, so discovery survives tracker failures (the
    /// tracker is otherwise §3.4's own single point of failure). A stuck
    /// visit re-requests its current stage every visit tick.
    pub fn peer_with_trackers(trackers: Vec<NodeId>) -> SwarmNode {
        assert!(!trackers.is_empty(), "at least one tracker");
        SwarmNode {
            role: Role::Peer(Box::new(PeerState {
                trackers,
                sites: FastMap::default(),
                visits: FastMap::default(),
                results: FastMap::default(),
                next_op: 0,
            })),
        }
    }

    /// Host (publish or re-publish) a site bundle and announce it.
    /// Rejects bundles whose signature does not verify.
    pub fn host_site(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, bundle: &SiteBundle) -> bool {
        let Role::Peer(p) = &mut self.role else {
            panic!("host_site on tracker")
        };
        let signed = SealedManifest::seal(bundle.signed.clone());
        if !signed.verify() {
            return false;
        }
        let site = signed.manifest.site;
        // From the bytes alone: `Chunk::id` is the publisher's claim, and a
        // piece's digest must come from hashing what it actually holds.
        let pieces = bundle
            .pieces
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, Piece::new(c.data.as_slice())))
            .collect();
        p.sites.insert(site, LocalSite { signed, pieces });
        ctx.multicast(&p.trackers, SwarmMsg::Announce { site }, 40);
        true
    }

    /// Stop seeding `site`: drop the local copy and tell the trackers.
    /// The inverse of the seed-on-visit default — policy-managed pool
    /// seeders call this when the overload passes. Dormant unless called.
    pub fn retire(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, site: Hash256) {
        let Role::Peer(p) = &mut self.role else {
            panic!("retire on tracker")
        };
        if p.sites.remove(&site).is_none() {
            return;
        }
        ctx.multicast(&p.trackers, SwarmMsg::Retire { site }, 40);
        ctx.metrics().incr("web.retired", 1);
    }

    /// Whether this peer fully seeds `site` (all pieces held).
    pub fn seeds(&self, site: &Hash256) -> bool {
        match &self.role {
            Role::Peer(p) => p
                .sites
                .get(site)
                .is_some_and(|s| s.pieces.len() == s.signed.manifest.piece_ids.len()),
            Role::Tracker(_) => false,
        }
    }

    /// The version this peer holds of `site`, if any.
    pub fn held_version(&self, site: &Hash256) -> Option<u64> {
        match &self.role {
            Role::Peer(p) => p.sites.get(site).map(|s| s.signed.manifest.version),
            Role::Tracker(_) => None,
        }
    }

    /// Visit a site: discover peers, fetch, verify, then seed. Poll
    /// [`SwarmNode::take_result`].
    pub fn start_visit(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, site: Hash256) -> u64 {
        let Role::Peer(p) = &mut self.role else {
            panic!("start_visit on tracker")
        };
        let op = p.next_op;
        p.next_op += 1;
        ctx.multicast(&p.trackers, SwarmMsg::GetPeers { site, req: op }, 48);
        p.visits.insert(
            op,
            Visit {
                site,
                phase: VisitPhase::FindingPeers,
                peers: Vec::new(),
                manifest: None,
                got: FastMap::default(),
                ticks: 0,
                started: ctx.now(),
            },
        );
        ctx.set_timer(VISIT_TICK, op);
        op
    }

    /// Collect a visit outcome.
    pub fn take_result(&mut self, op: u64) -> Option<VisitResult> {
        match &mut self.role {
            Role::Peer(p) => p.results.remove(&op),
            Role::Tracker(_) => None,
        }
    }
}

/// Request all still-missing pieces, spread across known peers.
fn request_missing(ctx: &mut Ctx<'_, SwarmMsg>, op: u64, v: &Visit) {
    let Some(m) = &v.manifest else { return };
    if v.peers.is_empty() {
        return;
    }
    // Rotate the piece→peer assignment by tick so a dead or stale peer
    // doesn't permanently own any piece index.
    let rotation = v.ticks as usize;
    for index in 0..m.manifest.piece_ids.len() as u32 {
        if !v.got.contains_key(&index) {
            let peer = v.peers[(index as usize + rotation) % v.peers.len()];
            let msg = SwarmMsg::GetPiece {
                site: v.site,
                index,
                req: op,
            };
            let size = msg.wire_size();
            ctx.send(peer, msg, size);
        }
    }
}

impl PeerState {
    fn try_complete(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, op: u64) {
        let Some(v) = self.visits.get(&op) else {
            return;
        };
        let Some(m) = &v.manifest else { return };
        if v.got.len() < m.manifest.piece_ids.len() {
            return;
        }
        let v = self.visits.remove(&op).expect("present");
        let m = v.manifest.expect("present");
        let bytes: u64 = v.got.values().map(|p| p.data().len() as u64).sum();
        let version = m.manifest.version;
        let site = v.site;
        self.sites.insert(
            site,
            LocalSite {
                signed: m,
                pieces: v.got,
            },
        );
        // The visitor becomes a seeder — §3.4's defining property.
        ctx.multicast(&self.trackers, SwarmMsg::Announce { site }, 40);
        ctx.metrics().incr("web.visits_ok", 1);
        ctx.metrics().incr("web.bytes_fetched", bytes);
        let took = ctx.now().since(v.started).secs_f64();
        ctx.metrics().sample("web.visit_secs", took);
        ctx.trace_point("web.visits_ok", bytes as f64);
        self.results.insert(op, VisitResult::Ok { version, bytes });
    }
}

impl Protocol for SwarmNode {
    type Msg = SwarmMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, from: NodeId, msg: SwarmMsg) {
        match (&mut self.role, msg) {
            (Role::Tracker(index), SwarmMsg::Announce { site }) => {
                let v = index.entry(site).or_default();
                if !v.contains(&from) {
                    v.push(from);
                }
                // Per-site seeder census as seen by this tracker.
                ctx.probe_signal("swarm.seeders", v.len() as f64);
            }
            (Role::Tracker(index), SwarmMsg::Retire { site }) => {
                if let Some(v) = index.get_mut(&site) {
                    v.retain(|&p| p != from);
                    ctx.probe_signal("swarm.seeders", v.len() as f64);
                }
            }
            (Role::Tracker(index), SwarmMsg::GetPeers { site, req }) => {
                let peers = index.get(&site).cloned().unwrap_or_default();
                let msg = SwarmMsg::Peers { req, peers };
                let size = msg.wire_size();
                ctx.send(from, msg, size);
            }
            (Role::Peer(p), SwarmMsg::Peers { req, peers }) => {
                let me = ctx.id();
                if let Some(v) = p.visits.get_mut(&req) {
                    // Merge peer lists from (possibly several) trackers.
                    for n in peers.into_iter().filter(|&n| n != me) {
                        if !v.peers.contains(&n) {
                            v.peers.push(n);
                        }
                    }
                    if v.peers.is_empty() {
                        // Another tracker may still answer; the visit tick
                        // bounds how long we wait in FindingPeers.
                        return;
                    }
                    if v.phase == VisitPhase::FindingPeers {
                        v.phase = VisitPhase::FetchingManifest;
                        // Ask every known peer; take the best valid answer.
                        let msg = SwarmMsg::GetManifest { site: v.site, req };
                        let size = msg.wire_size();
                        ctx.multicast(&v.peers, msg, size);
                    }
                }
            }
            (Role::Peer(p), SwarmMsg::GetManifest { site, req }) => {
                let manifest = p.sites.get(&site).map(|s| Rc::clone(&s.signed));
                let msg = SwarmMsg::ManifestResp { req, manifest };
                let size = msg.wire_size();
                ctx.send(from, msg, size);
            }
            (Role::Peer(p), SwarmMsg::ManifestResp { req, manifest }) => {
                let Some(v) = p.visits.get_mut(&req) else {
                    return;
                };
                // No peer has been asked yet, so nobody honest is answering,
                // and there is no peer to fetch the pieces from.
                if v.phase == VisitPhase::FindingPeers {
                    return;
                }
                let Some(sm) = manifest else { return };
                // Verify signature + address; prefer the newest version.
                if !sm.verify() || sm.manifest.site != v.site {
                    ctx.metrics().incr("web.bad_manifests", 1);
                    return;
                }
                let newer = v
                    .manifest
                    .as_ref()
                    .is_none_or(|cur| sm.manifest.version > cur.manifest.version);
                let advancing = v.phase == VisitPhase::FetchingManifest;
                if newer {
                    v.manifest = Some(sm);
                    v.got.clear();
                }
                if advancing || newer {
                    v.phase = VisitPhase::FetchingPieces;
                    request_missing(ctx, req, v);
                }
            }
            (Role::Peer(p), SwarmMsg::GetPiece { site, index, req }) => {
                let data = p
                    .sites
                    .get(&site)
                    .and_then(|s| s.pieces.get(&index))
                    .cloned();
                if data.is_some() {
                    ctx.metrics().incr("web.pieces_served", 1);
                    ctx.trace_point("web.pieces_served", index as f64);
                }
                let msg = SwarmMsg::PieceResp { req, index, data };
                let size = msg.wire_size();
                ctx.send(from, msg, size);
            }
            (Role::Peer(p), SwarmMsg::PieceResp { req, index, data }) => {
                let Some(v) = p.visits.get_mut(&req) else {
                    return;
                };
                let Some(m) = &v.manifest else { return };
                let Some(piece) = data else { return };
                let Some(expected) = m.manifest.piece_ids.get(index as usize) else {
                    return;
                };
                if piece.digest() != *expected {
                    ctx.metrics().incr("web.bad_pieces", 1);
                    return;
                }
                v.got.insert(index, piece);
                p.try_complete(ctx, req);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SwarmMsg>, op: u64) {
        let Role::Peer(p) = &mut self.role else {
            return;
        };
        let Some(v) = p.visits.get_mut(&op) else {
            return;
        };
        v.ticks += 1;
        if v.ticks > MAX_VISIT_TICKS {
            let ticks = v.ticks;
            p.visits.remove(&op);
            ctx.metrics().incr("web.visits_failed", 1);
            ctx.trace_point("web.visits_failed", ticks as f64);
            p.results.insert(op, VisitResult::Failed);
            return;
        }
        // Retry whatever stage we're stuck in.
        let site = v.site;
        match v.phase {
            VisitPhase::FindingPeers => {
                // No tracker produced peers yet; give up early rather than
                // burning the whole visit budget on discovery.
                if v.ticks >= 5 {
                    p.visits.remove(&op);
                    ctx.metrics().incr("web.visits_failed", 1);
                    p.results.insert(op, VisitResult::Failed);
                    return;
                }
                ctx.multicast(&p.trackers, SwarmMsg::GetPeers { site, req: op }, 48);
            }
            VisitPhase::FetchingManifest => {
                let msg = SwarmMsg::GetManifest { site, req: op };
                let size = msg.wire_size();
                ctx.multicast(&v.peers, msg, size);
            }
            VisitPhase::FetchingPieces => request_missing(ctx, op, v),
        }
        ctx.set_timer(VISIT_TICK, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SitePublisher;
    use agora_crypto::sha256;
    use agora_sim::{DeviceClass, Simulation};

    fn build(n_peers: usize, seed: u64) -> (Simulation<SwarmNode>, NodeId, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let mut peers = Vec::new();
        for _ in 0..n_peers {
            peers.push(sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer));
        }
        (sim, tracker, peers)
    }

    fn publish_site(content_len: usize) -> (Hash256, SiteBundle) {
        let mut publisher = SitePublisher::new(b"origin");
        let content = vec![42u8; content_len];
        let bundle = publisher.publish(&[("index.html", content.as_slice())]);
        (publisher.site_id(), bundle)
    }

    #[test]
    fn visit_downloads_and_seeds() {
        let (mut sim, _tracker, peers) = build(4, 1);
        let (site, bundle) = publish_site(50_000);
        assert!(sim
            .with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap());
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(peers[1], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        match sim.node_mut(peers[1]).take_result(op) {
            Some(VisitResult::Ok { version, bytes }) => {
                assert_eq!(version, 1);
                assert_eq!(bytes, 50_000);
            }
            other => panic!("visit failed: {other:?}"),
        }
        assert!(sim.node(peers[1]).seeds(&site), "visitor became a seeder");
    }

    #[test]
    fn retired_seeder_leaves_the_index_and_stops_serving() {
        let (mut sim, _tracker, peers) = build(4, 12);
        let (site, bundle) = publish_site(30_000);
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        // A second seeder joins via visit, then stands down.
        let op = sim
            .with_ctx(peers[1], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        assert!(matches!(
            sim.node_mut(peers[1]).take_result(op),
            Some(VisitResult::Ok { .. })
        ));
        assert!(sim.node(peers[1]).seeds(&site));
        sim.with_ctx(peers[1], |n, ctx| n.retire(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert!(!sim.node(peers[1]).seeds(&site), "local copy dropped");
        assert_eq!(sim.metrics().counter("web.retired"), 1);
        // Retiring a site we never held is a no-op (idempotent for the
        // policy's reconcile loop).
        sim.with_ctx(peers[1], |n, ctx| n.retire(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().counter("web.retired"), 1);
        // The origin still serves later visitors; the tracker no longer
        // points anyone at the retired peer.
        let op2 = sim
            .with_ctx(peers[2], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        assert!(matches!(
            sim.node_mut(peers[2]).take_result(op2),
            Some(VisitResult::Ok { .. })
        ));
    }

    #[test]
    fn unseeded_site_visit_fails() {
        let (mut sim, _tracker, peers) = build(2, 2);
        let op = sim
            .with_ctx(peers[0], |n, ctx| n.start_visit(ctx, sha256(b"ghost")))
            .unwrap();
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(
            sim.node_mut(peers[0]).take_result(op),
            Some(VisitResult::Failed)
        );
    }

    #[test]
    fn site_survives_origin_death_via_visitor_seeding() {
        let (mut sim, _tracker, peers) = build(5, 3);
        let (site, bundle) = publish_site(40_000);
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        // One visitor fetches while the origin lives.
        let op = sim
            .with_ctx(peers[1], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        assert!(matches!(
            sim.node_mut(peers[1]).take_result(op),
            Some(VisitResult::Ok { .. })
        ));
        // Origin dies; a later visitor is served by the first visitor.
        sim.kill(peers[0]);
        let op2 = sim
            .with_ctx(peers[2], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(3));
        assert!(
            matches!(
                sim.node_mut(peers[2]).take_result(op2),
                Some(VisitResult::Ok { .. })
            ),
            "§3.4: the site outlives its origin as long as visitors seed"
        );
    }

    #[test]
    fn tracker_failover_keeps_discovery_alive() {
        // Two trackers; the first dies; visits still resolve via the second.
        let mut sim = Simulation::new(11);
        let t0 = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let t1 = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let origin = sim.add_node(
            SwarmNode::peer_with_trackers(vec![t0, t1]),
            DeviceClass::PersonalComputer,
        );
        let visitor = sim.add_node(
            SwarmNode::peer_with_trackers(vec![t0, t1]),
            DeviceClass::PersonalComputer,
        );
        let (site, bundle) = publish_site(30_000);
        sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.kill(t0);
        let op = sim
            .with_ctx(visitor, |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        assert!(
            matches!(
                sim.node_mut(visitor).take_result(op),
                Some(VisitResult::Ok { .. })
            ),
            "the surviving tracker should serve discovery"
        );
    }

    #[test]
    fn single_tracker_death_kills_fresh_discovery() {
        // The baseline SPOF: with one tracker down, new visitors cannot
        // discover seeders at all.
        let mut sim = Simulation::new(12);
        let t0 = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let origin = sim.add_node(SwarmNode::peer(t0), DeviceClass::PersonalComputer);
        let visitor = sim.add_node(SwarmNode::peer(t0), DeviceClass::PersonalComputer);
        let (site, bundle) = publish_site(30_000);
        sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.kill(t0);
        let op = sim
            .with_ctx(visitor, |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(
            sim.node_mut(visitor).take_result(op),
            Some(VisitResult::Failed)
        );
    }

    #[test]
    fn forged_bundle_rejected_at_host() {
        let (mut sim, _tracker, peers) = build(1, 4);
        let (_site, mut bundle) = publish_site(1000);
        bundle.signed.manifest.version = 99; // breaks the signature
        let ok = sim
            .with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        assert!(!ok);
    }

    #[test]
    fn visitors_fetch_newest_version_available() {
        let (mut sim, _tracker, peers) = build(3, 5);
        let mut publisher = SitePublisher::new(b"origin");
        let v1 = publisher.publish(&[("index.html", b"v1".as_slice())]);
        let site = publisher.site_id();
        let v2 = publisher.publish(&[("index.html", b"v2 content".as_slice())]);
        // Peer 0 seeds v1, peer 1 seeds v2.
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &v1))
            .unwrap();
        sim.with_ctx(peers[1], |n, ctx| n.host_site(ctx, &v2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(peers[2], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(2));
        match sim.node_mut(peers[2]).take_result(op) {
            Some(VisitResult::Ok { version, .. }) => assert_eq!(version, 2),
            other => panic!("visit failed: {other:?}"),
        }
        assert_eq!(sim.node(peers[2]).held_version(&site), Some(2));
    }

    #[test]
    fn corrupted_pieces_are_rejected_and_refetched() {
        // A malicious seeder serving garbage can slow but not poison a
        // visit while an honest seeder exists: bad pieces fail the hash
        // check and are re-requested (round-robin hits the honest peer).
        let (mut sim, _tracker, peers) = build(3, 6);
        let (site, bundle) = publish_site(60_000);
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        // Peer 1 hosts a corrupted copy (flip bytes in every piece) —
        // manifest is genuine, pieces are not.
        let mut corrupt = SiteBundle {
            signed: bundle.signed.clone(),
            pieces: bundle.pieces.clone(),
        };
        for c in &mut corrupt.pieces {
            c.data[0] ^= 0xff; // id no longer matches data
        }
        sim.with_ctx(peers[1], |n, ctx| n.host_site(ctx, &corrupt))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(peers[2], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(3));
        match sim.node_mut(peers[2]).take_result(op) {
            Some(VisitResult::Ok { bytes, .. }) => assert_eq!(bytes, 60_000),
            other => panic!("visit should eventually succeed: {other:?}"),
        }
        assert!(sim.metrics().counter("web.bad_pieces") > 0);
    }

    /// Hand `msg` straight to `to`'s handler as if `from` had sent it, so a
    /// test can put a visit in an exact state without racing the network.
    fn deliver(sim: &mut Simulation<SwarmNode>, to: NodeId, from: NodeId, msg: SwarmMsg) {
        sim.with_ctx(to, |n, ctx| n.on_message(ctx, from, msg))
            .unwrap();
    }

    fn peer_state(sim: &Simulation<SwarmNode>, id: NodeId) -> &PeerState {
        match &sim.node(id).role {
            Role::Peer(p) => p,
            Role::Tracker(_) => panic!("{id:?} is a tracker"),
        }
    }

    /// `peers[0]` hosts a 60 000-byte site (4 pieces) and `peers[1]` has
    /// begun a visit, advanced by hand to `phase`; no reply has been
    /// delivered yet. Returns the sim, the peers, the site, the visit op
    /// and the origin's sealed manifest.
    fn stalled_visit(
        seed: u64,
        phase: VisitPhase,
    ) -> (
        Simulation<SwarmNode>,
        Vec<NodeId>,
        Hash256,
        u64,
        Rc<SealedManifest>,
    ) {
        let (mut sim, tracker, peers) = build(3, seed);
        let (site, bundle) = publish_site(60_000);
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(peers[1], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        let sealed = Rc::clone(&peer_state(&sim, peers[0]).sites[&site].signed);
        if phase != VisitPhase::FindingPeers {
            let peers_msg = SwarmMsg::Peers {
                req: op,
                peers: vec![peers[0]],
            };
            deliver(&mut sim, peers[1], tracker, peers_msg);
        }
        if phase == VisitPhase::FetchingPieces {
            let manifest = Some(Rc::clone(&sealed));
            let resp = SwarmMsg::ManifestResp { req: op, manifest };
            deliver(&mut sim, peers[1], peers[0], resp);
        }
        assert!(peer_state(&sim, peers[1]).visits[&op].phase == phase);
        (sim, peers, site, op, sealed)
    }

    #[test]
    fn unsolicited_manifest_before_any_peer_is_ignored() {
        // A validly signed manifest pushed at a visitor that has no peers
        // yet used to be accepted and to divide by the empty peer list.
        let (mut sim, _tracker, peers) = build(2, 21);
        let (site, bundle) = publish_site(20_000);
        let op = sim
            .with_ctx(peers[0], |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        let manifest = Some(SealedManifest::seal(bundle.signed.clone()));
        let resp = SwarmMsg::ManifestResp { req: op, manifest };
        let size = resp.wire_size();
        sim.with_ctx(peers[1], |_, ctx| ctx.send(peers[0], resp, size))
            .unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let v = &peer_state(&sim, peers[0]).visits[&op];
        assert!(v.phase == VisitPhase::FindingPeers && v.manifest.is_none());
        sim.run_for(SimDuration::from_mins(1));
        assert_eq!(
            sim.node_mut(peers[0]).take_result(op),
            Some(VisitResult::Failed)
        );
        // And the request round itself tolerates an empty peer list.
        let no_peers = Visit {
            site,
            phase: VisitPhase::FetchingPieces,
            peers: Vec::new(),
            manifest: Some(SealedManifest::seal(bundle.signed.clone())),
            got: FastMap::default(),
            ticks: 0,
            started: sim.now(),
        };
        sim.with_ctx(peers[0], |_, ctx| request_missing(ctx, 0, &no_peers))
            .unwrap();
    }

    #[test]
    fn a_visit_shares_the_origins_buffers_instead_of_copying() {
        let (mut sim, _tracker, peers) = build(3, 22);
        let (site, bundle) = publish_site(50_000);
        sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        // A second-generation visitor too: what it gets from either seeder
        // is still the origin's allocation.
        for &visitor in &peers[1..] {
            let op = sim
                .with_ctx(visitor, |n, ctx| n.start_visit(ctx, site))
                .unwrap();
            sim.run_for(SimDuration::from_mins(2));
            assert!(matches!(
                sim.node_mut(visitor).take_result(op),
                Some(VisitResult::Ok { .. })
            ));
            let origin = &peer_state(&sim, peers[0]).sites[&site];
            let copy = &peer_state(&sim, visitor).sites[&site];
            assert!(Rc::ptr_eq(&origin.signed, &copy.signed));
            assert_eq!(copy.pieces.len(), origin.pieces.len());
            for (index, piece) in &origin.pieces {
                assert!(Rc::ptr_eq(piece, &copy.pieces[index]), "piece {index}");
            }
        }
    }

    #[test]
    fn one_flipped_bit_is_a_different_piece_and_is_rejected() {
        let (mut sim, peers, site, op, sealed) = stalled_visit(23, VisitPhase::FetchingPieces);
        let (origin, visitor, mallory) = (peers[0], peers[1], peers[2]);
        let genuine = Rc::clone(&peer_state(&sim, origin).sites[&site].pieces[&0]);
        assert_eq!(genuine.digest(), sealed.manifest.piece_ids[0]);
        // The genuine piece's digest is memoized by now; the forgery gets
        // none of it, because it is not the same buffer.
        let mut bytes = genuine.data().to_vec();
        bytes[100] ^= 1;
        let forged = Piece::new(bytes);
        assert_ne!(forged.digest(), genuine.digest());
        let resp = SwarmMsg::PieceResp {
            req: op,
            index: 0,
            data: Some(forged),
        };
        deliver(&mut sim, visitor, mallory, resp);
        assert_eq!(sim.metrics().counter("web.bad_pieces"), 1);
        assert!(peer_state(&sim, visitor).visits[&op].got.is_empty());
        // The verified original keeps serving: the visit completes from it.
        sim.run_for(SimDuration::from_mins(2));
        assert!(matches!(
            sim.node_mut(visitor).take_result(op),
            Some(VisitResult::Ok { bytes: 60_000, .. })
        ));
        assert_eq!(sim.metrics().counter("web.bad_pieces"), 1);
        let held = &peer_state(&sim, visitor).sites[&site].pieces[&0];
        assert!(Rc::ptr_eq(held, &genuine));
    }

    #[test]
    fn a_tampered_manifest_resealed_is_verified_from_scratch() {
        let (mut sim, peers, _site, op, sealed) = stalled_visit(24, VisitPhase::FetchingManifest);
        let (visitor, mallory) = (peers[1], peers[2]);
        assert!(sealed.verify(), "host_site verified the origin's copy");
        let mut swapped_file = (**sealed).clone();
        swapped_file.manifest.files[0].content_hash = sha256(b"malware");
        let mut bumped_version = (**sealed).clone();
        bumped_version.manifest.version += 1;
        for (nth, tampered) in [swapped_file, bumped_version].into_iter().enumerate() {
            let resealed = SealedManifest::seal(tampered);
            assert!(!resealed.verify());
            let manifest = Some(resealed);
            let resp = SwarmMsg::ManifestResp { req: op, manifest };
            deliver(&mut sim, visitor, mallory, resp);
            assert_eq!(sim.metrics().counter("web.bad_manifests"), nth as u64 + 1);
            let v = &peer_state(&sim, visitor).visits[&op];
            assert!(v.manifest.is_none() && v.phase == VisitPhase::FetchingManifest);
        }
        assert!(sealed.verify(), "the original's verdict is its own");
    }

    #[test]
    fn hostile_responses_are_dropped_without_panic_or_state() {
        let bad = |sim: &Simulation<SwarmNode>| {
            (
                sim.metrics().counter("web.bad_pieces"),
                sim.metrics().counter("web.bad_manifests"),
            )
        };
        let piece_resp = |req: u64, index: u32, data: &Rc<Piece>| SwarmMsg::PieceResp {
            req,
            index,
            data: Some(Rc::clone(data)),
        };

        // A visitor holding the manifest and no pieces.
        let (mut sim, peers, site, op, sealed) = stalled_visit(25, VisitPhase::FetchingPieces);
        let (origin, visitor, mallory) = (peers[0], peers[1], peers[2]);
        let genuine = Rc::clone(&peer_state(&sim, origin).sites[&site].pieces[&0]);
        let pieces = sealed.manifest.piece_ids.len() as u32;
        // Index past the manifest, for an unknown op, and a truncated piece.
        for index in [pieces, u32::MAX] {
            deliver(&mut sim, visitor, mallory, piece_resp(op, index, &genuine));
        }
        deliver(&mut sim, visitor, mallory, piece_resp(op + 7, 0, &genuine));
        assert_eq!(bad(&sim), (0, 0));
        let truncated = Piece::new(&genuine.data()[..genuine.data().len() - 1]);
        deliver(&mut sim, visitor, mallory, piece_resp(op, 0, &truncated));
        assert_eq!(bad(&sim), (1, 0));
        assert!(peer_state(&sim, visitor).visits[&op].got.is_empty());
        // For a visit that has already finished.
        sim.run_for(SimDuration::from_mins(2));
        assert!(matches!(
            sim.node_mut(visitor).take_result(op),
            Some(VisitResult::Ok { .. })
        ));
        deliver(&mut sim, visitor, mallory, piece_resp(op, 0, &truncated));
        assert_eq!(bad(&sim), (1, 0));

        // Before any manifest is held, a piece has nothing to be checked
        // against; a manifest validly signed for another site is refused.
        let (mut sim, peers, _site, op, _sealed) = stalled_visit(26, VisitPhase::FetchingManifest);
        let (visitor, mallory) = (peers[1], peers[2]);
        deliver(&mut sim, visitor, mallory, piece_resp(op, 0, &genuine));
        assert_eq!(bad(&sim), (0, 0));
        let other = SitePublisher::new(b"mallory").publish(&[("index.html", b"x".as_slice())]);
        let manifest = Some(SealedManifest::seal(other.signed));
        assert!(manifest.as_ref().unwrap().verify());
        let resp = SwarmMsg::ManifestResp { req: op, manifest };
        deliver(&mut sim, visitor, mallory, resp);
        assert_eq!(bad(&sim), (0, 1));
        let v = &peer_state(&sim, visitor).visits[&op];
        assert!(v.manifest.is_none() && v.got.is_empty());
        assert!(v.phase == VisitPhase::FetchingManifest);

        // A peer list naming the visitor itself, with duplicates.
        let (mut sim, peers, _site, op, _sealed) = stalled_visit(27, VisitPhase::FindingPeers);
        let (origin, visitor, mallory) = (peers[0], peers[1], peers[2]);
        let listed = vec![visitor, origin, origin, visitor, origin];
        let peers_msg = SwarmMsg::Peers {
            req: op,
            peers: listed,
        };
        deliver(&mut sim, visitor, mallory, peers_msg);
        assert_eq!(peer_state(&sim, visitor).visits[&op].peers, [origin]);
    }

    #[test]
    fn every_tick_re_requests_complete_a_visit_under_loss() {
        // A stuck visit re-asks its current stage on every tick: under 30%
        // loss the visit still completes, with nothing counted as a retry.
        let (mut sim, _tracker, peers) = build(2, 13);
        let (seeder, visitor) = (peers[0], peers[1]);
        let (site, bundle) = publish_site(40_000);
        sim.with_ctx(seeder, |n, ctx| n.host_site(ctx, &bundle))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.set_loss_rate(0.3);
        let op = sim
            .with_ctx(visitor, |n, ctx| n.start_visit(ctx, site))
            .unwrap();
        sim.run_for(SimDuration::from_mins(4));
        assert!(matches!(
            sim.node_mut(visitor).take_result(op),
            Some(VisitResult::Ok { .. })
        ));
        for key in ["retry.attempts", "retry.gave_up"] {
            assert_eq!(sim.metrics().counter(key), 0, "{key}");
        }
    }
}
