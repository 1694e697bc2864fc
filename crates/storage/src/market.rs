//! The storage market: the financing loop §5 says decentralized storage
//! is missing, wired together from the mechanism library and run live
//! inside the simulation.
//!
//! Objects are erasure-coded RS(k, m) ([`crate::erasure`]) and placed
//! across provider nodes by reputation — an EWMA audit-success score
//! ([`crate::incentives::EwmaReputation`]) that skips flaky providers.
//! Every placement is backed by a [`StorageContract`] carrying provider
//! stake. A deterministic oracle — seed-derived, compiled up front exactly
//! like `ChaosSpec` schedules ([`MarketSpec::compile_oracle`]) — issues
//! retrievability challenges with an Open → Resolved / Expired TTL
//! lifecycle: a proof that lands before the deadline resolves the
//! challenge and earns the per-window price; a missing or wrong proof
//! expires it, slashes stake to the auditor, and drops reputation. A
//! repair actor detects shard loss (missed audits, or churn through the
//! idempotent kill/revive path) and re-encodes lost shards from any k
//! survivors, metering repair traffic.
//!
//! Determinism contract: the challenge schedule is a pure function of
//! `(spec, seed)`; all run-time randomness (audit nonces) comes from one
//! dedicated [`SimRng`] stream; market state iterates `Vec`s in slot
//! order, never hash maps — so market runs are byte-identical across
//! harness thread counts like everything else.

use std::rc::Rc;

use agora_crypto::{sha256, Hash256};
use agora_sim::{NodeId, SimDuration, SimRng, SimTime, Simulation};

use crate::contract::{ProofScheme, StorageContract};
use crate::erasure::ReedSolomon;
use crate::incentives::{EwmaReputation, TokenBank};
use crate::node::StorageNode;
use crate::proofs::{por_verify, AuditBook};

/// What the market runs: how many objects, the code, the money, and the
/// audit cadence.
#[derive(Clone, Copy, Debug)]
pub struct MarketSpec {
    /// Objects under contract.
    pub objects: usize,
    /// Bytes per object.
    pub object_bytes: usize,
    /// Data shards (k = 1 is plain replication).
    pub k: usize,
    /// Parity shards.
    pub m: usize,
    /// Provider collateral escrowed per shard contract.
    pub stake: u64,
    /// Tokens a provider earns per resolved challenge.
    pub price_per_window: u64,
    /// Stake slashed per expired challenge.
    pub slash_per_miss: u64,
    /// One challenge per object per interval.
    pub challenge_interval: SimDuration,
    /// Open → Expired deadline: the proof must land within this TTL.
    pub challenge_ttl: SimDuration,
    /// Market horizon the oracle schedule covers.
    pub horizon: SimDuration,
    /// EWMA smoothing weight for the reputation score.
    pub alpha: f64,
    /// Reputation floor below which a provider is skipped for placement.
    pub floor: f64,
}

impl Default for MarketSpec {
    fn default() -> MarketSpec {
        MarketSpec {
            objects: 8,
            object_bytes: 32 * 1024,
            k: 4,
            m: 2,
            stake: 1_000,
            price_per_window: 2,
            slash_per_miss: 100,
            challenge_interval: SimDuration::from_secs(60),
            challenge_ttl: SimDuration::from_secs(20),
            horizon: SimDuration::from_mins(40),
            alpha: 0.3,
            floor: 0.5,
        }
    }
}

/// One scheduled retrievability challenge (compile-time plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedChallenge {
    /// Offset from the market's install instant.
    pub at: SimDuration,
    /// Object index.
    pub object: u32,
    /// Shard slot to challenge.
    pub slot: u32,
}

/// The compiled, time-sorted challenge schedule.
#[derive(Clone, Debug, Default)]
pub struct OracleSchedule {
    challenges: Vec<PlannedChallenge>,
}

impl OracleSchedule {
    /// The planned challenges, sorted by offset.
    pub fn challenges(&self) -> &[PlannedChallenge] {
        &self.challenges
    }

    /// Number of planned challenges.
    pub fn len(&self) -> usize {
        self.challenges.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.challenges.is_empty()
    }
}

impl MarketSpec {
    /// Audit rounds across the horizon.
    pub fn rounds(&self) -> u64 {
        (self.horizon.micros() / self.challenge_interval.micros().max(1)).max(1)
    }

    /// Expand this spec into the oracle's challenge schedule, drawing all
    /// randomness from a fresh RNG seeded with `seed` — the same
    /// compile-then-replay pattern as `ChaosSpec::compile`. Pure: same
    /// inputs, same schedule.
    pub fn compile_oracle(&self, seed: u64) -> OracleSchedule {
        let mut rng = SimRng::new(seed);
        let interval = self.challenge_interval.micros().max(1);
        let mut challenges = Vec::new();
        for r in 0..self.rounds() {
            for o in 0..self.objects {
                // Land inside the middle half of the round so challenges
                // never race the install instant and deadlines stay inside
                // the round.
                let jitter = interval / 4 + rng.below((interval / 2).max(1));
                let slot = rng.below((self.k + self.m) as u64) as u32;
                challenges.push(PlannedChallenge {
                    at: SimDuration(r * interval + jitter),
                    object: o as u32,
                    slot,
                });
            }
        }
        challenges.sort_by_key(|c| (c.at, c.object, c.slot));
        OracleSchedule { challenges }
    }
}

/// Challenge lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChallengeState {
    /// Issued; the proof deadline has not passed.
    Open,
    /// Proof verified within the TTL; provider paid.
    Resolved,
    /// No valid proof by the deadline; stake slashed.
    Expired,
}

/// One challenge's full lifecycle record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChallengeRecord {
    /// Object index.
    pub object: u32,
    /// Shard slot challenged.
    pub slot: u32,
    /// When the challenge opened.
    pub opened_at: SimTime,
    /// Proof deadline (`opened_at + ttl`).
    pub deadline: SimTime,
    /// Final (or current) state.
    pub state: ChallengeState,
}

/// One shard slot's live placement.
struct SlotState {
    /// Index into the market's provider list.
    provider: usize,
    /// False after a missed audit until repair re-places the shard.
    alive: bool,
    /// Retrievability audits for the current placement.
    audits: AuditBook,
    /// The backing service agreement.
    contract: StorageContract,
    /// Unspent collateral; the contract defaults at zero.
    stake_left: u64,
}

struct ObjectState {
    id: Hash256,
    data_len: usize,
    slots: Vec<SlotState>,
    /// Fewer than k shards survive anywhere: unrecoverable.
    lost: bool,
}

/// The live market: oracle cursor, placements, money, and reputation.
///
/// Drive it with [`StorageMarket::run_for`] / [`StorageMarket::run_until`]
/// (drop-in replacements for `sim.run_for`), or compose with a
/// `ChaosController` via [`StorageMarket::run_until_with`].
pub struct StorageMarket {
    spec: MarketSpec,
    schedule: OracleSchedule,
    next: usize,
    base: SimTime,
    rng: SimRng,
    providers: Vec<NodeId>,
    accounts: Vec<Hash256>,
    client_acct: Hash256,
    oracle_acct: Hash256,
    bank: TokenBank,
    reputation: EwmaReputation,
    objects: Vec<ObjectState>,
    open: std::collections::VecDeque<ChallengeRecord>,
    history: Vec<ChallengeRecord>,
    challenges: u64,
    resolved: u64,
    slashes: u64,
    stake_lost: u64,
    repairs: u64,
    repair_bytes: u64,
    repair_read_bytes: u64,
    objects_lost: u64,
}

impl StorageMarket {
    /// Install a market on `sim`: compile the oracle schedule, encode
    /// every object RS(k, m), place shards on `providers` by reputation,
    /// and open one staked contract per shard slot.
    pub fn install(
        sim: &mut Simulation<StorageNode>,
        spec: MarketSpec,
        seed: u64,
        providers: Vec<NodeId>,
    ) -> StorageMarket {
        assert!(
            providers.len() >= spec.k + spec.m,
            "need at least k+m providers"
        );
        let schedule = spec.compile_oracle(seed);
        let accounts: Vec<Hash256> = providers
            .iter()
            .map(|p| sha256(format!("market-provider-{}", p.0).as_bytes()))
            .collect();
        let mut market = StorageMarket {
            spec,
            schedule,
            next: 0,
            base: sim.now(),
            rng: SimRng::new(seed ^ 0x4D41_524B), // "MARK": dedicated stream
            providers,
            accounts,
            client_acct: sha256(b"market-client"),
            oracle_acct: sha256(b"market-oracle"),
            bank: TokenBank::new(),
            reputation: EwmaReputation::new(spec.alpha),
            objects: Vec::new(),
            open: std::collections::VecDeque::new(),
            history: Vec::new(),
            challenges: 0,
            resolved: 0,
            slashes: 0,
            stake_lost: 0,
            repairs: 0,
            repair_bytes: 0,
            repair_read_bytes: 0,
            objects_lost: 0,
        };
        let rs = ReedSolomon::new(spec.k, spec.m).expect("valid k/m");
        for o in 0..spec.objects {
            // Deterministic per-object payload; the object id is its hash.
            let data: Vec<u8> = (0..spec.object_bytes)
                .map(|i| ((i as u64).wrapping_mul(31) ^ (o as u64).wrapping_mul(131)) as u8)
                .collect();
            let id = sha256(&data);
            let shards = rs.encode(&data);
            let mut slots = Vec::new();
            let mut used = Vec::new();
            for (si, shard) in shards.into_iter().enumerate() {
                let pi = market
                    .pick_provider(sim, &used, o + si)
                    .expect("k+m providers available");
                used.push(pi);
                let shard: Rc<[u8]> = Rc::from(shard);
                sim.with_ctx(market.providers[pi], |n, ctx| {
                    n.provider_store(ctx, id, si as u32, Rc::clone(&shard));
                });
                slots.push(market.new_slot(pi, id, &shard));
            }
            market.objects.push(ObjectState {
                id,
                data_len: data.len(),
                slots,
                lost: false,
            });
        }
        market
    }

    /// Fresh slot state for a shard placed on provider `pi`.
    fn new_slot(&mut self, pi: usize, object: Hash256, shard: &Rc<[u8]>) -> SlotState {
        let audits = AuditBook::new(Rc::clone(shard), self.spec.rounds() as usize, &mut self.rng);
        SlotState {
            provider: pi,
            alive: true,
            audits,
            contract: StorageContract {
                client: self.client_acct,
                provider: self.accounts[pi],
                object,
                size_bytes: shard.len() as u64,
                price_per_window: self.spec.price_per_window,
                windows: self.spec.rounds() as u32,
                collateral: self.spec.stake,
                proof: ProofScheme::ProofOfRetrievability,
            },
            stake_left: self.spec.stake,
        }
    }

    /// Best eligible provider by reputation, excluding `exclude` indices.
    /// Ties break in rotation order starting at `offset` so equal-score
    /// providers share the load deterministically. Requires the provider
    /// to be up (placement must land somewhere that can hold bytes).
    fn pick_provider(
        &self,
        sim: &Simulation<StorageNode>,
        exclude: &[usize],
        offset: usize,
    ) -> Option<usize> {
        let n = self.providers.len();
        let mut best: Option<(f64, usize)> = None;
        // Two passes: eligible providers first, then (if none clear the
        // floor) anyone still standing — a degraded market beats no market.
        for pass in 0..2 {
            for j in 0..n {
                let i = (offset + j) % n;
                if exclude.contains(&i) || !sim.is_up(self.providers[i]) {
                    continue;
                }
                let s = self.reputation.score(&self.accounts[i]);
                if pass == 0 && !self.reputation.eligible(&self.accounts[i], self.spec.floor) {
                    continue;
                }
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
            if best.is_some() {
                break;
            }
        }
        best.map(|(_, i)| i)
    }

    /// Drop-in replacement for `sim.run_for(d)` that opens and resolves
    /// challenges at their exact instants.
    pub fn run_for(&mut self, sim: &mut Simulation<StorageNode>, d: SimDuration) {
        let limit = sim.now() + d;
        self.run_until(sim, limit);
    }

    /// As [`StorageMarket::run_for`], but to an absolute deadline.
    pub fn run_until(&mut self, sim: &mut Simulation<StorageNode>, limit: SimTime) {
        self.run_until_with(sim, limit, &mut |sim, t| sim.run_until(t));
    }

    /// As [`StorageMarket::run_until`], but advancing the simulation
    /// through `advance` — pass a closure that delegates to a
    /// `ChaosController` (or a `WorkloadDriver`) to compose the market
    /// with fault injection or churn; all three drive the same idempotent
    /// kill/revive path.
    pub fn run_until_with(
        &mut self,
        sim: &mut Simulation<StorageNode>,
        limit: SimTime,
        advance: &mut dyn FnMut(&mut Simulation<StorageNode>, SimTime),
    ) {
        loop {
            let next_open = self
                .schedule
                .challenges
                .get(self.next)
                .map(|c| self.base + c.at);
            let next_deadline = self.open.front().map(|c| c.deadline);
            // Deadlines win ties so a proof is judged before the next
            // challenge against the same slot opens.
            let (at, is_deadline) = match (next_open, next_deadline) {
                (Some(o), Some(d)) if d <= o => (d, true),
                (Some(o), _) => (o, false),
                (None, Some(d)) => (d, true),
                (None, None) => break,
            };
            if at > limit {
                break;
            }
            advance(sim, at);
            if is_deadline {
                let ch = self.open.pop_front().expect("deadline implies open");
                self.judge(sim, ch);
            } else {
                let planned = self.schedule.challenges[self.next];
                self.next += 1;
                self.open_challenge(sim, planned);
            }
        }
        advance(sim, limit);
    }

    /// Open one planned challenge (and retry any pending repairs for the
    /// visited object first, so revived providers get re-placed shards).
    fn open_challenge(&mut self, sim: &mut Simulation<StorageNode>, planned: PlannedChallenge) {
        let oi = planned.object as usize;
        if self.objects[oi].lost {
            return;
        }
        self.repair_object(sim, oi);
        let si = planned.slot as usize;
        if !self.objects[oi].slots[si].alive {
            return; // still unrepaired; nothing to challenge
        }
        let now = sim.now();
        let ch = ChallengeRecord {
            object: planned.object,
            slot: planned.slot,
            opened_at: now,
            deadline: now + self.spec.challenge_ttl,
            state: ChallengeState::Open,
        };
        self.challenges += 1;
        sim.metrics_mut().incr("market.challenge", 1);
        sim.trace_note("market.challenge", planned.object as f64);
        self.open.push_back(ch);
    }

    /// Judge an open challenge at its deadline: Resolved pays the
    /// provider and lifts reputation; Expired slashes stake to the
    /// auditor, drops reputation, and triggers repair.
    fn judge(&mut self, sim: &mut Simulation<StorageNode>, mut ch: ChallengeRecord) {
        let (oi, si) = (ch.object as usize, ch.slot as usize);
        let (id, provider_idx, alive, audit) = {
            let obj = &mut self.objects[oi];
            let slot = &mut obj.slots[si];
            (obj.id, slot.provider, slot.alive, slot.audits.pop())
        };
        let node = self.providers[provider_idx];
        let pass = alive
            && sim.is_up(node)
            && match audit {
                Some(a) => sim
                    .node(node)
                    .provider_digest(&id, ch.slot, a.nonce)
                    .is_some_and(|d| por_verify(&a, &d)),
                // Audit budget exhausted (cannot happen with a full
                // schedule): fall back to a holds-the-bytes check.
                None => sim.node(node).provider_shard(&id, ch.slot).is_some(),
            };
        let acct = self.accounts[provider_idx];
        if pass {
            ch.state = ChallengeState::Resolved;
            self.resolved += 1;
            self.bank
                .transfer(self.client_acct, acct, self.spec.price_per_window as i64);
            self.reputation.observe(acct, true);
            sim.metrics_mut().incr("market.resolved", 1);
            sim.trace_note("market.resolved", ch.object as f64);
        } else {
            ch.state = ChallengeState::Expired;
            let slot = &mut self.objects[oi].slots[si];
            let cut = slot.contract.slash_stake(
                &mut self.bank,
                self.oracle_acct,
                &mut slot.stake_left,
                self.spec.slash_per_miss,
            );
            slot.alive = false;
            self.slashes += 1;
            self.stake_lost += cut;
            self.reputation.observe(acct, false);
            sim.metrics_mut().incr("market.slash", 1);
            sim.metrics_mut().incr("market.stake_lost", cut);
            sim.trace_note("market.slash", cut as f64);
            self.repair_object(sim, oi);
        }
        self.history.push(ch);
        // Market health after every verdict: fraction of slots still
        // funded+alive and the stake backing them. Gated so the O(slots)
        // rollup vanishes along with the probes.
        if sim.probe_active() {
            let (mut alive, mut total, mut stake) = (0u64, 0u64, 0u64);
            for obj in &self.objects {
                for slot in &obj.slots {
                    total += 1;
                    if slot.alive {
                        alive += 1;
                        stake += slot.stake_left;
                    }
                }
            }
            if total > 0 {
                sim.probe_note("storage.funded_ratio", alive as f64 / total as f64);
                sim.probe_note("storage.stake_at_risk", stake as f64);
            }
        }
    }

    /// The repair actor: re-encode every dead slot of one object from any
    /// k surviving shards readable right now, re-place on the best
    /// eligible provider, and open a fresh staked contract.
    fn repair_object(&mut self, sim: &mut Simulation<StorageNode>, oi: usize) {
        if self.objects[oi].lost {
            return;
        }
        let dead: Vec<usize> = (0..self.objects[oi].slots.len())
            .filter(|&si| !self.objects[oi].slots[si].alive)
            .collect();
        if dead.is_empty() {
            return;
        }
        let (id, data_len) = (self.objects[oi].id, self.objects[oi].data_len);
        let (k, m) = (self.spec.k, self.spec.m);
        // Gather k survivors from providers that are up and actually hold
        // the bytes, in slot order (deterministic). A dead (slashed) slot
        // whose provider was merely down and has since revived still holds
        // the bytes — repair reads from whoever has data, contract or not.
        let mut have: Vec<(usize, Rc<[u8]>)> = Vec::new();
        for si in 0..self.objects[oi].slots.len() {
            let slot = &self.objects[oi].slots[si];
            let node = self.providers[slot.provider];
            if !sim.is_up(node) {
                continue;
            }
            if let Some(d) = sim.node(node).provider_shard(&id, si as u32) {
                have.push((si, d));
                if have.len() == k {
                    break;
                }
            }
        }
        if have.len() < k {
            // Not enough readable right now. Down-but-intact providers may
            // come back (kill/revive preserves state), so only declare the
            // object lost when fewer than k shards exist *anywhere* — up
            // or down, contract alive or slashed.
            let held = (0..self.objects[oi].slots.len())
                .filter(|&si| {
                    let slot = &self.objects[oi].slots[si];
                    sim.node(self.providers[slot.provider])
                        .provider_shard(&id, si as u32)
                        .is_some()
                })
                .count();
            if held < k {
                self.objects[oi].lost = true;
                self.objects_lost += 1;
                sim.metrics_mut().incr("market.objects_lost", 1);
                sim.trace_note("market.object_lost", oi as f64);
            }
            return;
        }
        let read_bytes: u64 = have.iter().map(|(_, d)| d.len() as u64).sum();
        let rs = ReedSolomon::new(k, m).expect("valid k/m");
        let Ok(data) = rs.reconstruct(&have, data_len) else {
            return;
        };
        let all = rs.encode(&data);
        self.repair_read_bytes += read_bytes;
        sim.metrics_mut()
            .incr("market.repair_read_bytes", read_bytes);
        for si in dead {
            let exclude: Vec<usize> = self.objects[oi].slots.iter().map(|s| s.provider).collect();
            let Some(pi) = self.pick_provider(sim, &exclude, oi + si) else {
                continue; // nowhere to place; retried at the next visit
            };
            let shard: Rc<[u8]> = Rc::from(all[si].clone());
            if sim
                .with_ctx(self.providers[pi], |n, ctx| {
                    n.provider_store(ctx, id, si as u32, Rc::clone(&shard));
                })
                .is_none()
            {
                continue;
            }
            let slot = self.new_slot(pi, id, &shard);
            let up = shard.len() as u64;
            self.objects[oi].slots[si] = slot;
            self.repairs += 1;
            self.repair_bytes += up;
            sim.metrics_mut().incr("market.repairs", 1);
            sim.metrics_mut().incr("market.repair_bytes", up);
            sim.trace_note("market.repair_bytes", up as f64);
        }
    }

    // -- observers ----------------------------------------------------------

    /// Fraction of objects still reconstructible from shards providers
    /// actually hold (a down-but-intact or slashed-but-holding provider
    /// still counts: churn is not data loss; a discarded shard is).
    pub fn durability(&self, sim: &Simulation<StorageNode>) -> f64 {
        if self.objects.is_empty() {
            return 1.0;
        }
        let ok = self
            .objects
            .iter()
            .filter(|o| {
                !o.lost
                    && o.slots
                        .iter()
                        .enumerate()
                        .filter(|(si, s)| {
                            sim.node(self.providers[s.provider])
                                .provider_shard(&o.id, *si as u32)
                                .is_some()
                        })
                        .count()
                        >= self.spec.k
            })
            .count();
        ok as f64 / self.objects.len() as f64
    }

    /// Whether `object` can serve a *paid* retrieval right now: not lost,
    /// and at least k shards sit on live, funded (stake remaining),
    /// bytes-holding providers. The workload experiment routes demand
    /// through this — unfunded contracts mean unserved users, which is
    /// the paper's financing argument in one predicate.
    pub fn serviceable(&self, sim: &Simulation<StorageNode>, object: usize) -> bool {
        let Some(o) = self.objects.get(object) else {
            return false;
        };
        !o.lost
            && o.slots
                .iter()
                .enumerate()
                .filter(|(si, s)| {
                    s.alive
                        && s.stake_left > 0
                        && sim.is_up(self.providers[s.provider])
                        && sim
                            .node(self.providers[s.provider])
                            .provider_shard(&o.id, *si as u32)
                            .is_some()
                })
                .count()
                >= self.spec.k
    }

    /// The full challenge lifecycle history, in judgment order.
    pub fn history(&self) -> &[ChallengeRecord] {
        &self.history
    }

    /// Challenges opened so far.
    pub fn challenges(&self) -> u64 {
        self.challenges
    }

    /// Challenges resolved (proof landed in time).
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// Challenges expired (slash events).
    pub fn slashes(&self) -> u64 {
        self.slashes
    }

    /// Total stake slashed to the auditor.
    pub fn stake_lost(&self) -> u64 {
        self.stake_lost
    }

    /// Shards re-placed by the repair actor.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Bytes re-uploaded by repair (the write side).
    pub fn repair_bytes(&self) -> u64 {
        self.repair_bytes
    }

    /// Bytes read to reconstruct during repair (the erasure-coding
    /// amplification side).
    pub fn repair_read_bytes(&self) -> u64 {
        self.repair_read_bytes
    }

    /// Objects declared unrecoverable.
    pub fn objects_lost(&self) -> u64 {
        self.objects_lost
    }

    /// The market's token bank (zero-sum across client, providers,
    /// auditor).
    pub fn bank(&self) -> &TokenBank {
        &self.bank
    }

    /// The reputation table.
    pub fn reputation(&self) -> &EwmaReputation {
        &self.reputation
    }

    /// A provider's market account id (for bank / reputation lookups).
    pub fn provider_account(&self, provider: NodeId) -> Option<Hash256> {
        self.providers
            .iter()
            .position(|&p| p == provider)
            .map(|i| self.accounts[i])
    }

    /// The auditor account slashed stake is paid to.
    pub fn oracle_account(&self) -> Hash256 {
        self.oracle_acct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ProviderStrategy;
    use agora_sim::DeviceClass;

    fn build(
        n: usize,
        strategy: impl Fn(usize) -> ProviderStrategy,
        seed: u64,
    ) -> (Simulation<StorageNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let providers: Vec<NodeId> = (0..n)
            .map(|i| {
                sim.add_node(
                    StorageNode::provider(strategy(i)),
                    DeviceClass::PersonalComputer,
                )
            })
            .collect();
        (sim, providers)
    }

    fn spec() -> MarketSpec {
        MarketSpec {
            horizon: SimDuration::from_mins(10),
            ..MarketSpec::default()
        }
    }

    #[test]
    fn oracle_schedule_is_deterministic_and_sorted() {
        let s = spec();
        let a = s.compile_oracle(7);
        let b = s.compile_oracle(7);
        assert_eq!(a.challenges(), b.challenges());
        assert_eq!(a.len() as u64, s.rounds() * s.objects as u64);
        for w in a.challenges().windows(2) {
            assert!(w[0].at <= w[1].at, "schedule must be time-sorted");
        }
        let c = s.compile_oracle(8);
        assert_ne!(a.challenges(), c.challenges(), "seed changes the plan");
    }

    #[test]
    fn honest_market_resolves_everything_and_slashes_nothing() {
        let (mut sim, providers) = build(8, |_| ProviderStrategy::Honest, 1);
        let mut market = StorageMarket::install(&mut sim, spec(), 1, providers);
        market.run_for(&mut sim, SimDuration::from_mins(11));
        assert!(market.challenges() > 0);
        assert_eq!(market.resolved(), market.challenges());
        assert_eq!(market.slashes(), 0);
        assert_eq!(market.durability(&sim), 1.0);
        assert_eq!(market.bank().total(), 0, "token flow is zero-sum");
    }

    #[test]
    fn discarding_provider_is_slashed_and_its_shards_repaired() {
        let (mut sim, providers) = build(
            8,
            |i| {
                if i == 0 {
                    ProviderStrategy::DiscardAfterAck
                } else {
                    ProviderStrategy::Honest
                }
            },
            2,
        );
        let discarder = providers[0];
        let mut market = StorageMarket::install(&mut sim, spec(), 2, providers);
        market.run_for(&mut sim, SimDuration::from_mins(11));
        assert!(market.slashes() > 0, "discarder must be caught");
        assert!(market.stake_lost() > 0);
        assert!(market.repairs() > 0, "lost shards must be re-placed");
        assert_eq!(market.durability(&sim), 1.0, "repair restores redundancy");
        // The auditor is paid out of the cheater's stake.
        assert!(market.bank().balance(&market.oracle_account()) > 0);
        let acct = market.provider_account(discarder).unwrap();
        assert!(
            !market.reputation().eligible(&acct, spec().floor),
            "reputation must fall below the placement floor: {}",
            market.reputation().score(&acct)
        );
        assert!(market.bank().balance(&acct) < 0, "slashes exceed earnings");
    }

    #[test]
    fn killed_provider_expires_challenges_and_repair_reroutes() {
        let (mut sim, providers) = build(8, |_| ProviderStrategy::Honest, 3);
        let victim = providers[0];
        let mut market = StorageMarket::install(&mut sim, spec(), 3, providers);
        market.run_for(&mut sim, SimDuration::from_mins(2));
        sim.kill(victim);
        market.run_for(&mut sim, SimDuration::from_mins(8));
        sim.revive(victim);
        market.run_for(&mut sim, SimDuration::from_mins(1));
        assert!(market.slashes() > 0, "down provider misses deadlines");
        assert!(market.repairs() > 0);
        assert_eq!(market.durability(&sim), 1.0);
    }

    #[test]
    fn challenge_lifecycle_is_deterministic() {
        let run = || {
            let (mut sim, providers) = build(
                8,
                |i| {
                    if i < 2 {
                        ProviderStrategy::PartialKeep(50)
                    } else {
                        ProviderStrategy::Honest
                    }
                },
                4,
            );
            let victim = providers[2];
            let mut market = StorageMarket::install(&mut sim, spec(), 4, providers);
            market.run_for(&mut sim, SimDuration::from_mins(3));
            sim.kill(victim);
            market.run_for(&mut sim, SimDuration::from_mins(4));
            sim.revive(victim);
            market.run_for(&mut sim, SimDuration::from_mins(4));
            market.history().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same Open/Resolved/Expired sequence");
        assert!(a.iter().any(|c| c.state == ChallengeState::Resolved));
        assert!(a.iter().any(|c| c.state == ChallengeState::Expired));
        assert!(
            a.iter().all(|c| c.state != ChallengeState::Open),
            "every judged record left the Open state"
        );
        assert!(
            a.iter()
                .all(|c| c.deadline.since(c.opened_at) == spec().challenge_ttl),
            "TTL is uniform"
        );
    }

    #[test]
    fn replication_is_the_k1_special_case() {
        let (mut sim, providers) = build(6, |_| ProviderStrategy::Honest, 5);
        let rep = MarketSpec {
            k: 1,
            m: 2,
            ..spec()
        };
        let mut market = StorageMarket::install(&mut sim, rep, 5, providers.clone());
        sim.kill(providers[0]);
        market.run_for(&mut sim, SimDuration::from_mins(11));
        assert_eq!(market.durability(&sim), 1.0);
        // Replication repair re-uploads whole objects.
        if market.repairs() > 0 {
            assert_eq!(
                market.repair_bytes() % rep.object_bytes as u64,
                0,
                "each replica repair moves a full object copy"
            );
        }
    }

    #[test]
    fn serviceable_requires_funding() {
        let (mut sim, providers) = build(8, |_| ProviderStrategy::Honest, 6);
        let tiny_stake = MarketSpec { stake: 0, ..spec() };
        let market = StorageMarket::install(&mut sim, tiny_stake, 6, providers);
        // Zero stake: contracts are born in default; paid retrieval is off.
        assert!(!market.serviceable(&sim, 0));
        assert_eq!(market.durability(&sim), 1.0, "bytes exist, money does not");
    }
}
