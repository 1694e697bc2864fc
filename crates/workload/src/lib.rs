//! # agora-workload — population-scale demand and churn generation
//!
//! The paper's feasibility argument (§5, Table 3) is about *populations*:
//! hundreds of millions of user devices with consumer-grade availability.
//! This crate generates what those populations do — heavy-tailed content
//! popularity, diurnal activity with timezone structure, flash crowds, and
//! activity-correlated churn — as a deterministic, seed-derived schedule
//! that replays identically at any harness thread count.
//!
//! The pieces:
//!
//! * [`samplers`] — Zipf(α) popularity with an O(1) [`AliasTable`],
//!   log-normal session lengths, bounded-Pareto object sizes, and a
//!   Poisson sampler that stays O(1) at cohort-scale means;
//! * [`arrivals`] — per-timezone [`DiurnalCurve`]s mixed into a global
//!   rate multiplier, plus the [`FlashCrowd`] ramp/plateau/decay
//!   primitive, composed in a [`DemandModel`];
//! * [`driver`] — the [`Cohort`](crate::driver)-scaled compiler
//!   ([`WorkloadSpec::compile`]) producing a [`WorkloadSchedule`] (or,
//!   tick by tick, a [`ScheduleStream`]), and the
//!   [`WorkloadDriver`] that replays it against a simulation the same way
//!   `ChaosController` replays fault schedules — O(cohorts) engine events
//!   per tick regardless of population, with `cohorts == population` as
//!   the exact per-user escape hatch;
//! * [`load`] — the pinned paper-default load constants shared with the
//!   small experiments (E3/E4/E5/E8) so their baselines stay
//!   byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod driver;
pub mod load;
pub mod samplers;

pub use arrivals::{DemandModel, DiurnalCurve, FlashCrowd, ZoneMix, DAY_SECS};
pub use driver::{
    ChurnCurve, Demand, ScheduleStream, WorkloadAction, WorkloadDriver, WorkloadEvent,
    WorkloadSchedule, WorkloadSpec,
};
pub use load::{CommLoad, StorageLoad};
pub use samplers::{
    poisson_scaled, AliasTable, BoundedPareto, LogNormalSessions, ZipfAlias, NORMAL_CUTOVER,
};
