//! # agora-observer — an empty shell
//!
//! The observe plane has two homes and neither is here. `agora-sim::probe`
//! names the signals it emits and the overload threshold they are judged
//! at; `agora-harness::observe` runs the two detectors and writes each
//! `OBS_*.jsonl` line (DESIGN.md §16, *one home per decision*).
//!
//! This crate defines nothing. It stays only because the frozen
//! `benchmark/Cargo.lock` lists it as a dependency of `agora-policy` and
//! `agora-harness`: dropping either manifest edge, or the crate, rewrites
//! that lock. It goes, with both edges, in the benchmark rebase window
//! (ROADMAP, benchmark item (d)).

#![forbid(unsafe_code)]
