//! Host-cost benchmark of the DSM simulator.
//!
//! Four workloads drive the crates' public entry points — `StepRun`,
//! `dsm_check::Checker`, `dsm_explore::explore`, and
//! `dsm_snap::{snapshot_run, restore_run}` — serially on one thread. The
//! simulator is deterministic, so every simulated output is checked for an
//! exact match and host time is the only thing measured. See `README.md`
//! beside this crate's manifest for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod expect;
pub mod host;
pub mod layers;
pub mod measure;
pub mod trace;
pub mod workload;
