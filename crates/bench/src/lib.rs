//! # dsm-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! * `table1` — Table 1 "Base Statistics" (diffs, remote misses, messages,
//!   data KB for lmw-i / lmw-u / bar-i / bar-u across the 8 applications),
//! * `fig2` — Figure 2 "8-Proc Speedups",
//! * `fig3` — Figure 3 "Time Breakdown for Bar-u",
//! * `fig4` — Figure 4 "Overdrive Speedups" (7 applications, no barnes),
//! * `summary` — the paper's §3.3/§5.1 headline ratios, paper vs measured,
//! * `sweep` — ablations (process count, page size, stress model,
//!   migration, flush loss),
//! * `apptable` — the application suite's parameters.
//!
//! The checked matrices, each a table renderer over [`matrix::Matrix`]:
//!
//! * `checked` — every app × protocol under the full dsm-check oracles,
//! * `campaign` — the same under a sweep of wire-fault profiles,
//! * `transport` — the same on both transport backends,
//! * `scale` — certified node-count laws, cross-checked against a
//!   node-count sweep.
//!
//! The static reports and the explorer:
//!
//! * `plan` — race-freedom proofs and predicted update traffic,
//! * `regions` — false-sharing certificates, their dynamic grounding, and
//!   measured bar-r traffic,
//! * `explore` — bounded schedule/fault-space exploration and trace replay,
//! * `travel` — time travel over a saved violating schedule.
//!
//! The library provides the shared run matrix (host-parallel across
//! independent runs), the checked-matrix runner, the one command-line
//! parser every bin uses ([`cli`]), table formatting, and the paper's
//! reference numbers.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod matrix;
pub mod paper;
pub mod quick;
pub mod table;

pub use harness::{run_matrix, run_one, Outcome, RunPlan};
