//! # dsm-apps — the paper's application suite
//!
//! Rust ports of the eight iterative scientific applications of the paper's
//! Table 1 / Figures 2–4, written against the `dsm-core` shared-memory API
//! with the barrier-phase structure a parallelizing compiler (SUIF) would
//! emit:
//!
//! | app | kernel | sharing pattern |
//! |---|---|---|
//! | [`barnes`] | Barnes-Hut n-body, serial maketree | dynamic/migratory |
//! | [`expl`] | dense explicit stencil (iterative PDE) | nearest-neighbour bands |
//! | [`fft`] | 3-D FFT with transposes | all-to-all |
//! | [`jacobi`] | stencil + max-reduction convergence test | bands + reduction |
//! | [`shallow`] | shallow-water model, coarse-grain sync | bands, many grids |
//! | [`sor`] | red/black successive over-relaxation | bands |
//! | [`swm`] | shallow-water model, fine-grain sync + reductions | bands + reductions |
//! | [`tomcatv`] | SPEC mesh generation (APR transposed layout) | bands + reductions |
//!
//! Every app is parameterized by a [`Scale`], decomposes by contiguous row
//! bands (owner-computes), and structures one *iteration* as a fixed
//! sequence of barrier phases whose write sets are iteration-invariant —
//! except `barnes`, whose per-iteration work assignment is deliberately
//! perturbed (the paper: "Work is allocated via non-deterministic
//! traversals of a shared tree structure, resulting in slightly different
//! sharing patterns each iteration").

#![forbid(unsafe_code)]

pub mod barnes;
pub mod common;
pub mod expl;
pub mod fft;
pub mod fft_math;
pub mod jacobi;
pub mod registry;
pub mod shallow;
pub mod sor;
pub mod swm;
pub mod tomcatv;

pub use common::Scale;
pub use registry::{all_apps, app_by_name, make_app, AppSpec, RegionProof};
