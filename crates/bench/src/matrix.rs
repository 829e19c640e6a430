//! The one checked-matrix runner: apps × protocols × one variant axis,
//! every cell a run under the full dsm-check oracle stack.
//!
//! A [`Variant`] is a label plus a [`RunConfig`] tweak (a backend, a fault
//! profile, a process count, or nothing). For each app × protocol the
//! runner runs every variant in axis order, installs the proven region
//! table for `bar-r`, and gates each checksum against the axis's first
//! variant: a backend, a lossy wire or a node count may change the time, it
//! may never change the answer. App × protocol groups fan out over the
//! [`run_capped`] queue and merge in the fixed matrix order, so the cells,
//! and every table rendered from them, are identical at any worker count.
//! [`Matrix::finish`] writes each flagged cell's report through the one
//! writer, [`write_repro`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsm_apps::{app_by_name, Scale};
use dsm_check::{checked_run, CheckReport};
use dsm_core::{ProtocolKind, RunConfig, RunReport};

use crate::cli::Args;
use crate::harness::run_capped;

/// One point on a matrix's variant axis.
pub struct Variant {
    /// Names the point in cell names and reports; empty for the one point
    /// of a matrix without a variant axis.
    pub label: String,
    tweak: Box<dyn Fn(&mut RunConfig) + Send + Sync>,
}

impl Variant {
    pub fn new(
        label: impl Into<String>,
        tweak: impl Fn(&mut RunConfig) + Send + Sync + 'static,
    ) -> Variant {
        Variant {
            label: label.into(),
            tweak: Box::new(tweak),
        }
    }
}

/// A checked matrix: which cells to run, and under which bin's name to
/// report them.
pub struct Matrix {
    pub bin: &'static str,
    pub apps: Vec<&'static str>,
    pub protocols: Vec<ProtocolKind>,
    pub nprocs: usize,
    pub scale: Scale,
    pub variants: Vec<Variant>,
}

/// One run of the matrix.
pub struct Cell {
    pub app: &'static str,
    pub protocol: ProtocolKind,
    /// Index into [`Matrix::variants`].
    pub variant: usize,
    pub run: RunReport,
    pub check: CheckReport,
    /// Elapsed virtual ns and checksum of the same app × protocol under
    /// the axis's first variant.
    pub base_ns: u64,
    pub base_checksum: f64,
}

impl Cell {
    pub fn elapsed_ns(&self) -> u64 {
        self.run.elapsed.as_ns()
    }

    pub fn checksum_ok(&self) -> bool {
        self.run.checksum == self.base_checksum
    }

    /// Oracle-clean and the same answer as the first variant.
    pub fn is_clean(&self) -> bool {
        self.check.is_clean() && self.checksum_ok()
    }

    pub fn verdict(&self) -> String {
        if self.check.is_clean() {
            "clean"
        } else {
            "FLAGGED"
        }
        .to_string()
    }
}

impl Matrix {
    /// The matrix the shared flags name, over `variants`.
    pub fn new(bin: &'static str, args: &Args, variants: Vec<Variant>) -> Matrix {
        Matrix {
            bin,
            apps: args.apps.clone(),
            protocols: args.protocols.clone(),
            nprocs: args.nprocs,
            scale: args.scale,
            variants,
        }
    }

    /// Run every cell on `threads` workers; cells come back app-major, then
    /// protocol, then variant.
    pub fn run(&self, threads: usize) -> Vec<Cell> {
        let groups: Vec<(&'static str, ProtocolKind)> = self
            .apps
            .iter()
            .flat_map(|&a| self.protocols.iter().map(move |&p| (a, p)))
            .collect();
        run_capped(&groups, threads, |&(app, protocol)| {
            self.run_group(app, protocol)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn run_group(&self, app: &'static str, protocol: ProtocolKind) -> Vec<Cell> {
        let spec = app_by_name(app).expect("app names are checked at parse time");
        let mut regions: Option<(usize, Arc<_>)> = None;
        let mut cells: Vec<Cell> = Vec::with_capacity(self.variants.len());
        for (variant, v) in self.variants.iter().enumerate() {
            let mut cfg = RunConfig::with_nprocs(protocol, self.nprocs);
            (v.tweak)(&mut cfg);
            if protocol.is_region() {
                let n = cfg.sim.nprocs;
                if regions.as_ref().is_none_or(|(at, _)| *at != n) {
                    regions = Some((n, Arc::new(spec.prove_regions(self.scale, n).table)));
                }
                cfg.regions = regions.as_ref().map(|(_, t)| Arc::clone(t));
            }
            let (run, check) = checked_run(spec.build(self.scale).as_mut(), cfg);
            let (base_ns, base_checksum) = cells
                .first()
                .map_or((run.elapsed.as_ns(), run.checksum), |b| {
                    (b.base_ns, b.base_checksum)
                });
            cells.push(Cell {
                app,
                protocol,
                variant,
                run,
                check,
                base_ns,
                base_checksum,
            });
        }
        cells
    }

    /// `<app>-<protocol>[-<variant>]`.
    pub fn cell_name(&self, c: &Cell) -> String {
        let label = &self.variants[c.variant].label;
        let name = format!("{}-{}", c.app, c.protocol.label());
        if label.is_empty() {
            name
        } else {
            format!("{name}-{label}")
        }
    }

    /// The violation report of one flagged cell.
    pub fn repro_body(&self, c: &Cell) -> String {
        format!(
            "{} violation: {}\nchecksum: run {} vs base {}\n{}",
            self.bin,
            self.cell_name(c),
            c.run.checksum,
            c.base_checksum,
            c.check.summary()
        )
    }

    /// Report every flagged cell in cell order (its report written under
    /// `results/repro/` and echoed to stderr), then, if anything was
    /// flagged, here or in `flagged` by the bin's own gates, print the
    /// tally and exit 1.
    pub fn finish(&self, cells: &[Cell], mut flagged: Vec<String>) {
        for c in cells.iter().filter(|c| !c.is_clean()) {
            let name = self.cell_name(c);
            let body = self.repro_body(c);
            if let Ok(path) = write_repro(Path::new("results/repro"), self.bin, &name, &body) {
                eprintln!("--- {name}: violation report written to {}", path.display());
            }
            eprintln!("{body}");
            flagged.push(name);
        }
        if !flagged.is_empty() {
            eprintln!(
                "{} {} cell(s) flagged: {}",
                flagged.len(),
                self.bin,
                flagged.join(", ")
            );
            std::process::exit(1);
        }
    }
}

/// Write one violation report to `<dir>/<bin>-<cell>.txt`.
pub fn write_repro(dir: &Path, bin: &str, cell: &str, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{bin}-{cell}.txt"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// `delta` as a signed percentage of `base`, one decimal.
pub fn percent(delta: f64, base: u64) -> String {
    format!("{:+.1}%", delta / base.max(1) as f64 * 100.0)
}
