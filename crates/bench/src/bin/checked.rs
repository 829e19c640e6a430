//! Checked-mode runner: every requested app × protocol under the full
//! dsm-check instrumentation (happens-before races, the LRC coherence
//! oracle, protocol invariants), summarized as one table row per run.
//!
//! ```text
//! checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N] [--scale small|paper]
//! ```
//!
//! Defaults: all eight paper apps, the five unconditionally-sound protocols
//! (lmw-i, lmw-u, bar-i, bar-u, bar-s), 4 processes, small scale; `bar-r`
//! runs with its proven region table. Exits 1 if any run flags a violation
//! (writing its report under `results/repro/`), so CI can use it as a smoke
//! gate.

#![forbid(unsafe_code)]

use dsm_bench::cli::Cli;
use dsm_bench::harness::host_threads;
use dsm_bench::matrix::{Matrix, Variant};
use dsm_bench::table::TextTable;
use dsm_core::ProtocolKind;

const CLI: Cli = Cli {
    takes: Cli::ALL,
    // The five unconditionally-sound protocols, lmw-i through bar-s.
    protocols: ProtocolKind::REAL.split_at(5).0,
    ..Cli::new("checked")
};

fn main() {
    let args = CLI.parse(|_, _| Ok(false));
    let matrix = Matrix::new(CLI.bin, &args, vec![Variant::new("", |_| {})]);
    let cells = matrix.run(host_threads());
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "events",
        "reads",
        "writes",
        "barriers",
        "hb edges",
        "races",
        "stale",
        "invariant",
        "verdict",
    ]);
    for c in &cells {
        let check = &c.check;
        t.row(vec![
            c.app.to_string(),
            c.protocol.label().to_string(),
            check.events.to_string(),
            check.reads.to_string(),
            check.writes.to_string(),
            check.barriers.to_string(),
            check.hb_edges.to_string(),
            check.races().to_string(),
            check.stale_reads().to_string(),
            check.invariant_violations().to_string(),
            c.verdict(),
        ]);
    }
    print!("{}", t.render());
    matrix.finish(&cells, Vec::new());
}
