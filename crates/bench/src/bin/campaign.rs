//! Fault-injection campaign: every requested app × protocol under a sweep
//! of named wire-fault profiles, each run under the full dsm-check stack.
//!
//! ```text
//! campaign [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!          [--scale small|paper] [--smoke]
//! ```
//!
//! For every cell the zero-fault run is the reference: the campaign
//! reports the fault profile's virtual-time degradation against it and
//! gates the checksum — a lossy wire may slow a correct protocol down, it
//! may never change its answer. All seven real protocols run by default;
//! `bar-r` with its proven region table, so the campaign doubles as the
//! fault gate for the region fast paths. Retransmission and duplication
//! telemetry comes from the transport's own accounting (`NetStats`), so
//! the table doubles as a goodput-overhead summary.
//!
//! All output is a pure function of the run configuration (virtual time,
//! no wall-clock), so the committed `results/campaign.txt` and
//! `results/campaign-smoke.txt` are `diff`ed byte-for-byte in CI. Any
//! violation writes the offending check report under `results/repro/` and
//! exits nonzero.

#![forbid(unsafe_code)]

use dsm_bench::cli::Cli;
use dsm_bench::harness::host_threads;
use dsm_bench::matrix::{percent, Matrix, Variant};
use dsm_bench::table::TextTable;
use dsm_core::ProtocolKind;
use dsm_sim::FaultProfile;

const CLI: Cli = Cli {
    takes: Cli::ALL,
    extra: "[--smoke]",
    min_nprocs: 2,
    ..Cli::new("campaign")
};

fn main() {
    let args = CLI.parse(|flag, args| {
        if flag != "--smoke" {
            return Ok(false);
        }
        // A two-app cut of the matrix for the fast CI diff gate; the full
        // campaign runs in its own job.
        args.apps = vec!["jacobi", "fft"];
        args.protocols = vec![ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarR];
        Ok(true)
    });
    // The named fault profiles, zero-fault reference first.
    let profile = |name, p: FaultProfile| Variant::new(name, move |cfg| cfg.sim.fault = p.clone());
    let variants = vec![
        profile("none", FaultProfile::none()),
        profile("iid-loss", FaultProfile::iid_loss()),
        profile("burst-loss", FaultProfile::burst_loss()),
        profile("dup-reorder", FaultProfile::dup_reorder()),
        profile("slow-node", FaultProfile::slow_node(args.nprocs - 1)),
    ];
    let matrix = Matrix::new(CLI.bin, &args, variants);
    let names: Vec<&str> = matrix.variants.iter().map(|v| v.label.as_str()).collect();
    println!("== wire fault-injection campaign ==");
    println!(
        "config: nprocs={} scale={} profiles={}",
        args.nprocs,
        args.scale.label(),
        names.join(","),
    );
    println!();

    let cells = matrix.run(host_threads());
    let mut t = TextTable::new(vec![
        "app", "protocol", "profile", "time us", "degrade", "retrans", "retx kB", "dups", "result",
        "verdict",
    ]);
    for c in &cells {
        let net = &c.run.stats.net;
        let elapsed = c.elapsed_ns();
        t.row(vec![
            c.app.to_string(),
            c.protocol.label().to_string(),
            names[c.variant].to_string(),
            (elapsed / 1000).to_string(),
            if c.variant == 0 {
                "base".to_string()
            } else {
                percent(elapsed.saturating_sub(c.base_ns) as f64, c.base_ns)
            },
            net.retransmits.to_string(),
            (net.retransmit_bytes / 1024).to_string(),
            net.flushes_duplicated.to_string(),
            if c.checksum_ok() { "ok" } else { "DIFF" }.to_string(),
            c.verdict(),
        ]);
    }
    print!("{}", t.render());
    matrix.finish(&cells, Vec::new());
}
