//! Dual-backend protocol matrix: every requested app × protocol on both
//! transport personalities (the two-sided lossy wire and the one-sided
//! RDMA-style backend), each run under the full dsm-check stack.
//!
//! ```text
//! transport [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N]
//!           [--scale small|paper]
//! ```
//!
//! For every cell the two-sided run is the reference: the table reports
//! the one-sided backend's virtual-time delta against it and gates the
//! checksum — the transport may move the messages, it may never change
//! the answer. All seven real protocols run by default, `bar-r` with its
//! proven region table. The closing section ranks update against
//! invalidate within each family per backend: the paper's 1998 ranking
//! (update wins: extra flush bytes are cheaper than remote faults) is a
//! property of the wire, and the one-sided backend's collapsed fetch cost
//! flips it where fetches dominate.
//!
//! All output is a pure function of the run configuration, so the
//! committed `results/transport-small.txt` and
//! `results/transport-paper.txt` are `diff`ed byte-for-byte in CI. Any
//! violation writes the offending check report under `results/repro/` and
//! exits nonzero.

#![forbid(unsafe_code)]

use dsm_apps::Scale;
use dsm_bench::cli::Cli;
use dsm_bench::harness::host_threads;
use dsm_bench::matrix::{percent, Cell, Matrix, Variant};
use dsm_bench::table::TextTable;
use dsm_core::ProtocolKind;
use dsm_sim::transport::TransportKind;

const CLI: Cli = Cli {
    takes: Cli::ALL,
    nprocs: 8,
    min_nprocs: 2,
    scale: Scale::Paper,
    ..Cli::new("transport")
};

/// One family's update-vs-invalidate verdict on the backend at `variant`.
fn winner(
    cells: &[Cell],
    app: &str,
    upd: ProtocolKind,
    inv: ProtocolKind,
    variant: usize,
) -> Option<ProtocolKind> {
    let elapsed = |p| {
        cells
            .iter()
            .find(|c| c.app == app && c.protocol == p && c.variant == variant)
            .map(Cell::elapsed_ns)
    };
    Some(if elapsed(upd)? <= elapsed(inv)? {
        upd
    } else {
        inv
    })
}

fn main() {
    let args = CLI.parse(|_, _| Ok(false));
    let backends = TransportKind::ALL
        .map(|b| Variant::new(b.label(), move |cfg| cfg.sim.transport = b))
        .into();
    let matrix = Matrix::new(CLI.bin, &args, backends);
    println!("== dual-backend transport matrix ==");
    println!(
        "config: nprocs={} scale={} backends=two-sided,one-sided",
        args.nprocs,
        args.scale.label(),
    );
    println!();

    let cells = matrix.run(host_threads());
    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "backend",
        "time us",
        "vs 2-sided",
        "msgs",
        "data kB",
        "result",
        "verdict",
    ]);
    for c in &cells {
        let elapsed = c.elapsed_ns();
        t.row(vec![
            c.app.to_string(),
            c.protocol.label().to_string(),
            matrix.variants[c.variant].label.clone(),
            (elapsed / 1000).to_string(),
            if c.variant == 0 {
                "base".to_string()
            } else {
                percent(elapsed as f64 - c.base_ns as f64, c.base_ns)
            },
            c.run.stats.net.paper_messages().to_string(),
            format!("{:.0}", c.run.stats.net.data_kbytes()),
            if c.checksum_ok() { "ok" } else { "DIFF" }.to_string(),
            c.verdict(),
        ]);
    }
    print!("{}", t.render());

    // The paper's central ranking, re-asked per backend: within each
    // family, does update or invalidate win? A FLIP row is an app where
    // the one-sided wire inverts the 1998 verdict.
    let pairs = [
        (ProtocolKind::LmwU, ProtocolKind::LmwI),
        (ProtocolKind::BarU, ProtocolKind::BarI),
    ];
    let have = |p: ProtocolKind| args.protocols.contains(&p);
    if pairs.iter().any(|&(u, i)| have(u) && have(i)) {
        println!();
        println!("== update-vs-invalidate ranking by backend ==");
        let mut r = TextTable::new(vec!["app", "pair", "two-sided", "one-sided", "verdict"]);
        let mut flips = 0usize;
        let mut compared = 0usize;
        for app in &args.apps {
            for &(upd, inv) in &pairs {
                let (Some(two), Some(one)) = (
                    winner(&cells, app, upd, inv, 0),
                    winner(&cells, app, upd, inv, 1),
                ) else {
                    continue;
                };
                compared += 1;
                let flip = two != one;
                flips += usize::from(flip);
                r.row(vec![
                    (*app).to_string(),
                    format!("{}/{}", upd.label(), inv.label()),
                    two.label().to_string(),
                    one.label().to_string(),
                    if flip { "FLIP" } else { "-" }.to_string(),
                ]);
            }
        }
        print!("{}", r.render());
        println!();
        println!("{flips} of {compared} family rankings flip on the one-sided backend");
    }
    matrix.finish(&cells, Vec::new());
}
