//! dsm-scale driver: certified scaling formulas vs dynamic runs.
//!
//! ```text
//! scale [--smoke]
//! ```
//!
//! Two sections, both at small scale:
//!
//! 1. **Symbolic laws** — for every exact-plan app × modelable protocol,
//!    [`dsm_plan::derive_law`] probes the symbolic lowering at every `N`
//!    in a contiguous fit domain (plus extrapolation spot probes) and
//!    prints the certified piecewise-polynomial formula per metric along
//!    with the sparsity certificate (max copyset sharers, `N`-independent).
//! 2. **Dynamic sweep** — every app × all seven protocols × a node-count
//!    sweep, each cell a real run under the full dsm-check oracle stack
//!    (`bar-r` with its proven region table), every checksum gated against
//!    the sweep's smallest `N`. Where a formula exists the
//!    cell's traffic counters are cross-checked: update messages against
//!    `net.msgs_of(UpdateFlush)`, update bytes against
//!    `net.bytes_of(UpdateFlush)`, notices against the checker's
//!    `version_bumps` (bar family) / `notices_recorded` (lmw family).
//!    Messages and notices must match *exactly*. Bytes must too for
//!    value-exact plans (verdict `exact`); for apps whose stencils can
//!    rewrite words with unchanged values (shallow, swm, tomcat), dynamic
//!    diffs shrink below the static model and the byte formula is instead
//!    certified as an upper bound (verdict `bound`).
//!
//! All output is a pure function of the configuration, so the committed
//! `results/scale-paper.txt` (full matrix, `N` up to 256) and
//! `results/scale-smoke.txt` (two-app CI cut) are `diff`ed byte-for-byte.
//! Any checker violation or formula mismatch exits nonzero.

#![forbid(unsafe_code)]

use dsm_apps::{app_by_name, AppSpec, Scale};
use dsm_bench::cli::Cli;
use dsm_bench::harness::host_threads;
use dsm_bench::matrix::{Matrix, Variant};
use dsm_bench::table::TextTable;
use dsm_core::ProtocolKind;
use dsm_net::MsgKind;
use dsm_plan::{derive_law, measure, ScaleLaw, METRICS};

const CLI: Cli = Cli {
    extra: "[--smoke]",
    ..Cli::new("scale")
};

/// The subset the symbolic prover models, lmw-i through bar-s: `bar-m`
/// diffs span overdrive phases and `bar-r` is validated by the regions
/// cross-check instead.
const MODELED: &[ProtocolKind] = ProtocolKind::REAL.split_at(5).0;

/// Derive the certified law for one modelable cell.
fn cell_law(spec: &AppSpec, proto: ProtocolKind, fit_hi: u64, spots: &[u64]) -> ScaleLaw {
    derive_law(
        |n| {
            let mut app = spec.build_planned(Scale::Small);
            measure(app.as_mut(), proto, n as usize)
        },
        2..=fit_hi,
        spots,
    )
}

fn join<T: ToString>(v: &[T]) -> String {
    v.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn main() {
    let mut sweep: Vec<usize> = vec![16, 64, 256];
    let mut fit_hi: u64 = 96;
    let mut spots: Vec<u64> = vec![128, 256];
    let mut smoke = false;
    let args = CLI.parse(|flag, args| {
        if flag != "--smoke" {
            return Ok(false);
        }
        // Two-app cut for the fast CI diff gate; the full matrix runs in
        // its own job.
        smoke = true;
        args.apps = vec!["jacobi", "sor"];
        sweep = vec![16, 64];
        fit_hi = 80;
        spots = vec![128];
        Ok(true)
    });
    println!("== dsm-scale: symbolic node-count laws and dynamic sweep ==");
    println!(
        "config: scale=small fit=2..={fit_hi} spots={} sweep={}{}",
        join(&spots),
        join(&sweep),
        if smoke { " (smoke)" } else { "" },
    );
    println!();

    // Section 1: certified symbolic laws.
    let mut laws: Vec<(&str, ProtocolKind, ScaleLaw, bool)> = Vec::new();
    println!("-- certified scaling laws (exact equality over the fit domain) --");
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        let plan = spec.build_planned(Scale::Small).plan();
        if !plan.exact {
            println!("app={app} formulas=none reason=inexact-plan");
            continue;
        }
        for &proto in MODELED {
            let law = cell_law(&spec, proto, fit_hi, &spots);
            for (m, f) in METRICS.iter().zip(&law.formulas) {
                println!(
                    "app={app} proto={} metric={m} pieces={} degree={} open_tail={} formula=[{}]",
                    proto.label(),
                    f.pieces.len(),
                    f.degree(),
                    f.has_open_tail(),
                    f.render(),
                );
            }
            let data_bound = law
                .sparsity
                .data_sharers
                .constant_tail()
                .map_or("growing".to_string(), |k| k.to_string());
            println!(
                "app={app} proto={} cert=sparsity data_page_bound={data_bound} \
                 data_sharers=[{}] max_sharers=[{}]",
                proto.label(),
                law.sparsity.data_sharers.render(),
                law.sparsity.max_sharers.render(),
            );
            laws.push((spec.name, proto, law, plan.value_exact));
        }
    }
    println!();

    // Section 2: dynamic sweep under the full oracle stack. The symbolic
    // laws cover the whole run, so the bench warmup window is off and the
    // net counters do too.
    println!("-- dynamic sweep (full dsm-check oracles; formula vs counters) --");
    let variants = sweep
        .iter()
        .map(|&n| {
            Variant::new(format!("n{n}"), move |cfg| {
                cfg.sim.nprocs = n;
                cfg.warmup_iters = 0;
            })
        })
        .collect();
    let matrix = Matrix::new(CLI.bin, &args, variants);
    let cells = matrix.run(host_threads());
    let mut t = TextTable::new(vec![
        "app", "protocol", "N", "time us", "upd msgs", "upd kB", "notices", "formula", "verdict",
    ]);
    let mut flagged = Vec::new();
    for c in &cells {
        let n = sweep[c.variant];
        let net = &c.run.stats.net;
        let got = [
            net.msgs_of(MsgKind::UpdateFlush),
            net.bytes_of(MsgKind::UpdateFlush),
            if c.protocol.is_bar() {
                c.check.version_bumps
            } else {
                c.check.notices_recorded
            },
        ];
        let law = laws
            .iter()
            .find(|(a, p, _, _)| *a == c.app && *p == c.protocol)
            .and_then(|(_, _, l, value_exact)| Some((l.eval(n as u64)?, *value_exact)));
        // Messages and notices must match their formulas exactly. Bytes
        // must too for value-exact plans; for apps whose stencils can
        // rewrite a word with its previous value (silent stores shrink
        // dynamic diffs), the byte formula is a certified *upper bound*
        // instead.
        let formula = match law {
            None => "-".to_string(),
            Some((want, value_exact)) => {
                let mut bound = false;
                let mut bad = Vec::new();
                for (i, m) in METRICS[..3].iter().enumerate() {
                    if got[i] == want[i] {
                        continue;
                    }
                    if *m == "update_bytes" && !value_exact && got[i] < want[i] {
                        bound = true;
                    } else {
                        eprintln!(
                            "--- {}: formula mismatch on {m}: predicted {} observed {}",
                            matrix.cell_name(c),
                            want[i],
                            got[i],
                        );
                        bad.push(*m);
                    }
                }
                if !bad.is_empty() {
                    flagged.push(format!("{}:formula", matrix.cell_name(c)));
                    format!("MISMATCH({})", bad.join(","))
                } else if bound {
                    "bound".to_string()
                } else {
                    "exact".to_string()
                }
            }
        };
        t.row(vec![
            c.app.to_string(),
            c.protocol.label().to_string(),
            n.to_string(),
            (c.elapsed_ns() / 1000).to_string(),
            got[0].to_string(),
            (got[1] / 1024).to_string(),
            got[2].to_string(),
            formula,
            c.verdict(),
        ]);
    }
    print!("{}", t.render());
    matrix.finish(&cells, flagged);
}
