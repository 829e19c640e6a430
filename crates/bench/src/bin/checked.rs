//! Checked-mode runner: every requested app × protocol under the full
//! dsm-check instrumentation (happens-before races, the LRC coherence
//! oracle, protocol invariants), summarized as one table row per run.
//!
//! ```text
//! checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N] [--scale small|paper]
//! ```
//!
//! Defaults: all eight paper apps, the five unconditionally-sound protocols
//! (lmw-i, lmw-u, bar-i, bar-u, bar-s), 4 processes, small scale. Exits 1
//! if any run flags a violation, so CI can use it as a smoke gate. `--help`
//! prints the usage line; a bad flag, value, app, protocol or scale prints
//! a one-line error and the usage line to stderr and exits 2.

#![forbid(unsafe_code)]

use dsm_apps::{all_apps, app_by_name, Scale};
use dsm_bench::table::TextTable;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};

const SOUND: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

const USAGE: &str =
    "usage: checked [--apps a,b,..] [--protocols lmw-i,bar-u,..] [--nprocs N] [--scale small|paper]";

fn protocol_by_label(label: &str) -> Result<ProtocolKind, String> {
    let all = [
        ProtocolKind::Seq,
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarI,
        ProtocolKind::BarU,
        ProtocolKind::BarS,
        ProtocolKind::BarM,
    ];
    all.into_iter()
        .find(|p| p.label() == label)
        .ok_or_else(|| format!("unknown protocol {label:?}"))
}

struct Args {
    apps: Vec<&'static str>,
    protocols: Vec<ProtocolKind>,
    nprocs: usize,
    scale: Scale,
}

/// Parse the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        apps: all_apps().iter().map(|s| s.name).collect(),
        protocols: SOUND.to_vec(),
        nprocs: 4,
        scale: Scale::Small,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--apps" => {
                args.apps = value()?
                    .split(',')
                    .map(|a| {
                        app_by_name(a)
                            .map(|spec| spec.name)
                            .ok_or_else(|| format!("unknown app {a:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--protocols" => {
                args.protocols = value()?
                    .split(',')
                    .map(protocol_by_label)
                    .collect::<Result<_, _>>()?;
            }
            "--nprocs" => {
                let val = value()?;
                args.nprocs = val
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--nprocs takes a positive count, not {val:?}"))?;
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("checked: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
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
    let mut dirty = 0usize;
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        for &protocol in &args.protocols {
            let cfg = RunConfig::with_nprocs(protocol, args.nprocs);
            let (_, check) = checked_run(spec.build(args.scale).as_mut(), cfg);
            let clean = check.is_clean();
            if !clean {
                dirty += 1;
                eprintln!(
                    "--- {} under {}:\n{}",
                    spec.name,
                    protocol.label(),
                    check.summary()
                );
            }
            t.row(vec![
                spec.name.to_string(),
                protocol.label().to_string(),
                check.events.to_string(),
                check.reads.to_string(),
                check.writes.to_string(),
                check.barriers.to_string(),
                check.hb_edges.to_string(),
                check.races().to_string(),
                check.stale_reads().to_string(),
                check.invariant_violations().to_string(),
                if clean { "clean" } else { "FLAGGED" }.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    if dirty > 0 {
        eprintln!("{dirty} run(s) flagged violations");
        std::process::exit(1);
    }
}
