//! `hostbench --workload <paper|checked|explore|onesided> --seed <n>
//!  --seconds <n> --trace <0|1>` measures one workload and prints its
//! metrics, one per line, then a JSON result as the last line.
//! `hostbench --record` prints a fresh `expected.txt`.
//!
//! Exits 0 when every simulated output matched, 1 when one did not, 2 on
//! bad arguments.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hostbench::expect::Expected;
use hostbench::measure::{host_line, json_line, measure, record, Settings};
use hostbench::workload::Workload;

const USAGE: &str = "usage: hostbench --workload <paper|checked|explore|onesided> \
                     --seed <n> --seconds <n> --trace <0|1>\n       hostbench --record";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|e| format!("{flag} {val:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        print!("{}", record());
        return ExitCode::SUCCESS;
    }
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    let outcome = measure(&settings, &Expected::load());
    for note in &outcome.notes {
        println!("{note}");
    }
    for (metric, v) in &outcome.metrics {
        let tag = match metric.kind {
            hostbench::layers::Kind::Exact => "  (exact)",
            hostbench::layers::Kind::Measured => "",
        };
        println!("{:<24} {v:>16.6} {}{tag}", metric.name, metric.unit);
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", json_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
