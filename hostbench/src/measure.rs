//! The measurement loop, the summary, and the recorder of expected values.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dsm_apps::{all_apps, Scale};
use dsm_check::checked_run;
use dsm_core::{run_app, ProtocolKind, RunConfig};
use dsm_sim::{DetRng, TransportKind};

use crate::expect::{CellOutput, Expected};
use crate::host::HostProbe;
use crate::layers::{Kind, Metric, END_TO_END};
use crate::workload::{
    explore_app, paper_config, paper_key, probe_key, run_pass, Pass, Workload, EXPLORE_APPS,
    EXPLORE_NPROCS, EXPLORE_PROTOCOLS,
};

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; passes run until the next one would overrun it
    /// (at least one pass, or one untraced and one traced pass).
    pub seconds: u64,
    /// Per-layer traced run instead of the end-to-end pass.
    pub trace: bool,
}

/// Result of one invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(Metric, f64)>,
    /// Human-readable lines describing how the metrics were measured.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A pass's time rescaled to the reference host speed.
fn rescaled(d: Duration, p: &Pass) -> f64 {
    secs(d) / p.slowdown
}

/// Checked run time over unchecked run time of one `checked` pass.
fn check_overhead(p: &Pass) -> f64 {
    let unchecked = secs(p.unchecked);
    (secs(p.run) - unchecked) / unchecked
}

/// Run passes of `s.workload` for `s.seconds`, check every output, and
/// summarise.
pub fn measure(s: &Settings, exp: &Expected) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(s.seconds);
    let seeds = DetRng::new(s.seed);
    let mut host = HostProbe::default();
    // Untraced passes with the peak resident memory each reached.
    let mut plain: Vec<(Pass, f64)> = Vec::new();
    let mut traced = Vec::new();
    let mut rounds = 0u32;
    loop {
        // The first round keeps the canonical cell order: the heap layout
        // it leaves behind sets the peak resident memory of every later
        // pass, and must not depend on the seed.
        let order = (rounds > 0).then(|| seeds.derive(u64::from(rounds)).next_u64());
        // Traced and untraced passes take turns going first, so neither
        // side always pays the process's first-pass warm-up.
        for traced_now in [!rounds.is_multiple_of(2), rounds.is_multiple_of(2)] {
            if traced_now && !s.trace {
                continue;
            }
            reset_peak_rss();
            let (pass, layers) = run_pass(s.workload, Some(exp), order, traced_now, &mut host);
            match layers {
                Some(l) => traced.push((pass, l)),
                None => plain.push((pass, peak_rss_mb())),
            }
        }
        rounds += 1;
        let per_round = start.elapsed() / rounds;
        if start.elapsed() + per_round > budget {
            break;
        }
    }

    let all: Vec<&Pass> = plain
        .iter()
        .map(|(p, _)| p)
        .chain(traced.iter().map(|(p, _)| p))
        .collect();
    let mut failures: Vec<String> = all.iter().flat_map(|p| p.failures.clone()).collect();
    let mut attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let plain_run = median(plain.iter().map(|(p, _)| rescaled(p.run, p)).collect());
    let wall_run = median(plain.iter().map(|(p, _)| secs(p.run)).collect());
    let slowdown = median(all.iter().map(|p| p.slowdown).collect());
    let overhead = (s.workload == Workload::Checked)
        .then(|| median(plain.iter().map(|(p, _)| check_overhead(p)).collect()));
    let mut notes = vec![format!(
        "{} untraced pass(es){}, {} cells each, {:.1} s measured",
        plain.len(),
        if s.trace {
            format!(" and {} traced", traced.len())
        } else {
            String::new()
        },
        plain[0].0.attempted,
        secs(start.elapsed())
    )];
    notes.push(format!(
        "times rescaled to the reference host speed: host slowdown {slowdown:.4}, \
         wall run time {wall_run:.6} s"
    ));

    let metrics = if s.trace {
        let samples: Vec<Vec<(Metric, f64)>> = traced.iter().map(|(_, l)| l.values()).collect();
        let traced_run = median(traced.iter().map(|(p, _)| rescaled(p.run, p)).collect());
        let mut out = Vec::new();
        let mut changes = Vec::new();
        for (i, &(metric, first)) in samples[0].iter().enumerate() {
            let value = match (metric.kind, metric.name) {
                (_, "check.overhead_x") => overhead.unwrap_or(0.0),
                (_, "trace.overhead_x") => traced_run / plain_run,
                // Per-layer times are rescaled like run_s, so they add up
                // to it; counts and ratios are not.
                (Kind::Measured, _) if metric.unit == "s" => median(
                    samples
                        .iter()
                        .zip(&traced)
                        .map(|(v, (p, _))| v[i].1 / p.slowdown)
                        .collect(),
                ),
                (Kind::Measured, _) => median(samples.iter().map(|v| v[i].1).collect()),
                (Kind::Exact, _) => {
                    changes.extend(exact_mismatch(s.workload, exp, metric, &samples, i));
                    first
                }
            };
            out.push((metric, value));
        }
        // The exact counters count as one more check.
        attempted += 1;
        if !changes.is_empty() {
            failures.push(changes.join("; "));
        }
        out
    } else {
        let setup = median(plain.iter().map(|(p, _)| rescaled(p.setup, p)).collect());
        let rss = median(plain.iter().map(|&(_, rss)| rss).collect());
        if let Some(x) = overhead {
            notes.push(format!(
                "check_overhead_x = {x:.4} x (checked over unchecked run time)"
            ));
        }
        END_TO_END
            .iter()
            .map(|&metric| {
                let v = match metric.name {
                    "setup_s" => setup,
                    "run_s" => plain_run,
                    "peak_rss_mb" => rss,
                    other => unreachable!("no end-to-end metric {other}"),
                };
                (metric, v)
            })
            .collect()
    };
    let failed = failures.len();
    notes.push(format!(
        "fail_rate = {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    ));
    Outcome {
        attempted,
        failures,
        metrics,
        notes,
    }
}

/// An exact counter must repeat across the run's traced passes and equal
/// its recorded value; anything else is a behaviour change.
fn exact_mismatch(
    w: Workload,
    exp: &Expected,
    metric: Metric,
    samples: &[Vec<(Metric, f64)>],
    i: usize,
) -> Option<String> {
    let first = samples[0][i].1;
    if let Some(other) = samples.iter().map(|v| v[i].1).find(|&v| v != first) {
        return Some(format!(
            "behaviour change: {} is not deterministic ({first} vs {other})",
            metric.name
        ));
    }
    match exp.exact(w.name(), metric.name) {
        Some(want) if want == first => None,
        Some(want) => Some(format!(
            "behaviour change: {} recorded {want}, measured {first}",
            metric.name
        )),
        None => Some(format!(
            "behaviour change: {} has no recorded value",
            metric.name
        )),
    }
}

/// Peak resident memory of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], less the host probe's buffers, in MiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb * 1024.0 - HostProbe::RESIDENT_BYTES as f64) / f64::from(1 << 20)
        })
}

/// Restart the peak from the current resident set, so each pass reports
/// its own peak. Where the kernel refuses, the peak stays the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One line naming the host and the measured commit.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("host: nproc={nproc} cpu=\"{cpu}\" commit={}", commit())
}

/// The commit `git rev-parse HEAD` names in the working directory, else
/// "unknown".
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The result line: one JSON object.
pub fn json_line(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (metric, v)) in o.metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.correct(),
        o.attempted,
        o.failures.len()
    )
}

/// Regenerate `expected.txt`: every cell run plainly (no probes, no
/// tracing), then one traced pass per workload for the exact counters.
pub fn record() -> String {
    let mut out = String::from(
        "# Simulated outputs the benchmark checks every cell against.\n\
         # Regenerate with `hostbench --record > hostbench/expected.txt`.\n\
         # cell <backend> <app> <protocol> <elapsed_ns> <diffs> <misses> <msgs> <payload_bytes> <checksum_bits>\n\
         # exact <workload> <metric> <value>\n",
    );
    for transport in [TransportKind::TwoSided, TransportKind::OneSided] {
        for spec in all_apps() {
            for p in std::iter::once(None).chain(ProtocolKind::BASE_FOUR.map(Some)) {
                let r = run_app(
                    spec.build(Scale::Paper).as_mut(),
                    paper_config(p, transport),
                );
                let key = paper_key(transport, spec.name, p);
                out += &CellOutput::of(&r).line(&key);
                out.push('\n');
            }
        }
    }
    for app in EXPLORE_APPS {
        for p in EXPLORE_PROTOCOLS {
            let (r, check) = checked_run(
                explore_app(app).as_mut(),
                RunConfig::with_nprocs(p, EXPLORE_NPROCS),
            );
            assert!(check.is_clean(), "{app}/{}: {}", p.label(), check.summary());
            out += &CellOutput::of(&r).line(&probe_key(app, p));
            out.push('\n');
        }
    }
    for w in Workload::ALL {
        let (pass, layers) = run_pass(w, None, None, true, &mut HostProbe::default());
        assert!(
            pass.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            pass.failures
        );
        for (metric, v) in layers.expect("traced").values() {
            if metric.kind == Kind::Exact {
                let _ = writeln!(out, "exact {} {} {v}", w.name(), metric.name);
            }
        }
    }
    out
}
