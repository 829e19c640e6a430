//! Systematic schedule & fault-space exploration runner (dsm-explore).
//!
//! ```text
//! explore [--apps a,b,..] [--protocols lmw-u,bar-u,..] [--nprocs N]
//!         [--iters-cap N] [--budget N] [--drop-points N] [--dup-points N]
//!         [--defers N] [--no-por] [--no-prune] [--por-factor] [--hunt]
//!         [--jobs N] [--save-trace PATH] [--replay FILE]
//! ```
//!
//! Default mode explores every requested app × protocol cell up to a
//! per-protocol schedule budget, running each schedule under the full
//! `dsm-check` oracles, and exits nonzero on any violation. `--por-factor`
//! appends the partial-order-reduction measurement section and `--hunt`
//! the planted-bug regression section (the two extra sections of the
//! committed `results/explore-baseline.txt`). `--replay FILE` re-executes
//! a saved violating schedule instead and prints its findings.
//!
//! `--jobs N` fans the independent app × protocol cells out over N worker
//! threads (capped at the host's available parallelism; default 1). Cells
//! share nothing — each exploration owns its visited set — and results are
//! merged in the fixed cell order, so the output is byte-identical at any
//! job count.
//!
//! All output is deterministic (schedule counts, not wall-clock), so the
//! committed baselines can be `diff`ed byte-for-byte in CI.

#![forbid(unsafe_code)]

use dsm_bench::cli::{explore_app, load_trace, Args, Cli};
use dsm_bench::harness::{host_threads, run_capped};
use dsm_bench::table::TextTable;
use dsm_core::{PlantedBug, ProtocolKind, RunConfig};
use dsm_explore::{
    config_for_trace, explore, replay, Bounds, ChoiceTrace, ExploreOpts, RegressApp,
};

const CLI: Cli = Cli {
    takes: &["--apps", "--protocols", "--nprocs"],
    extra: "[--iters-cap N] [--budget N] [--drop-points N] [--dup-points N] [--defers N] \
            [--no-por] [--no-prune] [--por-factor] [--hunt] [--jobs N] [--save-trace PATH] \
            [--replay FILE]",
    // Every real protocol but bar-r (seq has no inter-process choices).
    protocols: ProtocolKind::REAL.split_at(6).0,
    nprocs: 2,
    ..Cli::new("explore")
};

/// Per-protocol schedule budgets: update protocols branch on every
/// droppable flush, so their fault space is far larger than the
/// invalidate protocols'.
fn default_budget(p: ProtocolKind) -> usize {
    match p {
        ProtocolKind::Seq => 8,
        ProtocolKind::LmwI => 64,
        ProtocolKind::LmwU => 256,
        ProtocolKind::BarI => 96,
        ProtocolKind::BarU | ProtocolKind::BarR => 192,
        ProtocolKind::BarS | ProtocolKind::BarM => 128,
    }
}

/// The bin's own flags.
#[derive(Default)]
struct Opts {
    iters_cap: usize,
    budget: Option<usize>,
    bounds: Bounds,
    por_factor: bool,
    hunt: bool,
    jobs: usize,
    save_trace: Option<String>,
    replay: Option<String>,
}

impl Opts {
    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--no-por" => self.bounds.por = false,
            "--no-prune" => self.bounds.state_prune = false,
            "--por-factor" => self.por_factor = true,
            "--hunt" => self.hunt = true,
            "--iters-cap" => self.iters_cap = args.count(flag, 0)?,
            "--budget" => self.budget = Some(args.count(flag, 0)?),
            "--drop-points" => self.bounds.max_drop_points = args.count(flag, 0)?,
            "--dup-points" => self.bounds.max_dup_points = args.count(flag, 0)?,
            "--defers" => self.bounds.max_defers = args.count(flag, 0)?,
            "--jobs" => self.jobs = args.count(flag, 0)?.clamp(1, host_threads()),
            "--save-trace" => self.save_trace = Some(args.value(flag)?),
            "--replay" => self.replay = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Explore one cell: its table row, plus any violation text for stderr.
/// A pure function of the arguments, so cells can run on any worker
/// thread in any order.
fn run_cell(
    app: &'static str,
    protocol: ProtocolKind,
    nprocs: usize,
    opts: &Opts,
) -> (Vec<String>, Option<String>) {
    let budget = opts.budget.unwrap_or_else(|| default_budget(protocol));
    let cfg = RunConfig::with_nprocs(protocol, nprocs);
    let explore_opts = ExploreOpts {
        max_schedules: budget,
        stop_on_violation: true,
        bounds: opts.bounds,
        static_groups: None,
    };
    let rep = explore(|| explore_app(app, opts.iters_cap), &cfg, &explore_opts);
    let frontier = if rep.frontier_exhausted {
        "done"
    } else {
        "budget"
    };
    let verdict = if rep.violation.is_some() {
        "FLAGGED"
    } else {
        "clean"
    };
    let row = vec![
        app.to_string(),
        protocol.label().to_string(),
        budget.to_string(),
        rep.schedules.to_string(),
        rep.completed.to_string(),
        rep.pruned.to_string(),
        rep.max_points.to_string(),
        frontier.to_string(),
        verdict.to_string(),
    ];
    let violation = rep.violation.map(|v| {
        format!(
            "--- {app} under {} (schedule {}):\n{}\n",
            protocol.label(),
            v.schedule_index,
            v.report.summary()
        )
    });
    (row, violation)
}

fn replay_mode(path: &str) -> ! {
    let trace = load_trace(path).unwrap_or_else(|e| CLI.fail(&e));
    let cfg = config_for_trace(&trace);
    println!(
        "replaying {} choice points: {} under {} ({} procs, planted={})",
        trace.choices.len(),
        trace.app,
        trace.protocol.label(),
        trace.nprocs,
        trace.planted.label(),
    );
    let report = replay(|| explore_app(&trace.app, trace.iters_cap), &cfg, &trace);
    println!(
        "races={} stale={} invariant={}",
        report.races(),
        report.stale_reads(),
        report.invariant_violations()
    );
    print!("{}", report.summary());
    if report.is_clean() {
        println!("replayed schedule is clean");
    }
    std::process::exit(0);
}

/// The POR measurement: same bounded tree of the regression app, POR on
/// vs off, state pruning off in both arms so only the reduction differs.
fn por_factor_section(nprocs: usize) {
    println!("\n== partial-order reduction (regress, lmw-u, {nprocs} procs) ==\n");
    let cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, nprocs);
    let base = Bounds {
        state_prune: false,
        ..Bounds::default()
    };
    let run = |por, max_schedules| {
        let opts = ExploreOpts {
            max_schedules,
            stop_on_violation: false,
            bounds: Bounds { por, ..base },
            static_groups: None,
        };
        explore(|| Box::new(RegressApp::new()), &cfg, &opts)
    };
    let on = run(true, 5000);
    let off = run(false, 2000);
    println!(
        "por on : {} schedules (frontier exhausted: {})",
        on.schedules, on.frontier_exhausted
    );
    let off_count = if off.frontier_exhausted {
        format!("{} schedules", off.schedules)
    } else {
        format!(">= {} schedules (budget cap)", off.schedules)
    };
    println!("por off: {off_count}");
    #[allow(clippy::cast_precision_loss)]
    let factor = off.schedules as f64 / on.schedules.max(1) as f64;
    let cmp = if off.frontier_exhausted { "" } else { ">= " };
    println!("reduction factor: {cmp}{factor:.1}x");
    assert!(
        factor >= 10.0,
        "POR reduction fell below the 10x acceptance bar"
    );
}

/// The planted-bug regression: systematic exploration must find the
/// lmw-u coverage-gap bug in well under 1000 schedules.
fn hunt_section(save_trace: Option<&str>) -> bool {
    println!("\n== planted-bug hunt (regress, lmw-u, 2 procs, lmw-u-coverage-gap) ==\n");
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, 2);
    cfg.planted = PlantedBug::LmwUCoverageGap;
    let opts = ExploreOpts {
        max_schedules: 1000,
        stop_on_violation: true,
        bounds: Bounds::default(),
        static_groups: None,
    };
    let rep = explore(|| Box::new(RegressApp::new()), &cfg, &opts);
    let Some(v) = rep.violation else {
        println!("NOT FOUND within {} schedules", rep.schedules);
        return false;
    };
    println!(
        "violation found at schedule {} ({} choice points, {} stale reads)",
        v.schedule_index,
        v.choices.len(),
        v.report.stale_reads()
    );
    if let Some(path) = save_trace {
        let trace = ChoiceTrace {
            app: "regress".to_string(),
            protocol: cfg.protocol,
            nprocs: 2,
            iters_cap: 0,
            planted: cfg.planted,
            bounds: opts.bounds,
            choices: v.choices,
        };
        std::fs::write(path, trace.to_text())
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path:?}: {e}")));
        println!("replayable trace saved to {path}");
    }
    true
}

fn main() {
    let mut opts = Opts {
        iters_cap: 2,
        jobs: 1,
        ..Opts::default()
    };
    let args = CLI.parse(|flag, args| opts.flag(flag, args));
    if let Some(path) = &opts.replay {
        replay_mode(path);
    }

    println!("== bounded schedule/fault-space exploration ==");
    // The dup-points knob is printed only when enabled so the committed
    // dup-free baselines keep their exact config line.
    let dups = if opts.bounds.max_dup_points > 0 {
        format!(" dup-points={}", opts.bounds.max_dup_points)
    } else {
        String::new()
    };
    println!(
        "config: nprocs={} iters-cap={} drop-points={}{dups} defers={} por={} prune={}",
        args.nprocs,
        opts.iters_cap,
        opts.bounds.max_drop_points,
        opts.bounds.max_defers,
        if opts.bounds.por { "on" } else { "off" },
        if opts.bounds.state_prune { "on" } else { "off" },
    );
    println!();

    let cells: Vec<(&'static str, ProtocolKind)> = args
        .apps
        .iter()
        .flat_map(|&app| args.protocols.iter().map(move |&p| (app, p)))
        .collect();
    let outs = run_capped(&cells, opts.jobs, |&(app, p)| {
        run_cell(app, p, args.nprocs, &opts)
    });

    let mut t = TextTable::new(vec![
        "app",
        "protocol",
        "budget",
        "schedules",
        "checked",
        "pruned",
        "max pts",
        "frontier",
        "verdict",
    ]);
    let mut dirty = 0usize;
    for (row, violation) in outs {
        if let Some(text) = violation {
            dirty += 1;
            eprint!("{text}");
        }
        t.row(row);
    }
    print!("{}", t.render());

    if opts.por_factor {
        por_factor_section(args.nprocs);
    }
    let mut hunt_ok = true;
    if opts.hunt {
        hunt_ok = hunt_section(opts.save_trace.as_deref());
    }

    if dirty > 0 {
        eprintln!("{dirty} cell(s) flagged violations");
        std::process::exit(1);
    }
    if !hunt_ok {
        eprintln!("planted-bug hunt failed to find the violation");
        std::process::exit(1);
    }
}
