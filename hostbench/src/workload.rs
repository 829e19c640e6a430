//! The four workloads and one measured pass over each.
//!
//! A pass runs every cell of its workload once, serially on the calling
//! thread, in an order drawn from the pass seed. Each cell's host time is
//! split into set-up (app construction plus `StepRun::new`, or the
//! construction and `DsmApp::setup` calls inside `explore`) and run time,
//! and each cell's simulated output is checked. A traced pass does the
//! same work through the probes of [`crate::trace`] and fills [`Layers`].

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dsm_apps::{all_apps, AppSpec, Scale};
use dsm_check::{CheckReport, Checker};
use dsm_core::{CheckSink, DsmApp, ProtocolKind, RunConfig, RunReport, StepRun};
use dsm_explore::{explore, Bounds, CappedApp, ExploreOpts, ExploreReport};
use dsm_sim::{DetRng, TransportKind};

use crate::expect::{explore_baseline, CellKey, Expected, ExploreRow};
use crate::host::HostProbe;
use crate::layers::Layers;
use crate::trace::{AppTimes, Span, TeeSink, TimedApp};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1's cells: 8 apps x {lmw-i, lmw-u, bar-i, bar-u} plus one Seq
    /// baseline per app, paper scale, 8 procs, two-sided wire.
    Paper,
    /// 8 apps x bar-u at paper scale under the full checker, each cell
    /// also run once unchecked.
    Checked,
    /// Bounded DFS over 6 apps x 6 protocols, small scale, 2 procs.
    Explore,
    /// The `paper` cells on the one-sided backend.
    OneSided,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Checked,
        Workload::Explore,
        Workload::OneSided,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Checked => "checked",
            Workload::Explore => "explore",
            Workload::OneSided => "onesided",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The `explore` workload's apps: barnes (~30 s a cell) and swm are left
/// out, and `checked` already stresses barnes's read path.
pub(crate) const EXPLORE_APPS: [&str; 6] = ["expl", "fft", "jacobi", "shallow", "sor", "tomcat"];

/// The six protocols `explore` covers (bar-r needs a region table).
pub(crate) const EXPLORE_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
];

/// Process count and iteration cap of the `explore` cells.
pub(crate) const EXPLORE_NPROCS: usize = 2;
pub(crate) const EXPLORE_ITERS_CAP: usize = 2;

/// One `explore`-workload application instance: small scale, capped.
pub(crate) fn explore_app(name: &str) -> Box<dyn DsmApp> {
    let spec = all_apps()
        .into_iter()
        .find(|a| a.name == name)
        .expect("explore app is in the registry");
    Box::new(CappedApp::new(spec.build(Scale::Small), EXPLORE_ITERS_CAP))
}

/// Host time and outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Summed set-up time of every cell.
    pub setup: Duration,
    /// Summed run time of every cell, excluding set-up.
    pub run: Duration,
    /// `checked` only: the part of `run` spent in the unchecked runs.
    pub unchecked: Duration,
    /// How much slower than the reference the host ran during the pass.
    pub slowdown: f64,
    pub attempted: u64,
    /// One message per failed cell.
    pub failures: Vec<String>,
}

/// The wire backend's label in `expected.txt`.
fn backend_label(t: TransportKind) -> &'static str {
    match t {
        TransportKind::TwoSided => "two-sided",
        TransportKind::OneSided => "one-sided",
    }
}

/// Configuration of one paper-scale cell (`None` = the Seq baseline).
pub(crate) fn paper_config(protocol: Option<ProtocolKind>, transport: TransportKind) -> RunConfig {
    let mut cfg = match protocol {
        None => RunConfig::with_nprocs(ProtocolKind::Seq, 1),
        Some(p) => RunConfig::new(p),
    };
    cfg.sim.transport = transport;
    cfg
}

/// Key of a paper-scale cell.
pub(crate) fn paper_key(
    transport: TransportKind,
    app: &'static str,
    protocol: Option<ProtocolKind>,
) -> CellKey {
    CellKey {
        backend: backend_label(transport),
        app,
        protocol: protocol.map_or("seq", ProtocolKind::label),
    }
}

/// Key of an `explore` cell's default-schedule probe run.
pub(crate) fn probe_key(app: &'static str, protocol: ProtocolKind) -> CellKey {
    CellKey {
        backend: "probe",
        app,
        protocol: protocol.label(),
    }
}

/// Fisher-Yates shuffle driven by the pass seed, if any.
fn shuffle<T>(items: &mut [T], rng: &mut Option<DetRng>) {
    let Some(rng) = rng else { return };
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Runs one pass's cells, accumulating [`Pass`] and, when tracing,
/// [`Layers`].
struct Runner<'a> {
    exp: Option<&'a Expected>,
    /// Sampled after every timed cell, outside its timing.
    host: &'a mut HostProbe,
    pass: Pass,
    layers: Option<Layers>,
}

/// One stepped run: its report, the checker's findings if one was
/// installed, and its run time.
struct Stepped {
    report: RunReport,
    check: Option<CheckReport>,
    run: Duration,
}

impl Runner<'_> {
    /// Record the outcome of one cell.
    fn cell(&mut self, errors: &[String]) {
        self.pass.attempted += 1;
        if !errors.is_empty() {
            self.pass.failures.push(errors.join("; "));
        }
    }

    fn expect(&self, key: &CellKey, r: &RunReport, errors: &mut Vec<String>) {
        if let Some(exp) = self.exp {
            if let Err(e) = exp.check_cell(key, r) {
                errors.push(e);
            }
        }
    }

    /// Build, set up and step one run to completion. `seq` runs count
    /// toward `apps.seq_s` instead of the phase and barrier spans.
    fn stepped(
        &mut self,
        make: impl FnOnce() -> Box<dyn DsmApp>,
        cfg: RunConfig,
        checked: bool,
        seq: bool,
    ) -> Stepped {
        let t0 = Instant::now();
        let mut app = make();
        let checker = checked.then(|| Checker::new(&cfg));
        if let (Some(l), false) = (&self.layers, seq) {
            app = Box::new(TimedApp::new(app, Rc::clone(&l.app)));
        }
        let sink: Option<Box<dyn CheckSink>> = checker.as_ref().map(|c| match &self.layers {
            Some(l) => Box::new(TeeSink::new(c.sink(), Rc::clone(&l.check))) as Box<dyn CheckSink>,
            None => c.sink(),
        });
        let mut run = StepRun::new(app.as_mut(), cfg, sink, None);
        let setup = t0.elapsed();
        let t1 = Instant::now();
        match &mut self.layers {
            None => while run.step() {},
            Some(l) => l.step_all(&mut run, seq),
        }
        let t2 = Instant::now();
        let report = run.finish();
        let check = checker.map(|c| c.report());
        drop(app);
        let run = t1.elapsed();
        if let Some(l) = &mut self.layers {
            l.setup += setup;
            l.finish += t2.elapsed();
            l.add_report(&report);
        }
        self.pass.setup += setup;
        self.pass.run += run;
        self.host.sample();
        Stepped { report, check, run }
    }
}

/// Run one pass of `w`, its cells shuffled by `order` (`None`: the
/// canonical order), sampling the host's speed between cells. `exp` is
/// `None` only while recording.
pub fn run_pass(
    w: Workload,
    exp: Option<&Expected>,
    order: Option<u64>,
    traced: bool,
    host: &mut HostProbe,
) -> (Pass, Option<Layers>) {
    let mut rng = order.map(DetRng::new);
    host.restart();
    let mut r = Runner {
        exp,
        host,
        pass: Pass::default(),
        layers: traced.then(Layers::default),
    };
    let t = Instant::now();
    match w {
        Workload::Paper => paper_pass(&mut r, TransportKind::TwoSided, &mut rng),
        Workload::OneSided => paper_pass(&mut r, TransportKind::OneSided, &mut rng),
        Workload::Checked => checked_pass(&mut r, &mut rng),
        Workload::Explore => explore_pass(&mut r, &mut rng),
    }
    let wall = t.elapsed();
    r.pass.slowdown = r.host.slowdown();
    let mut layers = r.layers;
    if let Some(l) = &mut layers {
        l.wall = wall.saturating_sub(r.host.spent());
    }
    (r.pass, layers)
}

fn paper_pass(r: &mut Runner<'_>, transport: TransportKind, rng: &mut Option<DetRng>) {
    let mut cells: Vec<(AppSpec, Option<ProtocolKind>)> = Vec::new();
    for spec in all_apps() {
        cells.push((spec, None));
        for p in ProtocolKind::BASE_FOUR {
            cells.push((spec, Some(p)));
        }
    }
    shuffle(&mut cells, rng);
    // Every run's checksum must equal its app's Seq baseline, which may
    // run later in the pass: compare once the whole pass has run.
    let mut seq_sums: BTreeMap<&str, u64> = BTreeMap::new();
    let mut done: Vec<(CellKey, u64, Vec<String>)> = Vec::new();
    for (spec, protocol) in cells {
        let key = paper_key(transport, spec.name, protocol);
        let s = r.stepped(
            || spec.build(Scale::Paper),
            paper_config(protocol, transport),
            false,
            protocol.is_none(),
        );
        let mut errors = Vec::new();
        r.expect(&key, &s.report, &mut errors);
        let bits = s.report.checksum.to_bits();
        if protocol.is_none() {
            seq_sums.insert(spec.name, bits);
        }
        done.push((key, bits, errors));
    }
    for (key, bits, mut errors) in done {
        if seq_sums.get(key.app) != Some(&bits) {
            errors.push(format!(
                "{}/{}: checksum differs from the Seq baseline",
                key.app, key.protocol
            ));
        }
        r.cell(&errors);
    }
}

fn checked_pass(r: &mut Runner<'_>, rng: &mut Option<DetRng>) {
    let mut apps = all_apps();
    shuffle(&mut apps, rng);
    for spec in apps {
        let key = paper_key(TransportKind::TwoSided, spec.name, Some(ProtocolKind::BarU));
        let cfg = paper_config(Some(ProtocolKind::BarU), TransportKind::TwoSided);
        let checked = r.stepped(|| spec.build(Scale::Paper), cfg.clone(), true, false);
        let plain = r.stepped(|| spec.build(Scale::Paper), cfg, false, false);
        r.pass.unchecked += plain.run;
        let mut errors = Vec::new();
        let check = checked.check.expect("the checked run installed a checker");
        if !check.is_clean() {
            errors.push(format!(
                "{}: checker flagged {}",
                spec.name,
                check.summary()
            ));
        }
        if format!("{:?}", checked.report) != format!("{:?}", plain.report) {
            errors.push(format!(
                "{}: checked RunReport differs from unchecked",
                spec.name
            ));
        }
        r.expect(&key, &plain.report, &mut errors);
        if let Some(exp) = r.exp {
            let seq = paper_key(TransportKind::TwoSided, spec.name, None);
            if exp.checksum_bits(&seq) != Some(plain.report.checksum.to_bits()) {
                errors.push(format!(
                    "{}: checksum differs from the Seq baseline",
                    spec.name
                ));
            }
        }
        r.cell(&errors);
    }
}

fn explore_pass(r: &mut Runner<'_>, rng: &mut Option<DetRng>) {
    let mut cells: Vec<(&'static str, ProtocolKind)> = Vec::new();
    for app in EXPLORE_APPS {
        for p in EXPLORE_PROTOCOLS {
            cells.push((app, p));
        }
    }
    shuffle(&mut cells, rng);
    let baseline = explore_baseline();
    for (app, protocol) in cells {
        let mut errors = Vec::new();
        // The row gives the schedule budget as well as the outcome to match.
        let Some(&want) = baseline.get(&(app.into(), protocol.label().into())) else {
            errors.push(format!("{app}/{}: no baseline row", protocol.label()));
            r.cell(&errors);
            continue;
        };
        let rep = explore_cell(r, app, protocol, want.budget);
        let got = ExploreRow {
            budget: want.budget,
            schedules: rep.schedules,
            completed: rep.completed,
            pruned: rep.pruned,
            max_points: rep.max_points,
            frontier_exhausted: rep.frontier_exhausted,
            clean: rep.violation.is_none(),
        };
        if got != want {
            errors.push(format!(
                "{app}/{}: baseline {want:?}, measured {got:?}",
                protocol.label()
            ));
        }
        if r.layers.is_some() {
            probe_cell(r, app, protocol, &mut errors);
        }
        r.cell(&errors);
    }
}

/// One bounded exploration within `budget` schedules. Set-up is the app
/// construction plus the `DsmApp::setup` calls `explore` makes, timed
/// through [`TimedApp`].
fn explore_cell(
    r: &mut Runner<'_>,
    app: &'static str,
    protocol: ProtocolKind,
    budget: usize,
) -> ExploreReport {
    let cfg = RunConfig::with_nprocs(protocol, EXPLORE_NPROCS);
    let opts = ExploreOpts {
        max_schedules: budget,
        stop_on_violation: true,
        bounds: Bounds::default(),
        static_groups: None,
    };
    let times = r
        .layers
        .as_ref()
        .map_or_else(|| Rc::new(AppTimes::default()), |l| Rc::clone(&l.app));
    let construct = Span::default();
    let (setup0, phase0) = (times.setup.total(), times.phase.total());
    let (saves0, loads0) = (times.save.calls(), times.load.calls());
    let t = Instant::now();
    let rep = explore(
        || {
            let inner = construct.time(|| explore_app(app));
            Box::new(TimedApp::new(inner, Rc::clone(&times))) as Box<dyn DsmApp>
        },
        &cfg,
        &opts,
    );
    let wall = t.elapsed();
    let setup = construct.total() + (times.setup.total() - setup0);
    r.pass.setup += setup;
    r.pass.run += wall - setup;
    r.host.sample();
    if let Some(l) = &mut r.layers {
        l.setup += setup;
        l.explore_self += wall.saturating_sub(setup + (times.phase.total() - phase0));
        l.schedules += rep.schedules as u64;
        l.completed += rep.completed as u64;
        l.pruned += rep.pruned as u64;
        l.saves += times.save.calls() - saves0;
        l.restores += times.load.calls() - loads0;
    }
    rep
}

/// The checkpoint probe (traced passes only): the cell's default schedule
/// under the teed checker, with a `state_hash` and a snapshot round trip
/// at every step boundary. The restored hash must equal the pre-snapshot
/// hash, and the probed run must reproduce the recorded plain run.
fn probe_cell(
    r: &mut Runner<'_>,
    app: &'static str,
    protocol: ProtocolKind,
    errors: &mut Vec<String>,
) {
    let l = r.layers.as_mut().expect("probe runs only when tracing");
    let cfg = RunConfig::with_nprocs(protocol, EXPLORE_NPROCS);
    let t0 = Instant::now();
    let mut timed = TimedApp::new(explore_app(app), Rc::clone(&l.app));
    let checker = Checker::new(&cfg);
    let sink = Box::new(TeeSink::new(checker.sink(), Rc::clone(&l.check)));
    let mut run = StepRun::new(&mut timed, cfg, Some(sink), None);
    l.setup += t0.elapsed();
    let mut hash_mismatch = false;
    loop {
        let before = l.hash.time(|| run.cluster().state_hash());
        let bytes = l
            .snap_write
            .time(|| dsm_snap::snapshot_run(&run, Some(&checker)));
        l.snap_bytes += bytes.len() as u64;
        l.snap_read
            .time(|| dsm_snap::restore_run(&bytes, &mut run, Some(&checker)));
        let after = l.hash.time(|| run.cluster().state_hash());
        hash_mismatch |= before != after;
        if run.done() {
            break;
        }
        l.step_one(&mut run);
    }
    let t = Instant::now();
    let report = run.finish();
    let check = checker.report();
    drop(timed);
    l.finish += t.elapsed();
    l.add_report(&report);
    if hash_mismatch {
        errors.push(format!(
            "{app}/{}: restored state_hash differs from the pre-snapshot hash",
            protocol.label()
        ));
    }
    if !check.is_clean() {
        errors.push(format!(
            "{app}/{}: probe checker flagged {}",
            protocol.label(),
            check.summary()
        ));
    }
    if let Some(exp) = r.exp {
        if let Err(e) = exp.check_cell(&probe_key(app, protocol), &report) {
            errors.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_explore_cell_has_a_baseline_row() {
        let baseline = explore_baseline();
        for app in EXPLORE_APPS {
            for p in EXPLORE_PROTOCOLS {
                let row = baseline.get(&(app.into(), p.label().into()));
                assert!(row.is_some_and(|r| r.budget > 0), "{app}/{}", p.label());
            }
        }
    }
}
