//! Per-layer accumulators of a traced pass and the metric table.

use std::rc::Rc;
use std::time::{Duration, Instant};

use dsm_core::{DsmApp, RunReport, StepRun};

use crate::trace::{AppTimes, CheckTally, EventKind, Span};

/// How a metric is compared between runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or a ratio of host times: reported as a median.
    Measured,
    /// A deterministic count of simulated work: must repeat exactly, and
    /// a change is a behaviour change, not noise.
    Exact,
}

/// One metric: name, unit, kind.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric { name, unit, kind }
}

use Kind::{Exact, Measured};

/// The end-to-end metrics of an untraced run.
pub const END_TO_END: [Metric; 3] = [
    m("setup_s", "s", Measured),
    m("run_s", "s", Measured),
    m("peak_rss_mb", "MB", Measured),
];

/// Everything one traced pass measured.
#[derive(Default)]
pub struct Layers {
    /// Time inside the timed app entry points.
    pub(crate) app: Rc<AppTimes>,
    /// Time, count and bytes of teed checker events.
    pub(crate) check: CheckTally,
    /// Wall time of the whole traced pass, less the host-speed samples.
    pub(crate) wall: Duration,
    /// Set-up spans: construction plus `StepRun::new`, or the
    /// construction and setup calls inside `explore`.
    pub(crate) setup: Duration,
    /// `StepRun::step` time of the Seq baselines.
    pub(crate) seq: Duration,
    /// `StepRun::step` time minus phase time, protocol runs.
    pub(crate) barrier: Duration,
    pub(crate) steps: u64,
    /// `StepRun::finish` (checksum and report) plus tearing the run down.
    pub(crate) finish: Duration,
    pub(crate) hash: Span,
    pub(crate) snap_write: Span,
    pub(crate) snap_read: Span,
    pub(crate) snap_bytes: u64,
    /// `explore()` time minus the setup and phase time inside it.
    pub(crate) explore_self: Duration,
    pub(crate) schedules: u64,
    pub(crate) completed: u64,
    pub(crate) pruned: u64,
    /// `DsmApp::save_state` / `load_state` calls made inside `explore()`.
    pub(crate) saves: u64,
    pub(crate) restores: u64,
    /// Sums over every finished run's `RunReport`.
    pub(crate) runs: u64,
    pub(crate) virtual_ns: u64,
    pub(crate) remote_misses: u64,
    pub(crate) barriers: u64,
    pub(crate) twins: u64,
    pub(crate) diffs: u64,
    pub(crate) empty_diffs: u64,
    pub(crate) segvs: u64,
    pub(crate) mprotects: u64,
    pub(crate) msgs: u64,
    pub(crate) payload_bytes: u64,
}

impl Layers {
    /// Execute one step, splitting its time into phase and barrier.
    pub(crate) fn step_one<A: DsmApp + ?Sized>(&mut self, run: &mut StepRun<'_, A>) -> bool {
        let phase0 = self.app.phase.total();
        let t = Instant::now();
        let more = run.step();
        let dt = t.elapsed();
        self.barrier += dt.saturating_sub(self.app.phase.total() - phase0);
        self.steps += 1;
        more
    }

    /// Step `run` to completion: as protocol steps, or as one Seq span.
    pub(crate) fn step_all<A: DsmApp + ?Sized>(&mut self, run: &mut StepRun<'_, A>, seq: bool) {
        if seq {
            let t = Instant::now();
            while run.step() {}
            self.seq += t.elapsed();
        } else {
            while self.step_one(run) {}
        }
    }

    /// Fold one finished run's counters in.
    pub(crate) fn add_report(&mut self, r: &RunReport) {
        let s = &r.stats;
        self.runs += 1;
        self.virtual_ns += r.elapsed.as_ns();
        self.remote_misses += s.remote_misses;
        self.barriers += s.barriers;
        self.twins += s.twins;
        self.diffs += s.diffs_created;
        self.empty_diffs += s.empty_diffs;
        self.segvs += s.segvs;
        self.mprotects += s.mprotects;
        self.msgs += s.net.total_msgs();
        self.payload_bytes += s.net.total_payload_bytes();
    }

    /// Time covered by the spans: set-up, phase, barrier, finish, Seq,
    /// explore's own time, and the probe's hash and snapshot spans.
    fn covered(&self) -> Duration {
        self.setup
            + self.app.phase.total()
            + self.barrier
            + self.finish
            + self.seq
            + self.explore_self
            + self.hash.total()
            + self.snap_write.total()
            + self.snap_read.total()
    }

    /// This pass's value of every per-layer metric, layer by layer.
    /// `check.overhead_x` and `trace.overhead_x` need the untraced passes
    /// too; they read 0 here and are filled in by the caller.
    pub fn values(&self) -> Vec<(Metric, f64)> {
        let t = |name, d: Duration| (m(name, "s", Measured), d.as_secs_f64());
        let n = |name, v: u64| (m(name, "count", Exact), v as f64);
        let bytes = |name, v: u64| (m(name, "bytes", Exact), v as f64);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let check = *self.check.borrow();
        let [read, write, barrier, other] = EventKind::ALL.map(|k| check[k as usize]);
        vec![
            t("apps.seq_s", self.seq),
            t("core.setup_s", self.setup),
            t("core.phase_s", self.app.phase.total()),
            n("core.phase_calls", self.app.phase.calls()),
            t("core.barrier_s", self.barrier),
            n("core.steps", self.steps),
            t("core.finish_s", self.finish),
            t("core.state_hash_s", self.hash.total()),
            n("core.state_hash_calls", self.hash.calls()),
            n("core.remote_misses", self.remote_misses),
            n("core.barriers", self.barriers),
            n("vm.twins", self.twins),
            n("vm.diffs", self.diffs),
            n("vm.empty_diffs", self.empty_diffs),
            n("vm.segvs", self.segvs),
            n("vm.mprotects", self.mprotects),
            n("net.msgs", self.msgs),
            (
                m("net.data_kb", "KB", Exact),
                self.payload_bytes as f64 / 1024.0,
            ),
            t("check.read_s", read.time),
            n("check.read_events", read.events),
            bytes("check.read_bytes", read.bytes),
            t("check.write_s", write.time),
            n("check.write_events", write.events),
            bytes("check.write_bytes", write.bytes),
            t("check.barrier_s", barrier.time),
            n("check.barrier_events", barrier.events),
            t("check.other_s", other.time),
            n("check.other_events", other.events),
            (m("check.overhead_x", "x", Measured), 0.0),
            t("snap.write_s", self.snap_write.total()),
            t("snap.read_s", self.snap_read.total()),
            bytes("snap.bytes", self.snap_bytes),
            n("snap.calls", self.snap_write.calls()),
            n("snap.saves", self.saves),
            n("snap.restores", self.restores),
            n("explore.schedules", self.schedules),
            n("explore.completed", self.completed),
            n("explore.pruned", self.pruned),
            (
                m("explore.useful_frac", "ratio", Exact),
                ratio(self.completed as f64, self.schedules as f64),
            ),
            t("explore.self_s", self.explore_self),
            (
                m("sim.virtual_ms", "ms", Exact),
                self.virtual_ns as f64 / 1e6,
            ),
            n("sim.runs", self.runs),
            (m("trace.overhead_x", "x", Measured), 0.0),
            (
                m("trace.coverage", "ratio", Measured),
                ratio(self.covered().as_secs_f64(), self.wall.as_secs_f64()),
            ),
        ]
    }
}
