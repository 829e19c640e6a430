//! The traced run's probes: a timing wrapper around [`DsmApp`] and a tee
//! [`CheckSink`] in front of the checker.
//!
//! Both observe from outside the crates they measure and forward every
//! call unchanged, so a traced run produces exactly the simulated results
//! of an untraced one (the crate's tests pin this per protocol).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use dsm_core::{CheckCtx, CheckEvent, CheckSink, DsmApp, ExecCtx, PhaseEnd, SetupCtx};
use dsm_sim::{SnapReader, SnapWriter};

/// Accumulated host time and call count of one kind of call.
#[derive(Default, Debug)]
pub struct Span {
    time: Cell<Duration>,
    calls: Cell<u64>,
}

impl Span {
    /// Time `f`, charge it to this span, and return its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.time.set(self.time.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn total(&self) -> Duration {
        self.time.get()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Host time inside the four timed [`DsmApp`] entry points.
#[derive(Default, Debug)]
pub struct AppTimes {
    pub setup: Span,
    pub phase: Span,
    pub save: Span,
    pub load: Span,
}

/// A [`DsmApp`] that forwards every call to `inner` and times `setup`,
/// `phase`, `save_state` and `load_state` into shared [`AppTimes`].
pub struct TimedApp {
    inner: Box<dyn DsmApp>,
    times: Rc<AppTimes>,
}

impl TimedApp {
    pub fn new(inner: Box<dyn DsmApp>, times: Rc<AppTimes>) -> TimedApp {
        TimedApp { inner, times }
    }
}

impl DsmApp for TimedApp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn iters(&self) -> usize {
        self.inner.iters()
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let inner = &mut self.inner;
        self.times.setup.time(|| inner.setup(s));
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
        let inner = &mut self.inner;
        self.times.phase.time(|| inner.phase(ctx, iter, site))
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        self.inner.check(c)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.times.save.time(|| self.inner.save_state(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) {
        let inner = &mut self.inner;
        self.times.load.time(|| inner.load_state(r));
    }
}

/// The checker event classes the tee tallies separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Read,
    Write,
    /// Barrier arrive and release.
    Barrier,
    Other,
}

impl EventKind {
    pub const ALL: [EventKind; 4] = [
        EventKind::Read,
        EventKind::Write,
        EventKind::Barrier,
        EventKind::Other,
    ];

    /// Kind and payload bytes of one event (payload counted for reads and
    /// writes only).
    fn of(ev: &CheckEvent<'_>) -> (EventKind, usize) {
        match ev {
            CheckEvent::Read { data, .. } => (EventKind::Read, data.len()),
            CheckEvent::Write { data, .. } => (EventKind::Write, data.len()),
            CheckEvent::BarrierArrive { .. } | CheckEvent::BarrierRelease { .. } => {
                (EventKind::Barrier, 0)
            }
            _ => (EventKind::Other, 0),
        }
    }
}

/// Per-kind time, count and payload bytes of checker events.
#[derive(Clone, Copy, Default, Debug)]
pub struct KindTally {
    pub time: Duration,
    pub events: u64,
    pub bytes: u64,
}

/// Tallies shared between a [`TeeSink`] and the benchmark.
pub type CheckTally = Rc<RefCell<[KindTally; 4]>>;

/// A [`CheckSink`] that times each event's delivery to `inner` and
/// forwards the event unchanged.
pub struct TeeSink {
    inner: Box<dyn CheckSink>,
    tally: CheckTally,
}

impl TeeSink {
    pub fn new(inner: Box<dyn CheckSink>, tally: CheckTally) -> TeeSink {
        TeeSink { inner, tally }
    }
}

impl CheckSink for TeeSink {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        let (kind, bytes) = EventKind::of(&ev);
        let t = Instant::now();
        self.inner.on_event(ev);
        let dt = t.elapsed();
        let k = &mut self.tally.borrow_mut()[kind as usize];
        k.time += dt;
        k.events += 1;
        k.bytes += bytes as u64;
    }
}
