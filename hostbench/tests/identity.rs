//! Tracing never changes a simulated result: on one small cell per
//! protocol, the timing app wrapper and the tee checker sink leave the
//! `RunReport` and `CheckReport` identical to the unwrapped runs.

use std::rc::Rc;

use dsm_apps::{make_app, Scale};
use dsm_check::{checked_run, Checker};
use dsm_core::{run_app, run_app_checked, ProtocolKind, RunConfig};
use hostbench::layers::{Kind, Layers, END_TO_END};
use hostbench::trace::{AppTimes, CheckTally, EventKind, TeeSink, TimedApp};

const PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Seq,
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarR,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
];

fn cell() -> Box<dyn dsm_core::DsmApp> {
    make_app("jacobi", Scale::Small).expect("jacobi is registered")
}

fn config(p: ProtocolKind) -> RunConfig {
    RunConfig::with_nprocs(p, if p == ProtocolKind::Seq { 1 } else { 4 })
}

#[test]
fn timed_app_leaves_run_report_identical() {
    for p in PROTOCOLS {
        let plain = run_app(cell().as_mut(), config(p));
        let times = Rc::new(AppTimes::default());
        let mut timed = TimedApp::new(cell(), Rc::clone(&times));
        let traced = run_app(&mut timed, config(p));
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "{}", p.label());
        assert_eq!(times.setup.calls(), 1);
        assert!(times.phase.calls() > 0, "{}: phases were timed", p.label());
    }
}

#[test]
fn tee_sink_leaves_run_and_check_reports_identical() {
    for p in PROTOCOLS {
        let (plain_run, plain_check) = checked_run(cell().as_mut(), config(p));
        let checker = Checker::new(&config(p));
        let tally = CheckTally::default();
        let sink = Box::new(TeeSink::new(checker.sink(), Rc::clone(&tally)));
        let mut timed = TimedApp::new(cell(), Rc::new(AppTimes::default()));
        let traced_run = run_app_checked(&mut timed, config(p), sink);
        let traced_check = checker.report();
        let label = p.label();
        assert_eq!(
            format!("{plain_run:?}"),
            format!("{traced_run:?}"),
            "{label}"
        );
        assert_eq!(
            format!("{plain_check:?}"),
            format!("{traced_check:?}"),
            "{label}"
        );
        assert!(
            traced_check.is_clean(),
            "{label}: {}",
            traced_check.summary()
        );

        // The tee saw every event the checker counted, classified alike.
        let t = *tally.borrow();
        let events = |k: EventKind| t[k as usize].events;
        assert_eq!(
            EventKind::ALL.map(events).iter().sum::<u64>(),
            traced_check.events
        );
        assert_eq!(events(EventKind::Read), traced_check.reads, "{label}");
        assert_eq!(events(EventKind::Write), traced_check.writes, "{label}");
    }
}

/// `BENCHMARK.json` names exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names_in = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<String> = Layers::default()
        .values()
        .iter()
        .map(|(m, _)| m.name.to_string())
        .collect();
    assert_eq!(names_in("per_layer"), layers);
    assert!(END_TO_END.iter().all(|m| m.kind == Kind::Measured));
}
