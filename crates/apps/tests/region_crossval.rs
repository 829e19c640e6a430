//! Cross-validation of the false-sharing prover against real runs.
//!
//! For every app, at Small scale:
//!
//! * prove the region table from the lowered plan, then watch a `bar-r`
//!   run (certificates installed) through a [`RegionSink`]: every dynamic
//!   write by a certified writer must land inside its proven spans, and on
//!   false-shared pages distinct writers' per-epoch write ranges must be
//!   disjoint — zero certificate violations;
//! * the `bar-r` final checksum must equal `bar-u`'s bit-for-bit (the
//!   region fast path may change traffic, never results);
//! * `bar-r` *without* a region table must degenerate to `bar-u` exactly:
//!   same checksum, same elapsed virtual time, zero twin skips.

use std::sync::Arc;

use dsm_apps::common::Scale;
use dsm_apps::registry::{app_by_name, make_app};
use dsm_core::{run_app, run_app_checked, ProtocolKind, RunConfig};
use dsm_plan::RegionSink;

const NPROCS: usize = 4;

fn ground(name: &str) {
    let proof = app_by_name(name)
        .expect("known app")
        .prove_regions(Scale::Small, NPROCS);
    let rt = Arc::new(proof.table);
    assert!(!rt.is_empty(), "{name}: prover found no written pages");

    // bar-r with the certificates installed, grounded by the sink.
    let (sink, outcome) = RegionSink::new(Arc::clone(&rt), proof.analysis.layout.page_size);
    let mut app = make_app(name, Scale::Small).expect("known app");
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::BarR, NPROCS);
    cfg.regions = Some(Arc::clone(&rt));
    let rr = run_app_checked(app.as_mut(), cfg, Box::new(sink));
    let out = outcome.borrow();
    assert!(
        out.errors.is_empty(),
        "{name}: region certificates falsified by the run:\n{}",
        out.errors.join("\n")
    );
    assert!(out.writes_checked > 0, "{name}: grounding saw no writes");

    // Certified pages actually took the fast path.
    if rt.certified_pages() > 0 {
        assert!(
            rr.stats.region_twin_skips > 0,
            "{name}: {} certified pages but no twin was ever skipped",
            rt.certified_pages()
        );
    }

    // Results are protocol-invariant: bar-r == bar-u, bit for bit.
    let mut app_u = make_app(name, Scale::Small).expect("known app");
    let ru = run_app(
        app_u.as_mut(),
        RunConfig::with_nprocs(ProtocolKind::BarU, NPROCS),
    );
    assert_eq!(
        rr.checksum.to_bits(),
        ru.checksum.to_bits(),
        "{name}: bar-r checksum diverged from bar-u"
    );

    // No table installed: bar-r is bar-u, including virtual time.
    let mut app_p = make_app(name, Scale::Small).expect("known app");
    let rp = run_app(
        app_p.as_mut(),
        RunConfig::with_nprocs(ProtocolKind::BarR, NPROCS),
    );
    assert_eq!(rp.checksum.to_bits(), ru.checksum.to_bits());
    assert_eq!(
        rp.elapsed, ru.elapsed,
        "{name}: tableless bar-r changed virtual time vs bar-u"
    );
    assert_eq!(rp.stats.region_twin_skips, 0);
    assert_eq!(rp.stats.region_elided_pushes, 0);
    assert_eq!(rp.stats.twins, ru.stats.twins);
    assert_eq!(rp.stats.flush_bytes_by_page, ru.stats.flush_bytes_by_page);
}

macro_rules! ground_app {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                ground($name);
            }
        )*
    };
}

ground_app! {
    region_ground_barnes => "barnes",
    region_ground_expl => "expl",
    region_ground_fft => "fft",
    region_ground_jacobi => "jacobi",
    region_ground_shallow => "shallow",
    region_ground_sor => "sor",
    region_ground_swm => "swm",
    region_ground_tomcat => "tomcat",
}
