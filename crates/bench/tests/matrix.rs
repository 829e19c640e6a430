//! The checked-matrix runner: cells come back in the fixed matrix order
//! with the same contents at any worker count, and the one repro writer
//! names and fills its report files as documented.

use dsm_apps::Scale;
use dsm_bench::matrix::{write_repro, Cell, Matrix, Variant};
use dsm_core::ProtocolKind;
use dsm_sim::transport::TransportKind;

fn small_matrix() -> Matrix {
    Matrix {
        bin: "test",
        apps: vec!["jacobi", "sor"],
        protocols: vec![ProtocolKind::BarU, ProtocolKind::BarR],
        nprocs: 4,
        scale: Scale::Small,
        variants: TransportKind::ALL
            .map(|b| Variant::new(b.label(), move |cfg| cfg.sim.transport = b))
            .into(),
    }
}

/// One rendered row per cell: everything a bin's table could print.
fn rows(m: &Matrix, cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "{} {} {} {:016x} {} {} {}",
                m.cell_name(c),
                c.elapsed_ns(),
                c.base_ns,
                c.run.checksum.to_bits(),
                c.run.stats.net.paper_messages(),
                c.check.events,
                c.verdict(),
            )
        })
        .collect()
}

#[test]
fn cells_are_identical_at_any_worker_count() {
    let m = small_matrix();
    let serial = m.run(1);
    let names: Vec<String> = serial.iter().map(|c| m.cell_name(c)).collect();
    assert_eq!(
        names,
        [
            "jacobi-bar-u-two-sided",
            "jacobi-bar-u-one-sided",
            "jacobi-bar-r-two-sided",
            "jacobi-bar-r-one-sided",
            "sor-bar-u-two-sided",
            "sor-bar-u-one-sided",
            "sor-bar-r-two-sided",
            "sor-bar-r-one-sided",
        ]
    );
    assert!(serial.iter().all(Cell::is_clean));
    assert_eq!(rows(&m, &serial), rows(&m, &m.run(4)));
}

#[test]
fn repro_writer_names_and_fills_the_report() {
    let m = Matrix {
        apps: vec!["jacobi"],
        protocols: vec![ProtocolKind::BarU],
        ..small_matrix()
    };
    let cells = m.run(1);
    let one_sided = &cells[1];
    let name = m.cell_name(one_sided);
    let body = m.repro_body(one_sided);
    let checksum = one_sided.run.checksum;
    assert_eq!(
        body,
        format!(
            "test violation: jacobi-bar-u-one-sided\nchecksum: run {checksum} vs base {checksum}\n{}",
            one_sided.check.summary()
        )
    );

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro");
    let path = write_repro(&dir, m.bin, &name, &body).unwrap();
    assert_eq!(path, dir.join("test-jacobi-bar-u-one-sided.txt"));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), body);
}
