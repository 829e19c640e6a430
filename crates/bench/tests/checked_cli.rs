//! The `checked` runner's command line: `--help` succeeds, and every kind
//! of bad input is a one-line error plus the usage line with exit code 2,
//! never a panic.

use std::process::{Command, Output};

fn checked(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_checked"))
        .args(args)
        .output()
        .expect("spawn checked")
}

/// Assert `args` is rejected with `error` on stderr's first line and the
/// usage line on its second.
fn rejects(args: &[&str], error: &str) {
    let out = checked(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{args:?}: {stderr}");
    assert_eq!(lines[0], format!("checked: {error}"));
    assert!(lines[1].starts_with("usage: checked "), "{stderr}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = checked(&[flag]);
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: checked "), "{stdout}");
        assert_eq!(stdout.lines().count(), 1);
        assert!(out.stderr.is_empty());
    }
}

#[test]
fn unknown_flag_is_rejected() {
    rejects(&["--bogus", "1"], "unknown flag \"--bogus\"");
    rejects(&["--bogus"], "unknown flag \"--bogus\"");
}

#[test]
fn missing_value_is_rejected() {
    rejects(&["--apps"], "--apps needs a value");
    rejects(&["--apps", "jacobi", "--scale"], "--scale needs a value");
}

#[test]
fn unknown_app_is_rejected() {
    rejects(&["--apps", "jacobi,nosuch"], "unknown app \"nosuch\"");
}

#[test]
fn unknown_protocol_is_rejected() {
    rejects(
        &["--protocols", "bar-u,bar-x"],
        "unknown protocol \"bar-x\"",
    );
}

#[test]
fn unknown_scale_is_rejected() {
    rejects(&["--scale", "huge"], "unknown scale \"huge\"");
}

#[test]
fn bad_process_count_is_rejected() {
    rejects(
        &["--nprocs", "four"],
        "--nprocs takes a positive count, not \"four\"",
    );
    rejects(
        &["--nprocs", "0"],
        "--nprocs takes a positive count, not \"0\"",
    );
}
