//! Every bench bin's command line: `--help` succeeds, and every kind of
//! bad input is a one-line `<bin>: <error>` plus the usage line with exit
//! code 2, never a panic.

use std::ffi::OsStr;
use std::process::{Command, Output};

fn run(bin: &str, args: &[impl AsRef<OsStr>]) -> Output {
    let exe = match bin {
        "checked" => env!("CARGO_BIN_EXE_checked"),
        "campaign" => env!("CARGO_BIN_EXE_campaign"),
        "transport" => env!("CARGO_BIN_EXE_transport"),
        "scale" => env!("CARGO_BIN_EXE_scale"),
        "explore" => env!("CARGO_BIN_EXE_explore"),
        "plan" => env!("CARGO_BIN_EXE_plan"),
        "regions" => env!("CARGO_BIN_EXE_regions"),
        "travel" => env!("CARGO_BIN_EXE_travel"),
        other => panic!("no bin {other}"),
    };
    Command::new(exe).args(args).output().expect("spawn bin")
}

/// A trace file that is not a trace.
fn malformed_trace() -> String {
    let path = format!("{}/malformed.trace", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, "not a trace\n").unwrap();
    path
}

/// `(bin, args, error)`: each command line must be rejected with exactly
/// `<bin>: <error>` on stderr's first line and the usage line on its
/// second. An `error` ending in `*` matches as a prefix.
fn rejections(trace: &str) -> Vec<(&'static str, Vec<String>, String)> {
    let mut cases = Vec::new();
    let mut case = |bin, args: &[&str], error: &str| {
        let args = args.iter().map(ToString::to_string).collect();
        cases.push((bin, args, error.to_string()));
    };
    for bin in ["checked", "campaign", "transport"] {
        case(bin, &["--bogus", "1"], "unknown flag \"--bogus\"");
        case(bin, &["--bogus"], "unknown flag \"--bogus\"");
        case(bin, &["--apps"], "--apps needs a value");
        case(
            bin,
            &["--apps", "jacobi", "--scale"],
            "--scale needs a value",
        );
        case(bin, &["--apps", "jacobi,nosuch"], "unknown app \"nosuch\"");
        case(
            bin,
            &["--protocols", "bar-u,bar-x"],
            "unknown protocol \"bar-x\"",
        );
        case(bin, &["--scale", "huge"], "unknown scale \"huge\"");
    }
    case(
        "checked",
        &["--nprocs", "four"],
        "--nprocs takes a positive count, not \"four\"",
    );
    case(
        "checked",
        &["--nprocs", "0"],
        "--nprocs takes a positive count, not \"0\"",
    );
    for bin in ["campaign", "transport"] {
        for n in ["1", "four"] {
            case(
                bin,
                &["--nprocs", n],
                &format!("--nprocs takes a count of at least 2, not {n:?}"),
            );
        }
    }
    case("scale", &["--bogus"], "unknown flag \"--bogus\"");
    case("scale", &["--apps", "jacobi"], "unknown flag \"--apps\"");
    case("explore", &["--bogus"], "unknown flag \"--bogus\"");
    case("explore", &["--scale", "small"], "unknown flag \"--scale\"");
    case("explore", &["--budget"], "--budget needs a value");
    case("explore", &["--apps", "nosuch"], "unknown app \"nosuch\"");
    case(
        "explore",
        &["--protocols", "lmw-x"],
        "unknown protocol \"lmw-x\"",
    );
    case(
        "explore",
        &["--budget", "lots"],
        "--budget takes a count, not \"lots\"",
    );
    case(
        "explore",
        &["--nprocs", "0"],
        "--nprocs takes a positive count, not \"0\"",
    );
    case(
        "explore",
        &["--replay", "no/such.trace"],
        "cannot read trace \"no/such.trace\": *",
    );
    case(
        "explore",
        &["--replay", trace],
        &format!("bad trace {trace:?}: not a trace file*"),
    );
    for bin in ["plan", "regions"] {
        case(bin, &["--bogus"], "unknown flag \"--bogus\"");
        case(bin, &["--apps", "jacobi"], "unknown flag \"--apps\"");
        case(bin, &["--scale"], "--scale needs a value");
        case(bin, &["--scale", "huge"], "unknown scale \"huge\"");
    }
    case("travel", &["--bogus"], "unknown flag \"--bogus\"");
    case("travel", &["--trace"], "--trace needs a value");
    case(
        "travel",
        &["--trace", "no/such.trace"],
        "cannot read trace \"no/such.trace\": *",
    );
    case(
        "travel",
        &["--trace", trace],
        &format!("bad trace {trace:?}: not a trace file*"),
    );
    cases
}

#[test]
fn bad_input_is_one_error_line_plus_usage() {
    let trace = malformed_trace();
    for (bin, args, error) in rejections(&trace) {
        let out = run(bin, &args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{bin} {args:?}: {stderr}");
        match error.strip_suffix('*') {
            Some(prefix) => assert!(
                lines[0].starts_with(&format!("{bin}: {prefix}")),
                "{bin} {args:?}: {stderr}"
            ),
            None => assert_eq!(lines[0], format!("{bin}: {error}"), "{args:?}"),
        }
        assert!(lines[1].starts_with(&format!("usage: {bin} ")), "{stderr}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    for bin in [
        "checked",
        "campaign",
        "transport",
        "scale",
        "explore",
        "plan",
        "regions",
        "travel",
    ] {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.starts_with(&format!("usage: {bin} ")), "{stdout}");
            assert_eq!(stdout.lines().count(), 1);
            assert!(out.stderr.is_empty());
        }
    }
}

/// `bar-r` is a protocol like any other: it runs with its proven region
/// table installed and comes out clean.
#[test]
fn checked_runs_bar_r() {
    let out = run("checked", &["--apps", "jacobi", "--protocols", "bar-r"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let row = stdout.lines().nth(2).expect("one table row");
    let fields: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(fields[..2], ["jacobi", "bar-r"], "{stdout}");
    assert_eq!(fields.last(), Some(&"clean"), "{stdout}");
}
