//! The bench bins' one command-line parser.
//!
//! Every bin takes some of four shared flags (`--apps`, `--protocols`,
//! `--nprocs`, `--scale`) plus `--help`, and handles only its own extra
//! flags, through a callback. Bad input never panics: [`Cli::parse`] prints
//! `<bin>: <error>` and the usage line to stderr and exits 2, and `--help`
//! prints the usage line and exits 0.

use dsm_apps::{all_apps, app_by_name, Scale};
use dsm_core::{DsmApp, ProtocolKind};
use dsm_explore::{CappedApp, ChoiceTrace, RegressApp};

/// The shared flags with their usage fragments, in usage order.
const SHARED: [(&str, &str); 4] = [
    ("--apps", "[--apps a,b,..]"),
    ("--protocols", "[--protocols lmw-i,bar-u,..]"),
    ("--nprocs", "[--nprocs N]"),
    ("--scale", "[--scale small|paper]"),
];

/// One bin's command line: which shared flags it takes, their defaults,
/// and the usage of its own flags.
pub struct Cli {
    /// Prefix of every error line.
    pub bin: &'static str,
    /// The shared flags this bin takes.
    pub takes: &'static [&'static str],
    /// Usage of the bin's own flags, printed after the shared ones.
    pub extra: &'static str,
    pub protocols: &'static [ProtocolKind],
    pub nprocs: usize,
    /// Smallest process count `--nprocs` accepts.
    pub min_nprocs: usize,
    pub scale: Scale,
}

impl Cli {
    /// Every shared flag.
    pub const ALL: &'static [&'static str] = &["--apps", "--protocols", "--nprocs", "--scale"];

    /// A bin taking no shared flag; fill in the rest with struct update.
    pub const fn new(bin: &'static str) -> Cli {
        Cli {
            bin,
            takes: &[],
            extra: "",
            protocols: &ProtocolKind::REAL,
            nprocs: 4,
            min_nprocs: 1,
            scale: Scale::Small,
        }
    }

    pub fn usage(&self) -> String {
        let mut usage = format!("usage: {}", self.bin);
        let shared = SHARED.iter().filter(|(f, _)| self.takes.contains(f));
        for text in shared.map(|(_, t)| *t).chain([self.extra]) {
            if !text.is_empty() {
                usage = format!("{usage} {text}");
            }
        }
        usage
    }

    /// Parse the process's command line. `extra` sees every flag that is
    /// not a shared one this bin takes, and returns `Ok(false)` for a flag
    /// that is not its own either. `--help` prints the usage line and exits
    /// 0; bad input goes to [`Cli::fail`].
    pub fn parse(&self, mut extra: impl FnMut(&str, &mut Args) -> Result<bool, String>) -> Args {
        let mut args = Args {
            apps: all_apps().iter().map(|s| s.name).collect(),
            protocols: self.protocols.to_vec(),
            nprocs: self.nprocs,
            scale: self.scale,
            rest: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        };
        if let Err(e) = self.parse_into(&mut args, &mut extra) {
            self.fail(&e);
        }
        args
    }

    fn parse_into(
        &self,
        args: &mut Args,
        extra: &mut impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<(), String> {
        while let Some(flag) = args.rest.next() {
            match flag.as_str() {
                "--help" | "-h" => {
                    println!("{}", self.usage());
                    std::process::exit(0)
                }
                f if !self.takes.contains(&f) => {
                    if !extra(f, args)? {
                        return Err(format!("unknown flag {f:?}"));
                    }
                }
                "--apps" => {
                    args.apps = args
                        .value(&flag)?
                        .split(',')
                        .map(|a| {
                            app_by_name(a)
                                .map(|spec| spec.name)
                                .ok_or_else(|| format!("unknown app {a:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--protocols" => {
                    args.protocols = args
                        .value(&flag)?
                        .split(',')
                        .map(|p| {
                            ProtocolKind::from_label(p)
                                .ok_or_else(|| format!("unknown protocol {p:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--nprocs" => args.nprocs = args.count(&flag, self.min_nprocs)?,
                _ => {
                    let val = args.value(&flag)?;
                    args.scale =
                        Scale::from_label(&val).ok_or_else(|| format!("unknown scale {val:?}"))?;
                }
            }
        }
        Ok(())
    }

    /// Reject bad input: `<bin>: <error>` and the usage line on stderr,
    /// exit 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("{}: {error}", self.bin);
        eprintln!("{}", self.usage());
        std::process::exit(2)
    }
}

/// The parsed shared flags, plus the unread rest of the command line for
/// the values of a bin's own flags.
pub struct Args {
    pub apps: Vec<&'static str>,
    pub protocols: Vec<ProtocolKind>,
    pub nprocs: usize,
    pub scale: Scale,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The count of at least `min` following `flag`.
    pub fn count(&mut self, flag: &str, min: usize) -> Result<usize, String> {
        let val = self.value(flag)?;
        val.parse().ok().filter(|&n| n >= min).ok_or_else(|| {
            let what = match min {
                0 => "a count".to_string(),
                1 => "a positive count".to_string(),
                _ => format!("a count of at least {min}"),
            };
            format!("{flag} takes {what}, not {val:?}")
        })
    }
}

/// Read and parse a saved choice trace, naming the file in any error.
pub fn load_trace(path: &str) -> Result<ChoiceTrace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
    let trace = ChoiceTrace::parse(&text).map_err(|e| format!("bad trace {path:?}: {e}"))?;
    if trace.app != "regress" && app_by_name(&trace.app).is_none() {
        return Err(format!("bad trace {path:?}: unknown app {:?}", trace.app));
    }
    Ok(trace)
}

/// The application an exploration cell or a trace names: the purpose-built
/// regression app, or a registry app at small scale capped to `iters_cap`
/// iterations.
pub fn explore_app(name: &str, iters_cap: usize) -> Box<dyn DsmApp> {
    if name == "regress" {
        Box::new(RegressApp::new())
    } else {
        let spec = app_by_name(name).expect("app names are checked at parse time");
        Box::new(CappedApp::new(spec.build(Scale::Small), iters_cap))
    }
}
