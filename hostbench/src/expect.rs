//! The simulated outputs every measured cell is checked against.
//!
//! Two sources, both compiled in:
//! * `expected.txt` beside this crate's manifest, written by
//!   `hostbench --record`: per-cell virtual elapsed time, Table 1 counters
//!   and checksum, plus the exact per-layer counters of each workload's
//!   traced pass;
//! * the repository's committed `results/explore-baseline.txt`, whose rows
//!   the `explore` cells must reproduce.

use std::collections::BTreeMap;

use dsm_core::RunReport;

const EXPECTED_TXT: &str = include_str!("../expected.txt");
const EXPLORE_BASELINE: &str = include_str!("../../results/explore-baseline.txt");

/// The simulated outputs of one run that must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellOutput {
    pub elapsed_ns: u64,
    pub diffs: u64,
    pub misses: u64,
    pub msgs: u64,
    pub payload_bytes: u64,
    pub checksum_bits: u64,
}

impl CellOutput {
    pub fn of(r: &RunReport) -> CellOutput {
        CellOutput {
            elapsed_ns: r.elapsed.as_ns(),
            diffs: r.stats.diffs_created,
            misses: r.stats.remote_misses,
            msgs: r.stats.paper_messages(),
            payload_bytes: r.stats.net.total_payload_bytes(),
            checksum_bits: r.checksum.to_bits(),
        }
    }

    /// The `expected.txt` line recording this output for `key`.
    pub fn line(&self, key: &CellKey) -> String {
        format!(
            "cell {} {} {} {} {} {} {} {} {:#018x}",
            key.backend,
            key.app,
            key.protocol,
            self.elapsed_ns,
            self.diffs,
            self.misses,
            self.msgs,
            self.payload_bytes,
            self.checksum_bits
        )
    }
}

/// Identifies a recorded cell: wire backend (`two-sided`, `one-sided`,
/// or `probe` for the small explore-scale runs), app, protocol label.
#[derive(Debug)]
pub struct CellKey {
    pub backend: &'static str,
    pub app: &'static str,
    pub protocol: &'static str,
}

/// One row of `results/explore-baseline.txt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreRow {
    /// The schedule budget the row was explored with.
    pub budget: usize,
    pub schedules: usize,
    pub completed: usize,
    pub pruned: usize,
    pub max_points: usize,
    pub frontier_exhausted: bool,
    pub clean: bool,
}

/// Everything `expected.txt` records: cells and exact counters.
pub struct Expected {
    cells: BTreeMap<(String, String, String), CellOutput>,
    exact: BTreeMap<(String, String), f64>,
}

impl Expected {
    /// Parse the compiled-in records. The file ships with the benchmark,
    /// so a malformed line is a bug in this crate and panics.
    pub fn load() -> Expected {
        let mut cells = BTreeMap::new();
        let mut exact = BTreeMap::new();
        for line in EXPECTED_TXT.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [] => {}
                [c, ..] if c.starts_with('#') => {}
                ["cell", backend, app, protocol, nums @ ..] if nums.len() == 6 => {
                    let n = |i: usize| -> u64 {
                        let s = nums[i];
                        s.strip_prefix("0x").map_or_else(
                            || s.parse().expect("expected.txt: bad number"),
                            |h| u64::from_str_radix(h, 16).expect("expected.txt: bad hex"),
                        )
                    };
                    let out = CellOutput {
                        elapsed_ns: n(0),
                        diffs: n(1),
                        misses: n(2),
                        msgs: n(3),
                        payload_bytes: n(4),
                        checksum_bits: n(5),
                    };
                    let key = ((*backend).into(), (*app).into(), (*protocol).into());
                    cells.insert(key, out);
                }
                ["exact", workload, metric, value] => {
                    let v: f64 = value.parse().expect("expected.txt: bad exact value");
                    exact.insert(((*workload).into(), (*metric).into()), v);
                }
                _ => panic!("expected.txt: unrecognised line {line:?}"),
            }
        }
        Expected { cells, exact }
    }

    /// Compare a run against its recorded output.
    pub fn check_cell(&self, key: &CellKey, r: &RunReport) -> Result<(), String> {
        let got = CellOutput::of(r);
        match self
            .cells
            .get(&(key.backend.into(), key.app.into(), key.protocol.into()))
        {
            None => Err(format!("no recorded output for {}", key_text(key))),
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "{}: recorded {want:?}, measured {got:?}",
                key_text(key)
            )),
        }
    }

    /// The recorded checksum bits of `key`, if recorded.
    pub fn checksum_bits(&self, key: &CellKey) -> Option<u64> {
        self.cells
            .get(&(key.backend.into(), key.app.into(), key.protocol.into()))
            .map(|c| c.checksum_bits)
    }

    /// The recorded value of an exact per-layer counter.
    pub fn exact(&self, workload: &str, metric: &str) -> Option<f64> {
        self.exact.get(&(workload.into(), metric.into())).copied()
    }
}

fn key_text(key: &CellKey) -> String {
    format!("{}/{}/{}", key.backend, key.app, key.protocol)
}

/// The committed explore-baseline rows, keyed by app and protocol label.
pub fn explore_baseline() -> BTreeMap<(String, String), ExploreRow> {
    parse_explore_baseline(EXPLORE_BASELINE)
}

/// The per-cell rows of the exploration table: nine columns, the third
/// through seventh numeric.
fn parse_explore_baseline(text: &str) -> BTreeMap<(String, String), ExploreRow> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [app, protocol, budget, schedules, completed, pruned, max_points, frontier, verdict] =
            f.as_slice()
        else {
            continue;
        };
        let nums: Option<Vec<usize>> = [budget, schedules, completed, pruned, max_points]
            .iter()
            .map(|s| s.parse().ok())
            .collect();
        let Some(nums) = nums else { continue };
        rows.insert(
            ((*app).into(), (*protocol).into()),
            ExploreRow {
                budget: nums[0],
                schedules: nums[1],
                completed: nums[2],
                pruned: nums[3],
                max_points: nums[4],
                frontier_exhausted: *frontier == "done",
                clean: *verdict == "clean",
            },
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_baseline_rows_parse() {
        let rows = parse_explore_baseline(EXPLORE_BASELINE);
        assert_eq!(rows.len(), 48, "8 apps x 6 protocols");
        let fft_bar_u = rows[&("fft".into(), "bar-u".into())];
        assert_eq!(
            fft_bar_u,
            ExploreRow {
                budget: 192,
                schedules: 164,
                completed: 48,
                pruned: 116,
                max_points: 8,
                frontier_exhausted: true,
                clean: true,
            }
        );
    }
}
