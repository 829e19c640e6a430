//! Differential test of the checker's two shadow structures.
//!
//! `RaceState` and `OracleState` are driven with random event streams and
//! compared against a naive reference model written here: readers and
//! writers keyed by word in ordered maps, overlays with one mask byte per
//! data byte. The streams use 2–12 processes (so reader sets outgrow any
//! small inline tier), 512-byte pages, unaligned writes that straddle
//! 64-byte mask blocks and page boundaries, silent and partly silent
//! stores, corrupted reads, and barriers. Asserted:
//!
//! * the race hits and coherence violations are the same sequences;
//! * the writer's expected view (the silent-store reference) agrees;
//! * `encode_state` bytes equal the model's encoding after every barrier;
//! * encode → `restore_state` → encode round-trips byte-for-byte mid-epoch,
//!   and the restored copy then behaves exactly like the original.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use dsm_check::oracle::OracleState;
use dsm_check::race::{RaceHit, RaceState};
use dsm_check::{RaceKind, Violation};
use dsm_sim::prop::{check, Gen};
use dsm_sim::{SnapReader, SnapWriter};

const PS: usize = 512;
const PAGES: usize = 4;
const WORD: usize = 8;

/// One process's overlay of one page: data, and one 0/1 mask byte per
/// data byte.
type ModelOverlay = (Vec<u8>, Vec<u8>);

/// The reference model: the detector and oracle semantics, spelled out
/// with maps and byte masks.
struct Model {
    clocks: Vec<Vec<u32>>,
    /// Last write per word: (clock, pid).
    writes: BTreeMap<u64, (u32, usize)>,
    /// Readers per word in first-read order: (max read clock, pid).
    reads: BTreeMap<u64, Vec<(u32, usize)>>,
    racy: BTreeSet<u64>,
    /// Pages any access touched (the detector shadows them).
    shadowed: BTreeSet<usize>,
    committed: BTreeMap<usize, Vec<u8>>,
    committed_len: usize,
    /// Per process: page -> overlay.
    overlays: Vec<BTreeMap<usize, ModelOverlay>>,
    /// Per process: one past the highest page it ever wrote.
    overlay_len: Vec<usize>,
    flagged: BTreeSet<u64>,
}

type Hit = (RaceKind, u64, usize, usize);

impl Model {
    fn new(n: usize) -> Model {
        let clocks = (0..n)
            .map(|p| (0..n).map(|q| u32::from(p == q)).collect())
            .collect();
        Model {
            clocks,
            writes: BTreeMap::new(),
            reads: BTreeMap::new(),
            racy: BTreeSet::new(),
            shadowed: BTreeSet::new(),
            committed: BTreeMap::new(),
            committed_len: 0,
            overlays: vec![BTreeMap::new(); n],
            overlay_len: vec![0; n],
            flagged: BTreeSet::new(),
        }
    }

    /// Is the stamp `(clock, q)` unordered before `pid`'s current clock?
    fn unordered(&self, pid: usize, clock: u32, q: usize) -> bool {
        q != pid && clock > self.clocks[pid][q]
    }

    fn words(addr: usize, len: usize) -> std::ops::RangeInclusive<u64> {
        (addr / WORD) as u64..=((addr + len - 1) / WORD) as u64
    }

    fn race_read(&mut self, pid: usize, addr: usize, len: usize, hits: &mut Vec<Hit>) {
        let c = self.clocks[pid][pid];
        for w in Self::words(addr, len) {
            self.shadowed.insert(w as usize * WORD / PS);
            if let Some(&(wc, wp)) = self.writes.get(&w) {
                if self.unordered(pid, wc, wp) && self.racy.insert(w) {
                    hits.push((RaceKind::WriteRead, w, wp, pid));
                }
            }
            let set = self.reads.entry(w).or_default();
            match set.iter_mut().find(|(_, q)| *q == pid) {
                Some(e) => e.0 = e.0.max(c),
                None => set.push((c, pid)),
            }
        }
    }

    fn race_write(&mut self, pid: usize, addr: usize, new: &[u8], cur: &[u8], hits: &mut Vec<Hit>) {
        let c = self.clocks[pid][pid];
        for w in Self::words(addr, new.len()) {
            self.shadowed.insert(w as usize * WORD / PS);
            let lo = (w as usize * WORD).max(addr) - addr;
            let hi = (w as usize * WORD + WORD).min(addr + new.len()) - addr;
            if new[lo..hi] == cur[lo..hi] {
                continue;
            }
            if let Some(&(wc, wp)) = self.writes.get(&w) {
                if self.unordered(pid, wc, wp) && self.racy.insert(w) {
                    hits.push((RaceKind::WriteWrite, w, wp, pid));
                }
            }
            let first = self.reads.get(&w).and_then(|set| {
                set.iter()
                    .find(|&&(qc, q)| self.unordered(pid, qc, q))
                    .map(|&(_, q)| q)
            });
            if let Some(q) = first {
                if self.racy.insert(w) {
                    hits.push((RaceKind::ReadWrite, w, q, pid));
                }
            }
            self.writes.insert(w, (c, pid));
        }
    }

    fn image_write(&mut self, addr: usize, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i;
            self.committed_len = self.committed_len.max(a / PS + 1);
            self.committed.entry(a / PS).or_insert_with(|| vec![0; PS])[a % PS] = b;
        }
    }

    fn expected(&self, pid: usize, addr: usize, len: usize) -> Vec<u8> {
        (addr..addr + len)
            .map(|a| match self.overlays[pid].get(&(a / PS)) {
                Some((data, mask)) if mask[a % PS] == 1 => data[a % PS],
                _ => self.committed.get(&(a / PS)).map_or(0, |c| c[a % PS]),
            })
            .collect()
    }

    fn oracle_write(&mut self, pid: usize, addr: usize, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i;
            self.overlay_len[pid] = self.overlay_len[pid].max(a / PS + 1);
            let (d, m) = self.overlays[pid]
                .entry(a / PS)
                .or_insert_with(|| (vec![0; PS], vec![0; PS]));
            d[a % PS] = b;
            m[a % PS] = 1;
        }
    }

    fn oracle_read(
        &mut self,
        pid: usize,
        addr: usize,
        observed: &[u8],
        epoch: u64,
    ) -> Vec<Violation> {
        let expected = self.expected(pid, addr, observed.len());
        let mut out = Vec::new();
        for w in Self::words(addr, observed.len()) {
            let lo = (w as usize * WORD).max(addr) - addr;
            let hi = (w as usize * WORD + WORD).min(addr + observed.len()) - addr;
            if expected[lo..hi] != observed[lo..hi]
                && !self.racy.contains(&w)
                && self.flagged.insert(w)
            {
                out.push(Violation::StaleRead {
                    pid,
                    addr: addr + lo,
                    epoch,
                    expected: expected[lo..hi].to_vec(),
                    observed: observed[lo..hi].to_vec(),
                });
            }
        }
        out
    }

    fn barrier(&mut self) {
        let n = self.clocks.len();
        let joined: Vec<u32> = (0..n)
            .map(|q| self.clocks.iter().map(|c| c[q]).max().unwrap())
            .collect();
        for (p, c) in self.clocks.iter_mut().enumerate() {
            c.clone_from(&joined);
            c[p] += 1;
        }
        for pid in 0..n {
            for (page, (data, mask)) in std::mem::take(&mut self.overlays[pid]) {
                self.committed_len = self.committed_len.max(page + 1);
                let c = self.committed.entry(page).or_insert_with(|| vec![0; PS]);
                for i in 0..PS {
                    if mask[i] == 1 {
                        c[i] = data[i];
                    }
                }
            }
        }
    }

    /// The detector's and the oracle's snapshot encodings, back to back.
    /// Only called between epochs, when no overlay is live.
    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.clocks.len());
        for c in &self.clocks {
            for &v in c {
                w.u32(v);
            }
        }
        w.usize(self.shadowed.last().map_or(0, |&p| p + 1));
        w.usize(self.shadowed.len());
        for &page in &self.shadowed {
            w.usize(page);
            let wpp = (PS / WORD) as u64;
            let span = page as u64 * wpp..(page as u64 + 1) * wpp;
            let live: BTreeSet<u64> = self
                .writes
                .range(span.clone())
                .map(|(&k, _)| k)
                .chain(self.reads.range(span).map(|(&k, _)| k))
                .collect();
            w.usize(live.len());
            for k in live {
                let (wc, wp) = self.writes.get(&k).copied().unwrap_or((0, 0));
                let set = self.reads.get(&k).map_or(&[][..], Vec::as_slice);
                let rp = match set {
                    [] => 0,
                    [(_, q)] => *q as u16,
                    _ => u16::MAX,
                };
                let rc = set.iter().map(|&(c, _)| c).max().unwrap_or(0);
                w.u32((k % wpp) as u32);
                w.u32(wc);
                w.u16(wp as u16);
                w.u16(rp);
                w.u32(rc);
            }
        }
        w.usize(self.racy.len());
        for &k in &self.racy {
            w.u64(k);
        }
        let spilled: Vec<(&u64, &Vec<(u32, usize)>)> =
            self.reads.iter().filter(|(_, s)| s.len() > 1).collect();
        w.usize(spilled.len());
        for (&k, set) in spilled {
            w.u64(k);
            w.usize(set.len());
            for &(c, q) in set {
                w.u32(c);
                w.u16(q as u16);
            }
        }
        // Oracle.
        w.usize(self.committed_len);
        w.usize(self.committed.len());
        for (&page, bytes) in &self.committed {
            w.usize(page);
            w.raw(bytes);
        }
        w.usize(self.overlays.len());
        for (pid, slots) in self.overlays.iter().enumerate() {
            assert!(slots.is_empty(), "model encoding is defined between epochs");
            w.usize(self.overlay_len[pid]);
            w.usize(0);
        }
        w.usize(self.flagged.len());
        for &k in &self.flagged {
            w.u64(k);
        }
        w.into_bytes()
    }
}

/// The structures under test, driven the way the checker drives them.
struct Real {
    race: RaceState,
    oracle: OracleState,
}

impl Real {
    fn new(n: usize) -> Real {
        Real {
            race: RaceState::new(n, PS),
            oracle: OracleState::new(n, PS),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.race.encode_state(&mut w);
        self.oracle.encode_state(&mut w);
        w.into_bytes()
    }

    fn restored(n: usize, bytes: &[u8]) -> Real {
        let mut r = SnapReader::new(bytes);
        let mut real = Real::new(n);
        real.race.restore_state(&mut r);
        real.oracle.restore_state(&mut r);
        assert_eq!(r.remaining(), 0, "restore left bytes unread");
        real
    }

    fn read(&mut self, pid: usize, addr: usize, observed: &[u8], epoch: u64) -> (Vec<Hit>, String) {
        let mut hits = Vec::new();
        self.race.on_read(pid, addr, observed.len(), &mut hits);
        let mut found = Vec::new();
        let race = &self.race;
        self.oracle.on_read(
            pid,
            addr,
            observed,
            epoch,
            |a| race.word_is_racy(a),
            &mut found,
        );
        (hits.iter().map(hit).collect(), format!("{found:?}"))
    }

    fn write(&mut self, pid: usize, addr: usize, data: &[u8]) -> (Vec<Hit>, Vec<u8>) {
        let mut cur = Vec::new();
        self.oracle.expected_into(pid, addr, data.len(), &mut cur);
        let mut hits = Vec::new();
        self.race.on_write(pid, addr, data, &cur, &mut hits);
        self.oracle.on_write(pid, addr, data);
        (hits.iter().map(hit).collect(), cur)
    }

    fn barrier(&mut self) {
        self.race.barrier();
        self.oracle.barrier_release();
    }
}

fn hit(h: &RaceHit) -> Hit {
    (h.kind, h.word_key, h.first_pid, h.second_pid)
}

/// An access range: unaligned, up to a little over one page long, so it
/// regularly straddles mask blocks and pages.
fn span(g: &mut Gen) -> (usize, usize) {
    let len = if g.chance(0.5) {
        g.range(1, 17)
    } else {
        g.range(1, PS + 80)
    };
    (g.below(PAGES * PS - len + 1), len)
}

/// Cases whose mid-epoch round trip captured spilled reader sets and
/// partly masked overlays, and cases that grew a reader set past eight.
static SPILLED_ROUNDTRIPS: AtomicU64 = AtomicU64::new(0);
static PARTIAL_MASK_ROUNDTRIPS: AtomicU64 = AtomicU64::new(0);
static WIDE_SETS: AtomicU64 = AtomicU64::new(0);

#[test]
fn checker_state_matches_reference_model() {
    check("checker-state-model", 150, |g| {
        let n = g.range(2, 13);
        let mut model = Model::new(n);
        // The original, plus copies restored from mid-epoch snapshots.
        let mut reals = vec![Real::new(n)];
        for _ in 0..g.range(0, 4) {
            let (addr, len) = span(g);
            let data = g.bytes(len);
            model.image_write(addr, &data);
            for r in &mut reals {
                r.oracle.image_write(addr, &data);
            }
        }
        let mut epoch = 1u64;
        let steps = g.range(100, 400);
        let roundtrip_at = g.below(steps);
        for step in 0..steps {
            let pid = g.below(n);
            let roll = g.below(100);
            if roll < 5 {
                model.barrier();
                for r in &mut reals {
                    r.barrier();
                }
                epoch += 1;
                let want = model.encode();
                for r in &reals {
                    assert!(r.encode() == want, "encode_state diverged after a barrier");
                }
            } else if roll < 55 {
                let (addr, len) = span(g);
                let mut observed = model.expected(pid, addr, len);
                if g.chance(0.1) {
                    let i = g.below(len);
                    observed[i] ^= 1 << g.below(8);
                }
                let mut hits = Vec::new();
                model.race_read(pid, addr, len, &mut hits);
                let found = format!("{:?}", model.oracle_read(pid, addr, &observed, epoch));
                for r in &mut reals {
                    assert_eq!(
                        r.read(pid, addr, &observed, epoch),
                        (hits.clone(), found.clone())
                    );
                }
            } else {
                let (addr, len) = span(g);
                let cur = model.expected(pid, addr, len);
                // Silent, partly silent (some bytes changed), or fresh.
                let data = match g.below(3) {
                    0 => cur.clone(),
                    1 => {
                        let mut d = cur.clone();
                        for _ in 0..g.range(1, 4) {
                            d[g.below(len)] = g.u64() as u8;
                        }
                        d
                    }
                    _ => g.bytes(len),
                };
                let mut hits = Vec::new();
                model.race_write(pid, addr, &data, &cur, &mut hits);
                model.oracle_write(pid, addr, &data);
                for r in &mut reals {
                    assert_eq!(r.write(pid, addr, &data), (hits.clone(), cur.clone()));
                }
            }
            if step == roundtrip_at {
                let bytes = reals[0].encode();
                let copy = Real::restored(n, &bytes);
                assert!(
                    copy.encode() == bytes,
                    "encode -> restore -> encode changed bytes"
                );
                if model.reads.values().any(|s| s.len() > 1) {
                    SPILLED_ROUNDTRIPS.fetch_add(1, Ordering::Relaxed);
                }
                let partial = model
                    .overlays
                    .iter()
                    .flat_map(BTreeMap::values)
                    .any(|(_, m)| m.chunks(64).any(|b| b.contains(&0) && b.contains(&1)));
                if partial {
                    PARTIAL_MASK_ROUNDTRIPS.fetch_add(1, Ordering::Relaxed);
                }
                reals.push(copy);
            }
        }
        if model.reads.values().any(|s| s.len() > 8) {
            WIDE_SETS.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(SPILLED_ROUNDTRIPS.load(Ordering::Relaxed) > 0);
    assert!(PARTIAL_MASK_ROUNDTRIPS.load(Ordering::Relaxed) > 0);
    assert!(WIDE_SETS.load(Ordering::Relaxed) > 0);
}
