//! Happens-before race detection over shadow memory.
//!
//! Each process carries a vector clock; barriers join every clock (the
//! cluster's only synchronization is barrier-shaped, so after every release
//! the clocks agree — but the detector does not rely on that and performs
//! the general FastTrack-style epoch test). Every 8-byte word of touched
//! shared memory has a shadow cell holding the last write (clock, pid) and
//! the concurrent reader set; an access races with a prior access iff the
//! prior stamp is not `<=` the accessor's clock entry for the prior pid.
//!
//! **Reader sets.** One reader lives inline in the cell. When a second
//! reader appears the set spills: the word's slot in a page-indexed spill
//! index (laid out like the shadow pages, allocated only for pages with a
//! spilled word) names a `(clock, pid)` list in an append-only pool. Both
//! lookups are array indexing, so the access path never hashes, and the
//! set scales to any process count (a pid bitmap would cap the cluster at
//! the word width). A word never unspills.
//!
//! **Silent stores are not writes.** The protocols under test propagate
//! writes by twin/diff comparison: a store of the value the writer's view
//! already holds produces no diff, no write notice, and no coherence
//! action, so no other process can ever observe it. The detector therefore
//! skips any written word whose bytes equal the writer's LRC-expected view
//! (supplied by the caller from the coherence oracle) — matching the
//! system's own value-based definition of a write, and keeping bulk
//! "read-modify-rewrite the whole row" idioms from reporting races on the
//! words they pass through unchanged.

use dsm_sim::{FastSet, SnapReader, SnapWriter};

use crate::report::RaceKind;

/// One vector clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock(pub Vec<u32>);

impl VectorClock {
    pub fn new(n: usize) -> VectorClock {
        VectorClock(vec![0; n])
    }

    /// Elementwise max, in place.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Has the stamp `(clock, pid)` happened before this clock's owner?
    #[inline]
    pub fn covers(&self, clock: u32, pid: usize) -> bool {
        clock <= self.0[pid]
    }
}

/// Shadow state of one 8-byte word. Zero clocks mean "never accessed"
/// (clock values start at 1), so the all-zero default is the identity.
#[derive(Clone, Copy, Default)]
struct Word {
    /// Last write: the writer's clock value and pid.
    wc: u32,
    wp: u16,
    /// Sole reader pid while the word has one concurrent reader;
    /// [`READERS_SHARED`] once a second reader appears, at which point
    /// the full `(clock, pid)` set lives in `RaceState::spill_pool`.
    rp: u16,
    /// Highest read clock across the tracked readers.
    rc: u32,
}

/// Sentinel for `Word::rp`: the reader set has spilled to the pool.
const READERS_SHARED: u16 = u16::MAX;

const WORD: usize = 8;

/// One page's spill index: per word, `1 +` the pool slot of its spilled
/// reader set, or 0 while the word has at most one reader.
type SpillPage = Option<Box<[u32]>>;

/// The race detector.
pub struct RaceState {
    clocks: Vec<VectorClock>,
    /// Shadow cells, indexed densely by page number (`None` = untouched).
    /// Page numbers come from segment offsets, so the vector stays small;
    /// dense indexing keeps the per-access lookup a bounds check instead
    /// of a hash probe.
    shadow: Vec<Option<Box<[Word]>>>,
    /// Word keys (addr / 8) found racy; used for dedup and to let the
    /// coherence oracle suppress mismatches on racy words (under LRC a racy
    /// read may legally return either value).
    racy: FastSet<u64>,
    /// Spill index, same dense page indexing and length as `shadow`.
    spill_index: Vec<SpillPage>,
    /// Spilled reader sets, `(read clock, pid)` per reader in insertion
    /// order; one entry per word whose index slot is nonzero.
    spill_pool: Vec<Vec<(u32, u16)>>,
    words_per_page: usize,
    /// `log2(words_per_page)`; page sizes are powers of two by the VM's
    /// own assertion, and a shift beats a division by a runtime value in
    /// the per-access loop.
    // audit: skip(snap): derived from words_per_page at construction
    wpp_shift: u32,
}

/// A race found by one access, before deduplication.
pub struct RaceHit {
    pub kind: RaceKind,
    pub word_key: u64,
    pub first_pid: usize,
    pub second_pid: usize,
}

/// The shadow cells (materialized on first touch) and the spill index of
/// `page`, growing both page tables in step.
fn page_slots<'a>(
    shadow: &'a mut Vec<Option<Box<[Word]>>>,
    spill_index: &'a mut Vec<SpillPage>,
    page: usize,
    wpp: usize,
) -> (&'a mut [Word], &'a mut SpillPage) {
    if page >= shadow.len() {
        shadow.resize_with(page + 1, || None);
        spill_index.resize_with(page + 1, || None);
    }
    let cells = shadow[page].get_or_insert_with(|| vec![Word::default(); wpp].into_boxed_slice());
    (cells, &mut spill_index[page])
}

impl RaceState {
    pub fn new(nprocs: usize, page_size: usize) -> RaceState {
        assert!(page_size.is_power_of_two() && page_size >= WORD);
        assert!(nprocs < READERS_SHARED as usize, "pid space exhausted");
        let mut clocks = vec![VectorClock::new(nprocs); nprocs];
        for (p, c) in clocks.iter_mut().enumerate() {
            c.0[p] = 1;
        }
        let words_per_page = page_size / WORD;
        RaceState {
            clocks,
            shadow: Vec::new(),
            racy: FastSet::default(),
            spill_index: Vec::new(),
            spill_pool: Vec::new(),
            words_per_page,
            wpp_shift: words_per_page.trailing_zeros(),
        }
    }

    /// All-process barrier: join every clock into every other and advance
    /// each process's own component. Returns the number of happens-before
    /// edges the barrier added (fan-in plus fan-out through the master).
    pub fn barrier(&mut self) -> u64 {
        let n = self.clocks.len();
        let mut j = VectorClock::new(n);
        for c in &self.clocks {
            j.join(c);
        }
        for (p, c) in self.clocks.iter_mut().enumerate() {
            c.0.copy_from_slice(&j.0);
            c.0[p] += 1;
        }
        2 * (n as u64).saturating_sub(1)
    }

    /// True if `addr`'s word has been flagged racy.
    pub fn word_is_racy(&self, addr: usize) -> bool {
        self.racy.contains(&((addr / WORD) as u64))
    }

    pub fn words_shadowed(&self) -> u64 {
        let touched = self.shadow.iter().filter(|s| s.is_some()).count();
        (touched * self.words_per_page) as u64
    }

    /// Encode the detector state for a snapshot. The racy set is written
    /// in sorted key order (its iteration order is arbitrary) and spilled
    /// reader sets in ascending word order (pages, then words). The
    /// *inside* of a spilled reader set keeps its insertion order verbatim:
    /// `on_write` scans it front-to-back and stops at the first unordered
    /// reader, so the order is observable.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.usize(self.clocks.len());
        for c in &self.clocks {
            for &v in &c.0 {
                w.u32(v);
            }
        }
        w.usize(self.shadow.len());
        let touched: Vec<usize> = (0..self.shadow.len())
            .filter(|&p| self.shadow[p].is_some())
            .collect();
        w.usize(touched.len());
        for &page in &touched {
            let cells = self.shadow[page].as_ref().unwrap();
            w.usize(page);
            let live: Vec<(usize, &Word)> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.wc != 0 || c.wp != 0 || c.rp != 0 || c.rc != 0)
                .collect();
            w.usize(live.len());
            for (widx, c) in live {
                w.u32(widx as u32);
                w.u32(c.wc);
                w.u16(c.wp);
                w.u16(c.rp);
                w.u32(c.rc);
            }
        }
        let mut racy: Vec<u64> = self.racy.iter().copied().collect();
        racy.sort_unstable();
        w.usize(racy.len());
        for k in racy {
            w.u64(k);
        }
        w.usize(self.spill_pool.len());
        for (page, index) in self.spill_index.iter().enumerate() {
            let Some(index) = index else { continue };
            for (widx, &slot) in index.iter().enumerate() {
                if slot == 0 {
                    continue;
                }
                w.u64(((page << self.wpp_shift) + widx) as u64);
                let set = &self.spill_pool[slot as usize - 1];
                w.usize(set.len());
                for &(qc, q) in set {
                    w.u32(qc);
                    w.u16(q);
                }
            }
        }
    }

    /// Restore a [`RaceState::encode_state`] capture. The detector must
    /// have been built with the same `nprocs` and `page_size`.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) {
        let n = r.usize();
        assert_eq!(n, self.clocks.len(), "snapshot from a different nprocs");
        for c in &mut self.clocks {
            for v in &mut c.0 {
                *v = r.u32();
            }
        }
        let npages = r.usize();
        self.shadow.clear();
        self.shadow.resize_with(npages, || None);
        self.spill_index.clear();
        self.spill_index.resize_with(npages, || None);
        for _ in 0..r.usize() {
            let page = r.usize();
            let mut cells = vec![Word::default(); self.words_per_page].into_boxed_slice();
            for _ in 0..r.usize() {
                let widx = r.u32() as usize;
                cells[widx] = Word {
                    wc: r.u32(),
                    wp: r.u16(),
                    rp: r.u16(),
                    rc: r.u32(),
                };
            }
            self.shadow[page] = Some(cells);
        }
        self.racy = FastSet::default();
        for _ in 0..r.usize() {
            self.racy.insert(r.u64());
        }
        let wpp = self.words_per_page;
        self.spill_pool.clear();
        for _ in 0..r.usize() {
            let k = r.u64() as usize;
            let len = r.usize();
            let mut set = Vec::with_capacity(len);
            for _ in 0..len {
                set.push((r.u32(), r.u16()));
            }
            self.spill_pool.push(set);
            let index = self.spill_index[k >> self.wpp_shift]
                .get_or_insert_with(|| vec![0; wpp].into_boxed_slice());
            index[k & (wpp - 1)] = self.spill_pool.len() as u32;
        }
    }

    /// Record a read of `[addr, addr + len)` by `pid`; push newly racy
    /// words into `out`.
    pub fn on_read(&mut self, pid: usize, addr: usize, len: usize, out: &mut Vec<RaceHit>) {
        if len == 0 {
            return;
        }
        // Split borrow: the accessor's clock is only read, while the shadow
        // cells, spill tables and racy set are mutated.
        let RaceState {
            clocks,
            shadow,
            racy,
            spill_index,
            spill_pool,
            words_per_page,
            wpp_shift,
        } = self;
        let (wpp, shift) = (*words_per_page, *wpp_shift);
        let clock = &clocks[pid];
        let c = clock.0[pid];
        let me = pid as u16;
        let last = (addr + len - 1) / WORD;
        let mut w = addr / WORD;
        while w <= last {
            let page = w >> shift;
            let base = page << shift;
            let hi = last.min(base + wpp - 1);
            let (cells, index) = page_slots(shadow, spill_index, page, wpp);
            let start = w - base;
            for (i, cell) in cells[start..=hi - base].iter_mut().enumerate() {
                let widx = start + i;
                // Prior write vs this read.
                if cell.wc != 0 && cell.wp != me && !clock.covers(cell.wc, cell.wp as usize) {
                    let key = (base + widx) as u64;
                    if racy.insert(key) {
                        out.push(RaceHit {
                            kind: RaceKind::WriteRead,
                            word_key: key,
                            first_pid: cell.wp as usize,
                            second_pid: pid,
                        });
                    }
                }
                // Record the read. One reader is tracked inline; a second
                // spills the set — each reader keeping its own clock.
                if cell.rc == 0 || cell.rp == me {
                    cell.rp = me;
                } else if cell.rp == READERS_SHARED {
                    let slot = index.as_ref().expect("spill index")[widx];
                    let set = &mut spill_pool[slot as usize - 1];
                    match set.iter_mut().find(|(_, q)| *q == me) {
                        Some(e) => e.0 = e.0.max(c),
                        None => set.push((c, me)),
                    }
                } else {
                    spill_pool.push(vec![(cell.rc, cell.rp), (c, me)]);
                    index.get_or_insert_with(|| vec![0; wpp].into_boxed_slice())[widx] =
                        spill_pool.len() as u32;
                    cell.rp = READERS_SHARED;
                }
                cell.rc = cell.rc.max(c);
            }
            w = hi + 1;
        }
    }

    /// Record a write of `new` at `addr` by `pid`; push newly racy words
    /// into `out`. `cur` is the writer's LRC-expected view of the same
    /// range: words where `new == cur` are silent stores and are skipped
    /// entirely (no race test, no stamp).
    pub fn on_write(
        &mut self,
        pid: usize,
        addr: usize,
        new: &[u8],
        cur: &[u8],
        out: &mut Vec<RaceHit>,
    ) {
        debug_assert_eq!(new.len(), cur.len());
        let len = new.len();
        if len == 0 {
            return;
        }
        let RaceState {
            clocks,
            shadow,
            racy,
            spill_index,
            spill_pool,
            words_per_page,
            wpp_shift,
        } = self;
        let (wpp, shift) = (*words_per_page, *wpp_shift);
        let clock = &clocks[pid];
        let c = clock.0[pid];
        let me = pid as u16;
        let last = (addr + len - 1) / WORD;
        let mut w = addr / WORD;
        while w <= last {
            let page = w >> shift;
            let base = page << shift;
            let hi = last.min(base + wpp - 1);
            let (cells, index) = page_slots(shadow, spill_index, page, wpp);
            let start = w - base;
            for (i, cell) in cells[start..=hi - base].iter_mut().enumerate() {
                let widx = start + i;
                let key = (base + widx) as u64;
                // Silent store: this word is rewritten with the bytes the
                // writer already sees; the diff-based protocols cannot
                // propagate it, so it is not a write here either.
                let ws = key as usize * WORD;
                let lo = ws.max(addr) - addr;
                let hi_b = (ws + WORD).min(addr + len) - addr;
                // Whole-word case (the overwhelmingly common one for 8-byte
                // scalar stores): one u64 compare, no memcmp.
                let silent = if hi_b - lo == WORD {
                    let a = u64::from_le_bytes(new[lo..lo + WORD].try_into().unwrap());
                    let b = u64::from_le_bytes(cur[lo..lo + WORD].try_into().unwrap());
                    a == b
                } else {
                    new[lo..hi_b] == cur[lo..hi_b]
                };
                if silent {
                    continue;
                }
                // Prior write vs this write.
                if cell.wc != 0
                    && cell.wp != me
                    && !clock.covers(cell.wc, cell.wp as usize)
                    && racy.insert(key)
                {
                    out.push(RaceHit {
                        kind: RaceKind::WriteWrite,
                        word_key: key,
                        first_pid: cell.wp as usize,
                        second_pid: pid,
                    });
                }
                // Prior reads vs this write: the first unordered reader
                // (in insertion order) is the one reported.
                if cell.rc != 0 {
                    let reader = if cell.rp == READERS_SHARED {
                        let slot = index.as_ref().expect("spill index")[widx];
                        spill_pool[slot as usize - 1]
                            .iter()
                            .find(|&&(qc, q)| q != me && !clock.covers(qc, q as usize))
                            .map(|&(_, q)| q)
                    } else if cell.rp != me && !clock.covers(cell.rc, cell.rp as usize) {
                        Some(cell.rp)
                    } else {
                        None
                    };
                    if let Some(q) = reader {
                        if racy.insert(key) {
                            out.push(RaceHit {
                                kind: RaceKind::ReadWrite,
                                word_key: key,
                                first_pid: q as usize,
                                second_pid: pid,
                            });
                        }
                    }
                }
                cell.wc = c;
                cell.wp = me;
            }
            w = hi + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 256;

    fn hits(st: &mut RaceState, f: impl FnOnce(&mut RaceState, &mut Vec<RaceHit>)) -> Vec<RaceHit> {
        let mut v = Vec::new();
        f(st, &mut v);
        v
    }

    /// A changing write: `len` bytes of `val` over a view of zeros.
    fn wr(st: &mut RaceState, pid: usize, addr: usize, len: usize, val: u8) -> Vec<RaceHit> {
        let new = vec![val; len];
        let cur = vec![0u8; len];
        hits(st, |s, v| s.on_write(pid, addr, &new, &cur, v))
    }

    #[test]
    fn same_epoch_write_write_races() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 16, 8, 1).is_empty());
        let h = wr(&mut st, 1, 16, 8, 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn barrier_orders_accesses() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 16, 8, 1).is_empty());
        st.barrier();
        assert!(wr(&mut st, 1, 16, 8, 2).is_empty());
        st.barrier();
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
    }

    #[test]
    fn read_then_unordered_write_races() {
        let mut st = RaceState::new(2, PS);
        assert!(hits(&mut st, |s, v| s.on_read(0, 8, 8, v)).is_empty());
        let h = wr(&mut st, 1, 8, 8, 1);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn write_then_unordered_read_races() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 8, 8, 1).is_empty());
        let h = hits(&mut st, |s, v| s.on_read(1, 8, 8, v));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut st = RaceState::new(3, PS);
        for p in 0..3 {
            assert!(hits(&mut st, |s, v| s.on_read(p, 32, 8, v)).is_empty());
        }
    }

    #[test]
    fn own_rewrite_does_not_race() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 0, 8, 1).is_empty());
        assert!(wr(&mut st, 0, 0, 8, 2).is_empty());
        assert!(hits(&mut st, |s, v| s.on_read(0, 0, 8, v)).is_empty());
    }

    #[test]
    fn race_reported_once_per_word() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 16, 8, 1);
        assert_eq!(wr(&mut st, 1, 16, 8, 2).len(), 1);
        assert!(wr(&mut st, 1, 16, 8, 3).is_empty());
        assert!(st.word_is_racy(16));
        assert!(!st.word_is_racy(24));
    }

    #[test]
    fn range_access_races_per_overlapping_word() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 0, 32, 1);
        // Writes overlap in words 1 and 2 only.
        let h = wr(&mut st, 1, 8, 16, 2);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn spans_cross_pages() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, PS - 8, 16, 1);
        let h = wr(&mut st, 1, PS - 8, 16, 2);
        assert_eq!(h.len(), 2);
        assert!(st.words_shadowed() >= 2 * (PS / 8) as u64);
    }

    #[test]
    fn silent_store_is_not_a_write() {
        let mut st = RaceState::new(2, PS);
        // p0 reads the word; p1 "rewrites" it with the bytes it already
        // sees — no diff would ever leave p1, so no race.
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
        let same = [5u8; 8];
        assert!(hits(&mut st, |s, v| s.on_write(1, 16, &same, &same, v)).is_empty());
        // And a silent store does not stamp the word: a later read by p0
        // still races with nothing.
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
    }

    #[test]
    fn mixed_silent_and_changing_words_race_only_where_changed() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 0, 32, 1);
        // p1 rewrites 4 words but only word 2 actually changes.
        let cur = [7u8; 32];
        let mut new = [7u8; 32];
        new[16..24].fill(9);
        let h = hits(&mut st, |s, v| s.on_write(1, 0, &new, &cur, v));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].word_key, 2);
    }
}
