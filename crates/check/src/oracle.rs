//! The LRC coherence oracle.
//!
//! The oracle maintains what each read is *allowed* to return under lazy
//! release consistency with barrier-only synchronization: the shared state
//! as of the last barrier (all earlier epochs' writes folded together) plus
//! the reader's own writes of the current epoch. A read observing anything
//! else on a non-racy word is a coherence violation — in particular the
//! silent divergence `bar-m` risks when its write-set prediction misses.
//!
//! State is value-level, not clock-level: a `committed` byte image of every
//! touched page plus one per-epoch overlay per process and page, whose
//! written bytes are marked in a bit mask (one bit per byte, one `u64` per
//! 64-byte block). Merges walk the mask as runs of equal bits, so a block
//! that is wholly written or wholly untouched costs one step, and only
//! mixed blocks split into shorter runs. Overlays fold into `committed` at
//! every barrier release in pid order (the order only matters for racy
//! words, and those are suppressed at read time).
//!
//! A read is checked in place against the committed page and the reader's
//! overlay; the expected bytes are materialized only when that comparison
//! fails, which is the violation path.

use std::ops::Range;

use dsm_sim::{FastSet, SnapReader, SnapWriter};

use crate::report::Violation;

const WORD: usize = 8;

/// One process's uncommitted writes to one page this epoch.
#[derive(Clone)]
struct Overlay {
    data: Vec<u8>,
    /// Bit `i % 64` of word `i / 64` is set iff byte `i` was written this
    /// epoch.
    mask: Vec<u64>,
}

impl Overlay {
    fn new(page_size: usize) -> Overlay {
        Overlay {
            data: vec![0; page_size],
            mask: vec![0; page_size.div_ceil(64)],
        }
    }

    /// Mark `[start, end)` written.
    fn mark(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            let bit = i % 64;
            let n = (64 - bit).min(end - i);
            self.mask[i / 64] |= (u64::MAX >> (64 - n)) << bit;
            i += n;
        }
    }

    /// Split `[start, end)` into maximal runs of bytes that are all written
    /// (`f(a, b, true)`) or all untouched (`f(a, b, false)`) this epoch.
    fn runs(&self, start: usize, end: usize, mut f: impl FnMut(usize, usize, bool)) {
        let mut i = start;
        while i < end {
            let written = (self.mask[i / 64] >> (i % 64)) & 1 == 1;
            let mut j = i;
            loop {
                let bit = j % 64;
                let rest = self.mask[j / 64] >> bit;
                // Count the leading bits equal to `written`; the zeros the
                // shift brings in stop a written run at the block edge.
                let same = if written { !rest } else { rest }.trailing_zeros() as usize;
                let room = 64 - bit;
                j += same.min(room);
                if same < room || j >= end {
                    break;
                }
            }
            let j = j.min(end);
            f(i, j, written);
            i = j;
        }
    }

    /// The mask as one 0/1 byte per data byte (the snapshot layout).
    fn mask_bytes(&self, out: &mut [u8]) {
        for (i, b) in out.iter_mut().enumerate() {
            *b = ((self.mask[i / 64] >> (i % 64)) & 1) as u8;
        }
    }
}

/// The page-bounded chunks of `[addr, addr + len)` under `2^shift`-byte
/// pages, as `(page, off, done, n)`: bytes `off..off + n` of `page` are
/// bytes `done..done + n` of the access.
fn chunks(
    shift: u32,
    addr: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let ps = 1usize << shift;
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done;
            let off = a & (ps - 1);
            let n = (ps - off).min(len - done);
            let chunk = (a >> shift, off, done, n);
            done += n;
            chunk
        })
    })
}

/// The oracle's shadow of the shared segment.
pub struct OracleState {
    page_size: usize,
    /// `log2(page_size)`: page sizes are powers of two by the VM's own
    /// assertion, so the per-access page/offset split is a shift and a
    /// mask instead of a division by a runtime value.
    // audit: skip(snap): derived from page_size at construction
    ps_shift: u32,
    /// Globally committed bytes (everything up to the last barrier),
    /// indexed densely by page number (`None` = untouched, implicitly
    /// zero, matching the cluster's zero-initialized image). Dense
    /// indexing keeps the per-access lookup a bounds check, not a hash.
    committed: Vec<Option<Vec<u8>>>,
    /// Per-process current-epoch overlays, same dense indexing.
    overlays: Vec<Vec<Option<Overlay>>>,
    /// Overlays retired at barriers, masks wiped, awaiting reuse — the
    /// fold would otherwise free and re-`calloc` two buffers per touched
    /// page per epoch.
    spare: Vec<Overlay>,
    /// Word keys already reported stale (one violation per word).
    flagged: FastSet<u64>,
    /// Reusable buffer for the expected bytes of a mismatching read.
    scratch: Vec<u8>,
}

impl OracleState {
    pub fn new(nprocs: usize, page_size: usize) -> OracleState {
        assert!(page_size.is_power_of_two());
        OracleState {
            page_size,
            ps_shift: page_size.trailing_zeros(),
            committed: Vec::new(),
            overlays: vec![Vec::new(); nprocs],
            spare: Vec::new(),
            flagged: FastSet::default(),
            scratch: Vec::new(),
        }
    }

    fn committed_page(&mut self, page: usize) -> &mut Vec<u8> {
        let ps = self.page_size;
        if page >= self.committed.len() {
            self.committed.resize_with(page + 1, || None);
        }
        self.committed[page].get_or_insert_with(|| vec![0; ps])
    }

    /// Setup-time write: goes straight into the committed image.
    pub fn image_write(&mut self, addr: usize, data: &[u8]) {
        for (page, off, done, n) in chunks(self.ps_shift, addr, data.len()) {
            self.committed_page(page)[off..off + n].copy_from_slice(&data[done..done + n]);
        }
    }

    /// An application write lands in the writer's overlay until the next
    /// barrier commits it.
    pub fn on_write(&mut self, pid: usize, addr: usize, data: &[u8]) {
        let ps = self.page_size;
        // Split borrow: the overlay slot and the spare list are mutated
        // together when a page is touched for the first time this epoch.
        let OracleState {
            overlays, spare, ..
        } = self;
        let slots = &mut overlays[pid];
        for (page, off, done, n) in chunks(self.ps_shift, addr, data.len()) {
            if page >= slots.len() {
                slots.resize_with(page + 1, || None);
            }
            let ov =
                slots[page].get_or_insert_with(|| spare.pop().unwrap_or_else(|| Overlay::new(ps)));
            ov.data[off..off + n].copy_from_slice(&data[done..done + n]);
            ov.mark(off, off + n);
        }
    }

    /// Split what LRC says `pid` must observe at `[addr, addr + len)` into
    /// runs: `f(range, src)` for each run, where `range` indexes the access
    /// and `src` is the run's bytes in the reader's overlay or the
    /// committed page, or `None` for the untouched all-zero page.
    fn expected_runs(
        &self,
        pid: usize,
        addr: usize,
        len: usize,
        mut f: impl FnMut(Range<usize>, Option<&[u8]>),
    ) {
        for (page, off, done, n) in chunks(self.ps_shift, addr, len) {
            let committed = self.committed.get(page).and_then(Option::as_deref);
            let at = |a: usize, b: usize| a - off + done..b - off + done;
            match self.overlays[pid].get(page).and_then(Option::as_ref) {
                None => f(at(off, off + n), committed.map(|c| &c[off..off + n])),
                Some(ov) => ov.runs(off, off + n, |a, b, written| {
                    let src = if written {
                        Some(&ov.data[..])
                    } else {
                        committed
                    };
                    f(at(a, b), src.map(|s| &s[a..b]));
                }),
            }
        }
    }

    /// What LRC says `pid` must observe at `[addr, addr+len)`. Also the
    /// reference the race detector compares writes against to recognize
    /// silent stores. Fills `out` (a caller-owned reusable buffer) instead
    /// of returning a fresh allocation: this runs once per simulated store.
    pub fn expected_into(&self, pid: usize, addr: usize, len: usize, out: &mut Vec<u8>) {
        out.clear();
        out.resize(len, 0);
        self.expected_runs(pid, addr, len, |r, src| {
            if let Some(s) = src {
                out[r].copy_from_slice(s);
            }
        });
    }

    /// Does `observed` at `addr` equal what LRC says `pid` must observe?
    /// Compares in place against the committed page and the overlay.
    fn read_matches(&self, pid: usize, addr: usize, observed: &[u8]) -> bool {
        let mut eq = true;
        self.expected_runs(pid, addr, observed.len(), |r, src| {
            let obs = &observed[r];
            eq = eq
                && match src {
                    Some(s) => obs == s,
                    None => obs.iter().all(|&b| b == 0),
                };
        });
        eq
    }

    /// Compare an observed read against the oracle. Mismatching words that
    /// are racy (per `is_racy`, keyed by byte address) are suppressed: a
    /// racy read may legally return either value. Each offending word is
    /// reported at most once per run.
    pub fn on_read(
        &mut self,
        pid: usize,
        addr: usize,
        observed: &[u8],
        epoch: u64,
        is_racy: impl Fn(usize) -> bool,
        out: &mut Vec<Violation>,
    ) {
        if self.read_matches(pid, addr, observed) {
            return;
        }
        // Borrow the scratch buffer out of self so `expected_into` can take
        // `&self`, then walk the mismatch word by word so racy-word
        // suppression and violation dedup stay at the race detector's
        // granularity.
        let mut expected = core::mem::take(&mut self.scratch);
        self.expected_into(pid, addr, observed.len(), &mut expected);
        let mut i = 0;
        while i < observed.len() {
            let a = addr + i;
            let word_start = a - a % WORD;
            let word_end = (word_start + WORD).min(addr + observed.len());
            let lo = word_start.max(addr) - addr;
            let hi = word_end - addr;
            if expected[lo..hi] != observed[lo..hi] {
                let key = (word_start / WORD) as u64;
                if !is_racy(word_start) && self.flagged.insert(key) {
                    out.push(Violation::StaleRead {
                        pid,
                        addr: word_start.max(addr),
                        epoch,
                        expected: expected[lo..hi].to_vec(),
                        observed: observed[lo..hi].to_vec(),
                    });
                }
            }
            i = hi;
        }
        self.scratch = expected;
    }

    /// Encode the oracle state for a snapshot. Touched pages are written
    /// sparsely in page order; page buffers are raw `page_size`-byte
    /// images (the size is construction-time configuration), and each
    /// overlay mask is written as one 0/1 byte per data byte. The spare
    /// list and scratch buffer are pure caches and are not captured.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        let ps = self.page_size;
        w.usize(self.committed.len());
        let touched: Vec<usize> = (0..self.committed.len())
            .filter(|&p| self.committed[p].is_some())
            .collect();
        w.usize(touched.len());
        for &page in &touched {
            w.usize(page);
            let c = self.committed[page].as_ref().unwrap();
            debug_assert_eq!(c.len(), ps);
            w.raw(c);
        }
        let mut mask = vec![0u8; ps];
        w.usize(self.overlays.len());
        for slots in &self.overlays {
            w.usize(slots.len());
            let live: Vec<usize> = (0..slots.len()).filter(|&p| slots[p].is_some()).collect();
            w.usize(live.len());
            for &page in &live {
                w.usize(page);
                let ov = slots[page].as_ref().unwrap();
                w.raw(&ov.data);
                ov.mask_bytes(&mut mask);
                w.raw(&mask);
            }
        }
        let mut flagged: Vec<u64> = self.flagged.iter().copied().collect();
        flagged.sort_unstable();
        w.usize(flagged.len());
        for k in flagged {
            w.u64(k);
        }
    }

    /// Restore an [`OracleState::encode_state`] capture. The oracle must
    /// have been built with the same `nprocs` and `page_size`.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) {
        let ps = self.page_size;
        let len = r.usize();
        self.committed.clear();
        self.committed.resize_with(len, || None);
        for _ in 0..r.usize() {
            let page = r.usize();
            self.committed[page] = Some(r.raw(ps).to_vec());
        }
        let np = r.usize();
        assert_eq!(np, self.overlays.len(), "snapshot from a different nprocs");
        for slots in &mut self.overlays {
            let len = r.usize();
            slots.clear();
            slots.resize_with(len, || None);
            for _ in 0..r.usize() {
                let page = r.usize();
                let mut ov = Overlay::new(ps);
                ov.data.copy_from_slice(r.raw(ps));
                for (i, &b) in r.raw(ps).iter().enumerate() {
                    ov.mask[i / 64] |= u64::from(b != 0) << (i % 64);
                }
                slots[page] = Some(ov);
            }
        }
        self.spare.clear();
        self.flagged = FastSet::default();
        for _ in 0..r.usize() {
            self.flagged.insert(r.u64());
        }
        self.scratch.clear();
    }

    /// Barrier release: every process's epoch writes become globally
    /// committed. Folding runs pid-ascending, pages ascending (the dense
    /// slot order); the order is only observable on racy words, which the
    /// read path suppresses. Retired overlays go to the spare list.
    pub fn barrier_release(&mut self) {
        let ps = self.page_size;
        for pid in 0..self.overlays.len() {
            for page in 0..self.overlays[pid].len() {
                let Some(mut ov) = self.overlays[pid][page].take() else {
                    continue;
                };
                let c = self.committed_page(page);
                ov.runs(0, ps, |a, b, written| {
                    if written {
                        c[a..b].copy_from_slice(&ov.data[a..b]);
                    }
                });
                ov.mask.fill(0);
                self.spare.push(ov);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 256;

    fn read_clean(o: &mut OracleState, pid: usize, addr: usize, obs: &[u8]) -> Vec<Violation> {
        let mut v = Vec::new();
        o.on_read(pid, addr, obs, 1, |_| false, &mut v);
        v
    }

    #[test]
    fn zero_fill_default() {
        let mut o = OracleState::new(2, PS);
        assert!(read_clean(&mut o, 0, 40, &[0u8; 16]).is_empty());
    }

    #[test]
    fn own_epoch_writes_visible() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        assert!(read_clean(&mut o, 0, 8, &[7u8; 8]).is_empty());
        // The other process must still see the committed (zero) bytes.
        assert!(read_clean(&mut o, 1, 8, &[0u8; 8]).is_empty());
    }

    #[test]
    fn stale_read_after_barrier() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        o.barrier_release();
        let v = read_clean(&mut o, 1, 8, &[0u8; 8]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            Violation::StaleRead {
                pid: 1,
                addr: 8,
                ..
            }
        ));
        // Reported once per word.
        assert!(read_clean(&mut o, 1, 8, &[0u8; 8]).is_empty());
    }

    #[test]
    fn racy_words_suppressed() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        o.barrier_release();
        let mut v = Vec::new();
        o.on_read(1, 8, &[0u8; 8], 2, |_| true, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn image_writes_seed_committed() {
        let mut o = OracleState::new(2, PS);
        o.image_write(PS - 4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(read_clean(&mut o, 1, PS - 4, &[1, 2, 3, 4, 5, 6, 7, 8]).is_empty());
    }

    #[test]
    fn later_writer_wins_at_fold() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 0, &[1u8; 8]);
        o.on_write(1, 0, &[2u8; 8]);
        o.barrier_release();
        assert!(read_clean(&mut o, 0, 0, &[2u8; 8]).is_empty());
    }

    #[test]
    fn mismatch_reports_word_slice() {
        let mut o = OracleState::new(1, PS);
        o.image_write(0, &[9u8; 24]);
        let mut obs = vec![9u8; 24];
        obs[10] = 0; // word 1 differs
        let v = read_clean(&mut o, 0, 0, &obs);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::StaleRead {
                addr,
                expected,
                observed,
                ..
            } => {
                assert_eq!(*addr, 8);
                assert_eq!(expected.len(), 8);
                assert_eq!(observed[2], 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
