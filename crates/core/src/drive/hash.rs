//! Structural state hashing and choice-point plumbing for exploration.
//!
//! Stateless model checking (see the `dsm-explore` crate) replays the
//! cluster from scratch for every schedule; to avoid re-exploring
//! continuations of states it has already seen, the exploration scheduler
//! keys a visited set on a 64-bit structural hash taken at every barrier.
//! Two executions with equal hashes agree on:
//!
//! * every byte of every resident frame (and twin) on every process, plus
//!   protections, versions seen, and applied-through floors;
//! * all protocol-global tables (homes, versions, copysets, notice-derived
//!   write epochs, migration flag, overdrive mode);
//! * all homeless per-process state (sealed segments, pending
//!   accumulations, known notices, stored updates, copysets, applied
//!   watermarks), iterated in sorted key order so `HashMap` iteration
//!   order never leaks in;
//! * the event trace observed by the checking sink so far (folded
//!   incrementally by [`Cluster::emit`]) — so a pruned execution can never
//!   hide a checker verdict the retained one would not also reach.
//!
//! Virtual *time* is deliberately excluded: clocks and cost statistics
//! never influence control flow or the checker, so schedules that differ
//! only in timing are correctness-equivalent. Exploration verifies
//! correctness, not performance.

use dsm_sim::{Candidate, ChoiceKind};

use crate::check::CheckEvent;
use crate::drive::cluster::Cluster;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tiny incremental FNV-1a hasher (the workspace carries no external
/// dependencies; quality is ample for a visited set whose collisions only
/// cost soundness-preserving over- or under-pruning bounded by budgets).
#[derive(Clone, Copy, Debug)]
pub(crate) struct StateHasher(u64);

impl StateHasher {
    pub(crate) fn new() -> StateHasher {
        StateHasher(FNV_OFFSET)
    }

    pub(crate) fn seeded(h: u64) -> StateHasher {
        StateHasher(if h == 0 { FNV_OFFSET } else { h })
    }

    #[inline]
    pub(crate) fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Fold a byte slice, 8 bytes per multiply. Chunking changes hash
    /// *values* relative to byte-at-a-time FNV but not equality semantics:
    /// the hash stays a deterministic function of the folded stream, which
    /// is all the visited set and trace hash rely on — and it makes the
    /// per-event fold (the explorer's hottest loop) ~8x cheaper.
    #[inline]
    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        let mut chunks = bs.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            self.byte(b);
        }
    }

    #[inline]
    pub(crate) fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn finish(self) -> u64 {
        // A final avalanche (splitmix64 mix) so near-equal inputs spread.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fold one checker event into a running trace hash.
pub(crate) fn fold_event(acc: u64, ev: &CheckEvent<'_>) -> u64 {
    let mut h = StateHasher::seeded(acc);
    match *ev {
        CheckEvent::ImageWrite { addr, data } => {
            h.byte(1);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::Read { pid, addr, data } => {
            h.byte(2);
            h.usize(pid);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::Write { pid, addr, data } => {
            h.byte(3);
            h.usize(pid);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::BarrierArrive { pid, epoch } => {
            h.byte(4);
            h.usize(pid);
            h.u64(epoch);
        }
        CheckEvent::BarrierRelease { epoch } => {
            h.byte(5);
            h.u64(epoch);
        }
        CheckEvent::Reduction { op, len } => {
            h.byte(6);
            h.bytes(op.as_bytes());
            h.usize(len);
        }
        CheckEvent::Fetch { pid, from, page } => {
            h.byte(7);
            h.usize(pid);
            h.usize(from);
            h.u64(u64::from(page));
        }
        CheckEvent::UpdateFlush {
            writer,
            page,
            copyset,
        } => {
            h.byte(8);
            h.usize(writer);
            h.u64(u64::from(page));
            for w in copyset.digest_words() {
                h.u64(w);
            }
        }
        CheckEvent::VersionBump { page, old, new } => {
            h.byte(9);
            h.u64(u64::from(page));
            h.u64(u64::from(old));
            h.u64(u64::from(new));
        }
        CheckEvent::NoticeRecord {
            pid,
            page,
            writer,
            epoch,
        } => {
            h.byte(10);
            h.usize(pid);
            h.u64(u64::from(page));
            h.u64(u64::from(writer));
            h.u64(epoch);
        }
        CheckEvent::NoticeConsume {
            pid,
            page,
            writer,
            epoch,
        } => {
            h.byte(11);
            h.usize(pid);
            h.u64(u64::from(page));
            h.u64(u64::from(writer));
            h.u64(epoch);
        }
        CheckEvent::GcDiscard { pid, retained } => {
            h.byte(12);
            h.usize(pid);
            h.usize(retained);
        }
        CheckEvent::DupDelivery { writer, page, dst } => {
            h.byte(13);
            h.usize(writer);
            h.u64(u64::from(page));
            h.usize(dst);
        }
        CheckEvent::WireRetransmit { src, dst, attempts } => {
            h.byte(14);
            h.usize(src);
            h.usize(dst);
            h.u64(u64::from(attempts));
        }
        CheckEvent::FalseShareElided {
            writer,
            page,
            elided,
        } => {
            h.byte(15);
            h.usize(writer);
            h.u64(u64::from(page));
            for w in elided.digest_words() {
                h.u64(w);
            }
        }
    }
    h.0
}

/// Structural hash of one frame: protection, versions, contents, twin.
/// A pure function of the frame's observable state, so it can be cached
/// keyed on [`dsm_vm::Frame::revision`] — every mutation path bumps the
/// revision, invalidating the cache (`frame.rs` enforces this by making
/// the fields private).
fn frame_hash(f: &dsm_vm::Frame) -> u64 {
    let mut h = StateHasher::new();
    h.byte(f.prot() as u8);
    h.u64(u64::from(f.version_seen()));
    h.u64(f.applied_through());
    h.bytes(f.data().bytes());
    match f.twin() {
        Some(t) => {
            h.byte(1);
            h.bytes(t.bytes());
        }
        None => h.byte(0),
    }
    // Twin-free dirty tracking (bar-r): the recorded ranges determine the
    // next region delta, so they are observable state. Folded only while
    // tracking is armed — no other protocol arms it, so every existing
    // protocol's hash stream (and all committed explore baselines) is
    // byte-identical to before this tag existed.
    if f.tracking() {
        h.byte(2);
        let d = f.dirty_ranges();
        if d.is_all() {
            h.byte(1);
        } else {
            h.byte(0);
            for (s, e) in d.iter() {
                h.u64(u64::from(s));
                h.u64(u64::from(e));
            }
        }
    }
    h.finish()
}

impl Cluster {
    /// Structural 64-bit hash of everything that can influence future
    /// control flow or checker verdicts (see the module docs for the
    /// inventory and the deliberate exclusion of virtual time).
    ///
    /// Per-frame hashes are served from each frame's revision-keyed cache:
    /// at a barrier, only frames mutated since the previous barrier are
    /// re-walked, turning the explorer's dominant cost from O(total
    /// resident memory) to O(mutated memory) per checkpoint. Hash
    /// *equality semantics* are unchanged — two states hash equal exactly
    /// when their observable frame states are equal — so visited-set
    /// pruning (and every explore baseline) is byte-identical to the
    /// uncached fold, which [`Cluster::state_hash_uncached`] preserves as
    /// the differential-testing reference.
    pub fn state_hash(&self) -> u64 {
        self.state_hash_with(|f| f.cached_u64(frame_hash))
    }

    /// [`Cluster::state_hash`] recomputing every frame hash from scratch,
    /// bypassing the per-frame caches. Exists so tests can prove cache
    /// coherence: any missed invalidation makes the two disagree.
    pub fn state_hash_uncached(&self) -> u64 {
        self.state_hash_with(frame_hash)
    }

    fn state_hash_with(&self, frame_hash_of: impl Fn(&dsm_vm::Frame) -> u64) -> u64 {
        let mut h = StateHasher::new();
        h.u64(self.epoch);
        h.usize(self.iter);
        h.usize(self.site);
        h.byte(u8::from(self.migrated));
        h.byte(self.od_mode as u8);
        h.byte(u8::from(self.od_revert_pending));
        h.byte(u8::from(self.migration_pending));
        for &home in &self.homes {
            h.usize(home);
        }
        for &v in &self.versions {
            h.u64(u64::from(v));
        }
        // The sparse tables fold in sorted key order with empty sets
        // skipped, so a page whose copyset was only ever empty hashes the
        // same whether its entry exists or was never created. Hash values
        // differ from the dense fold, but equality semantics — equal
        // observable states hash equal — are preserved, which is all the
        // explorer's visited set relies on.
        fold_sparse_sets(&mut h, &self.copysets);
        for &e in &self.last_write_epoch {
            h.u64(e);
        }
        for &w in &self.last_writer {
            h.u64(u64::from(w));
        }
        fold_sparse_sets(&mut h, &self.iter_writers);
        {
            let mut keys: Vec<(u32, u16)> = self
                .iter_write_counts
                .iter()
                .filter(|&(_, &c)| c != 0)
                .map(|(&k, _)| k)
                .collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k.0));
                h.u64(u64::from(k.1));
                h.u64(u64::from(self.iter_write_counts[&k]));
            }
        }
        for &r in &self.last_reduction {
            h.u64(r.to_bits());
        }
        for (pid, p) in self.procs.iter().enumerate() {
            h.byte(0xF0);
            h.usize(pid);
            // Frames in page order: contents, protection, version floor.
            for pg in 0..p.store.npages() {
                let Some(f) = p.store.frame(dsm_vm::PageId(pg as u32)) else {
                    h.byte(0);
                    continue;
                };
                h.byte(1);
                h.u64(frame_hash_of(f));
            }
            for &d in &p.dirty {
                h.u64(u64::from(d.0));
            }
            // Homeless state: HashMaps iterated in sorted key order.
            let lmw = &p.lmw;
            let mut keys: Vec<u32> = lmw.segments.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k));
                for s in &lmw.segments[&k] {
                    h.u64(s.lo);
                    h.u64(s.hi);
                    hash_diff(&mut h, &s.diff);
                }
            }
            let mut keys: Vec<u32> = lmw.pending.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                let (lo, hi) = lmw.pending[&k];
                h.u64(u64::from(k));
                h.u64(lo);
                h.u64(hi);
            }
            let mut keys: Vec<u32> = lmw.known_notices.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k));
                for n in &lmw.known_notices[&k] {
                    h.u64(u64::from(n.writer));
                    h.u64(n.epoch);
                }
            }
            let mut keys: Vec<u32> = lmw.pending_updates.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k));
                for (w, s) in &lmw.pending_updates[&k] {
                    h.u64(u64::from(*w));
                    h.u64(s.lo);
                    h.u64(s.hi);
                    hash_diff(&mut h, &s.diff);
                }
            }
            let mut keys: Vec<u32> = lmw.copysets.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k));
                for w in lmw.copysets[&k].digest_words() {
                    h.u64(w);
                }
            }
            let mut keys: Vec<(u32, u16)> = lmw.applied.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                h.u64(u64::from(k.0));
                h.u64(u64::from(k.1));
                h.u64(lmw.applied[&k]);
            }
            // Overdrive state (BTreeSets iterate deterministically).
            h.byte(u8::from(p.od.have_prev));
            for sites in &p.od.cur_sites {
                h.usize(sites.len());
                for &pg in sites {
                    h.u64(u64::from(pg));
                }
            }
            for sites in &p.od.prev_sites {
                h.usize(sites.len());
                for &pg in sites {
                    h.u64(u64::from(pg));
                }
            }
            for &pg in &p.od.pre_enabled {
                h.u64(u64::from(pg));
            }
        }
        h.finish()
    }

    /// Ask the scheduler for a consumption order over `items`, one pick at
    /// a time (so the explorer sees the shrinking candidate set). Identity
    /// when not exploring — the canonical order is exactly today's order.
    pub(crate) fn delivery_order<T>(
        &mut self,
        items: Vec<T>,
        page_of: impl Fn(&T) -> u32,
    ) -> Vec<T> {
        if !self.exploring || items.len() <= 1 {
            return items;
        }
        let mut remaining: Vec<(Candidate, T)> = items
            .into_iter()
            .map(|t| {
                let c = Candidate {
                    actor: 0,
                    footprint: vec![page_of(&t)],
                };
                (c, t)
            })
            .collect();
        let mut out = Vec::with_capacity(remaining.len());
        // One-sided pushes have no receiver-side delivery event: the
        // reorder point is which posted write *completes* (retires from
        // its QP) first, so the explorer labels these picks as completion
        // choices and can enumerate one-sided completion orders distinctly
        // from two-sided delivery orders.
        let kind = if self.one_sided() {
            ChoiceKind::Completion
        } else {
            ChoiceKind::Delivery
        };
        while remaining.len() > 1 {
            let cands: Vec<Candidate> = remaining.iter().map(|(c, _)| c.clone()).collect();
            let idx = self.sched.borrow_mut().choose(kind, &cands);
            assert!(idx < remaining.len(), "scheduler chose out of range");
            out.push(remaining.remove(idx).1);
        }
        out.push(remaining.pop().expect("one candidate left").1);
        out
    }

    /// Order in which processes run their end-of-epoch consistency work —
    /// the queueing order of their in-flight flushes. Footprints are each
    /// process's dirty page set (disjoint sets commute). `0..n` when not
    /// exploring.
    pub(crate) fn arrival_order(&mut self, n: usize) -> Vec<usize> {
        if !self.exploring || n <= 1 {
            return (0..n).collect();
        }
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut out = Vec::with_capacity(n);
        while remaining.len() > 1 {
            let cands: Vec<Candidate> = remaining
                .iter()
                .map(|&pid| {
                    let mut fp: Vec<u32> = self.procs[pid].dirty.iter().map(|p| p.0).collect();
                    fp.sort_unstable();
                    fp.dedup();
                    Candidate {
                        actor: pid as u16,
                        footprint: fp,
                    }
                })
                .collect();
            let idx = self.sched.borrow_mut().choose(ChoiceKind::Arrival, &cands);
            assert!(idx < remaining.len(), "scheduler chose out of range");
            out.push(remaining.remove(idx));
        }
        out.extend(remaining);
        out
    }

    /// End-of-barrier exploration checkpoint: hand the combined
    /// structural + trace hash to the scheduler; if it declines to
    /// continue, raise the cluster's `pruned` flag — every caller on the
    /// barrier path returns early past it, and the driver discards or
    /// restores over the abandoned state. No-op outside exploration.
    pub(crate) fn explore_barrier_checkpoint(&mut self) {
        if !self.exploring {
            return;
        }
        let mut h = StateHasher::seeded(self.trace_hash);
        h.u64(self.state_hash());
        let combined = h.finish();
        let go = self.sched.borrow_mut().observe_barrier(combined);
        if !go {
            self.pruned = true;
        }
    }
}

/// Fold a sparse page → member-set table: sorted page order, empty sets
/// skipped (absent entry ≡ empty entry).
fn fold_sparse_sets(h: &mut StateHasher, sets: &dsm_sim::FastMap<u32, crate::proto::CopySet>) {
    let mut pages: Vec<u32> = sets
        .iter()
        .filter(|&(_, cs)| !cs.is_empty())
        .map(|(&p, _)| p)
        .collect();
    pages.sort_unstable();
    for p in pages {
        h.u64(u64::from(p));
        for w in sets[&p].digest_words() {
            h.u64(w);
        }
    }
}

/// Fold a diff: its page, then each run's offset and bytes — the spans and
/// the concatenated payload walked together.
pub(crate) fn hash_diff(h: &mut StateHasher, diff: &dsm_vm::Diff) {
    h.u64(u64::from(diff.page.0));
    let mut payload = diff.data();
    for &(offset, len) in diff.spans() {
        let (run, rest) = payload.split_at(len as usize);
        h.u64(u64::from(offset));
        h.bytes(run);
        payload = rest;
    }
}
