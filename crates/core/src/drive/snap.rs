//! Delta-encoded cluster snapshots.
//!
//! [`Cluster::encode_state`] captures every piece of run state that the
//! simulation can observe — protocol tables, per-process page frames,
//! virtual-time clocks, in-flight wire state, scheduler RNG — into a flat
//! byte stream, and [`Cluster::restore_state`] rebuilds it in place so
//! that continuing from the restored cluster is bit-identical (same
//! `state_hash`, same check-event trace, same results) to continuing from
//! the original.
//!
//! Page contents are delta-encoded: a frame's data is stored as a
//! [`Diff`] against the pristine image page, and its twin as a diff
//! against the frame's own restored data. Steady-state iterative
//! applications touch a small, stable fraction of each page per epoch, so
//! snapshots stay small even for large segments — the same observation
//! that makes diff-based DSM protocols cheap makes diff-based snapshots
//! cheap.
//!
//! The codec deliberately skips anything derivable from construction-time
//! configuration (`cfg`, the buffer pool, the check sink, `exploring`)
//! and asserts rather than serializes state that is provably quiescent at
//! a barrier boundary (`bar_deliveries`). Snapshots must be taken and
//! restored at a step boundary — between barriers, with no deliveries in
//! flight — which is exactly where the explore driver checkpoints.
//!
//! Map contents are written sorted by key: `FastMap` iteration order is
//! insertion-dependent, and snapshot bytes must be a pure function of
//! observable state so the golden-format test can diff them.

use std::rc::Rc;

use dsm_sim::{SnapReader, SnapWriter, Time, TimeBreakdown};
use dsm_vm::{Diff, PageId};

use crate::drive::cluster::{Cluster, Proc};
use crate::drive::hash::StateHasher;
use crate::drive::reduce::ReduceMem;
use crate::mem::SharedArray;
use crate::proto::copyset::CopySet;
use crate::proto::lmw::Segment;
use crate::proto::notice::WriteNotice;
use crate::proto::overdrive::OdMode;

/// Write `diff`'s runs (the page id is implied by context).
fn encode_runs(w: &mut SnapWriter, diff: &Diff) {
    w.usize(diff.run_count());
    for (offset, run) in diff.runs() {
        w.u32(offset);
        w.bytes(run);
    }
}

/// Read runs back into a [`Diff`] for `page`.
fn decode_runs(r: &mut SnapReader<'_>, page: PageId) -> Diff {
    let mut diff = Diff::new(page);
    for _ in 0..r.usize() {
        let offset = r.u32();
        diff.push_run(offset, r.bytes());
    }
    diff
}

fn encode_clock(w: &mut SnapWriter, p: &Proc) {
    let (now, base, bd) = p.clock.snapshot_state();
    w.u64(now.as_ns());
    w.u64(base.as_ns());
    for t in [bd.app, bd.os, bd.sigio, bd.wait, bd.retrans] {
        w.u64(t.as_ns());
    }
}

fn decode_clock(r: &mut SnapReader<'_>, p: &mut Proc) {
    let now = Time::from_ns(r.u64());
    let base = Time::from_ns(r.u64());
    let mut bd = TimeBreakdown::ZERO;
    bd.app = Time::from_ns(r.u64());
    bd.os = Time::from_ns(r.u64());
    bd.sigio = Time::from_ns(r.u64());
    bd.wait = Time::from_ns(r.u64());
    bd.retrans = Time::from_ns(r.u64());
    p.clock.restore_state(now, base, bd);
}

/// FNV digest of the first `npages` pristine image pages. The image is
/// frozen at `distribute()` and never written afterwards, so the restore
/// side asserts the digest instead of re-shipping the bytes.
fn image_digest(image: &[dsm_vm::PageBuf], npages: usize) -> u64 {
    let mut h = StateHasher::new();
    h.usize(npages);
    for buf in &image[..npages] {
        h.bytes(buf.bytes());
    }
    h.finish()
}

fn encode_od_sites(w: &mut SnapWriter, sites: &[std::collections::BTreeSet<u32>]) {
    w.usize(sites.len());
    for set in sites {
        w.usize(set.len());
        for &pg in set {
            w.u32(pg);
        }
    }
}

fn decode_od_sites(r: &mut SnapReader<'_>) -> Vec<std::collections::BTreeSet<u32>> {
    (0..r.usize())
        .map(|_| (0..r.usize()).map(|_| r.u32()).collect())
        .collect()
}

impl Cluster {
    /// Serialize the cluster's complete observable state. The cluster must
    /// be at a step boundary: `distribute()` done, no barrier in progress.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        assert!(self.distributed, "snapshot before distribute()");
        debug_assert!(self.bar_deliveries.home_flushes.is_empty());
        debug_assert!(self.bar_deliveries.bar_updates.is_empty());
        debug_assert!(self.bar_deliveries.lmw_updates.is_empty());

        // Geometry guard: restore into a differently-shaped cluster is a
        // programming error we want to fail loudly, not corrupt.
        w.usize(self.nprocs());
        w.usize(self.page_size());

        w.u64(self.epoch);
        w.usize(self.iter);
        w.usize(self.site);
        w.usize(self.phases_per_iter);

        self.seg.encode_state(w);
        w.u64(image_digest(&self.image, self.seg.npages()));

        self.stats.encode_state(w);
        self.net.encode_state(w);

        let npages = self.seg.npages();
        debug_assert_eq!(self.homes.len(), npages);
        for pg in 0..npages {
            w.usize(self.homes[pg]);
            w.u32(self.versions[pg]);
            w.u64(self.last_write_epoch[pg]);
            w.u16(self.last_writer[pg]);
        }
        encode_copyset_map(w, &self.copysets);
        encode_copyset_map(w, &self.iter_writers);
        {
            let mut keys: Vec<(u32, u16)> = self.iter_write_counts.keys().copied().collect();
            keys.sort_unstable();
            w.usize(keys.len());
            for k in keys {
                w.u32(k.0);
                w.u16(k.1);
                w.u32(self.iter_write_counts[&k]);
            }
        }

        w.bool(self.migrated);
        w.u8(match self.od_mode {
            OdMode::Learning => 0,
            OdMode::Overdrive => 1,
            OdMode::Reverted => 2,
        });
        w.bool(self.od_revert_pending);
        w.bool(self.migration_pending);
        w.bool(self.measuring);

        w.usize(self.last_reduction.len());
        for &v in &self.last_reduction {
            w.f64(v);
        }
        match &self.reduce_mem {
            None => w.bool(false),
            Some(rm) => {
                w.bool(true);
                w.usize(rm.slots.base());
                w.usize(rm.slots.len());
                w.usize(rm.result.base());
                w.usize(rm.result.len());
                w.usize(rm.cap);
            }
        }

        for pid in 0..self.nprocs() {
            self.encode_proc(w, pid);
        }

        match self.sched.borrow().rng_state() {
            None => w.bool(false),
            Some(s) => {
                w.bool(true);
                for word in s {
                    w.u64(word);
                }
            }
        }
        w.u64(self.trace_hash);
    }

    fn encode_proc(&self, w: &mut SnapWriter, pid: usize) {
        let p = &self.procs[pid];
        encode_clock(w, p);

        // Page frames, delta-encoded. Data diffs against the pristine
        // image; the twin diffs against the frame's own data (applying the
        // runs to a copy of the restored data reproduces the twin).
        w.usize(p.store.npages());
        w.usize(p.store.resident());
        for (page, f) in p.store.iter() {
            w.u32(page.0);
            w.u8(match f.prot() {
                dsm_vm::Protection::Invalid => 0,
                dsm_vm::Protection::Read => 1,
                dsm_vm::Protection::ReadWrite => 2,
            });
            w.u32(f.version_seen());
            w.u64(f.applied_through());
            w.bool(f.tracking());
            let (ranges, all, coarse) = f.dirty_ranges().snapshot_parts();
            w.bool(all);
            w.bool(coarse);
            w.usize(ranges.len());
            for &(lo, hi) in ranges {
                w.u32(lo);
                w.u32(hi);
            }
            encode_runs(w, &Diff::between(page, &self.image[page.index()], f.data()));
            match f.twin() {
                None => w.bool(false),
                Some(t) => {
                    w.bool(true);
                    encode_runs(w, &Diff::between(page, f.data(), t));
                }
            }
        }

        w.usize(p.dirty.len());
        for pg in &p.dirty {
            w.u32(pg.0);
        }
        w.u32(p.protect_ops_epoch);

        // Homeless-protocol tables: sorted outer keys, inner vectors
        // verbatim (their order is the deterministic push order and is
        // observable through fetch/apply sequencing).
        encode_sorted(w, &p.lmw.segments, |w, segs: &Vec<Segment>| {
            w.usize(segs.len());
            for s in segs {
                w.u64(s.lo);
                w.u64(s.hi);
                encode_runs(w, &s.diff);
            }
        });
        encode_sorted(w, &p.lmw.pending, |w, &(lo, hi)| {
            w.u64(lo);
            w.u64(hi);
        });
        encode_sorted(w, &p.lmw.known_notices, |w, ns: &Vec<WriteNotice>| {
            w.usize(ns.len());
            for n in ns {
                w.u32(n.page);
                w.u16(n.writer);
                w.u64(n.epoch);
            }
        });
        encode_sorted(w, &p.lmw.pending_updates, |w, ups: &Vec<(u16, Segment)>| {
            w.usize(ups.len());
            for (writer, s) in ups {
                w.u16(*writer);
                w.u64(s.lo);
                w.u64(s.hi);
                encode_runs(w, &s.diff);
            }
        });
        encode_copyset_map(w, &p.lmw.copysets);
        {
            let mut keys: Vec<(u32, u16)> = p.lmw.applied.keys().copied().collect();
            keys.sort_unstable();
            w.usize(keys.len());
            for k in keys {
                w.u32(k.0);
                w.u16(k.1);
                w.u64(p.lmw.applied[&k]);
            }
        }

        // Overdrive predictor state (BTreeSets iterate sorted already).
        encode_od_sites(w, &p.od.cur_sites);
        encode_od_sites(w, &p.od.prev_sites);
        w.bool(p.od.have_prev);
        w.usize(p.od.pre_enabled.len());
        for &pg in &p.od.pre_enabled {
            w.u32(pg);
        }
    }

    /// Restore an [`Cluster::encode_state`] capture in place. The cluster
    /// must have been built from the same [`crate::RunConfig`] and have
    /// completed the same setup (`distribute()` with identical image
    /// writes); everything mutable past that point is overwritten.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) {
        assert!(self.distributed, "restore before distribute()");
        assert_eq!(r.usize(), self.nprocs(), "snapshot from a different nprocs");
        assert_eq!(
            r.usize(),
            self.page_size(),
            "snapshot from a different page size"
        );

        self.epoch = r.u64();
        self.iter = r.usize();
        self.site = r.usize();
        self.phases_per_iter = r.usize();

        self.seg.restore_state(r);
        self.grow_tables();
        assert_eq!(
            r.u64(),
            image_digest(&self.image, self.seg.npages()),
            "snapshot from a different initial image"
        );

        self.stats.restore_state(r);
        self.net.restore_state(r);

        let npages = self.seg.npages();
        self.homes.resize(npages, 0);
        self.versions.resize(npages, 1);
        self.last_write_epoch.resize(npages, 0);
        self.last_writer.resize(npages, 0);
        for pg in 0..npages {
            self.homes[pg] = r.usize();
            self.versions[pg] = r.u32();
            self.last_write_epoch[pg] = r.u64();
            self.last_writer[pg] = r.u16();
        }
        self.homes.truncate(npages);
        self.versions.truncate(npages);
        self.last_write_epoch.truncate(npages);
        self.last_writer.truncate(npages);
        self.copysets = decode_copyset_map(r);
        self.iter_writers = decode_copyset_map(r);
        self.iter_write_counts = (0..r.usize())
            .map(|_| {
                let k = (r.u32(), r.u16());
                (k, r.u32())
            })
            .collect();

        self.migrated = r.bool();
        self.od_mode = match r.u8() {
            0 => OdMode::Learning,
            1 => OdMode::Overdrive,
            2 => OdMode::Reverted,
            t => panic!("bad od mode tag {t}"),
        };
        self.od_revert_pending = r.bool();
        self.migration_pending = r.bool();
        self.measuring = r.bool();

        self.last_reduction = (0..r.usize()).map(|_| r.f64()).collect();
        self.reduce_mem = if r.bool() {
            let slots = SharedArray::from_raw(r.usize(), r.usize());
            let result = SharedArray::from_raw(r.usize(), r.usize());
            let cap = r.usize();
            Some(ReduceMem { slots, result, cap })
        } else {
            None
        };

        for pid in 0..self.nprocs() {
            self.restore_proc(r, pid);
        }

        if r.bool() {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = r.u64();
            }
            self.sched.borrow_mut().set_rng_state(s);
        }
        self.trace_hash = r.u64();

        // A restored execution is live again regardless of how the
        // previous excursion from this state ended.
        self.pruned = false;

        // Step-boundary invariant: nothing is in flight between barriers.
        self.bar_deliveries.home_flushes.clear();
        self.bar_deliveries.bar_updates.clear();
        self.bar_deliveries.lmw_updates.clear();
        self.bar_deliveries.bumps.clear();
        self.bar_deliveries.writer_bumps.clear();
    }

    fn restore_proc(&mut self, r: &mut SnapReader<'_>, pid: usize) {
        // Split the borrow: frames restore against the shared image with
        // buffers drawn from the shared pool.
        let Cluster {
            image, procs, pool, ..
        } = self;
        let p = &mut procs[pid];
        decode_clock(r, p);

        let snap_npages = r.usize();
        p.store.truncate_pages(snap_npages);
        p.store.ensure_pages(snap_npages);
        let resident: Vec<PageId> = p.store.iter().map(|(pg, _)| pg).collect();
        let nframes = r.usize();
        let mut restored = Vec::with_capacity(nframes);
        for _ in 0..nframes {
            let page = PageId(r.u32());
            restored.push(page);
            let prot = match r.u8() {
                0 => dsm_vm::Protection::Invalid,
                1 => dsm_vm::Protection::Read,
                2 => dsm_vm::Protection::ReadWrite,
                t => panic!("bad protection tag {t}"),
            };
            let version_seen = r.u32();
            let applied_through = r.u64();
            let tracking = r.bool();
            let all = r.bool();
            let coarse = r.bool();
            let ranges: Vec<(u32, u32)> = (0..r.usize()).map(|_| (r.u32(), r.u32())).collect();
            let dirty = dsm_vm::DirtyRanges::from_parts(ranges, all, coarse);
            let data_runs = decode_runs(r, page);
            let twin_present = r.bool();
            let twin_runs = if twin_present {
                decode_runs(r, page)
            } else {
                Diff::new(page)
            };
            p.store.frame_mut(page).restore_state(
                &image[page.index()],
                &data_runs,
                twin_present,
                &twin_runs,
                prot,
                version_seen,
                applied_through,
                dirty,
                tracking,
                pool,
            );
        }
        // De-materialize pages resident now but absent from the snapshot:
        // residency is observable (untouched pages fault differently only
        // in cost accounting, but `state_hash` folds the frame set).
        for pg in resident {
            if restored.binary_search(&pg).is_err() {
                p.store.clear_frame(pg);
            }
        }

        p.dirty = (0..r.usize()).map(|_| PageId(r.u32())).collect();
        p.protect_ops_epoch = r.u32();

        p.lmw.segments = decode_sorted(r, |r, page| {
            (0..r.usize())
                .map(|_| {
                    let lo = r.u64();
                    let hi = r.u64();
                    let diff = Rc::new(decode_runs(r, PageId(page)));
                    Segment { lo, hi, diff }
                })
                .collect::<Vec<Segment>>()
        });
        p.lmw.pending = decode_sorted(r, |r, _| (r.u64(), r.u64()));
        p.lmw.known_notices = decode_sorted(r, |r, _| {
            (0..r.usize())
                .map(|_| WriteNotice {
                    page: r.u32(),
                    writer: r.u16(),
                    epoch: r.u64(),
                })
                .collect::<Vec<WriteNotice>>()
        });
        p.lmw.pending_updates = decode_sorted(r, |r, page| {
            (0..r.usize())
                .map(|_| {
                    let writer = r.u16();
                    let lo = r.u64();
                    let hi = r.u64();
                    let diff = Rc::new(decode_runs(r, PageId(page)));
                    (writer, Segment { lo, hi, diff })
                })
                .collect::<Vec<(u16, Segment)>>()
        });
        p.lmw.copysets = decode_copyset_map(r);
        p.lmw.applied = (0..r.usize())
            .map(|_| {
                let k = (r.u32(), r.u16());
                (k, r.u64())
            })
            .collect();

        p.od.cur_sites = decode_od_sites(r);
        p.od.prev_sites = decode_od_sites(r);
        p.od.have_prev = r.bool();
        p.od.pre_enabled = (0..r.usize()).map(|_| r.u32()).collect();
    }
}

/// Encode a page-keyed map with sorted keys and a per-value closure.
fn encode_sorted<V>(
    w: &mut SnapWriter,
    map: &dsm_sim::FastMap<u32, V>,
    mut val: impl FnMut(&mut SnapWriter, &V),
) {
    let mut keys: Vec<u32> = map.keys().copied().collect();
    keys.sort_unstable();
    w.usize(keys.len());
    for k in keys {
        w.u32(k);
        val(w, &map[&k]);
    }
}

/// Decode an [`encode_sorted`] map; the closure receives the key (pages
/// embedded in values, e.g. diffs, need it).
fn decode_sorted<V>(
    r: &mut SnapReader<'_>,
    mut val: impl FnMut(&mut SnapReader<'_>, u32) -> V,
) -> dsm_sim::FastMap<u32, V> {
    let n = r.usize();
    let mut map = dsm_sim::FastMap::default();
    for _ in 0..n {
        let k = r.u32();
        let v = val(r, k);
        map.insert(k, v);
    }
    map
}

fn encode_copyset_map(w: &mut SnapWriter, map: &dsm_sim::FastMap<u32, CopySet>) {
    encode_sorted(w, map, |w, cs| cs.encode_state(w));
}

fn decode_copyset_map(r: &mut SnapReader<'_>) -> dsm_sim::FastMap<u32, CopySet> {
    decode_sorted(r, |r, _| CopySet::decode_state(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::hash::hash_diff;
    use dsm_sim::prop::check;
    use dsm_vm::PageBuf;

    fn folded(diff: &Diff) -> u64 {
        let mut h = StateHasher::new();
        hash_diff(&mut h, diff);
        h.finish()
    }

    /// encode → decode → encode reproduces the bytes and an equal diff,
    /// and equal diffs fold to the same state hash however they were
    /// built (scanned, decoded, or pushed run by run).
    #[test]
    fn diff_codec_round_trips_and_hashes_agree() {
        check("diff_codec_round_trips_and_hashes_agree", 200, |g| {
            let size = if g.chance(0.5) { 256 } else { 2048 };
            let page = PageId(g.below(1 << 20) as u32);
            let mut twin = PageBuf::zeroed(size);
            twin.bytes_mut().copy_from_slice(&g.bytes(size));
            let mut cur = twin.clone();
            for _ in 0..g.range(0, 24) {
                let len = g.range(1, 40);
                let at = g.below(size - len);
                cur.bytes_mut()[at..at + len].copy_from_slice(&g.bytes(len));
            }
            let diff = Diff::between(page, &twin, &cur);

            let mut w = SnapWriter::new();
            encode_runs(&mut w, &diff);
            let bytes = w.into_bytes();
            let decoded = decode_runs(&mut SnapReader::new(&bytes), page);
            assert_eq!(decoded, diff);
            let mut again = SnapWriter::new();
            encode_runs(&mut again, &decoded);
            assert_eq!(again.into_bytes(), bytes);

            let mut pushed = Diff::new(page);
            for (offset, run) in diff.runs() {
                pushed.push_run(offset, run);
            }
            assert_eq!(folded(&decoded), folded(&diff));
            assert_eq!(folded(&pushed), folded(&diff));
            let first = diff.runs().next().map(|(offset, _)| offset);
            if let Some(offset) = first {
                let mut other = cur.clone();
                other.bytes_mut()[offset as usize] ^= 1;
                let changed = Diff::between(page, &twin, &other);
                assert_ne!(
                    folded(&changed),
                    folded(&diff),
                    "a changed byte moves the hash"
                );
            }
        });
    }
}
