//! Tier-1 guarantees of the region-granularity protocol.
//!
//! * `bar-r` races `bar-u` on sor and shallow under the full oracle stack
//!   (race detector, LRC value oracle, protocol invariants, elision
//!   grounding): identical final checksums, zero violations, and strictly
//!   fewer flushed diff bytes on at least one statically proven
//!   false-shared page — the first measured traffic win of the region
//!   certificates;
//! * a property test of the delta-commutativity claim itself: on any page
//!   where two writers' recorded dirty ranges fall inside disjoint spans,
//!   the `Diff::between_ranges` deltas commute (either application order
//!   yields the same bytes), and the twin-free `Diff::capture` delta is
//!   equivalent to the twin-based diff.

use std::sync::Arc;

use rdsm::apps::{app_by_name, Scale};
use rdsm::check::checked_run;
use rdsm::core::{PageClass, ProtocolKind, RunConfig};
use rdsm::sim::prop::{check, Gen};
use rdsm::vm::{Diff, DirtyRanges, PageBuf, PageId};

const NPROCS: usize = 8;

fn race_protocols(name: &str) {
    let spec = app_by_name(name).expect("known app");
    let rt = Arc::new(spec.prove_regions(Scale::Small, NPROCS).table);
    let false_shared: Vec<u32> = rt
        .iter()
        .filter(|c| c.class == PageClass::FalseShared)
        .map(|c| c.page)
        .collect();
    assert!(
        !false_shared.is_empty(),
        "{name}: prover found no false-shared page at nprocs={NPROCS}"
    );

    let (ru, cu) = checked_run(
        spec.build(Scale::Small).as_mut(),
        RunConfig::with_nprocs(ProtocolKind::BarU, NPROCS),
    );
    assert!(cu.is_clean(), "{name}/bar-u:\n{}", cu.summary());

    let mut cfg = RunConfig::with_nprocs(ProtocolKind::BarR, NPROCS);
    cfg.regions = Some(Arc::clone(&rt));
    let (rr, cr) = checked_run(spec.build(Scale::Small).as_mut(), cfg);
    assert!(cr.is_clean(), "{name}/bar-r:\n{}", cr.summary());

    assert_eq!(
        rr.checksum.to_bits(),
        ru.checksum.to_bits(),
        "{name}: bar-r checksum diverged from bar-u"
    );
    assert!(
        rr.stats.region_twin_skips > 0,
        "{name}: no certified write fault ever skipped its twin"
    );

    // The measured win: on at least one proven false-shared page, bar-r
    // flushes strictly fewer diff bytes than bar-u (elided pushes toward
    // certified non-readers).
    let bytes = |r: &rdsm::core::RunReport, p: u32| {
        r.stats
            .flush_bytes_by_page
            .get(p as usize)
            .copied()
            .unwrap_or(0)
    };
    let improved: Vec<u32> = false_shared
        .iter()
        .copied()
        .filter(|&p| bytes(&rr, p) < bytes(&ru, p))
        .collect();
    assert!(
        !improved.is_empty(),
        "{name}: no false-shared page shipped fewer bytes under bar-r \
         (pages {false_shared:?}, bar-u bytes {:?}, bar-r bytes {:?})",
        false_shared
            .iter()
            .map(|&p| bytes(&ru, p))
            .collect::<Vec<_>>(),
        false_shared
            .iter()
            .map(|&p| bytes(&rr, p))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn barr_beats_baru_on_sor() {
    race_protocols("sor");
}

#[test]
fn barr_beats_baru_on_shallow() {
    race_protocols("shallow");
}

/// The commutation proof obligation, checked dynamically on random data:
/// disjoint spans ⇒ disjoint dirty ranges ⇒ the two writers' deltas
/// commute, and the twin-free capture is application-equivalent to the
/// twin-based diff.
#[test]
fn disjoint_span_deltas_commute() {
    const PS: usize = 4096;
    check("disjoint_span_deltas_commute", 200, |g: &mut Gen| {
        // Partition the page's 512 words into alternating chunks owned by
        // writer A, writer B, or nobody. Chunks are at least 24 words so
        // that one contiguous store run per chunk keeps each writer's
        // exact dirty-range count under `DirtyRanges::MAX_RANGES` — the
        // coarse (scattered-store) regime has its own property test
        // below.
        let mut spans_a: Vec<(u32, u32)> = Vec::new();
        let mut spans_b: Vec<(u32, u32)> = Vec::new();
        let mut word = 0usize;
        while word < PS / 8 {
            let len = g.range(24, 65).min(PS / 8 - word);
            let (lo, hi) = ((word * 8) as u32, ((word + len) * 8) as u32);
            // Adjacent same-owner chunks coalesce into one span, exactly
            // like the prover's span-set union does.
            let push = |spans: &mut Vec<(u32, u32)>| match spans.last_mut() {
                Some(last) if last.1 == lo => last.1 = hi,
                _ => spans.push((lo, hi)),
            };
            match g.below(3) {
                0 => push(&mut spans_a),
                1 => push(&mut spans_b),
                _ => {}
            }
            word += len;
        }

        let mut pristine = PageBuf::zeroed(PS);
        for (i, b) in pristine.bytes_mut().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }

        // Each writer stores one contiguous random band strictly inside
        // every one of its spans, recording dirty ranges exactly like the
        // write-fault path.
        let mut write_some = |spans: &[(u32, u32)]| {
            let mut cur = pristine.clone();
            let mut dirty = DirtyRanges::new();
            for &(lo, hi) in spans {
                let words = ((hi - lo) / 8) as usize;
                let n = g.range(1, words + 1);
                let at = g.below(words - n + 1);
                for w in at..at + n {
                    let off = lo as usize + w * 8;
                    let val = g.u64().to_le_bytes();
                    cur.bytes_mut()[off..off + 8].copy_from_slice(&val);
                    dirty.insert(off, 8);
                }
            }
            (cur, dirty)
        };
        let (cur_a, dirty_a) = write_some(&spans_a);
        let (cur_b, dirty_b) = write_some(&spans_b);

        // Static disjointness implies dynamic disjointness: recorded
        // ranges stay within the owning spans and never intersect.
        assert!(!dirty_a.is_all() && !dirty_b.is_all());
        assert!(dirty_a.within(&spans_a));
        assert!(dirty_b.within(&spans_b));
        for (alo, ahi) in dirty_a.iter() {
            for (blo, bhi) in dirty_b.iter() {
                assert!(ahi <= blo || bhi <= alo, "dirty ranges overlap");
            }
        }

        let da = Diff::between_ranges(PageId(0), &pristine, &cur_a, &dirty_a);
        let db = Diff::between_ranges(PageId(0), &pristine, &cur_b, &dirty_b);

        // Commutation: apply in both orders, identical result.
        let mut ab = pristine.clone();
        da.apply_to(&mut ab);
        db.apply_to(&mut ab);
        let mut ba = pristine.clone();
        db.apply_to(&mut ba);
        da.apply_to(&mut ba);
        assert_eq!(ab.bytes(), ba.bytes(), "deltas failed to commute");

        // The twin-free capture over the recorded ranges is equivalent to
        // the twin-based diff under application: unmodified captured
        // words re-ship their (identical) values.
        let ranges_a: Vec<(u32, u32)> = dirty_a.iter().collect();
        let cap_a = Diff::capture(PageId(0), &cur_a, &ranges_a);
        let mut via_diff = pristine.clone();
        da.apply_to(&mut via_diff);
        let mut via_capture = pristine.clone();
        cap_a.apply_to(&mut via_capture);
        assert_eq!(
            via_diff.bytes(),
            via_capture.bytes(),
            "capture delta diverged from twin diff"
        );
    });
}

/// The scattered-store regime: when single-word stores overflow
/// `DirtyRanges::MAX_RANGES`, twin-free tracking coarsens (min-gap
/// merging) instead of collapsing. The coarse cover, clipped back to the
/// writer's proven spans exactly as `bar-r`'s flush does, must still
/// cover every store, stay bounded, and produce a capture that is
/// application-equivalent to the writer's true delta: captured pages
/// match the written page on the spans and the pristine page off them.
#[test]
fn coarse_cover_capture_stays_sound() {
    const PS: usize = 4096;
    let clip = |ranges: &DirtyRanges, spans: &[(u32, u32)]| -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (rs, re) in ranges.iter() {
            for &(ss, se) in spans {
                let (lo, hi) = (rs.max(ss), re.min(se));
                if lo < hi {
                    out.push((lo, hi));
                }
            }
        }
        out
    };
    check("coarse_cover_capture_stays_sound", 200, |g: &mut Gen| {
        // The writer owns the first 8 words of every 16-word chunk: 32
        // spans, more than `MAX_RANGES`, so the coarse cover is forced to
        // merge across span gaps and the clipping step is load-bearing.
        let spans: Vec<(u32, u32)> = (0..PS / 128)
            .map(|c| ((c * 128) as u32, (c * 128 + 64) as u32))
            .collect();

        let mut pristine = PageBuf::zeroed(PS);
        for (i, b) in pristine.bytes_mut().iter_mut().enumerate() {
            *b = (i % 241) as u8;
        }
        let mut cur = pristine.clone();
        let mut cover = DirtyRanges::new();
        let mut written: Vec<usize> = Vec::new();
        for &(lo, hi) in &spans {
            for w in 0..(hi - lo) / 8 {
                if g.chance(0.5) {
                    let off = (lo + w * 8) as usize;
                    cur.bytes_mut()[off..off + 8].copy_from_slice(&g.u64().to_le_bytes());
                    cover.insert_coarse(off, 8);
                    written.push(off);
                }
            }
        }

        // Bounded, never collapsed, and still a cover of every store.
        assert!(!cover.is_all(), "coarse tracking must never collapse");
        assert!(cover.len() <= DirtyRanges::MAX_RANGES);
        for &off in &written {
            assert!(cover.covers(off), "store at {off} escaped the cover");
        }

        // Clip to the proven spans (the flush path's soundness step: a
        // coarse range may straddle a gap into another writer's words)
        // and capture verbatim.
        let clipped = clip(&cover, &spans);
        let cap = Diff::capture(PageId(0), &cur, &clipped);
        let mut applied = pristine.clone();
        cap.apply_to(&mut applied);

        // Application-equivalence to the true delta: the writer's spans
        // carry the written page, everything else is untouched.
        let in_spans = |off: u32| spans.iter().any(|&(s, e)| s <= off && off < e);
        for off in (0..PS).step_by(8) {
            let (a, c, p) = (
                &applied.bytes()[off..off + 8],
                &cur.bytes()[off..off + 8],
                &pristine.bytes()[off..off + 8],
            );
            if in_spans(off as u32) {
                assert_eq!(a, c, "word {off} inside spans lost the write");
            } else {
                assert_eq!(a, p, "word {off} outside spans was touched");
            }
        }
    });
}
