//! Differential property test for the flat diff representation.
//!
//! [`Diff`] keeps one span list and one concatenated payload per diff. The
//! reference model below keeps the straightforward shape instead — one
//! `(offset, Vec<u8>)` per run, built by a plain word-by-word comparison —
//! and every constructor, accessor and operation of the real type must
//! agree with it on random pages: the scans (full, ranged, ranged through a
//! pool that is reused across cases), the twin-free capture, application,
//! disjointness and both size measures.

use std::sync::{Mutex, PoisonError};

use dsm_sim::prop::{check, Gen};
use dsm_vm::{BufPool, Diff, DirtyRanges, PageBuf, PageId};

/// One run per entry, each with its own payload vector.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    page: PageId,
    runs: Vec<(u32, Vec<u8>)>,
}

impl Model {
    /// Word-by-word comparison; adjacent differing words coalesce.
    fn between(page: PageId, twin: &[u8], cur: &[u8]) -> Model {
        let mut runs: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut open = false;
        for (w, (t, c)) in twin.chunks(8).zip(cur.chunks(8)).enumerate() {
            if t == c {
                open = false;
                continue;
            }
            if open {
                runs.last_mut().expect("open run").1.extend_from_slice(c);
            } else {
                runs.push(((w * 8) as u32, c.to_vec()));
                open = true;
            }
        }
        Model { page, runs }
    }

    /// One run per non-empty span, clipped to the page.
    fn capture(page: PageId, cur: &[u8], spans: &[(u32, u32)]) -> Model {
        let len = cur.len() as u32;
        let runs = spans
            .iter()
            .map(|&(s, e)| (s, e.min(len)))
            .filter(|&(s, e)| s < e)
            .map(|(s, e)| (s, cur[s as usize..e as usize].to_vec()))
            .collect();
        Model { page, runs }
    }

    fn apply(&self, target: &mut [u8]) {
        for (off, data) in &self.runs {
            let s = *off as usize;
            target[s..s + data.len()].copy_from_slice(data);
        }
    }

    fn disjoint(&self, other: &Model) -> bool {
        self.runs.iter().all(|(a, ad)| {
            let (a0, a1) = (*a as usize, *a as usize + ad.len());
            other.runs.iter().all(|(b, bd)| {
                let (b0, b1) = (*b as usize, *b as usize + bd.len());
                !(a0 < b1 && b0 < a1)
            })
        })
    }

    fn payload_bytes(&self) -> usize {
        self.runs.iter().map(|(_, d)| d.len()).sum()
    }

    fn wire_bytes(&self) -> usize {
        8 + self.runs.iter().map(|(_, d)| 8 + d.len()).sum::<usize>()
    }
}

/// The real diff must equal the model run for run, by every accessor.
fn assert_matches(d: &Diff, m: &Model) {
    assert_eq!(d.page, m.page);
    let runs: Vec<(u32, Vec<u8>)> = d.runs().map(|(o, r)| (o, r.to_vec())).collect();
    assert_eq!(runs, m.runs);
    assert_eq!(d.run_count(), m.runs.len());
    assert_eq!(d.is_empty(), m.runs.is_empty());
    assert_eq!(d.payload_bytes(), m.payload_bytes());
    assert_eq!(d.wire_bytes(), m.wire_bytes());
    let spans: Vec<(u32, u32)> = m.runs.iter().map(|(o, r)| (*o, r.len() as u32)).collect();
    assert_eq!(d.spans(), spans.as_slice());
    let data: Vec<u8> = m.runs.iter().flat_map(|(_, r)| r.iter().copied()).collect();
    assert_eq!(d.data(), data.as_slice());
    // Rebuilding run by run gives an equal value.
    let mut rebuilt = Diff::new(m.page);
    for (off, run) in &m.runs {
        rebuilt.push_run(*off, run);
    }
    assert_eq!(&rebuilt, d);
}

fn random_page(g: &mut Gen, size: usize) -> PageBuf {
    let mut p = PageBuf::zeroed(size);
    p.bytes_mut().copy_from_slice(&g.bytes(size));
    p
}

/// `base` with random recorded writes (some silent), plus the ranges.
fn written_variant(g: &mut Gen, base: &PageBuf) -> (PageBuf, DirtyRanges) {
    let size = base.len();
    let mut cur = base.clone();
    let mut ranges = DirtyRanges::new();
    for _ in 0..g.range(0, 24) {
        let len = g.range(1, 40);
        let at = g.below(size - len);
        ranges.insert(at, len);
        if g.chance(0.8) {
            cur.bytes_mut()[at..at + len].copy_from_slice(&g.bytes(len));
        }
    }
    if g.chance(0.1) {
        ranges.mark_all();
    }
    (cur, ranges)
}

/// Sorted, disjoint, word-aligned spans; some empty, some past the end.
fn random_spans(g: &mut Gen, size: usize) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut at = 0usize;
    while at < size + 64 && spans.len() < 12 {
        let s = at + 8 * g.below(16);
        let e = s + 8 * g.below(8);
        spans.push((s as u32, e as u32));
        at = e + 8;
    }
    spans
}

#[test]
fn flat_diff_matches_run_list_model() {
    // One pool for the whole property: later cases draw diffs whose
    // vectors still hold earlier cases' capacity (and stale bytes).
    let pool = Mutex::new(BufPool::new());
    check("flat_diff_matches_run_list_model", 300, |g| {
        let size = if g.chance(0.5) { 256 } else { 2048 };
        let page = PageId(g.below(64) as u32);
        let twin = random_page(g, size);
        let (cur, ranges) = written_variant(g, &twin);
        let model = Model::between(page, twin.bytes(), cur.bytes());

        let full = Diff::between(page, &twin, &cur);
        assert_matches(&full, &model);
        assert_matches(&Diff::between_ranges(page, &twin, &cur, &ranges), &model);
        let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
        let pooled = Diff::between_ranges_in(page, &twin, &cur, &ranges, &mut pool);
        assert_matches(&pooled, &model);
        pool.put_diff(pooled);

        // Application rebuilds `cur` from `twin`, as the model does.
        let mut real = twin.clone();
        full.apply_to(&mut real);
        let mut expect = twin.bytes().to_vec();
        model.apply(&mut expect);
        assert_eq!(real.bytes(), expect.as_slice());
        assert_eq!(real.bytes(), cur.bytes());

        // Disjointness against a second writer's diff of the same twin:
        // sparse writes make both outcomes common.
        let (other, _) = written_variant(g, &twin);
        let other_model = Model::between(page, twin.bytes(), other.bytes());
        let other_diff = Diff::between(page, &twin, &other);
        assert_eq!(
            full.disjoint_from(&other_diff),
            model.disjoint(&other_model)
        );
        assert_eq!(
            other_diff.disjoint_from(&full),
            other_model.disjoint(&model)
        );

        // Twin-free capture, fresh and through the reused pool.
        let spans = random_spans(g, size);
        let cap_model = Model::capture(page, cur.bytes(), &spans);
        assert_matches(&Diff::capture(page, &cur, &spans), &cap_model);
        let cap = Diff::capture_in(page, &cur, &spans, &mut pool);
        assert_matches(&cap, &cap_model);
        if g.chance(0.5) {
            pool.put_diff(cap);
        }
    });
}
