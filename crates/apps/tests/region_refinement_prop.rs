//! Property tests: region lowering is a refinement of page lowering.
//!
//! Over random `(app, nprocs)` instantiations of the real suite, the
//! proven region table must satisfy, page by page:
//!
//! * **exactness** — the union of every writer's proven spans
//!   (re-absolutized) equals the union of all store footprints: region
//!   lowering covers exactly the page-lowered store words, no more, no
//!   less;
//! * **page confinement** — no proven span crosses a page boundary
//!   (spans are page-relative and end at or before the page size);
//! * **alignment** — every span is 8-byte-word aligned, matching the
//!   runtime's dirty-range granularity;
//! * **commutation premise** — on certified (exclusive / false-shared)
//!   pages, distinct writers' spans are pairwise disjoint — the static
//!   half of the delta-commutativity proof the `bar-r` protocol rests on;
//! * **page coverage** — the set of certified + true-shared pages equals
//!   the set of pages the page-granularity store footprint touches.

use dsm_apps::all_apps;
use dsm_apps::common::Scale;
use dsm_plan::{run_footprints, SpanSet};
use dsm_sim::prop::{check, Gen};

#[test]
fn region_lowering_refines_page_lowering() {
    let apps = all_apps();
    check(
        "region_lowering_refines_page_lowering",
        24,
        |g: &mut Gen| {
            let spec = &apps[g.below(apps.len())];
            let nprocs = g.range(1, 9);
            let proof = spec.prove_regions(Scale::Small, nprocs);
            let (an, rt) = (&proof.analysis, &proof.table);
            let fp = run_footprints(&an.plan, &an.layout, &proof.schedule);
            let ps = an.layout.page_size;
            let tag = format!("{}/{nprocs}", spec.name);

            let mut stores = SpanSet::empty();
            for s in &fp.stores {
                stores = stores.union(s);
            }
            let mut region_spans: Vec<(u64, u64)> = Vec::new();
            for c in rt.iter() {
                let base = u64::from(c.page) * ps;
                for w in &c.writers {
                    for &(s, e) in &w.spans {
                        // Page confinement and word alignment.
                        assert!(
                            u64::from(e) <= ps,
                            "{tag}: page {} span [{s},{e}) crosses the page boundary",
                            c.page
                        );
                        assert!(s % 8 == 0 && e % 8 == 0, "{tag}: unaligned span");
                        region_spans.push((base + u64::from(s), base + u64::from(e)));
                    }
                }
                // Commutation premise on certified pages: pairwise disjoint
                // writer spans.
                if c.certified() {
                    for (i, a) in c.writers.iter().enumerate() {
                        for b in &c.writers[i + 1..] {
                            for &(alo, ahi) in &a.spans {
                                for &(blo, bhi) in &b.spans {
                                    assert!(
                                        ahi <= blo || bhi <= alo,
                                        "{tag}: page {} writers p{} and p{} overlap",
                                        c.page,
                                        a.writer,
                                        b.writer
                                    );
                                }
                            }
                        }
                    }
                }
            }
            // Exactness: union of regions == union of store footprints.
            assert_eq!(
                SpanSet::from_raw(region_spans),
                stores,
                "{tag}: region union is not the store footprint"
            );
            // Page coverage: certificate pages == store-footprint pages.
            let cert_pages: Vec<u32> = rt.iter().map(|c| c.page).collect();
            assert_eq!(cert_pages, stores.pages(ps), "{tag}: page sets diverge");
        },
    );
}
