//! Free-lists for page buffers and diffs.
//!
//! The protocols allocate in a tight loop: a twin per write-trapped page
//! per interval and one diff (two vectors: its span list and its payload)
//! per diffed page, all dropped within a barrier (home-based) or at GC
//! (homeless). A [`BufPool`] recycles those allocations — callers `take_*`
//! instead of allocating and `put_*` instead of dropping. A diff shared
//! between receivers through an `Rc` comes back through
//! [`BufPool::put_shared`] once its last holder lets go. Pooling is pure
//! host-side mechanics: buffers carry no virtual-time cost and recycled
//! memory is always fully overwritten before use (twins by a full page
//! copy, diffs by emptying both vectors before any run is pushed), a
//! property the proptests in `frame.rs` and `diff.rs` pin down.

use std::rc::Rc;

use crate::buf::PageBuf;
use crate::diff::Diff;
use crate::page::PageId;

/// Retention caps: a pool never holds more than this many of each kind
/// (excess is simply dropped), bounding idle memory.
const PAGES_CAP: usize = 128;
const DIFFS_CAP: usize = 128;

/// A free-list for [`PageBuf`]s (twins, copies) and whole [`Diff`]s.
// audit: leaf: buffer recycling free-list; pooled memory is interchangeable
// scratch, fully overwritten before reuse, never logical state
#[derive(Debug, Default)]
pub struct BufPool {
    pages: Vec<PageBuf>,
    diffs: Vec<Diff>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// A page buffer of `len` bytes with *unspecified contents* — the
    /// caller must fully overwrite it. Recycles a pooled buffer of the
    /// same size if one is available.
    pub fn take_page(&mut self, len: usize) -> PageBuf {
        match self.pages.last() {
            Some(p) if p.len() == len => self.pages.pop().expect("checked non-empty"),
            _ => PageBuf::zeroed(len),
        }
    }

    /// Return a page buffer to the pool. Buffers of a different size than
    /// the ones already pooled (or beyond the cap) are dropped.
    pub fn put_page(&mut self, buf: PageBuf) {
        let same_size = self.pages.last().is_none_or(|p| p.len() == buf.len());
        if same_size && self.pages.len() < PAGES_CAP {
            self.pages.push(buf);
        }
    }

    /// An empty diff for `page` (recycled capacity if available).
    pub fn take_diff(&mut self, page: PageId) -> Diff {
        match self.diffs.pop() {
            Some(mut d) => {
                d.reset(page);
                d
            }
            None => Diff::new(page),
        }
    }

    /// Recycle a diff's storage (beyond the cap it is dropped).
    pub fn put_diff(&mut self, diff: Diff) {
        if self.diffs.len() < DIFFS_CAP {
            self.diffs.push(diff);
        }
    }

    /// Release one holder of a shared diff; the storage is recycled when
    /// this was the last one.
    pub fn put_shared(&mut self, diff: Rc<Diff>) {
        if let Ok(d) = Rc::try_unwrap(diff) {
            self.put_diff(d);
        }
    }

    /// Pooled counts `(pages, diffs)` — observability for tests and
    /// debugging.
    pub fn sizes(&self) -> (usize, usize) {
        (self.pages.len(), self.diffs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_recycle_by_size() {
        let mut pool = BufPool::new();
        let mut a = pool.take_page(64);
        a.bytes_mut()[0] = 0xAB;
        pool.put_page(a);
        assert_eq!(pool.sizes().0, 1);
        // Wrong size allocates fresh (zeroed) and leaves the pooled one.
        let b = pool.take_page(128);
        assert_eq!(b.len(), 128);
        assert!(b.bytes().iter().all(|&x| x == 0));
        assert_eq!(pool.sizes().0, 1);
        // Matching size recycles; contents are unspecified (stale here),
        // which is why every caller fully overwrites.
        let c = pool.take_page(64);
        assert_eq!(c.bytes()[0], 0xAB);
        assert_eq!(pool.sizes().0, 0);
        // A mismatched put is dropped, not pooled.
        pool.put_page(PageBuf::zeroed(64));
        pool.put_page(PageBuf::zeroed(128));
        assert_eq!(pool.sizes().0, 1);
    }

    #[test]
    fn diff_storage_recycles_emptied() {
        let mut pool = BufPool::new();
        let mut diff = Diff::new(PageId(0));
        diff.push_run(0, &[1; 16]);
        diff.push_run(32, &[2; 8]);
        pool.put_diff(diff);
        assert_eq!(pool.sizes(), (0, 1));
        let d = pool.take_diff(PageId(3));
        assert_eq!(d.page, PageId(3), "a recycled diff is retargeted");
        assert!(d.is_empty(), "recycled diffs arrive empty");
        assert_eq!(d.payload_bytes(), 0, "recycled payloads arrive empty");
        assert!(d.capacity() >= 24, "capacity is what gets recycled");
        assert_eq!(pool.sizes(), (0, 0));
    }

    #[test]
    fn shared_diff_recycles_after_last_holder() {
        let mut pool = BufPool::new();
        let mut diff = Diff::new(PageId(0));
        diff.push_run(8, &[7; 8]);
        let a = Rc::new(diff);
        let b = Rc::clone(&a);
        pool.put_shared(a);
        assert_eq!(
            pool.sizes(),
            (0, 0),
            "a diff still held elsewhere stays out"
        );
        pool.put_shared(b);
        assert_eq!(pool.sizes(), (0, 1), "the last holder returns the storage");
    }
}
