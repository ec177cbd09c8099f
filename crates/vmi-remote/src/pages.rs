//! The one page model behind every simulated medium (the compute node's
//! local disk, the storage node's disk, the NFS client): which pages a read
//! finds resident, when a fetched page is ready, how absent pages group
//! into fetches, which pages a write makes resident, and when a sequential
//! stream earns readahead. A medium only prices what it decides, through
//! the closures it passes in.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use vmi_sim::{CacheId, Ns, SimWorld};

/// One file's pages in one page cache of the world.
pub(crate) struct PageModel {
    world: SimWorld,
    pub(crate) cache: CacheId,
    /// Key of this file's pages in `cache`.
    file: u64,
    page: u64,
    /// Most absent pages one fetch carries.
    batch: u64,
    /// Bytes prefetched past a read that continues the previous one.
    window: u64,
    /// End offset of the last read (the sequential detector).
    last_read_end: AtomicU64,
}

impl PageModel {
    /// `file`'s pages of `page` bytes in `cache`, fetched up to `batch`
    /// pages at a time, with a readahead `window` (0: none).
    pub fn new(
        world: SimWorld,
        cache: CacheId,
        file: u64,
        page: u64,
        batch: u64,
        window: u64,
    ) -> Self {
        Self {
            world,
            cache,
            file,
            page,
            batch,
            window,
            last_read_end: AtomicU64::new(u64::MAX - (1 << 30)),
        }
    }

    /// Pages covering the non-empty range `[off, off + len)`.
    fn pages(&self, off: u64, len: u64) -> Range<u64> {
        off / self.page..(off + len - 1) / self.page + 1
    }

    /// Walk a non-empty read page by page. A resident page waits for its
    /// readiness, then costs `hit()`. Absent pages gather into runs of at
    /// most `batch`; each run costs `fetch(offset, bytes)` and becomes
    /// resident, ready when the fetch completes.
    pub fn read(&self, off: u64, len: u64, mut hit: impl FnMut(), mut fetch: impl FnMut(u64, u64)) {
        let mut flush = |run: Range<u64>| {
            if !run.is_empty() {
                fetch(run.start * self.page, (run.end - run.start) * self.page);
                self.world.cache_fill(self.cache, self.file, run);
            }
        };
        let Range { start: mut p, end } = self.pages(off, len);
        let mut run = p..p; // absent pages not fetched yet
        while p < end {
            // Probe while the run has room, up to the first resident page.
            let probe = p..end.min(run.start + self.batch);
            let (absent, resident) = self.world.cache_probe_run(self.cache, self.file, probe);
            p += absent;
            run.end = p;
            if resident || run.end - run.start == self.batch {
                flush(std::mem::replace(&mut run, p..p));
            }
            if resident {
                hit();
                p += 1;
                run = p..p;
            }
        }
        flush(run);
    }

    /// After a non-empty read that continues the previous one, make the
    /// window past it resident in the background: each absent page costs
    /// `prefetch(start, offset, bytes)`, which returns when it is ready.
    /// Prefetches run back to back and never advance the op clock.
    pub fn read_ahead(&self, off: u64, len: u64, mut prefetch: impl FnMut(Ns, u64, u64) -> Ns) {
        let end = off + len;
        let last_end = self.last_read_end.swap(end, Ordering::Relaxed);
        if off > last_end + self.page || end <= last_end {
            return;
        }
        let first = (end - 1) / self.page + 1;
        let mut t = self.world.op_now();
        for p in first..first + self.window / self.page {
            // The presence check must not wait on in-flight pages.
            if !self.world.cache_contains(self.cache, self.file, p) {
                t = prefetch(t, p * self.page, self.page);
                self.world.cache_insert(self.cache, self.file, p, t);
            }
        }
    }

    /// Make the pages of a non-empty write resident, ready now.
    pub fn written(&self, off: u64, len: u64) {
        self.world
            .cache_fill(self.cache, self.file, self.pages(off, len));
    }
}
