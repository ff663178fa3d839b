//! A `Pager` wrapper that counts the page traffic of whatever it wraps. It
//! reaches the program only through public seams: `persist::save_with`'s
//! pager wrap and `persist::load_from_pager`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use xquec_storage::{Page, PageId, Pager, Result, PAGE_SIZE};

/// Page traffic seen by every [`CountingPager`] sharing these counters.
#[derive(Debug, Default)]
pub struct PageCounts {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    syncs: AtomicU64,
}

impl PageCounts {
    pub fn read(&self) -> u64 {
        self.pages_read.load(Relaxed)
    }

    pub fn written(&self) -> u64 {
        self.pages_written.load(Relaxed)
    }

    /// Page payload bytes handed to the wrapped pagers.
    pub fn bytes_written(&self) -> u64 {
        self.written() * PAGE_SIZE as u64
    }

    pub fn synced(&self) -> u64 {
        self.syncs.load(Relaxed)
    }
}

/// Forwards every call to `inner`, counting reads, writes and syncs.
pub struct CountingPager {
    inner: Arc<dyn Pager>,
    counts: Arc<PageCounts>,
}

impl CountingPager {
    pub fn wrap(inner: Arc<dyn Pager>, counts: Arc<PageCounts>) -> Arc<dyn Pager> {
        Arc::new(CountingPager { inner, counts })
    }
}

impl Pager for CountingPager {
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()> {
        self.counts.pages_read.fetch_add(1, Relaxed);
        self.inner.read_page(id, out)
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        self.counts.pages_written.fetch_add(1, Relaxed);
        self.inner.write_page(id, page)
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Relaxed);
        self.inner.sync()
    }
}
