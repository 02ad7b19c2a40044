//! Spans recorded around the calls into each layer, and a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations (a statistic: `Relaxed`).
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain atomic statistic that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made so far by the process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One span: a named interval, the span that caused it and the request
/// it served (if one).
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Spans of one run, kept in memory and written out when it ends. A
/// disabled recorder drops every span.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, spans: Vec::new() }
    }

    /// Records `[start, end]` (seconds since the run's origin) and returns
    /// the span's id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_us: start * 1e6, end_us: end * 1e6, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of span `id`, for a span opened before its children
    /// were recorded.
    pub fn close(&mut self, id: Option<usize>, end: f64) {
        if let Some(id) = id {
            self.spans[id].end_us = end * 1e6;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span (id, name, start/end in µs since
    /// the run began, parent id, request id).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"parent\":{},\"request\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}
