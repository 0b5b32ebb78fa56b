//! A counting global allocator, installed only in this benchmark binary.
//!
//! Counting is off by default and costs one relaxed load per allocation
//! then. While it is on, every allocation (and every `realloc`, which may
//! move the block) adds one to the count and its size to the byte total,
//! on every thread, unless the calling thread has paused counting: the
//! tracer pauses it around its own bookkeeping so that a traced pass
//! counts exactly what the untraced pass counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator: `System`, plus counters.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    // Relaxed throughout: the counters publish no other data.
    if ON.load(Ordering::Relaxed) && !PAUSED.try_with(Cell::get).unwrap_or(true) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `note` neither
// allocates nor unwinds (`try_with` on a const-initialised `Cell<bool>`
// needs no lazy initialisation and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via the
        // methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation count and bytes since the process started counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn add(&mut self, other: Allocs) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// The running totals.
pub fn now() -> Allocs {
    Allocs {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` with counting paused on this thread.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}
