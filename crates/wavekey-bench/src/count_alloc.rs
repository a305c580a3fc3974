//! A counting global allocator: live heap bytes and blocks, their peaks,
//! and the number of allocations. `gateway_soak` installs it to report
//! what one in-flight session holds, and the footprint tests of
//! `wavekey-core` and `wavekey-gateway` include this file (`#[path]`) to
//! pin their ceilings, so every heap figure comes from this one counter.
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};

/// Forwards to `System`, counting as it goes.
pub struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size() as isize;
            PEAK_BYTES.fetch_max(LIVE_BYTES.fetch_add(size, Relaxed) + size, Relaxed);
            PEAK_BLOCKS.fetch_max(LIVE_BLOCKS.fetch_add(1, Relaxed) + 1, Relaxed);
            CALLS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's pointer, layout and size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let grow = new_size as isize - layout.size() as isize;
            PEAK_BYTES.fetch_max(LIVE_BYTES.fetch_add(grow, Relaxed) + grow, Relaxed);
            CALLS.fetch_add(1, Relaxed);
        }
        p
    }
}

/// The live heap now: `(bytes, blocks)`.
pub fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed))
}

/// Allocations and reallocations made so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Runs `f` and returns its result with the peak live heap it reached
/// above the level it started at: `(result, bytes, blocks)`.
pub fn peak_of<R>(f: impl FnOnce() -> R) -> (R, isize, isize) {
    let (bytes, blocks) = live();
    PEAK_BYTES.store(bytes, Relaxed);
    PEAK_BLOCKS.store(blocks, Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Relaxed) - bytes, PEAK_BLOCKS.load(Relaxed) - blocks)
}
