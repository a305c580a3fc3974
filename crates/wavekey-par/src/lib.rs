//! Order-exact data parallelism on `std::thread::scope`.
//!
//! Every parallel loop in the workspace goes through this crate. Work is
//! cut into contiguous index ranges, one per worker, and results come back
//! in index order, so no output depends on the thread count.
//!
//! The width is `WAVEKEY_THREADS` when that is set to a positive integer,
//! else the machine's available parallelism. A loop runs inline on the
//! calling thread — no spawn and no allocation beyond the caller's own
//! output — when the width is 1, when it has fewer than two pieces of
//! work, when its estimated cost is below [`MIN_WORK`], or when it is
//! nested inside another parallel region (see [`inline`]). Threads are
//! spawned per loop, so the nesting rule is what bounds the thread count
//! at [`threads`].

#![deny(missing_docs)]

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

/// Estimated cost, in multiply-adds (f32 or 64-bit limb), below which a
/// loop runs inline. On a 2-cpu x86-64 host, spawning and joining one
/// scoped worker costs about 30 µs, while 2^20 multiply-adds take about
/// 0.1 ms in the f32 GEMM and about 1 ms as 16 ristretto255 scalar
/// multiplications. There, training the autoencoders at width 2 took
/// 0.087 s with this gate and 0.111 s with every loop split (median of
/// 8 runs each); 72 of its 888 splittable GEMMs and 60 of its 120
/// per-sample loops reach the gate.
pub const MIN_WORK: usize = 1 << 20;

thread_local! {
    /// Set while this thread runs one range of a parallel region.
    static NESTED: Cell<bool> = const { Cell::new(false) };
}

/// The `WAVEKEY_THREADS` override, parsed once: `Some(n)` when set to a
/// positive integer, `None` otherwise.
pub fn configured_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("WAVEKEY_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The worker count: [`configured_threads`] when set, else the machine's
/// available parallelism (at least 1).
pub fn threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        configured_threads()
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
    })
}

/// Runs `f` as one range of a parallel region: every loop of this crate
/// that `f` starts runs inline on the current thread. Every worker of
/// [`map`] and [`for_each_chunk_mut`] runs its range under this, so a
/// loop nested inside another does not spawn a second layer of threads.
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NESTED.set(self.0);
        }
    }
    let _restore = Restore(NESTED.replace(true));
    f()
}

/// The workers for a loop of `items` pieces costing `work` in total.
fn workers(items: usize, work: usize) -> usize {
    if work < MIN_WORK || NESTED.get() {
        1
    } else {
        threads().min(items)
    }
}

/// Maps `f` over `0..len`, returning the results in index order. `work`
/// is the loop's estimated total cost in multiply-adds (see
/// [`MIN_WORK`]).
pub fn map<U: Send>(len: usize, work: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let workers = workers(len, work);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let per = len.div_ceil(workers);
    let f = &f;
    let part = move |lo: usize| inline(|| (lo..len.min(lo + per)).map(f).collect::<Vec<U>>());
    std::thread::scope(|scope| {
        // The calling thread takes the first range itself.
        let rest: Vec<_> = (per..len)
            .step_by(per)
            .map(|lo| scope.spawn(move || part(lo)))
            .collect();
        let mut out = part(0);
        for handle in rest {
            out.extend(join(handle));
        }
        out
    })
}

/// Calls `f(i, chunk)` on every `chunk_len`-element chunk of `data` (the
/// last may be shorter), where `i` is the chunk's index. `work` is the
/// loop's estimated total cost in multiply-adds (see [`MIN_WORK`]).
///
/// # Panics
///
/// Panics when `chunk_len` is 0.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunks = data.len().div_ceil(chunk_len);
    let workers = workers(chunks, work);
    if workers <= 1 {
        data.chunks_mut(chunk_len)
            .enumerate()
            .for_each(|(i, chunk)| f(i, chunk));
        return;
    }
    let per = chunks.div_ceil(workers);
    let f = &f;
    let band = move |w: usize, slice: &mut [T]| {
        inline(|| {
            for (j, chunk) in slice.chunks_mut(chunk_len).enumerate() {
                f(w * per + j, chunk);
            }
        })
    };
    std::thread::scope(|scope| {
        let mut bands = data.chunks_mut(per * chunk_len).enumerate();
        // The calling thread takes the first band itself.
        let first = bands.next();
        let rest: Vec<_> = bands
            .map(|(w, b)| scope.spawn(move || band(w, b)))
            .collect();
        if let Some((w, b)) = first {
            band(w, b);
        }
        rest.into_iter().for_each(join);
    });
}

/// Joins a worker, re-raising its panic with the original payload.
fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        assert_eq!(
            map(100, MIN_WORK, |i| i * i),
            (0..100).map(|i| i * i).collect::<Vec<_>>()
        );
        assert!(map(0, MIN_WORK, |i| i).is_empty());
        assert_eq!(map(1, MIN_WORK, |i| i + 7), vec![7]);
    }

    #[test]
    fn chunks_see_their_own_index_and_the_short_tail() {
        let mut data = vec![0usize; 23];
        for_each_chunk_mut(&mut data, 5, MIN_WORK, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 5 + j;
            }
        });
        assert_eq!(data, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn cheap_and_nested_loops_stay_on_the_calling_thread() {
        let me = std::thread::current().id();
        let on_caller = |work| map(8, work, |_| std::thread::current().id() == me);
        assert!(on_caller(MIN_WORK - 1).iter().all(|&same| same));
        assert!(inline(|| on_caller(MIN_WORK)).iter().all(|&same| same));
        // Every worker of a split loop, the caller's range included,
        // runs its nested loops inline.
        let nested = map(8, MIN_WORK, |_| {
            let here = std::thread::current().id();
            map(4, MIN_WORK, |_| std::thread::current().id() == here)
        });
        assert!(nested.iter().flatten().all(|&same| same));
        assert!(!NESTED.get(), "the caller's flag is restored");
    }

    #[test]
    fn worker_panics_keep_their_message() {
        let caught = std::panic::catch_unwind(|| {
            map(8, MIN_WORK, |i| if i == 5 { panic!("item {i} failed") } else { i })
        });
        let payload = caught.expect_err("the panic must propagate");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("item 5 failed"));
    }
}
