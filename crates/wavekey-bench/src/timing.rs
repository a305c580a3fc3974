//! The two timers of the JSON bench bins. [`time_window`] gives one op's
//! mean over an adaptive window, for the informational rows.
//! [`alternate`] times two ops against each other for the ratio gates: a
//! ratio of two separately timed means moves with whatever the host did
//! between them, while a slow phase hits both sides of an alternated
//! round alike, and the median per-round ratio ([`median_ratio`]) sheds
//! the rounds it does not. Both sides run on the calling thread, because
//! how a shared host schedules parallel workers moves a ratio of two
//! parallel runs by more than the 1 % a gate must resolve.

use std::time::Instant;

/// Times `f` adaptively: one warm-up call, then doubles the iteration
/// count until one timed run lasts at least `window_s` seconds. Returns
/// that run's mean per call in nanoseconds, and its iteration count.
pub fn time_window<F: FnMut()>(window_s: f64, mut f: F) -> (f64, usize) {
    f();
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window_s {
            return (elapsed * 1e9 / iters as f64, iters);
        }
        iters *= 2;
    }
}

/// Runs `a` and `b` alternately for `rounds` rounds, after one warm-up
/// call of each, swapping which side goes first every round, with every
/// `wavekey_par` loop inside them on the calling thread
/// ([`wavekey_par::inline`]). Returns each round's `(a, b)` wall times
/// in seconds.
pub fn alternate<A: FnMut(), B: FnMut()>(rounds: usize, mut a: A, mut b: B) -> Vec<(f64, f64)> {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    wavekey_par::inline(|| {
        a();
        b();
        (0..rounds)
            .map(|round| {
                if round % 2 == 0 {
                    let ta = timed(&mut a);
                    (ta, timed(&mut b))
                } else {
                    let tb = timed(&mut b);
                    (timed(&mut a), tb)
                }
            })
            .collect()
    })
}

/// The median of the per-round ratios `a / b` of [`alternate`]'s rounds.
pub fn median_ratio(rounds: &[(f64, f64)]) -> f64 {
    median(rounds.iter().map(|(a, b)| a / b).collect())
}

/// The median of a non-empty set of timings.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|x, y| x.partial_cmp(y).expect("timings are never NaN"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn fast_ops_are_timed_over_the_whole_window() {
        let window = 0.002;
        let (mean_ns, iters) = time_window(window, || {
            std::hint::black_box(0u64);
        });
        let total_ns = iters as f64 * mean_ns;
        assert!(total_ns >= window * 1e9, "{iters} iters over {total_ns} ns");
    }

    #[test]
    fn alternate_warms_both_sides_then_swaps_the_lead_every_round() {
        let calls = RefCell::new(String::new());
        let rounds = alternate(4, || calls.borrow_mut().push('a'), || calls.borrow_mut().push('b'));
        assert_eq!(rounds.len(), 4);
        // The warm-up pair, then rounds 0–3.
        assert_eq!(calls.into_inner(), "ab|ab|ba|ab|ba".replace('|', ""));
    }
}
