//! Shared deterministic traffic-mix helpers for the bench binaries.
//!
//! `load_gen`, `fault_soak` and `gateway_soak` all drive gateway fleets
//! of scripted sessions ([`crate::fleet`]): Zipf-popular tenants, a
//! gesture-derived seed pair per tenant with one in-budget bit flip,
//! and the soak protocol config. This module is the single copy of
//! those helpers. Every function is parameterized by
//! its seed bases, so each binary keeps its own byte streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_core::agreement::{AgreementConfig, RetryPolicy};

/// Inverse-CDF Zipf sampler over ranks `0..n` (rank 0 hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank (0-based; rank 0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The tenant's gesture-derived seed pair: `seed_len` mobile bits drawn
/// from `StdRng(base + tenant)`, and a server copy with **one** flipped
/// bit (at `tenant % seed_len`) — inside the BCH budget, so every
/// session agrees whenever the wire allows.
pub fn seed_pair(base: u64, tenant: u64, seed_len: usize) -> (Vec<bool>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(base + tenant);
    let s_m: Vec<bool> = (0..seed_len).map(|_| rng.gen()).collect();
    let mut s_r = s_m.clone();
    s_r[(tenant as usize) % seed_len] ^= true;
    (s_m, s_r)
}

/// The soak benches' standard protocol config: tiny test group and a
/// relaxed `τ = 10 s`, so the *protocol path* (not group arithmetic) is
/// what the numbers measure.
pub fn soak_config(retry: RetryPolicy) -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, retry, ..Default::default() }
}

/// Linear-interpolation percentile over an unsorted sample set.
/// Mirrors the obs crate's `percentile_sorted` semantics.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 64];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > 0);
        assert!(counts.iter().sum::<u64>() == 4000);
    }

    #[test]
    fn seed_pair_flips_exactly_one_bit() {
        for tenant in 0..50u64 {
            let (s_m, s_r) = seed_pair(0xC0DE, tenant, 24);
            assert_eq!(s_m.len(), 24);
            let diff = s_m.iter().zip(&s_r).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn seed_pair_matches_the_pre_extraction_streams() {
        // The exact helper `fault_soak` inlined before the extraction:
        // base 0xC0DE, 24 bits, flip at `base % len`. Guards the
        // published artifact numbers across the refactor.
        let mut rng = StdRng::seed_from_u64(0xC0DE + 5);
        let want_m: Vec<bool> = (0..24).map(|_| rng.gen()).collect();
        let (s_m, s_r) = seed_pair(0xC0DE, 5, 24);
        assert_eq!(s_m, want_m);
        assert!(s_r[5] != s_m[5]);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let samples = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert_eq!(percentile(&samples, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
