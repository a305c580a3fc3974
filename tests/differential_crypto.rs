//! Seeded-exhaustive differentials for the batched crypto stack; the
//! scalar kernels' differentials live in
//! `crates/wavekey-crypto/tests/differential.rs`.
//!
//! Every test here pins an optimized path `==`-exact against the scalar
//! Montgomery reference over fixed seeds and an exhaustive sweep of the
//! shapes that matter: ragged tails (quad counts not divisible by 4),
//! mixed moduli in one batch, fold vs Montgomery dispatch, and the
//! wider-than-`MAX_CIOS_LIMBS` scalar fallback.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey::crypto::batch::ModexpBatch;
use wavekey::crypto::bigint::{CrandallCtx, MontgomeryCtx, Ubig};
use wavekey::crypto::group::{DhGroup, WAVEKEY_1024_HEX};

fn quad(ctx_modulus: &Ubig, rng: &mut StdRng) -> [Ubig; 4] {
    std::array::from_fn(|_| Ubig::random_below(ctx_modulus, rng))
}

/// 4-way interleaved CIOS exponentiation equals the scalar Montgomery
/// route lane-for-lane, across limb widths from 2 to 16.
#[test]
fn quad_cios_pow_matches_scalar_montgomery() {
    let moduli = [
        Ubig::from_hex("ffffffffffffffffffffffffffffff61"), // 2 limbs
        Ubig::from_hex("1000000000000000000000000000000000000000000000f1"), // 3 limbs
        Ubig::from_hex(wavekey::crypto::group::MODP_1024_HEX), // 16 limbs
    ];
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    for m in &moduli {
        let ctx = MontgomeryCtx::new(m.clone());
        for _ in 0..3 {
            let bases = quad(m, &mut rng);
            let exps = quad(m, &mut rng);
            let fast = ctx.mod_pow_x4(&bases, &exps);
            for l in 0..4 {
                assert_eq!(fast[l], ctx.mod_pow(&bases[l], &exps[l]), "lane {l} mod {m:?}");
            }
        }
    }
}

/// The Crandall fold kernels (general and fixed-base) equal the scalar
/// Montgomery route on the WAVEKEY-1024 fleet modulus and on a tiny
/// 2-limb Crandall modulus, including the edge exponents that hit the
/// window machinery's boundary paths.
#[test]
fn crandall_fold_pow_matches_montgomery() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    for p in [Ubig::from_hex(WAVEKEY_1024_HEX), Ubig::from_hex("ffffffffffffffffffffffffffffff61")]
    {
        let cr = CrandallCtx::new(&p).expect("Crandall-form modulus");
        let mont = MontgomeryCtx::new(p.clone());
        for _ in 0..3 {
            let bases = quad(&p, &mut rng);
            let exps = quad(&p, &mut rng);
            let fold = cr.pow_x4(&bases, &exps);
            for l in 0..4 {
                assert_eq!(fold[l], mont.mod_pow(&bases[l], &exps[l]), "lane {l}");
            }
        }
        // Edge exponents: zero, one, all-ones tail, and one lane past the
        // comb table's coverage (drags the whole quad through the
        // general-path fallback).
        let g = Ubig::from_u64(2);
        let comb = cr.comb_table(&g, p.bit_len(), 5);
        let edge: [Ubig; 4] = [
            Ubig::zero(),
            Ubig::one(),
            Ubig::from_u64(u64::MAX),
            p.sub(&Ubig::one()),
        ];
        let fixed = cr.pow_fixed_base_x4(&comb, &edge);
        for l in 0..4 {
            assert_eq!(fixed[l], mont.mod_pow(&g, &edge[l]), "fixed-base edge lane {l}");
        }
        let wide: [Ubig; 4] = [p.shl(64), Ubig::one(), Ubig::zero(), Ubig::from_u64(7)];
        let fallback = cr.pow_fixed_base_x4(&comb, &wide);
        for l in 0..4 {
            assert_eq!(fallback[l], mont.mod_pow(&g, &wide[l]), "fallback lane {l}");
        }
    }
}

/// Fills a batch with a deterministic mix of every job kind across every
/// supplied group — exercising negated fixed-base exponents, dependent
/// jobs (`MulPowG`) and cross-group interleaving exactly as the OT rounds
/// produce them.
fn fill_mixed(batch: &mut ModexpBatch<'_>, groups: &[&'static DhGroup], n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let g = groups[i % groups.len()];
        let x = g.random_exponent(&mut rng);
        match i % 4 {
            0 => {
                batch.push_pow_g(g, x);
            }
            1 => {
                batch.push_pow_g(g, g.neg_exponent(&x));
            }
            2 => {
                let base = Ubig::random_below(g.modulus(), &mut rng);
                batch.push_pow(g, base, x);
            }
            _ => {
                let base = Ubig::random_below(g.modulus(), &mut rng);
                let dep = batch.push_pow(g, base, x);
                batch.push_mul_pow_g(g, dep, g.random_exponent(&mut rng));
            }
        }
    }
}

/// The batch executor (quad-packed sweeps with dummy-lane padding) equals
/// the pinned scalar route job-for-job, over ragged tails and a mix of
/// fold-path (WAVEKEY-1024) and Montgomery-path (MODP-1024) moduli in the
/// same batch.
#[test]
fn batch_executor_matches_scalar_ragged_and_mixed() {
    let groups: Vec<&'static DhGroup> =
        vec![DhGroup::wavekey_1024_shared(), DhGroup::modp_1024_shared()];
    for n in [1usize, 2, 3, 5, 7] {
        let mut fast = ModexpBatch::new();
        let mut slow = ModexpBatch::new();
        fill_mixed(&mut fast, &groups, n, 0xD1FF_0003 + n as u64);
        fill_mixed(&mut slow, &groups, n, 0xD1FF_0003 + n as u64);
        let fast = fast.execute().into_vec();
        let slow = slow.execute_scalar().into_vec();
        assert_eq!(fast.len(), slow.len());
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(f, s, "job {i} of {n}-instance mixed batch");
        }
    }
}

/// Moduli wider than the interleaved kernel's 32-limb ceiling take the
/// scalar fallback inside `mod_pow_x4` (same answers), and the Crandall
/// context refuses them outright.
#[test]
fn oversized_moduli_fall_back_to_scalar() {
    // 33 limbs of Crandall shape: 2^2112 − 159.
    let p = Ubig::one().shl(33 * 64).sub(&Ubig::from_u64(159));
    assert!(CrandallCtx::new(&p).is_none(), "33-limb modulus must be rejected");
    let ctx = MontgomeryCtx::new(p.clone());
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    let bases = quad(&p, &mut rng);
    let exps: [Ubig; 4] = std::array::from_fn(|_| Ubig::random_below(&Ubig::one().shl(128), &mut rng));
    let out = ctx.mod_pow_x4(&bases, &exps);
    for l in 0..4 {
        assert_eq!(out[l], ctx.mod_pow(&bases[l], &exps[l]), "lane {l}");
    }
}
