//! Seeded differentials for the two slice entry points behind every OT
//! round's group arithmetic: `MontgomeryCtx::mod_pow_many` (general
//! exponentiations) and `DhGroup::pow_g_many` (generator comb walks).
//! The scalar kernels' differentials live in `wavekey-crypto`'s unit
//! tests.
//!
//! On CPUs with AVX512-IFMA, 16-limb moduli run eight exponentiations at
//! a time on the lane kernels. Every test here pins those routes
//! `==`-exact against the scalar ones: `mod_pow_many` against per-pair
//! `mod_pow` and `mod_pow_reference`, and `pow_g_many` against the scalar
//! w = 6 comb (`fixed_base_table` + `pow_fixed_base`) and
//! `mod_pow_reference`. They cover edge bases and exponents, every batch
//! shape (empty, short, padded, full, ragged), mixed moduli in flight at
//! once, property sweeps, and a whole 48-instance OT round against a
//! per-instance scalar oracle. The lane tests print a skip and return on
//! other CPUs, where both entry points are scalar.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wavekey::crypto::bigint::{pow_many_kernel_1024, FixedBaseTable, MontgomeryCtx, Ubig};
use wavekey::crypto::cipher::{ctr_decrypt, ctr_encrypt};
use wavekey::crypto::group::{DhGroup, PrecompCache, MODP_1024_HEX};
use wavekey::crypto::ot::{OtMessageE, OtPairs, OtReceiver, OtSender};
use wavekey::crypto::sha256::sha256;

/// `false` (after printing why) when this CPU has no IFMA lanes.
fn lanes_present() -> bool {
    if pow_many_kernel_1024() != "ifma8" {
        eprintln!("skipped: this CPU lacks AVX512-IFMA; mod_pow_many and pow_g_many are scalar");
        return false;
    }
    true
}

/// `xs` as one flat batch, every value padded to the widest one's limbs
/// (at least one), the layout the slice entry points take.
fn flat(xs: &[Ubig]) -> Vec<u64> {
    let w = xs.iter().map(|x| x.as_limbs().len()).max().unwrap_or(0).max(1);
    let mut out = vec![0u64; xs.len() * w];
    for (x, o) in xs.iter().zip(out.chunks_exact_mut(w)) {
        x.write_limbs(o);
    }
    out
}

/// Result `i` of a flat batch of `k`-limb results.
fn nth(results: &[u64], k: usize, i: usize) -> Ubig {
    Ubig::from_limbs(&results[i * k..][..k])
}

/// MODP-1024 (`n' = 1`) and the odd literal `2^1024 − 1093337`
/// (`n' ≠ 1`; Montgomery arithmetic needs no primality).
fn moduli() -> [MontgomeryCtx; 2] {
    let odd = Ubig::one().shl(1024).sub(&Ubig::from_u64(1_093_337));
    [Ubig::from_hex(MODP_1024_HEX), odd].map(MontgomeryCtx::new)
}

/// A group under test beside its scalar oracle: the same modulus's
/// context and the scalar w = 6 comb of the same generator.
struct CombCase {
    group: Arc<DhGroup>,
    ctx: MontgomeryCtx,
    scalar: FixedBaseTable,
}

/// MODP-1024 with `g = 2`, and `2^1024 − 1093337` with `g = 2` and with
/// one random generator, each group built through the public
/// [`PrecompCache`].
fn comb_cases() -> Vec<CombCase> {
    let [modp, odd] = moduli().map(|ctx| ctx.modulus().clone());
    let random_g = Ubig::random_below(&odd, &mut StdRng::seed_from_u64(0xC0B0_0001));
    [
        (modp, Ubig::from_u64(2)),
        (odd.clone(), Ubig::from_u64(2)),
        (odd, random_g),
    ]
    .into_iter()
    .map(|(u, g)| {
        let ctx = MontgomeryCtx::new(u.clone());
        let scalar = ctx.fixed_base_table(&g, 1024, 6);
        CombCase {
            group: PrecompCache::global().get(&u, &g),
            ctx,
            scalar,
        }
    })
    .collect()
}

/// Asserts `pow_g_many` equals the scalar comb exponent by exponent, and
/// also `mod_pow_reference` on every `reference_every`-th exponent.
fn assert_comb_matches_scalar(case: &CombCase, exps: &[Ubig], reference_every: usize) {
    let k = case.group.limbs();
    let mut results = vec![0u64; exps.len() * k];
    case.group.pow_g_many(&flat(exps), &mut results);
    let got: Vec<Ubig> = (0..exps.len()).map(|i| nth(&results, k, i)).collect();
    let g = case.group.generator();
    for (i, e) in exps.iter().enumerate() {
        let want = case.ctx.pow_fixed_base(&case.scalar, e);
        assert_eq!(got[i], want, "exponent {i} of {}: g {g} e {e}", exps.len());
        if i % reference_every == 0 {
            assert_eq!(
                got[i],
                case.ctx.mod_pow_reference(g, e),
                "reference, exponent {i}"
            );
        }
    }
}

/// Asserts `mod_pow_many` equals `mod_pow` pair by pair, and also
/// `mod_pow_reference` on every `reference_every`-th pair.
fn assert_matches_scalar(
    ctx: &MontgomeryCtx,
    bases: &[Ubig],
    exps: &[Ubig],
    reference_every: usize,
) {
    let k = ctx.limbs();
    let mut results = vec![0u64; bases.len() * k];
    ctx.mod_pow_many(&flat(bases), &flat(exps), &mut results);
    let got: Vec<Ubig> = (0..bases.len()).map(|i| nth(&results, k, i)).collect();
    for (i, (b, e)) in bases.iter().zip(exps).enumerate() {
        assert_eq!(
            got[i],
            ctx.mod_pow(b, e),
            "pair {i} of {}: b {b} e {e}",
            bases.len()
        );
        if i % reference_every == 0 {
            assert_eq!(got[i], ctx.mod_pow_reference(b, e), "reference, pair {i}");
        }
    }
}

/// Bases 0, 1, u−1, u and u+1 against exponents 0, 1, 3 and u−2, all 20
/// pairs in one call: two full lane groups plus a padded one.
#[test]
fn lanes_match_scalar_on_edge_bases_and_exponents() {
    if !lanes_present() {
        return;
    }
    for ctx in moduli() {
        let u = ctx.modulus().clone();
        let one = Ubig::one();
        let bases = [
            Ubig::zero(),
            one.clone(),
            u.sub(&one),
            u.clone(),
            u.add(&one),
        ];
        let exps = [
            Ubig::zero(),
            one.clone(),
            Ubig::from_u64(3),
            u.sub(&Ubig::from_u64(2)),
        ];
        let (b, e): (Vec<Ubig>, Vec<Ubig>) = bases
            .iter()
            .flat_map(|b| exps.iter().map(move |e| (b.clone(), e.clone())))
            .unzip();
        assert_matches_scalar(&ctx, &b, &e, 1);
    }
}

/// Empty, padded (1, 2, 7), full (8, 48) and ragged (9) batches.
#[test]
fn lanes_match_scalar_at_every_batch_size() {
    if !lanes_present() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    for ctx in moduli() {
        let u = ctx.modulus().clone();
        for len in [0usize, 1, 2, 7, 8, 9, 48] {
            let bases: Vec<Ubig> = (0..len).map(|_| Ubig::random_below(&u, &mut rng)).collect();
            let exps: Vec<Ubig> = (0..len).map(|_| Ubig::random_below(&u, &mut rng)).collect();
            assert_matches_scalar(&ctx, &bases, &exps, 16);
        }
    }
}

/// `mod_pow_many` as the batch executor: ragged batches over mixed
/// moduli, the two lane-route ones and a one- and a two-limb modulus
/// that always run scalar, called from four threads at once so that
/// lane groups of different moduli are in flight together. This runs
/// on every CPU.
#[test]
fn batch_executor_matches_scalar_ragged_and_mixed() {
    let [modp, odd] = moduli();
    let [m61, m128] = [
        Ubig::from_u64((1 << 61) - 1),
        Ubig::from_hex("ffffffffffffffffffffffffffffff61"),
    ]
    .map(MontgomeryCtx::new);
    let batches = [(&modp, 10usize), (&odd, 11), (&m61, 13), (&m128, 17)];
    std::thread::scope(|scope| {
        for (seed, (ctx, len)) in (0xD1FF_0005u64..).zip(batches) {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let u = ctx.modulus();
                let bases: Vec<Ubig> = (0..len).map(|_| Ubig::random_below(u, &mut rng)).collect();
                let exps: Vec<Ubig> = (0..len).map(|_| Ubig::random_below(u, &mut rng)).collect();
                assert_matches_scalar(ctx, &bases, &exps, 8);
            });
        }
    });
}

/// Random batches of 1–12 pairs with unreduced bases up to 1100 bits and
/// exponents from 0 to 1100 bits, so some groups run more than the 205
/// windows a 1024-bit exponent needs.
#[test]
fn lanes_match_scalar_on_random_widths() {
    if !lanes_present() {
        return;
    }
    let [modp, odd] = moduli();
    rand::check::cases("lanes_match_scalar_on_random_widths", 64, |rng| {
        let ctx = if rng.gen() { &modp } else { &odd };
        let len = rng.gen_range(1..=12);
        let wide = |rng: &mut StdRng| {
            let bits = rng.gen_range(0..=1100);
            Ubig::random_below(&Ubig::one().shl(bits), rng)
        };
        let bases: Vec<Ubig> = (0..len).map(|_| wide(rng)).collect();
        let exps: Vec<Ubig> = (0..len).map(|_| wide(rng)).collect();
        assert_matches_scalar(ctx, &bases, &exps, usize::MAX);
    });
}

/// One 48-instance MODP-1024 OT round: the `M_A`, `M_B` and `M_E` bytes
/// and the decrypted payloads equal an oracle that computes every
/// instance on its own, with the scalar comb for generator powers, scalar
/// exponentiations, and `k¹` in the protocol's naive form
/// `H((n·g^{−a})^a)`. That covers all three comb sites: `M_A`, `M_B` and
/// the `k¹` fold's `g^{−a²}`. The exponents are redrawn from clones of
/// the parties' RNGs, which the OT consumes one exponent per instance.
#[test]
fn ot_round_of_48_matches_per_instance_scalar_oracle() {
    let group = DhGroup::modp_1024_shared();
    let ctx = MontgomeryCtx::new(group.modulus().clone());
    let comb = ctx.fixed_base_table(group.generator(), 1024, 6);
    let secrets: Vec<_> = (0..48u8).map(|i| (vec![i; 16], vec![!i; 16])).collect();
    let choices: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(20), StdRng::seed_from_u64(21));
    let (mut draw_s, mut draw_r) = (rng_s.clone(), rng_r.clone());
    let (sender, msg_a) = OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
    let (receiver, msg_b) = OtReceiver::respond(group, &choices, &msg_a, &mut rng_r).unwrap();
    let me = sender.encrypt(group, &msg_b).unwrap().encode();
    let payloads = receiver
        .decrypt(group, &OtMessageE::decode(&me).unwrap())
        .unwrap();
    let payloads: Vec<&[u8]> = payloads.chunks(16).collect();

    let key = |e: &Ubig| sha256(&group.encode_element(e));
    let (mut ma, mut mb, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..48 {
        let a = group.random_exponent(&mut draw_s);
        let b = group.random_exponent(&mut draw_r);
        let m_a = ctx.pow_fixed_base(&comb, &a);
        let g_b = ctx.pow_fixed_base(&comb, &b);
        let n = if choices[i] {
            group.mul(&m_a, &g_b)
        } else {
            g_b
        };
        ma.extend(group.encode_element(&m_a));
        mb.extend(group.encode_element(&n));
        let k0 = key(&group.pow(&n, &a));
        let k1 = key(&group.pow(&group.div(&n, &m_a), &a));
        pairs.push((
            ctr_encrypt(&k0, &secrets[i].0),
            ctr_encrypt(&k1, &secrets[i].1),
        ));
        let k = key(&group.pow(&m_a, &b));
        let chosen = if choices[i] { &pairs[i].1 } else { &pairs[i].0 };
        assert_eq!(payloads[i], ctr_decrypt(&k, chosen), "payload {i}");
        assert_eq!(
            payloads[i],
            if choices[i] {
                &secrets[i].1
            } else {
                &secrets[i].0
            }
        );
    }
    assert_eq!(msg_a.encode(group), ma, "M_A wire bytes");
    assert_eq!(msg_b.encode(group), mb, "M_B wire bytes");
    let pairs = OtPairs::from_pairs(&pairs);
    assert_eq!(me, OtMessageE { pairs }.encode(), "M_E wire bytes");
}

/// Every width but 16 limbs runs `mod_pow` per pair: one and two limbs,
/// and a 33-limb modulus past the CIOS kernels' 32-limb ceiling.
#[test]
fn oversized_moduli_fall_back_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    let moduli = [
        Ubig::from_u64((1 << 61) - 1),
        Ubig::from_hex("ffffffffffffffffffffffffffffff61"),
        Ubig::one().shl(33 * 64).sub(&Ubig::from_u64(159)),
    ];
    for m in moduli {
        let ctx = MontgomeryCtx::new(m.clone());
        let bases: Vec<Ubig> = (0..9).map(|_| Ubig::random_below(&m, &mut rng)).collect();
        let exps: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&Ubig::one().shl(128), &mut rng))
            .collect();
        assert_matches_scalar(&ctx, &bases, &exps, 4);
    }
}

/// Exponents 0, 1, 31 and 32; a one-hot exponent at every 5-bit window
/// boundary; `2^1025 − 1`, the widest the lane table covers; `u−2` and
/// `u−1`; and a 1,100-bit exponent, which runs a general
/// exponentiation. All of them go through one call per group.
#[test]
fn comb_matches_scalar_on_edge_exponents() {
    if !lanes_present() {
        return;
    }
    for case in comb_cases() {
        let u = case.group.modulus();
        let one = Ubig::one();
        let mut exps: Vec<Ubig> = [0, 1, 31, 32].map(Ubig::from_u64).into();
        exps.extend((0..205).map(|i| one.shl(5 * i)));
        exps.push(one.shl(1025).sub(&one));
        exps.push(u.sub(&Ubig::from_u64(2)));
        exps.push(u.sub(&one));
        let mut rng = StdRng::seed_from_u64(0xC0B0_0002);
        exps.push(
            one.shl(1099)
                .add(&Ubig::random_below(&one.shl(1099), &mut rng)),
        );
        assert_eq!(exps.last().map(Ubig::bit_len), Some(1100));
        assert_comb_matches_scalar(&case, &exps, 1);
    }
}

/// Empty, padded (1, 7), full (8, 48) and ragged (9) batches.
#[test]
fn comb_matches_scalar_at_every_batch_size() {
    if !lanes_present() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0xC0B0_0003);
    for case in comb_cases() {
        let u = case.group.modulus().clone();
        for len in [0usize, 1, 7, 8, 9, 48] {
            let exps: Vec<Ubig> = (0..len).map(|_| Ubig::random_below(&u, &mut rng)).collect();
            assert_comb_matches_scalar(&case, &exps, 16);
        }
    }
}

/// Random batches of 1–12 exponents from 0 to 1,100 bits, so some
/// batches mix lane walks with the general-exponentiation fallback.
#[test]
fn comb_matches_scalar_on_random_exponents() {
    if !lanes_present() {
        return;
    }
    let cases = comb_cases();
    rand::check::cases("comb_matches_scalar_on_random_exponents", 64, |rng| {
        let case = &cases[rng.gen_range(0..cases.len())];
        let len = rng.gen_range(1..=12);
        let exps: Vec<Ubig> = (0..len)
            .map(|_| {
                let bits = rng.gen_range(0..=1100);
                Ubig::random_below(&Ubig::one().shl(bits), rng)
            })
            .collect();
        assert_comb_matches_scalar(case, &exps, usize::MAX);
    });
}
