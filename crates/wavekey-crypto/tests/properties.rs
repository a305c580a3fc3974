//! Property-based tests for the cryptographic substrate.

use rand::check::cases;
use rand::rngs::StdRng;
use rand::Rng;
use wavekey_crypto::bigint::Ubig;
use wavekey_crypto::cipher::{ctr_decrypt, ctr_encrypt};
use wavekey_crypto::ecc::{Bch, CodeOffset};
use wavekey_crypto::hmac::hmac_sha256;
use wavekey_crypto::sha256::sha256;

fn random_bytes(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen()).collect()
}

/// Up to `max` distinct positions below 127, in random order.
fn positions(rng: &mut StdRng, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(0..=max) {
        let p = rng.gen_range(0..127);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

#[test]
fn ubig_bytes_roundtrip() {
    cases("ubig_bytes_roundtrip", 256, |rng| {
        let n = Ubig::from_be_bytes(&random_bytes(rng, 0..64));
        assert_eq!(Ubig::from_be_bytes(&n.to_be_bytes()), n);
    });
}

#[test]
fn ubig_add_commutes() {
    cases("ubig_add_commutes", 256, |rng| {
        let c = Ubig::from_u64(rng.gen());
        let x = Ubig::from_u64(rng.gen()).mul(&c);
        let y = Ubig::from_u64(rng.gen()).mul(&c);
        assert_eq!(x.add(&y), y.add(&x));
    });
}

#[test]
fn ubig_add_sub_inverse() {
    cases("ubig_add_sub_inverse", 256, |rng| {
        let x = Ubig::from_u64(rng.gen());
        let y = Ubig::from_u64(rng.gen());
        assert_eq!(x.add(&y).sub(&y), x);
    });
}

#[test]
fn ubig_mul_matches_u128() {
    cases("ubig_mul_matches_u128", 256, |rng| {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let prod = Ubig::from_u64(a).mul(&Ubig::from_u64(b));
        let mut bytes = (u128::from(a) * u128::from(b)).to_be_bytes().to_vec();
        while bytes.len() > 1 && bytes[0] == 0 {
            bytes.remove(0);
        }
        assert_eq!(prod.to_be_bytes(), bytes);
    });
}

#[test]
fn ubig_rem_is_canonical() {
    cases("ubig_rem_is_canonical", 256, |rng| {
        let a: u64 = rng.gen();
        let b = rng.gen_range(1..u64::MAX);
        assert_eq!(
            Ubig::from_u64(a).rem(&Ubig::from_u64(b)),
            Ubig::from_u64(a % b)
        );
    });
}

/// A random value of exactly `limbs` limbs whose top limb is `top`.
fn limbs_with_top(rng: &mut StdRng, limbs: usize, top: u64) -> Ubig {
    let mut bytes = top.to_be_bytes().to_vec();
    bytes.extend((0..8 * (limbs - 1)).map(|_| rng.gen::<u8>()));
    Ubig::from_be_bytes(&bytes)
}

#[test]
fn ubig_rem_recovers_the_remainder_it_was_built_from() {
    cases("ubig_rem_recovers_the_remainder_it_was_built_from", 256, |rng| {
        // Divisors of 1–33 limbs; the top limb is sometimes 1 or
        // u64::MAX. The dividend is q·d + r for a random r < d.
        let d_limbs = rng.gen_range(1..=33);
        let top = match rng.gen_range(0..4) {
            0 => 1,
            1 => u64::MAX,
            _ => rng.gen_range(1..=u64::MAX),
        };
        let d = limbs_with_top(rng, d_limbs, top);
        let q_limbs = rng.gen_range(1..=d_limbs);
        let q_top = rng.gen_range(0..=u64::MAX);
        let q = limbs_with_top(rng, q_limbs, q_top);
        let r = Ubig::random_below(&d, rng);
        assert_eq!(q.mul(&d).add(&r).rem(&d), r, "q {q} d {d} r {r}");
    });
}

#[test]
fn ubig_rem_edge_cases() {
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(48);
    let one = Ubig::one();
    for d_limbs in [1usize, 2, 3, 16, 17, 33] {
        for top in [1u64, u64::MAX, 0x8000_0000_0000_0000, 0x1234_5678] {
            let d = limbs_with_top(&mut rng, d_limbs, top);
            let k_top = rng.gen_range(1..=u64::MAX);
            let k = limbs_with_top(&mut rng, d_limbs, k_top);
            let kd = k.mul(&d);
            let d_minus_1 = d.sub(&one);
            let cases = [
                (Ubig::zero(), Ubig::zero()),
                (d_minus_1.clone(), d_minus_1.clone()),
                (d.clone(), Ubig::zero()),
                (d.add(&one), one.rem(&d)),
                (kd.sub(&one), d_minus_1.clone()),
                (kd.clone(), Ubig::zero()),
                (kd.add(&one), one.rem(&d)),
                (d.mul(&d).sub(&one), d_minus_1.clone()),
            ];
            for (a, r) in &cases {
                assert_eq!(a.rem(&d), *r, "a {a} d {d}");
            }
        }
    }
}

#[test]
fn modexp_respects_exponent_addition() {
    // b^(e1+e2) = b^e1 · b^e2 (mod m).
    let m = Ubig::from_u64(0xffff_ffff_ffff_ffc5);
    cases("modexp_respects_exponent_addition", 256, |rng| {
        let b = Ubig::from_u64(rng.gen_range(2..1000));
        let (e1, e2) = (rng.gen_range(0..50), rng.gen_range(0..50));
        let lhs = b.mod_pow(&Ubig::from_u64(e1 + e2), &m);
        let rhs = b.mod_pow(&Ubig::from_u64(e1), &m).mul(&b.mod_pow(&Ubig::from_u64(e2), &m)).rem(&m);
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn ctr_cipher_roundtrips() {
    cases("ctr_cipher_roundtrips", 256, |rng| {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let data = random_bytes(rng, 0..200);
        assert_eq!(ctr_decrypt(&key, &ctr_encrypt(&key, &data)), data);
    });
}

#[test]
fn sha256_is_deterministic_and_sensitive() {
    cases("sha256_is_deterministic_and_sensitive", 256, |rng| {
        let data = random_bytes(rng, 1..100);
        let d1 = sha256(&data);
        assert_eq!(d1, sha256(&data));
        let mut tweaked = data.clone();
        tweaked[rng.gen_range(0..data.len())] ^= 1;
        assert_ne!(d1, sha256(&tweaked));
    });
}

#[test]
fn hmac_distinct_keys_distinct_macs() {
    cases("hmac_distinct_keys_distinct_macs", 256, |rng| {
        let (k1, k2): (u64, u64) = (rng.gen(), rng.gen());
        let msg = random_bytes(rng, 0..64);
        if k1 == k2 {
            return;
        }
        assert_ne!(
            hmac_sha256(&k1.to_be_bytes(), &msg),
            hmac_sha256(&k2.to_be_bytes(), &msg)
        );
    });
}

/// A random word of `bits` low bits.
fn random_block(rng: &mut StdRng, bits: usize) -> u128 {
    (0..bits).fold(0, |w, i| w | u128::from(rng.gen::<bool>()) << i)
}

#[test]
fn bch_corrects_any_pattern_within_radius() {
    let bch = Bch::new(5).unwrap();
    cases("bch_corrects_any_pattern_within_radius", 256, |rng| {
        let cw = bch.encode(random_block(rng, bch.k())).unwrap();
        let corrupted = positions(rng, 5).into_iter().fold(cw, |w, p| w ^ 1 << p);
        assert_eq!(bch.decode(corrupted).unwrap(), cw);
    });
}

#[test]
fn code_offset_recovers_within_radius() {
    let co = CodeOffset::new(Bch::new(3).unwrap());
    cases("code_offset_recovers_within_radius", 256, |rng| {
        let key = [random_block(rng, 127), random_block(rng, 127)];
        let helper = co.commit(&key, rng);
        let mut noisy = key;
        for block in &mut noisy {
            *block = positions(rng, 3).into_iter().fold(*block, |w, f| w ^ 1 << f);
        }
        assert_eq!(co.reconcile(&noisy, &helper), Some(key.to_vec()));
    });
}
