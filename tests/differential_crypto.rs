//! A seeded differential for one whole OT round on ristretto255: the
//! batched rounds (halved scalars, the batch encoder's one inversion,
//! the `k¹` fold, the receiver's comb of `M_A`) against a per-instance
//! oracle of single-element calls, variable-base multiplications and the
//! inverse-square-root encoder. The field, scalar and point
//! differentials against `Ubig` live in `wavekey-crypto`'s unit tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey::crypto::bigint::Ubig;
use wavekey::crypto::cipher::{ctr_decrypt, ctr_encrypt};
use wavekey::crypto::group::Group;
use wavekey::crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey::crypto::sha256::sha256;

/// One 48-instance round with mixed choices: the `M_A`, `M_B` and `M_E`
/// bytes and the decrypted payloads equal an oracle that computes every
/// instance on its own, at full scale: `k⁰ᵢ = H(i ‖ a·M_Bᵢ)`, `k¹ᵢ` in
/// the naive form `H(i ‖ a·(M_Bᵢ − M_A))`, and the receiver's
/// `H(i ‖ bᵢ·M_A)` by variable-base multiplication. The scalars are
/// redrawn from clones of the parties' RNGs: the sender draws one `a`
/// for the batch, the receiver one `bᵢ` per instance.
#[test]
fn ot_round_of_48_matches_per_instance_scalar_oracle() {
    let group = Group::Ristretto255;
    let (sw, pw, w) = (
        group.scalar_words(),
        group.point_words(),
        group.element_len(),
    );
    let secrets: Vec<_> = (0..48u8).map(|i| (vec![i; 16], vec![!i; 16])).collect();
    let choices: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(20), StdRng::seed_from_u64(21));
    let (mut draw_s, mut draw_r) = (rng_s.clone(), rng_r.clone());
    let (sender, ma) = OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
    let (receiver, mb) = OtReceiver::respond(group, &choices, &ma, &mut rng_r).unwrap();
    let me = sender.encrypt(group, &mb).unwrap();
    let payloads = receiver.decrypt(group, &me).unwrap();
    let payloads: Vec<&[u8]> = payloads.chunks(16).collect();

    let draw = |rng: &mut StdRng| {
        let mut x = vec![0u64; sw];
        group.random_scalar_into(rng, &mut x);
        x
    };
    let mul_base = |x: &[u64]| {
        let mut p = vec![0u64; pw];
        group.mul_base_many(x, &mut p);
        p
    };
    let mul = |p: &[u64], x: &[u64]| {
        let mut q = vec![0u64; pw];
        group.mul_many(p, x, &mut q);
        q
    };
    let add = |p: &[u64], q: &[u64]| {
        let mut r = vec![0u64; pw];
        group.add_into(p, q, &mut r);
        r
    };
    let encode = |p: &[u64]| {
        let mut bytes = vec![0u8; w];
        group.encode_into(p, &mut bytes);
        bytes
    };
    let key = |i: usize, p: &[u64]| sha256(&[&(i as u32).to_le_bytes()[..], &encode(p)].concat());
    let a = draw(&mut draw_s);
    let m_a = mul_base(&a);
    // −M_A = (ℓ − a)·G, for the subtraction of the naive k¹.
    let l = Ubig::from_hex("1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
    let mut minus_a = vec![0u64; sw];
    l.sub(&Ubig::from_limbs(&a)).write_limbs(&mut minus_a);
    let minus_m_a = mul_base(&minus_a);
    let mut want_mb = Vec::new();
    let mut want_me = 48u32.to_le_bytes().to_vec();
    for i in 0..48 {
        let b = draw(&mut draw_r);
        let g_b = mul_base(&b);
        let n = if choices[i] { add(&m_a, &g_b) } else { g_b };
        want_mb.extend(encode(&n));
        let k0 = key(i, &mul(&n, &a));
        let k1 = key(i, &mul(&add(&n, &minus_m_a), &a));
        let pair = (
            ctr_encrypt(&k0, &secrets[i].0),
            ctr_encrypt(&k1, &secrets[i].1),
        );
        for e in [&pair.0, &pair.1] {
            want_me.extend((e.len() as u32).to_le_bytes());
            want_me.extend(e);
        }
        let chosen = if choices[i] { &pair.1 } else { &pair.0 };
        assert_eq!(
            payloads[i],
            ctr_decrypt(&key(i, &mul(&m_a, &b)), chosen),
            "payload {i}"
        );
        assert_eq!(
            payloads[i],
            if choices[i] {
                &secrets[i].1
            } else {
                &secrets[i].0
            }
        );
    }
    assert_eq!(ma, encode(&m_a), "M_A wire bytes");
    assert_eq!(mb, want_mb, "M_B wire bytes");
    assert_eq!(me, want_me, "M_E wire bytes");
}
