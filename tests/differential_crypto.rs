//! A seeded differential for one whole OT round on ristretto255: the
//! batched rounds (halved scalars, the batch encoder's one inversion,
//! the `k¹` fold) against a per-instance oracle of single-element calls
//! and the inverse-square-root encoder. The field, scalar and point
//! differentials against `Ubig` live in `wavekey-crypto`'s unit tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey::crypto::cipher::{ctr_decrypt, ctr_encrypt};
use wavekey::crypto::group::Group;
use wavekey::crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey::crypto::sha256::sha256;

/// One 48-instance round with mixed choices: the `M_A`, `M_B` and `M_E`
/// bytes and the decrypted payloads equal an oracle that computes every
/// instance on its own, with `k¹ = H(a·M_B + (−a²)·G)` at full scale.
/// The scalars are redrawn from clones of the parties' RNGs, which the
/// OT consumes one scalar per instance.
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
    let key = |p: &[u64]| sha256(&encode(p));
    let (mut want_ma, mut want_mb) = (Vec::new(), Vec::new());
    let mut want_me = 48u32.to_le_bytes().to_vec();
    for i in 0..48 {
        let (a, b) = (draw(&mut draw_s), draw(&mut draw_r));
        let (m_a, g_b) = (mul_base(&a), mul_base(&b));
        let n = if choices[i] { add(&m_a, &g_b) } else { g_b };
        want_ma.extend(encode(&m_a));
        want_mb.extend(encode(&n));
        let na = mul(&n, &a);
        let mut neg_a2 = vec![0u64; sw];
        group.neg_square_into(&a, &mut neg_a2);
        let k1 = key(&add(&na, &mul_base(&neg_a2)));
        let pair = (
            ctr_encrypt(&key(&na), &secrets[i].0),
            ctr_encrypt(&k1, &secrets[i].1),
        );
        for e in [&pair.0, &pair.1] {
            want_me.extend((e.len() as u32).to_le_bytes());
            want_me.extend(e);
        }
        let chosen = if choices[i] { &pair.1 } else { &pair.0 };
        assert_eq!(
            payloads[i],
            ctr_decrypt(&key(&mul(&m_a, &b)), chosen),
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
    assert_eq!(ma, want_ma, "M_A wire bytes");
    assert_eq!(mb, want_mb, "M_B wire bytes");
    assert_eq!(me, want_me, "M_E wire bytes");
}
