//! Byte-level OT rounds: each protocol round as one call that consumes
//! and produces *serialized* messages.
//!
//! The structured API in [`crate::ot`] moves a batch through typed
//! messages (`OtMessageA/B/E`); a sans-IO protocol state machine instead
//! holds party state between *wire frames* and needs to advance exactly
//! one round from the raw payload bytes of the frame it was handed. These
//! wrappers bundle the decode + round logic so a single round is drivable
//! from a frame without the caller ever touching the typed messages.

use crate::group::DhGroup;
use crate::ot::{respond_to_bytes, OtError, OtMessageB, OtMessageE, OtPairs, OtReceiver, OtSender};
use rand::rngs::StdRng;

/// Sender round 1: starts a batch over `secrets` and returns the state
/// plus the encoded `M_A`.
pub fn sender_round_a(group: &DhGroup, secrets: OtPairs, rng: &mut StdRng) -> (OtSender, Vec<u8>) {
    let (sender, msg_a) = OtSender::start(group, secrets, rng);
    let bytes = msg_a.encode(group);
    (sender, bytes)
}

/// Receiver round 2: parses an encoded `M_A` straight into the receiver
/// state and answers with the encoded blinded-choice `M_B`.
///
/// # Errors
///
/// [`OtError::Malformed`] when `ma_bytes` does not parse,
/// [`OtError::BatchMismatch`] when the batch sizes disagree.
pub fn receiver_round_b(
    group: &DhGroup,
    choices: &[bool],
    ma_bytes: &[u8],
    rng: &mut StdRng,
) -> Result<(OtReceiver, Vec<u8>), OtError> {
    let (receiver, msg_b) = respond_to_bytes(group, choices, ma_bytes, rng)?;
    Ok((receiver, msg_b.encode(group)))
}

/// Sender round 3: parses an encoded `M_B` and returns the encoded
/// ciphertext batch `M_E`.
///
/// # Errors
///
/// [`OtError::Malformed`] when `mb_bytes` does not parse,
/// [`OtError::BatchMismatch`] when the batch sizes disagree.
pub fn sender_round_e(
    sender: &OtSender,
    group: &DhGroup,
    mb_bytes: &[u8],
) -> Result<Vec<u8>, OtError> {
    let msg_b = OtMessageB::decode(group, mb_bytes)?;
    Ok(sender.encrypt(group, &msg_b)?.encode())
}

/// Receiver finish: parses an encoded `M_E` and decrypts the chosen
/// secret of every instance, all in one buffer ([`OtReceiver::decrypt`]).
///
/// # Errors
///
/// [`OtError::Malformed`] when `me_bytes` does not parse,
/// [`OtError::BatchMismatch`] when the batch sizes disagree.
pub fn receiver_finish(
    receiver: &OtReceiver,
    group: &DhGroup,
    me_bytes: &[u8],
) -> Result<Vec<u8>, OtError> {
    let msg_e = OtMessageE::decode(me_bytes)?;
    receiver.decrypt(group, &msg_e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::Ubig;
    use crate::cipher::{ctr_decrypt, ctr_encrypt};
    use crate::ot::OtMessageA;
    use crate::sha256::sha256;
    use rand::SeedableRng;

    /// `pairs` as one [`OtPairs`] batch.
    fn batch(pairs: Vec<(Vec<u8>, Vec<u8>)>) -> OtPairs {
        OtPairs::from_pairs(&pairs)
    }

    #[test]
    fn byte_rounds_match_typed_rounds() {
        let group = DhGroup::tiny_test_group();
        let secrets = vec![
            (b"zero-0".to_vec(), b"one--0".to_vec()),
            (b"zero-1".to_vec(), b"one--1".to_vec()),
        ];
        let choices = vec![true, false];

        // Typed path.
        let mut rng_s = StdRng::seed_from_u64(10);
        let mut rng_r = StdRng::seed_from_u64(20);
        let (sender_t, msg_a) = OtSender::start(&group, batch(secrets.clone()), &mut rng_s);
        let (receiver_t, msg_b) =
            OtReceiver::respond(&group, &choices, &msg_a, &mut rng_r).unwrap();
        let msg_e = sender_t.encrypt(&group, &msg_b).unwrap();
        let typed_out = receiver_t.decrypt(&group, &msg_e).unwrap();

        // Byte path with identical RNG seeds must draw the same exponents
        // and therefore produce identical wire bytes and plaintexts.
        let mut rng_s = StdRng::seed_from_u64(10);
        let mut rng_r = StdRng::seed_from_u64(20);
        let (sender, ma) = sender_round_a(&group, batch(secrets), &mut rng_s);
        assert_eq!(ma, msg_a.encode(&group));
        let (receiver, mb) = receiver_round_b(&group, &choices, &ma, &mut rng_r).unwrap();
        assert_eq!(mb, msg_b.encode(&group));
        let me = sender_round_e(&sender, &group, &mb).unwrap();
        assert_eq!(me, msg_e.encode());
        let out = receiver_finish(&receiver, &group, &me).unwrap();
        assert_eq!(out, typed_out);
        assert_eq!(&out[..6], b"one--0");
        assert_eq!(&out[6..], b"zero-1");
    }

    #[test]
    fn batched_byte_rounds_match_scalar_byte_rounds() {
        // `sender_round_e` and `receiver_finish` hand a round's general
        // exponentiations to `DhGroup::pow_many` in one call, which on
        // MODP-1024 runs them eight at a time where the CPU has
        // AVX512-IFMA: two instances run in one padded lane group, eleven
        // fill a group plus a padded one. The `M_E` bytes and the payloads must equal
        // a scalar byte oracle that derives every key from its own `pow`,
        // with `k¹` in the naive form `H((n·g^{−a})^a)`. The exponents are
        // redrawn from clones of the parties' RNGs, one per instance.
        let tiny = DhGroup::tiny_test_group();
        for group in [&tiny, DhGroup::modp_1024_shared()] {
            for count in [2usize, 11] {
                let secrets: Vec<_> = (0..count as u8).map(|i| (vec![i; 5], vec![!i; 5])).collect();
                let choices: Vec<bool> = (0..count).map(|i| i % 3 != 1).collect();
                let mut rng_s = StdRng::seed_from_u64(30);
                let mut rng_r = StdRng::seed_from_u64(40);
                let (mut draw_s, mut draw_r) = (rng_s.clone(), rng_r.clone());
                let (sender, ma) = sender_round_a(group, batch(secrets.clone()), &mut rng_s);
                let (receiver, mb) = receiver_round_b(group, &choices, &ma, &mut rng_r).unwrap();
                let me = sender_round_e(&sender, group, &mb).unwrap();
                let out = receiver_finish(&receiver, group, &me).unwrap();

                let key = |e: &Ubig| sha256(&group.encode_element(e));
                let k = group.limbs();
                let element = |flat: &[u64], i: usize| Ubig::from_limbs(&flat[i * k..][..k]);
                let m_a = OtMessageA::decode(group, &ma).unwrap().elements;
                let m_b = OtMessageB::decode(group, &mb).unwrap().elements;
                let (m_a, m_b): (Vec<_>, Vec<_>) =
                    (0..count).map(|i| (element(&m_a, i), element(&m_b, i))).unzip();
                let out: Vec<&[u8]> = out.chunks(5).collect();
                let mut pairs = Vec::new();
                for i in 0..count {
                    let a = group.random_exponent(&mut draw_s);
                    let b = group.random_exponent(&mut draw_r);
                    let k0 = key(&group.pow(&m_b[i], &a));
                    let k1 = key(&group.pow(&group.div(&m_b[i], &group.pow_g(&a)), &a));
                    let (x0, x1) = &secrets[i];
                    pairs.push((ctr_encrypt(&k0, x0), ctr_encrypt(&k1, x1)));
                    let chosen = if choices[i] { &pairs[i].1 } else { &pairs[i].0 };
                    let k = key(&group.pow(&m_a[i], &b));
                    assert_eq!(out[i], ctr_decrypt(&k, chosen), "payload, count {count} instance {i}");
                    assert_eq!(out[i], if choices[i] { x1 } else { x0 });
                }
                let pairs = OtPairs::from_pairs(&pairs);
                assert_eq!(me, OtMessageE { pairs }.encode(), "M_E bytes, count {count}");
            }
        }
    }

    #[test]
    fn malformed_bytes_are_rejected_at_every_round() {
        let group = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            receiver_round_b(&group, &[true], &[1, 2, 3], &mut rng).unwrap_err(),
            OtError::Malformed
        );
        let (sender, ma) = sender_round_a(&group, batch(vec![(vec![1], vec![2])]), &mut rng);
        assert_eq!(sender_round_e(&sender, &group, &[9]).unwrap_err(), OtError::Malformed);
        let (receiver, _) = receiver_round_b(&group, &[true], &ma, &mut rng).unwrap();
        assert_eq!(
            receiver_finish(&receiver, &group, &[0, 0]).unwrap_err(),
            OtError::Malformed
        );
    }

    #[test]
    fn zero_m_a_is_rejected_before_any_choice_is_blinded() {
        // Against M_A = 0 an honest M_B would be 0 exactly on the
        // choice-1 instances, so the receiver must refuse to answer.
        for group in [DhGroup::tiny_test_group_shared(), DhGroup::modp_1024_shared()] {
            let mut rng = StdRng::seed_from_u64(3);
            let (_, ma) = sender_round_a(group, batch(vec![(vec![1], vec![2]); 2]), &mut rng);
            let (w, zero) = (group.element_len(), vec![0; group.element_len()]);
            for bad in [[&zero[..], &zero[..]].concat(), [&ma[..w], &zero[..]].concat()] {
                assert_eq!(
                    receiver_round_b(group, &[false, true], &bad, &mut rng).unwrap_err(),
                    OtError::Malformed
                );
            }
        }
    }

    #[test]
    fn batch_mismatch_is_rejected_at_every_round() {
        let group = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(2);
        let (sender, ma) = sender_round_a(&group, batch(vec![(vec![1], vec![2])]), &mut rng);
        // Two choices against a one-instance M_A.
        assert_eq!(
            receiver_round_b(&group, &[true, false], &ma, &mut rng).unwrap_err(),
            OtError::BatchMismatch
        );
        // An M_B with the wrong number of elements.
        let (_, mb) = receiver_round_b(&group, &[true], &ma, &mut rng).unwrap();
        let mut doubled = mb.clone();
        doubled.extend_from_slice(&mb);
        assert_eq!(
            sender_round_e(&sender, &group, &doubled).unwrap_err(),
            OtError::BatchMismatch
        );
    }
}
