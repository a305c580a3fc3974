//! Differential test: the sans-IO state-machine lockstep driver must be
//! bit-identical to the monolithic key agreement it replaced.
//!
//! `reference_agreement` below is a self-contained reimplementation of
//! the pre-refactor protocol body (direct OT calls, identical RNG draw
//! order: pairs → sender scalars → respond scalars → commit → nonce)
//! with the channel and timing stripped — on a benign channel those
//! cannot influence keys. `reference_information_layer` runs the same
//! post-OT tail on the sequences the OT would deliver, and pins
//! `run_agreement_information_layer` (the `enrol` and Tables I/II path)
//! the same way. Every session compares:
//!
//! * success/failure verdicts and error values,
//! * the established key bytes and bits,
//! * the preliminary-mismatch diagnostic,
//! * the *caller-visible RNG end-state* (the driver threads RNGs through
//!   the machines and copies them back, so chained runs must observe the
//!   same stream the monolith produced).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey::core::agreement::{
    run_agreement, run_agreement_information_layer, AgreementConfig, AgreementError,
    AgreementOutcome,
};
use wavekey::core::bits::{
    deinterleave, hamming_distance, interleave, pack_bits, unpack_bits,
};
use wavekey::core::channel::{Delayer, Dropper, MessageKind, PassiveChannel};
use wavekey::crypto::ecc::{Bch, CodeOffset};
use wavekey::crypto::group::Group;
use wavekey::crypto::hmac::{hmac_sha256, mac_eq};
use wavekey::crypto::ot::{OtPairs, OtReceiver, OtSender};

const ECC_BLOCK: usize = 127;
const NONCE_LEN: usize = 16;

fn config() -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, ..Default::default() }
}

fn random_seed(len: usize, rng_seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn flip_bits(seed: &[bool], n: usize) -> Vec<bool> {
    let mut out = seed.to_vec();
    for i in 0..n {
        let idx = (i * 17 + 3) % out.len();
        out[idx] = !out[idx];
    }
    out
}

fn random_pairs(l_s: usize, l_b: usize, rng: &mut StdRng) -> Vec<(Vec<bool>, Vec<bool>)> {
    (0..l_s)
        .map(|_| {
            let a: Vec<bool> = (0..l_b).map(|_| rng.gen()).collect();
            let b: Vec<bool> = (0..l_b).map(|_| rng.gen()).collect();
            (a, b)
        })
        .collect()
}

fn payload_pairs(pairs: &[(Vec<bool>, Vec<bool>)]) -> OtPairs {
    let packed: Vec<_> = pairs.iter().map(|(a, b)| (pack_bits(a), pack_bits(b))).collect();
    OtPairs::from_pairs(&packed)
}

struct RefOutcome {
    key: Vec<u8>,
    preliminary_mismatch_bits: usize,
}

/// The pre-refactor monolith, key logic only (benign channel, no clocks).
fn reference_agreement(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
) -> Result<RefOutcome, AgreementError> {
    let group = if config.use_tiny_group { Group::Tiny } else { Group::Ristretto255 };
    let l_s = s_m.len();
    let l_b = config.key_len_bits.div_ceil(2 * l_s);

    let x_pairs = random_pairs(l_s, l_b, rng_mobile);
    let (mobile_sender, ma_m) = OtSender::start(group, payload_pairs(&x_pairs), rng_mobile);
    let y_pairs = random_pairs(l_s, l_b, rng_server);
    let (server_sender, ma_r) = OtSender::start(group, payload_pairs(&y_pairs), rng_server);

    let (mobile_receiver, mb_m) =
        OtReceiver::respond(group, s_m, &ma_r, rng_mobile).expect("benign M_A");
    let (server_receiver, mb_r) =
        OtReceiver::respond(group, s_r, &ma_m, rng_server).expect("benign M_A");

    let me_m = mobile_sender.encrypt(group, &mb_r).expect("benign M_B");
    let me_r = server_sender.encrypt(group, &mb_m).expect("benign M_B");

    let y_received = mobile_receiver.decrypt(group, &me_r).expect("benign M_E");
    let y_received: Vec<&[u8]> = y_received.chunks(l_b.div_ceil(8)).collect();
    let mut k_m: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        let own = if s_m[i] { &x_pairs[i].1 } else { &x_pairs[i].0 };
        k_m.extend_from_slice(own);
        k_m.extend(unpack_bits(y_received[i], l_b));
    }
    let x_received = server_receiver.decrypt(group, &me_m).expect("benign M_E");
    let x_received: Vec<&[u8]> = x_received.chunks(l_b.div_ceil(8)).collect();
    let mut k_r: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        k_r.extend(unpack_bits(x_received[i], l_b));
        let own = if s_r[i] { &y_pairs[i].1 } else { &y_pairs[i].0 };
        k_r.extend_from_slice(own);
    }
    reference_tail(&k_m, &k_r, l_s, l_b, config, rng_mobile)
}

/// The monolith's information layer: the same pairs, each party
/// selecting both sequences of an instance with its own seed bit (what
/// the OT delivers on a benign channel), then the monolith's tail.
fn reference_information_layer(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
) -> Result<RefOutcome, AgreementError> {
    let l_s = s_m.len();
    let l_b = config.key_len_bits.div_ceil(2 * l_s);
    let x_pairs = random_pairs(l_s, l_b, rng_mobile);
    let y_pairs = random_pairs(l_s, l_b, rng_server);
    let pick = |pair: &(Vec<bool>, Vec<bool>), bit: bool| {
        if bit { pair.1.clone() } else { pair.0.clone() }
    };
    let mut k_m: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    let mut k_r: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        k_m.extend(pick(&x_pairs[i], s_m[i]));
        k_m.extend(pick(&y_pairs[i], s_m[i]));
        k_r.extend(pick(&x_pairs[i], s_r[i]));
        k_r.extend(pick(&y_pairs[i], s_r[i]));
    }
    reference_tail(&k_m, &k_r, l_s, l_b, config, rng_mobile)
}

/// The monolith after the OT: the mobile's commit and nonce, the
/// server's reconcile and response, the mobile's confirm.
fn reference_tail(
    k_m: &[bool],
    k_r: &[bool],
    l_s: usize,
    l_b: usize,
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
) -> Result<RefOutcome, AgreementError> {
    let preliminary_mismatch_bits = hamming_distance(k_m, k_r);

    let k_len = 2 * l_s * l_b;
    let blocks = k_len.div_ceil(ECC_BLOCK);
    let bch = Bch::new(config.bch_t).expect("valid t");
    let co = CodeOffset::new(bch);
    let k_m_inter = interleave(k_m, blocks, ECC_BLOCK);
    let helper = co.commit(&k_m_inter, rng_mobile);
    let nonce: [u8; NONCE_LEN] = {
        let mut n = [0u8; NONCE_LEN];
        rng_mobile.fill(&mut n);
        n
    };

    let k_r_inter = interleave(k_r, blocks, ECC_BLOCK);
    let Some(recovered_inter) = co.reconcile(&k_r_inter, &helper, blocks * ECC_BLOCK) else {
        return Err(AgreementError::ReconciliationFailed);
    };
    let k_server = deinterleave(&recovered_inter, blocks, ECC_BLOCK, k_len);
    let server_key = pack_bits(&k_server[..config.key_len_bits.min(k_server.len())]);
    let response = hmac_sha256(&server_key, &nonce);

    let key = pack_bits(&k_m[..config.key_len_bits.min(k_m.len())]);
    if !mac_eq(&hmac_sha256(&key, &nonce), &response) {
        return Err(AgreementError::ConfirmationFailed);
    }
    Ok(RefOutcome { key, preliminary_mismatch_bits })
}

/// The next few draws of two RNGs must coincide — the observable
/// definition of "same end state" for a caller that keeps using them.
fn assert_same_stream(a: &mut StdRng, b: &mut StdRng, context: &str) {
    for i in 0..4 {
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{context}: draw {i} diverged");
    }
}

fn differential_session(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    session: u64,
) {
    let mut ref_rm = StdRng::seed_from_u64(1000 + session);
    let mut ref_rs = StdRng::seed_from_u64(2000 + session);
    let reference = reference_agreement(s_m, s_r, config, &mut ref_rm, &mut ref_rs);

    let mut new_rm = StdRng::seed_from_u64(1000 + session);
    let mut new_rs = StdRng::seed_from_u64(2000 + session);
    let new = run_agreement(s_m, s_r, config, &mut new_rm, &mut new_rs, &mut PassiveChannel);

    assert_same_outcome(reference, new, config, session);
    assert_same_stream(&mut new_rm, &mut ref_rm, "mobile rng");
    assert_same_stream(&mut new_rs, &mut ref_rs, "server rng");
}

/// [`differential_session`] for the information layer and its reference.
fn differential_information_layer(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    session: u64,
) {
    let mut ref_rm = StdRng::seed_from_u64(1000 + session);
    let mut ref_rs = StdRng::seed_from_u64(2000 + session);
    let reference = reference_information_layer(s_m, s_r, config, &mut ref_rm, &mut ref_rs);

    let mut new_rm = StdRng::seed_from_u64(1000 + session);
    let mut new_rs = StdRng::seed_from_u64(2000 + session);
    let new = run_agreement_information_layer(s_m, s_r, config, &mut new_rm, &mut new_rs);

    assert_same_outcome(reference, new, config, session);
    assert_same_stream(&mut new_rm, &mut ref_rm, "mobile rng");
    assert_same_stream(&mut new_rs, &mut ref_rs, "server rng");
}

/// Verdicts, error values, key bytes and bits, and the mismatch
/// diagnostic must all agree.
fn assert_same_outcome(
    reference: Result<RefOutcome, AgreementError>,
    new: Result<AgreementOutcome, AgreementError>,
    config: &AgreementConfig,
    session: u64,
) {
    match (reference, new) {
        (Ok(r), Ok(n)) => {
            assert_eq!(n.key, r.key, "session {session}: key bytes diverged");
            assert_eq!(n.key_bits, unpack_bits(&r.key, config.key_len_bits));
            assert_eq!(
                n.preliminary_mismatch_bits, r.preliminary_mismatch_bits,
                "session {session}: mismatch diagnostic diverged"
            );
        }
        (Err(r), Err(n)) => {
            assert_eq!(n, r, "session {session}: error values diverged");
        }
        (r, n) => panic!(
            "session {session}: verdicts diverged (reference ok={}, new ok={})",
            r.is_ok(),
            n.is_ok()
        ),
    }
}

#[test]
fn driver_matches_monolith_over_seeded_tiny_sessions() {
    // ≥24 sessions across the verdict spectrum: identical seeds, small
    // (correctable) mismatch, borderline, and far-beyond-radius seeds.
    let mut session = 0u64;
    for base in 0..6u64 {
        for flips in [0usize, 1, 2, 24] {
            let s_m = random_seed(48, 7000 + base);
            let s_r = flip_bits(&s_m, flips);
            differential_session(&s_m, &s_r, &config(), session);
            session += 1;
        }
    }
    assert_eq!(session, 24);
}

#[test]
fn information_layer_matches_monolith_at_every_table_iii_key_length() {
    // The driver differential's 24 seed pairs, at each Table III length.
    for l_k in [128usize, 168, 192, 256, 2048] {
        let cfg = AgreementConfig { key_len_bits: l_k, ..config() };
        let mut session = 0u64;
        for base in 0..6u64 {
            for flips in [0usize, 1, 2, 24] {
                let s_m = random_seed(48, 7000 + base);
                differential_information_layer(&s_m, &flip_bits(&s_m, flips), &cfg, session);
                session += 1;
            }
        }
        assert_eq!(session, 24);
    }
}

#[test]
fn driver_matches_monolith_on_ristretto255() {
    // The production group; scalar draws must line up too. Eight
    // sessions: identical seeds and seeds 1, 2 and 24 bits apart.
    let cfg = AgreementConfig { use_tiny_group: false, tau: 10.0, ..Default::default() };
    for (i, flips) in [0usize, 1, 2, 24, 0, 1, 2, 24].into_iter().enumerate() {
        let s_m = random_seed(48, 7100 + i as u64);
        differential_session(&s_m, &flip_bits(&s_m, flips), &cfg, 50 + i as u64);
    }
}

#[test]
fn driver_preserves_rng_state_on_timeout() {
    // Timeout(OtA) aborts before either party's respond draws — exactly
    // as the monolith did; the caller's RNGs must reflect only the pair
    // generation and sender scalars.
    let cfg = AgreementConfig { use_tiny_group: true, tau: 0.5, ..Default::default() };
    let s = random_seed(48, 7200);
    let mut rm = StdRng::seed_from_u64(11);
    let mut rs = StdRng::seed_from_u64(12);
    let mut delayer = Delayer { target: Some(MessageKind::OtA), extra: 1.0 };
    let err = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut delayer).unwrap_err();
    assert_eq!(err, AgreementError::Timeout(MessageKind::OtA));

    let group = Group::Tiny;
    let l_b = cfg.key_len_bits.div_ceil(2 * s.len());
    let mut ref_rm = StdRng::seed_from_u64(11);
    let mut ref_rs = StdRng::seed_from_u64(12);
    let pairs = random_pairs(s.len(), l_b, &mut ref_rm);
    let _ = OtSender::start(group, payload_pairs(&pairs), &mut ref_rm);
    let pairs = random_pairs(s.len(), l_b, &mut ref_rs);
    let _ = OtSender::start(group, payload_pairs(&pairs), &mut ref_rs);
    assert_same_stream(&mut rm, &mut ref_rm, "mobile rng after timeout");
    assert_same_stream(&mut rs, &mut ref_rs, "server rng after timeout");
}

#[test]
fn driver_preserves_rng_state_on_drop() {
    // Dropped(OtE) aborts after both responds; encryption draws nothing.
    let cfg = config();
    let s = random_seed(48, 7300);
    let mut rm = StdRng::seed_from_u64(21);
    let mut rs = StdRng::seed_from_u64(22);
    let mut dropper = Dropper { target: MessageKind::OtE };
    let err = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut dropper).unwrap_err();
    assert_eq!(err, AgreementError::Dropped(MessageKind::OtE));

    let group = Group::Tiny;
    let l_b = cfg.key_len_bits.div_ceil(2 * s.len());
    let mut ref_rm = StdRng::seed_from_u64(21);
    let mut ref_rs = StdRng::seed_from_u64(22);
    let x_pairs = random_pairs(s.len(), l_b, &mut ref_rm);
    let (_, ma_m) = OtSender::start(group, payload_pairs(&x_pairs), &mut ref_rm);
    let y_pairs = random_pairs(s.len(), l_b, &mut ref_rs);
    let (_, ma_r) = OtSender::start(group, payload_pairs(&y_pairs), &mut ref_rs);
    let _ = OtReceiver::respond(group, &s, &ma_r, &mut ref_rm).unwrap();
    let _ = OtReceiver::respond(group, &s, &ma_m, &mut ref_rs).unwrap();
    assert_same_stream(&mut rm, &mut ref_rm, "mobile rng after drop");
    assert_same_stream(&mut rs, &mut ref_rs, "server rng after drop");
}
