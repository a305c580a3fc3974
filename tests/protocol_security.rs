//! Cross-crate integration: adversarial behavior of the key-agreement
//! protocol (no trained models required — seeds are supplied directly).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey::core::agreement::{run_agreement, AgreementConfig, AgreementError};
use wavekey::core::channel::{
    AdversaryAction, BitFlipMitm, Delayer, Dropper, Eavesdropper, MessageKind, PassiveChannel,
    VersionSpoofer,
};
use wavekey::core::proto::State;
use wavekey::core::{Adversary, Direction, Frame, MobileAgreement, ServerAgreement};
use wavekey::math::nist::bytes_to_bits;

fn config() -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, ..Default::default() }
}

fn seed(len: usize, rng_seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn run_with(
    s: &[bool],
    adversary: &mut dyn wavekey::core::Adversary,
) -> Result<wavekey::core::AgreementOutcome, AgreementError> {
    let mut rm = StdRng::seed_from_u64(1);
    let mut rs = StdRng::seed_from_u64(2);
    run_agreement(s, s, &config(), &mut rm, &mut rs, adversary)
}

#[test]
fn eavesdropper_cannot_read_key_material() {
    let s = seed(48, 3);
    let mut eve = Eavesdropper::default();
    let out = run_with(&s, &mut eve).expect("benign run");
    assert_eq!(eve.transcript.len(), 8);
    // Neither the key nor either seed appears verbatim in any message.
    let key = &out.key;
    for (_, kind, payload) in &eve.transcript {
        assert!(
            !payload.windows(key.len()).any(|w| w == key.as_slice()),
            "key leaked in {kind:?}"
        );
    }
}

#[test]
fn pervasive_mitm_fails_every_targeted_round() {
    let s = seed(48, 4);
    for kind in [MessageKind::OtA, MessageKind::OtB, MessageKind::OtE] {
        let mut mitm = BitFlipMitm::pervasive(kind, 4);
        let err = run_with(&s, &mut mitm).expect_err("manipulation must break the run");
        assert!(
            matches!(
                err,
                AgreementError::ReconciliationFailed
                    | AgreementError::ConfirmationFailed
                    | AgreementError::Ot(_)
            ),
            "{kind:?} gave {err:?}"
        );
    }
}

#[test]
fn challenge_tampering_is_detected_by_confirmation() {
    let s = seed(48, 5);
    let mut mitm = BitFlipMitm::new(MessageKind::Challenge, 7);
    let err = run_with(&s, &mut mitm).expect_err("tampered challenge");
    assert!(matches!(
        err,
        AgreementError::ConfirmationFailed | AgreementError::ReconciliationFailed
    ));
}

#[test]
fn response_tampering_is_detected() {
    let s = seed(48, 6);
    let mut mitm = BitFlipMitm::new(MessageKind::Response, 0);
    let err = run_with(&s, &mut mitm).expect_err("tampered response");
    assert_eq!(err, AgreementError::ConfirmationFailed);
}

#[test]
fn deadline_defeats_slow_relays() {
    let s = seed(48, 7);
    let cfg = AgreementConfig { use_tiny_group: true, tau: 0.2, ..Default::default() };
    // A relay that holds OT-A messages for half a second (e.g. remote
    // video processing round-trip) trips the τ fence.
    let mut relay = Delayer { target: Some(MessageKind::OtA), extra: 0.5 };
    let mut rm = StdRng::seed_from_u64(1);
    let mut rs = StdRng::seed_from_u64(2);
    let err = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut relay).unwrap_err();
    assert_eq!(err, AgreementError::Timeout(MessageKind::OtA));
}

#[test]
fn jamming_any_message_aborts() {
    let s = seed(48, 8);
    for kind in [
        MessageKind::OtA,
        MessageKind::OtB,
        MessageKind::OtE,
        MessageKind::Challenge,
        MessageKind::Response,
    ] {
        let mut dropper = Dropper { target: kind };
        let err = run_with(&s, &mut dropper).expect_err("dropped message");
        assert_eq!(err, AgreementError::Dropped(kind));
    }
}

#[test]
fn adversary_matrix_every_attack_on_every_message_fails_cleanly() {
    // The full wire-layer matrix: every active adversary aimed at every
    // MessageKind must end in a typed AgreementError — never a panic and
    // never a "success" whose key diverges between the parties.
    let s = seed(48, 9);
    let baseline = run_with(&s, &mut PassiveChannel).expect("baseline");

    for kind in MessageKind::ALL {
        // Payload corruption: caught by OT decoding, reconciliation, or
        // the HMAC confirmation, depending on which round was hit.
        let mut mitm = BitFlipMitm::pervasive(kind, 1);
        let err = run_with(&s, &mut mitm).expect_err("corruption must not yield a key");
        assert!(
            matches!(
                err,
                AgreementError::Ot(_)
                    | AgreementError::ReconciliationFailed
                    | AgreementError::ConfirmationFailed
            ),
            "BitFlipMitm x {kind:?} gave {err:?}"
        );

        // Jamming: the lockstep driver reports exactly which message
        // vanished.
        let mut dropper = Dropper { target: kind };
        let err = run_with(&s, &mut dropper).expect_err("dropped message");
        assert_eq!(err, AgreementError::Dropped(kind), "Dropper x {kind:?}");

        // Header re-versioning: rejected at the frame layer before any
        // payload ever reaches the protocol logic.
        let mut spoofer = VersionSpoofer { target: kind, version: 9 };
        let err = run_with(&s, &mut spoofer).expect_err("spoofed version");
        assert!(
            matches!(err, AgreementError::Wire(_)),
            "VersionSpoofer x {kind:?} gave {err:?}"
        );

        // Stalling: only M_A (mobile fence) and M_B (server fence) carry
        // the paper's `2 + τ` deadline; delaying anything else costs time
        // but must not change the key.
        let cfg = AgreementConfig { use_tiny_group: true, tau: 0.2, ..Default::default() };
        let mut rm = StdRng::seed_from_u64(1);
        let mut rs = StdRng::seed_from_u64(2);
        let mut relay = Delayer { target: Some(kind), extra: 0.5 };
        let result = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut relay);
        match kind {
            MessageKind::OtA | MessageKind::OtB => {
                assert_eq!(result.unwrap_err(), AgreementError::Timeout(kind));
            }
            _ => {
                let out = result.expect("unbudgeted delay is tolerated");
                assert_eq!(out.key, baseline.key, "Delayer x {kind:?} changed the key");
            }
        }
    }
}

#[test]
fn established_keys_pass_randomness_tests() {
    // Chain 40 keys from random seed pairs and run the NIST tests the
    // §VI-D evaluation uses.
    let mut chain = Vec::new();
    for i in 0..40u64 {
        let s = seed(48, 100 + i);
        let mut rm = StdRng::seed_from_u64(200 + i);
        let mut rs = StdRng::seed_from_u64(300 + i);
        let out = wavekey::core::agreement::run_agreement_information_layer(
            &s,
            &s,
            &config(),
            &mut rm,
            &mut rs,
        )
        .expect("benign");
        chain.extend(bytes_to_bits(&out.key));
    }
    assert_eq!(chain.len(), 40 * 256);
    let runs = wavekey::math::runs_test(&chain);
    assert!(runs.p_value > 0.01, "runs p = {}", runs.p_value);
    let mono = wavekey::math::monobit_test(&chain);
    assert!(mono.p_value > 0.01, "monobit p = {}", mono.p_value);
}

/// Rewrites every `M_E` into a well-formed batch of the right size whose
/// ciphertexts are all empty.
struct EmptyCiphertexts;

impl wavekey::core::Adversary for EmptyCiphertexts {
    fn intercept(
        &mut self,
        _direction: wavekey::core::Direction,
        frame: &mut wavekey::core::Frame,
    ) -> wavekey::core::channel::AdversaryAction {
        if frame.kind == MessageKind::OtE {
            let count = u32::from_le_bytes(frame.payload[..4].try_into().expect("count"));
            let mut forged = count.to_le_bytes().to_vec();
            forged.resize(4 + 8 * count as usize, 0);
            frame.payload = forged;
        }
        wavekey::core::channel::AdversaryAction::Forward
    }
}

#[test]
fn empty_ot_ciphertexts_fail_the_session_instead_of_panicking() {
    // A peer's `M_E` whose payloads hold fewer than `l_b` bits is an OT
    // error for the receiving machine, not a panic while it assembles
    // its preliminary key.
    let err = run_with(&seed(48, 9), &mut EmptyCiphertexts).expect_err("no key from empty M_E");
    assert!(matches!(err, AgreementError::Ot(_)), "{err:?}");
}

/// Re-versions only the server's `M_E` to the mobile, to 0x7f.
struct ReversionServerOtE;

impl Adversary for ReversionServerOtE {
    fn intercept(&mut self, direction: Direction, frame: &mut Frame) -> AdversaryAction {
        if direction == Direction::ServerToMobile && frame.kind == MessageKind::OtE {
            frame.version = 0x7f;
        }
        AdversaryAction::Forward
    }
}

#[test]
fn lockstep_refuses_a_re_versioned_server_m_e_as_the_mobile_machine_does() {
    // The lockstep driver delivers the server's `M_E` to the mobile
    // outside `handle` (the mobile commits after the server's prelim
    // key), so it must make the same version and kind checks: the
    // session fails with the error `MobileAgreement::handle` gives.
    let s = seed(48, 9);
    let lockstep = run_with(&s, &mut ReversionServerOtE).expect_err("re-versioned M_E");
    let want = AgreementError::Wire("unknown wire version 127".into());
    assert_eq!(lockstep, want);

    let mut mobile = MobileAgreement::new(&s, &config(), StdRng::seed_from_u64(1)).unwrap();
    let mut server = ServerAgreement::new(&s, &config(), StdRng::seed_from_u64(2)).unwrap();
    let (ma_m, ma_r) = (mobile.start().unwrap(), server.start().unwrap());
    let mb_m = mobile.handle(&ma_r, 2.0).unwrap().remove(0);
    let mb_r = server.handle(&ma_m, 2.0).unwrap().remove(0);
    let mut me_r = server.handle(&mb_m, 2.0).unwrap().remove(0);
    mobile.handle(&mb_r, 2.0).unwrap();
    ReversionServerOtE.intercept(Direction::ServerToMobile, &mut me_r);
    assert_eq!(mobile.handle(&me_r, 2.0).unwrap_err(), want);
    assert_eq!(mobile.state(), State::Failed);
}

/// Encodings no honest party sends in place of a ristretto255 element:
/// the identity, `s = p` (not below p), an odd `s` (negative), `s = 8`
/// (the smallest even `s` whose decoding ratio is not a square), and a
/// 31-byte element, which leaves the frame a non-whole number of
/// elements.
fn hostile_elements() -> [(&'static str, Vec<u8>); 5] {
    let mut p = vec![0xff; 32];
    p[0] = 0xed;
    p[31] = 0x7f;
    let small = |s: u8| {
        let mut bytes = vec![0u8; 32];
        bytes[0] = s;
        bytes
    };
    [
        ("identity", vec![0; 32]),
        ("s >= p", p),
        ("odd s", small(1)),
        ("non-square s", small(8)),
        ("wrong length", vec![0; 31]),
    ]
}

/// `frame` with its first 32-byte element replaced by `element`.
fn with_first_element(frame: &Frame, element: &[u8]) -> Frame {
    let payload = [element, &frame.payload[32..]].concat();
    Frame::new(frame.kind, payload)
}

#[test]
fn hostile_group_elements_end_the_session_without_a_reply() {
    // On ristretto255, each machine that receives a hostile `M_A` or
    // `M_B` element fails with a malformed-OT error and sends nothing:
    // no `M_B` that could carry choice bits, no `M_E`.
    let config = AgreementConfig { tau: 10.0, ..Default::default() };
    let s = seed(48, 9);
    for (name, element) in hostile_elements() {
        for target in [MessageKind::OtA, MessageKind::OtB] {
            for server_side in [false, true] {
                let mut mobile =
                    MobileAgreement::new(&s, &config, StdRng::seed_from_u64(1)).unwrap();
                let mut server =
                    ServerAgreement::new(&s, &config, StdRng::seed_from_u64(2)).unwrap();
                let (ma_m, ma_r) = (mobile.start().unwrap(), server.start().unwrap());
                let mut handle = |to_server: bool, frame: &Frame| {
                    if to_server {
                        server.handle(frame, 2.0)
                    } else {
                        mobile.handle(frame, 2.0)
                    }
                };
                // The peer's M_A, and for an M_B target the peer's honest
                // M_B, which answers the target's own M_A.
                let mut incoming = if server_side { ma_m.clone() } else { ma_r.clone() };
                if target == MessageKind::OtB {
                    let own_ma = if server_side { ma_r } else { ma_m };
                    assert_eq!(handle(server_side, &incoming).expect("honest M_A").len(), 1);
                    incoming = handle(!server_side, &own_ma).expect("honest M_A").remove(0);
                }
                assert_eq!(incoming.kind, target);
                let hostile = with_first_element(&incoming, &element);
                let result = handle(server_side, &hostile);
                let who = if server_side { "server" } else { "mobile" };
                assert!(
                    matches!(result, Err(AgreementError::Ot(_))),
                    "{who} {target:?} with {name}: {result:?}"
                );
                let state = if server_side { server.state() } else { mobile.state() };
                assert_eq!(state, State::Failed, "{who} {target:?} with {name}");
            }
        }
    }
}
