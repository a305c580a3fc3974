//! The in-process lockstep driver: replays the classic synchronous
//! message exchange over the two sans-IO machines.
//!
//! This *is* the implementation of [`crate::agreement::run_agreement`]:
//! the monolithic exchange it replaced lives on as the delivery schedule
//! below, with all protocol logic moved into [`MobileAgreement`] /
//! [`ServerAgreement`]. The schedule is chosen so that the per-party RNG
//! draw order, clock arithmetic, and error precedence are exactly the
//! monolith's — single-session outcomes stay bit-identical (see
//! `tests/differential_agreement.rs` and DESIGN.md §9).
//!
//! Concretely, per round the mobile-bound delivery happens first when the
//! mobile acts first in the monolith (`M_A`: the mobile's `2 + τ` check
//! and its RNG-consuming response precede the server's) and second when
//! the server acts first (`M_B`: the server's deadline check precedes
//! both decodes). The mobile's challenge commit — the only RNG draw after
//! the OT — is explicitly scheduled *after* the server absorbs `M_E`, via
//! the `absorb_ot_e` / `emit_challenge` split.

use super::{Frame, MobileAgreement, ServerAgreement};
use crate::agreement::{
    AgreementConfig, AgreementError, AgreementOutcome, AgreementStages, Geometry, RetryPolicy,
};
use crate::channel::{Adversary, AdversaryAction, Direction};
use rand::rngs::StdRng;
use wavekey_obs::EventScope;

/// Runs the full key agreement between two machines in lockstep.
///
/// RNGs are threaded through the machines and their end state is copied
/// back to the caller on *every* path, so callers chaining runs off one
/// RNG observe the same stream the monolithic implementation produced.
/// Both machines bind actor-tagged views of `events` ("mobile" /
/// "server" sharing one per-session sequence), so every state
/// transition lands in the scope's event log; pass
/// [`EventScope::disabled`] to record nothing.
///
/// # Errors
///
/// See [`AgreementError`]; identical taxonomy and precedence as the
/// monolith this replaced.
pub fn drive_lockstep(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
    adversary: &mut dyn Adversary,
    events: &EventScope,
) -> Result<AgreementOutcome, AgreementError> {
    Geometry::of_seeds(s_m, s_r, config)?;
    let mut mobile = MobileAgreement::new(s_m, config, rng_mobile.clone())?;
    let mut server = ServerAgreement::new(s_r, config, rng_server.clone())?;
    if events.is_enabled() {
        mobile.bind_events(events.with_actor("mobile"));
        server.bind_events(events.with_actor("server"));
    }
    let result = exchange(&mut mobile, &mut server, config, adversary);
    *rng_mobile = mobile.rng().clone();
    *rng_server = server.rng().clone();
    result.map(|preliminary_mismatch_bits| combine(&mobile, &server, preliminary_mismatch_bits))
}

/// The lockstep delivery schedule; returns the preliminary-mismatch
/// diagnostic on success.
fn exchange(
    mobile: &mut MobileAgreement,
    server: &mut ServerAgreement,
    config: &AgreementConfig,
    adversary: &mut dyn Adversary,
) -> Result<usize, AgreementError> {
    let delay = config.channel_delay;
    let retry = &config.retry;

    // --- M_A both ways; the mobile's deadline check and response first.
    let ma_m = mobile.start()?;
    let ma_r = server.start()?;
    let (ma_m, ma_m_arrival) =
        transmit(adversary, Direction::MobileToServer, ma_m, mobile.clock(), delay, retry)?;
    let (ma_r, ma_r_arrival) =
        transmit(adversary, Direction::ServerToMobile, ma_r, server.clock(), delay, retry)?;
    let mb_m = only(mobile.handle(&ma_r, ma_r_arrival)?);
    let mb_r = only(server.handle(&ma_m, ma_m_arrival)?);

    // --- M_B both ways; the server's deadline check precedes all else.
    let (mb_m, mb_m_arrival) =
        transmit(adversary, Direction::MobileToServer, mb_m, mobile.clock(), delay, retry)?;
    let (mb_r, mb_r_arrival) =
        transmit(adversary, Direction::ServerToMobile, mb_r, server.clock(), delay, retry)?;
    let me_r = only(server.handle(&mb_m, mb_m_arrival)?);
    let me_m = only(mobile.handle(&mb_r, mb_r_arrival)?);

    // --- M_E both ways; both sides assemble preliminary keys, then the
    // mobile commits (its only post-OT RNG draws).
    let (me_m, me_m_arrival) =
        transmit(adversary, Direction::MobileToServer, me_m, mobile.clock(), delay, retry)?;
    let (me_r, me_r_arrival) =
        transmit(adversary, Direction::ServerToMobile, me_r, server.clock(), delay, retry)?;
    mobile.absorb_ot_e(&me_r, me_r_arrival)?;
    server.handle(&me_m, me_m_arrival)?;
    let preliminary_mismatch_bits =
        mobile.preliminary_key().hamming_distance(server.preliminary_key());
    let challenge = mobile.emit_challenge();

    // --- Challenge / Response.
    let (challenge, challenge_arrival) =
        transmit(adversary, Direction::MobileToServer, challenge, mobile.clock(), delay, retry)?;
    let response = only(server.handle(&challenge, challenge_arrival)?);
    let (response, response_arrival) =
        transmit(adversary, Direction::ServerToMobile, response, server.clock(), delay, retry)?;
    mobile.handle(&response, response_arrival)?;

    Ok(preliminary_mismatch_bits)
}

/// Assembles the combined outcome from two finished machines.
pub(crate) fn combine(
    mobile: &MobileAgreement,
    server: &ServerAgreement,
    preliminary_mismatch_bits: usize,
) -> AgreementOutcome {
    let m = mobile.stages();
    let s = server.stages();
    let stages = AgreementStages {
        ot_round_a: m.ot_round_a + s.ot_round_a,
        ot_round_b: m.ot_round_b + s.ot_round_b,
        ot_round_e: m.ot_round_e + s.ot_round_e,
        prelim_key: m.prelim_key + s.prelim_key,
        ecc_reconcile: m.ecc_reconcile + s.ecc_reconcile,
        hmac_confirm: m.hmac_confirm + s.hmac_confirm,
        deadline_s: m.deadline_s,
        deadline_consumed_s: mobile.deadline_consumed().max(server.deadline_consumed()),
    };
    AgreementOutcome {
        key: mobile.key().to_vec(),
        key_bits: mobile.key_bits(),
        mobile_compute: mobile.compute(),
        server_compute: server.compute(),
        elapsed: mobile.clock().max(server.clock()),
        preliminary_mismatch_bits,
        ma_prep: mobile.ma_prep(),
        mb_prep: mobile.mb_prep(),
        stages,
    }
}

/// Passes a frame through the adversary and the channel; returns the
/// (possibly modified) frame and its arrival time.
///
/// A dropped frame is retransmitted up to `retry.max_retries` times; each
/// retransmission charges the policy's backoff onto the departure time
/// (the sender's logical clock view), so retried deadline-critical
/// messages arrive later and the `2 + τ` fence stays honest. Every
/// retransmitted copy starts from the sender's clean frame and passes
/// through the adversary again. In this strictly alternating lockstep
/// exchange at most one frame is ever in flight, so `Duplicate` and
/// `Reorder` degenerate to `Forward` (the [`crate::proto::Link`] a
/// concurrent driver runs over gives them real semantics).
pub(crate) fn transmit(
    adversary: &mut dyn Adversary,
    direction: Direction,
    frame: Frame,
    send_time: f64,
    nominal_delay: f64,
    retry: &RetryPolicy,
) -> Result<(Frame, f64), AgreementError> {
    // Capture the kind before interception: the error should name the
    // protocol message attacked, not whatever the adversary left behind.
    let kind = frame.kind;
    let mut depart = send_time;
    let mut attempt = 0u32;
    loop {
        let mut copy = frame.clone();
        match adversary.intercept(direction, &mut copy) {
            AdversaryAction::Forward
            | AdversaryAction::Duplicate
            | AdversaryAction::Reorder => return Ok((copy, depart + nominal_delay)),
            AdversaryAction::Delay(extra) => return Ok((copy, depart + nominal_delay + extra)),
            AdversaryAction::Drop => {
                if attempt >= retry.max_retries {
                    return Err(AgreementError::Dropped(kind));
                }
                attempt += 1;
                depart += retry.backoff(attempt);
            }
        }
    }
}

/// Unwraps the single frame a lockstep `handle` call emits.
fn only(mut frames: Vec<Frame>) -> Frame {
    debug_assert_eq!(frames.len(), 1, "lockstep handle emits exactly one frame");
    frames.pop().expect("one frame")
}
