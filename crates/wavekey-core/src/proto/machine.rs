//! One party's half of the key agreement, as a sans-IO state machine.
//!
//! Until reconciliation the protocol is symmetric (Fig. 4): each party
//! draws its sequence pairs and OT-*sends* them, OT-*receives* the
//! peer's sequences chosen by its own seed bits, and concatenates the
//! preliminary key K. One machine type, [`Agreement`], does all of that
//! for both parties; its [`Role`] decides only three things:
//!
//! * which arrival is fenced at `gesture_window + τ`: `M_{A,R}` at the
//!   mobile, `M_{B,M}` at the server;
//! * the order K is concatenated in: the mobile's sequence first, on
//!   both sides;
//! * the steps after the OT: the mobile commits to `K_M` and checks the
//!   `Response`; the server reconciles `K_R` and answers.
//!
//! ```text
//! Init ──start()──▶ OtRound(0) ──M_A──▶ OtRound(1) ──M_B──▶ OtRound(2)
//!   ──M_E──▶ Reconcile
//!   mobile: Reconcile ──(commit)──▶ Confirm ──Response──▶ Done
//!   server: Reconcile ──Challenge──▶ Done
//! ```
//!
//! What the machine holds, packed: the seed throughout; the OT sender,
//! and in it the sequence pairs, until `M_B` is answered; then the pairs
//! the spent sender hands back until K is assembled; the OT receiver
//! from `M_A` until `M_E` is decrypted; K until the key is confirmed
//! (mobile) or reconciled (server); then only the key.
//!
//! The timing model is the monolith's: the logical clock starts when the
//! gesture window closes, every piece of real compute is measured with
//! [`Instant`] and added to the clock, and message arrival times
//! (supplied by the driver) advance the clock monotonically.

use std::marker::PhantomData;
use std::time::Instant;

use super::{frame, Frame, FrameError, State};
use crate::agreement::{
    chosen, commit, confirm, random_pairs, reconcile, AgreementConfig, AgreementError,
    AgreementStages, Geometry, NONCE_LEN,
};
use crate::bits::{unpack_bits, PackedBits};
use crate::channel::MessageKind;
use rand::rngs::StdRng;
use wavekey_crypto::group::Group;
use wavekey_crypto::ot::{OtError, OtPairs, OtReceiver, OtSender};
use wavekey_obs::EventScope;

/// What tells the two parties' machines apart.
pub trait Role {
    /// The party's name in wire errors.
    const NAME: &'static str;
    /// The arrival fenced at `gesture_window + τ` (§IV-D).
    const FENCED: MessageKind;
    /// The mobile's sequence comes first in K on both sides, and after
    /// the OT the mobile commits and confirms while the server
    /// reconciles and responds.
    const MOBILE: bool;
}

/// The mobile device's role: it OT-sends the pairs `x_i`, and `M_{A,R}`
/// is its fenced arrival.
#[derive(Debug)]
pub struct Mobile;

/// The RFID server's role: it OT-sends the pairs `y_i`, and `M_{B,M}`
/// is its fenced arrival.
#[derive(Debug)]
pub struct Server;

impl Role for Mobile {
    const NAME: &'static str = "mobile";
    const FENCED: MessageKind = MessageKind::OtA;
    const MOBILE: bool = true;
}

impl Role for Server {
    const NAME: &'static str = "server";
    const FENCED: MessageKind = MessageKind::OtB;
    const MOBILE: bool = false;
}

/// The mobile party's protocol state machine, over its key-seed `S_M`.
pub type MobileAgreement = Agreement<Mobile>;

/// The server party's protocol state machine, over its key-seed `S_R`.
pub type ServerAgreement = Agreement<Server>;

/// One party's protocol state machine; see the module docs.
#[derive(Debug)]
pub struct Agreement<R: Role> {
    config: AgreementConfig,
    geometry: Geometry,
    /// ristretto255, or the tiny test group under `use_tiny_group`. Each
    /// group's comb table is built once per process.
    group: Group,
    rng: StdRng,
    state: State,
    /// Logical clock (seconds since gesture start).
    clock: f64,
    /// Total compute seconds this party spent.
    compute: f64,
    /// This party's share of the per-stage timings; the driver sums both
    /// parties' shares into the outcome's [`AgreementStages`].
    stages: AgreementStages,
    /// Arrival time of the fenced message (the deadline consumption
    /// diagnostic).
    deadline_consumed: f64,
    /// Causal event emitter (disabled by default: one pointer test per
    /// transition, no allocation).
    events: EventScope,
    /// The key-seed.
    seed: PackedBits,
    /// Over this party's sequence pairs ([`random_pairs`]), until `M_B`
    /// is answered with `M_E`.
    sender: Option<OtSender>,
    /// The pairs the spent sender hands back, until K is assembled.
    pairs: Option<OtPairs>,
    /// From `M_A` until `M_E` is decrypted.
    receiver: Option<OtReceiver>,
    /// The preliminary key K, until the key is confirmed or reconciled.
    k: PackedBits,
    /// The mobile's `Challenge` nonce, for checking the `Response`.
    nonce: [u8; NONCE_LEN],
    key: Vec<u8>,
    ma_prep: f64,
    mb_prep: f64,
    /// Replies already emitted, per consumed message kind. Only populated
    /// when the retry policy is enabled: duplicate frames are re-answered
    /// from this cache without touching the RNG or the state.
    history: Vec<(MessageKind, Vec<Frame>)>,
    replays: u32,
    role: PhantomData<R>,
}

impl<R: Role> Agreement<R> {
    /// Creates a machine over this party's key-seed with the paper's
    /// deadline model: the role's fenced message must arrive by
    /// `gesture_window + τ`.
    ///
    /// # Errors
    ///
    /// [`AgreementError::BadSeeds`] for an empty seed,
    /// [`AgreementError::Config`] for a zero key length or an invalid
    /// `bch_t`.
    pub fn new(
        seed: &[bool],
        config: &AgreementConfig,
        rng: StdRng,
    ) -> Result<Agreement<R>, AgreementError> {
        Ok(Agreement {
            config: *config,
            geometry: Geometry::new(seed.len(), config)?,
            group: if config.use_tiny_group {
                Group::Tiny
            } else {
                Group::Ristretto255
            },
            rng,
            state: State::Init,
            clock: config.gesture_window,
            compute: 0.0,
            stages: AgreementStages {
                deadline_s: config.gesture_window + config.tau,
                ..AgreementStages::default()
            },
            deadline_consumed: 0.0,
            events: EventScope::disabled(),
            seed: PackedBits::from_bools(seed),
            sender: None,
            pairs: None,
            receiver: None,
            k: PackedBits::default(),
            nonce: [0u8; NONCE_LEN],
            key: Vec::new(),
            ma_prep: 0.0,
            mb_prep: 0.0,
            history: Vec::new(),
            replays: 0,
            role: PhantomData,
        })
    }

    /// Binds a causal [`EventScope`]: every state transition from here on
    /// emits a timeline event under this scope's session id. Disabled
    /// scopes (the default) keep transitions allocation-free.
    pub fn bind_events(&mut self, scope: EventScope) {
        self.events = scope;
    }

    /// Generates the sequence pairs and the batched OT first message
    /// `M_A`; transitions `Init → OtRound(0)`.
    ///
    /// # Errors
    ///
    /// [`AgreementError::Wire`] if called in any state but `Init`.
    pub fn start(&mut self) -> Result<Frame, AgreementError> {
        if self.state != State::Init {
            return Err(AgreementError::Wire(format!(
                "start() in state {:?}",
                self.state
            )));
        }
        let t = Instant::now();
        let pairs = random_pairs(&self.geometry, &mut self.rng);
        let (sender, ma) = OtSender::start(self.group, pairs, &mut self.rng);
        let d = self.spend(t);
        self.ma_prep = d;
        self.stages.ot_round_a += d;
        self.sender = Some(sender);
        self.transition(State::OtRound(0));
        Ok(Frame::new(MessageKind::OtA, ma))
    }

    /// Advances the machine with one received frame.
    ///
    /// `arrival` is the frame's logical arrival time in protocol seconds;
    /// the `2 + τ` fence is enforced against it before any processing.
    ///
    /// With retransmission enabled, a duplicate of an already-consumed
    /// message kind is answered idempotently: the cached reply frames are
    /// re-emitted without consuming RNG or advancing state (bounded; see
    /// [`super::replay_cap`]).
    ///
    /// # Errors
    ///
    /// The full [`AgreementError`] taxonomy; any error also moves the
    /// machine to [`State::Failed`].
    pub fn handle(&mut self, frame: &Frame, arrival: f64) -> Result<Vec<Frame>, AgreementError> {
        if let Some(reply) = self.replay(frame.kind) {
            return Ok(reply);
        }
        let result = self.dispatch(frame, arrival);
        match &result {
            Ok(frames) if self.config.retry.enabled() => {
                self.history.push((frame.kind, frames.clone()));
            }
            Err(_) => self.transition(State::Failed),
            _ => {}
        }
        result
    }

    /// The duplicate-idempotency path; `None` means dispatch normally.
    fn replay(&mut self, kind: MessageKind) -> Option<Vec<Frame>> {
        if !self.config.retry.enabled() || self.state == State::Failed {
            return None;
        }
        let reply = self.history.iter().find(|(k, _)| *k == kind)?.1.clone();
        if self.replays >= super::replay_cap(&self.config.retry) {
            return None;
        }
        self.replays += 1;
        Some(reply)
    }

    fn dispatch(&mut self, frame: &Frame, arrival: f64) -> Result<Vec<Frame>, AgreementError> {
        let reply = match self.admit(frame)? {
            MessageKind::OtA => self.respond_ot_a(frame, arrival)?,
            MessageKind::OtB => self.encrypt_ot_e(frame, arrival)?,
            MessageKind::OtE => {
                self.assemble_k(frame, arrival)?;
                if !R::MOBILE {
                    return Ok(vec![]);
                }
                self.emit_challenge()
            }
            MessageKind::Challenge => self.answer_challenge(frame, arrival)?,
            MessageKind::Response => {
                self.check_response(frame, arrival)?;
                return Ok(vec![]);
            }
        };
        Ok(vec![reply])
    }

    /// The checks every arriving frame passes before it is processed: the
    /// machine waits for a message, the frame has this wire version, and
    /// it is the kind the machine waits for, which is returned.
    fn admit(&self, frame: &Frame) -> Result<MessageKind, AgreementError> {
        let Some(expected) = self.expected_kind() else {
            return Err(AgreementError::Wire(format!(
                "{} cannot accept {:?} in state {:?}",
                R::NAME,
                frame.kind,
                self.state
            )));
        };
        if frame.version != frame::WIRE_VERSION {
            return Err(AgreementError::Wire(
                FrameError::UnknownVersion(frame.version).to_string(),
            ));
        }
        if frame.kind != expected {
            return Err(AgreementError::Wire(format!(
                "unexpected {:?} in state {:?} (expected {expected:?})",
                frame.kind, self.state
            )));
        }
        Ok(expected)
    }

    /// Move to `state`, emitting a causal state-transition event when an
    /// [`EventScope`] is bound. Every state assignment goes through here
    /// so timelines never miss a transition.
    fn transition(&mut self, state: State) {
        self.state = state;
        self.events.emit_state(state.label());
    }

    /// Registers a message arrival: the role's fenced kind records the
    /// deadline consumption and must arrive by `gesture_window + τ`; then
    /// the clock advances.
    fn arrive(&mut self, kind: MessageKind, arrival: f64) -> Result<(), AgreementError> {
        if kind == R::FENCED {
            self.deadline_consumed = self.deadline_consumed.max(arrival);
            if arrival > self.stages.deadline_s {
                return Err(AgreementError::Timeout(kind));
            }
        }
        self.clock = self.clock.max(arrival);
        Ok(())
    }

    /// Books the real time elapsed since `t` as compute (advancing the
    /// logical clock) and returns it for stage attribution.
    fn spend(&mut self, t: Instant) -> f64 {
        let d = t.elapsed().as_secs_f64();
        self.clock += d;
        self.compute += d;
        d
    }

    /// The peer's `M_A` received: answer with the blinded choices `M_B`.
    fn respond_ot_a(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.arrive(MessageKind::OtA, arrival)?;
        let t = Instant::now();
        let (receiver, mb) = OtReceiver::respond(
            self.group,
            &self.seed.to_bools(),
            &frame.payload,
            &mut self.rng,
        )
        .map_err(ot_err)?;
        let d = self.spend(t);
        self.mb_prep = d;
        self.stages.ot_round_b += d;
        self.receiver = Some(receiver);
        self.transition(State::OtRound(1));
        Ok(Frame::new(MessageKind::OtB, mb))
    }

    /// The peer's `M_B` received: encrypt the ciphertext batch `M_E`. The
    /// OT sender is spent; its pairs stay for K.
    fn encrypt_ot_e(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.arrive(MessageKind::OtB, arrival)?;
        let sender = self.sender.take().expect("sender set in start()");
        let t = Instant::now();
        let me = sender.encrypt(self.group, &frame.payload).map_err(ot_err)?;
        self.stages.ot_round_e += self.spend(t);
        self.pairs = Some(sender.into_secrets());
        self.transition(State::OtRound(2));
        Ok(Frame::new(MessageKind::OtE, me))
    }

    /// The lockstep driver's delivery of the peer's `M_E`: what
    /// [`Agreement::handle`] does with it, the same checks first and the
    /// same move to [`State::Failed`] on an error, but without the
    /// mobile's commit. Split from [`Agreement::emit_challenge`] so the
    /// driver can schedule the mobile's (RNG-consuming) commit *after*
    /// the server's prelim-key assembly, exactly as the monolith did.
    pub(crate) fn absorb_ot_e(
        &mut self,
        frame: &Frame,
        arrival: f64,
    ) -> Result<(), AgreementError> {
        let result = self
            .admit(frame)
            .and_then(|_| self.assemble_k(frame, arrival));
        if result.is_err() {
            self.transition(State::Failed);
        }
        result
    }

    /// The peer's `M_E` received: decrypt the obliviously received
    /// sequences and assemble K; transitions to `Reconcile`. The OT
    /// receiver and the sequence pairs are spent.
    fn assemble_k(&mut self, frame: &Frame, arrival: f64) -> Result<(), AgreementError> {
        self.arrive(MessageKind::OtE, arrival)?;
        let receiver = self.receiver.take().expect("receiver set at M_A");
        let pairs = self.pairs.take().expect("pairs handed back at M_B");
        let t = Instant::now();
        let received = receiver
            .decrypt(self.group, &frame.payload)
            .map_err(ot_err)?;
        let g = &self.geometry;
        let len = received.len() / g.l_s;
        if len * 8 < g.l_b {
            return Err(ot_err(OtError::Malformed));
        }
        // This party's seed bit selects both of instance i's sequences:
        // its own pair's directly, the peer's through the OT.
        let seed = &self.seed;
        let k = g.concat(|i| {
            let (own, peer) = (chosen(&pairs, i, seed.get(i)), &received[i * len..][..len]);
            if R::MOBILE {
                [own, peer]
            } else {
                [peer, own]
            }
        });
        self.stages.prelim_key += self.spend(t);
        self.k = k;
        self.transition(State::Reconcile);
        Ok(())
    }

    /// The mobile commits to `K_M`: `Challenge = ECC(K_M) ‖ N`;
    /// transitions to `Confirm`.
    pub(crate) fn emit_challenge(&mut self) -> Frame {
        debug_assert!(R::MOBILE && self.state == State::Reconcile);
        let t = Instant::now();
        let (challenge, nonce) = commit(&self.geometry, &self.k, &mut self.rng);
        self.stages.ecc_reconcile += self.spend(t);
        self.nonce = nonce;
        self.transition(State::Confirm);
        Frame::new(MessageKind::Challenge, challenge)
    }

    /// The server's `Challenge` received: snap `K_R` onto `K_M`, finalize
    /// the key, and answer with the HMAC `Response`. `K_R` is spent.
    fn answer_challenge(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.arrive(MessageKind::Challenge, arrival)?;
        let t = Instant::now();
        let (key, response) = reconcile(&self.geometry, &self.k, &frame.payload, &self.config)?;
        self.stages.ecc_reconcile += self.spend(t);
        self.key = key;
        self.k = PackedBits::default();
        self.transition(State::Done);
        Ok(Frame::new(MessageKind::Response, response.to_vec()))
    }

    /// The mobile's `Response` received: finalize the key and verify the
    /// HMAC, timed even when it fails. `K_M` is spent once the key is
    /// confirmed.
    fn check_response(&mut self, frame: &Frame, arrival: f64) -> Result<(), AgreementError> {
        self.arrive(MessageKind::Response, arrival)?;
        let t = Instant::now();
        let verdict = confirm(&self.k, &self.nonce, &frame.payload, &self.config);
        self.stages.hmac_confirm += self.spend(t);
        self.key = verdict?;
        self.k = PackedBits::default();
        self.transition(State::Done);
        Ok(())
    }

    /// The current protocol state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The protocol parameters this machine runs.
    pub fn config(&self) -> &AgreementConfig {
        &self.config
    }

    /// The logical clock (seconds since gesture start).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the logical clock by `seconds` without booking compute —
    /// the drivers bill retransmission backoff here, so a retried
    /// deadline-critical message departs (and therefore arrives) later
    /// and the `2 + τ` fence is charged for every recovery attempt.
    pub fn charge(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    /// The message kind this machine is currently waiting for (`None`
    /// when it is not at rest waiting — `Init`, `Done`, `Failed`, or the
    /// mobile's transient `Reconcile`). Schedulers use this to buffer
    /// reordered frames instead of feeding a future kind to the machine
    /// early.
    pub fn expected_kind(&self) -> Option<MessageKind> {
        match self.state {
            State::OtRound(0) => Some(MessageKind::OtA),
            State::OtRound(1) => Some(MessageKind::OtB),
            State::OtRound(2) => Some(MessageKind::OtE),
            State::Reconcile if !R::MOBILE => Some(MessageKind::Challenge),
            State::Confirm => Some(MessageKind::Response),
            _ => None,
        }
    }

    /// Total compute seconds spent so far.
    pub fn compute(&self) -> f64 {
        self.compute
    }

    /// This party's share of the per-stage timings.
    pub fn stages(&self) -> &AgreementStages {
        &self.stages
    }

    /// Arrival time of the fenced message (0 until it arrives).
    pub fn deadline_consumed(&self) -> f64 {
        self.deadline_consumed
    }

    /// Preparation time of this party's `M_A` (the τ study, §VI-C-3).
    pub fn ma_prep(&self) -> f64 {
        self.ma_prep
    }

    /// Preparation time of this party's `M_B`.
    pub fn mb_prep(&self) -> f64 {
        self.mb_prep
    }

    /// The preliminary key K (empty before the OT completes and once the
    /// key is established).
    pub fn preliminary_key(&self) -> &PackedBits {
        &self.k
    }

    /// The established key bytes (empty unless [`State::Done`]).
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The established key as bits (empty unless [`State::Done`]).
    pub fn key_bits(&self) -> Vec<bool> {
        if self.key.is_empty() {
            return Vec::new();
        }
        unpack_bits(&self.key, self.config.key_len_bits)
    }

    /// The machine's RNG — the lockstep driver copies its end state back
    /// to the caller so chained runs draw the same stream the monolith
    /// would have.
    pub fn rng(&self) -> &StdRng {
        &self.rng
    }
}

/// Maps an OT-layer error into the agreement taxonomy.
fn ot_err(e: OtError) -> AgreementError {
    AgreementError::Ot(e.to_string())
}
