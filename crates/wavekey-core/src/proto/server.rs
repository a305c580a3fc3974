//! The RFID server's half of the key agreement, as a sans-IO state
//! machine.
//!
//! Protocol role (Fig. 4): the server OT-*sends* its sequence pairs
//! `y_i` and OT-*receives* the mobile's `x_i` (selected by its own seed
//! `S_R`), assembles the preliminary key `K_R`, snaps it onto `K_M` via
//! the code-offset challenge, and answers with the HMAC response.
//!
//! ```text
//! Init ──start()──▶ OtRound(0) ──M_A──▶ OtRound(1) ──M_B──▶ OtRound(2)
//!   ──M_E──▶ Reconcile ──Challenge──▶ Done
//! ```
//!
//! What the machine holds, packed: the seed throughout; the OT sender,
//! and in it the sequence pairs, until `M_B` is answered; then the pairs
//! the spent sender hands back until `K_R` is assembled; the OT receiver
//! from `M_A` until `M_E` is decrypted; `K_R` until the challenge is
//! reconciled; then only the key.

use super::{assemble_key, ot_err, DeadlineBudgets, Frame, PartyCore, State};
use crate::agreement::{
    chosen, finalize_key, random_pairs, AgreementConfig, AgreementError, AgreementStages,
    ECC_BLOCK, NONCE_LEN,
};
use crate::bits::{deinterleave, interleave, unpack_bits, PackedBits};
use crate::channel::MessageKind;
use rand::rngs::StdRng;
use std::time::Instant;
use wavekey_crypto::ecc::CodeOffset;
use wavekey_crypto::hmac::hmac_sha256;
use wavekey_crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey_obs::EventScope;

/// The server party's protocol state machine.
#[derive(Debug)]
pub struct ServerAgreement {
    core: PartyCore,
    /// The key-seed `S_R`.
    seed: PackedBits,
    l_b: usize,
    /// Over the sequence pairs `y_i` ([`random_pairs`]), until `M_B` is
    /// answered with `M_E`.
    sender: Option<OtSender>,
    /// The pairs the spent sender hands back, until `K_R` is assembled.
    y_pairs: Option<OtPairs>,
    /// From `M_A` until `M_E` is decrypted.
    receiver: Option<OtReceiver>,
    /// `K_R`, until the challenge is reconciled.
    k_r: PackedBits,
    key: Vec<u8>,
    /// Replies already emitted, per consumed message kind. Only populated
    /// when the retry policy is enabled: duplicate frames are re-answered
    /// from this cache without touching the RNG or the state.
    history: Vec<(MessageKind, Vec<Frame>)>,
    replays: u32,
}

impl ServerAgreement {
    /// Creates a machine over the server's key-seed `S_R` with the
    /// paper's deadline model (`M_{B,M}` budgeted at `2 + τ`).
    ///
    /// # Errors
    ///
    /// [`AgreementError::BadSeeds`] for an empty seed,
    /// [`AgreementError::Config`] for an invalid configuration.
    pub fn new(
        seed: &[bool],
        config: &AgreementConfig,
        rng: StdRng,
    ) -> Result<ServerAgreement, AgreementError> {
        ServerAgreement::with_budgets(seed, config, rng, DeadlineBudgets::server_paper(config))
    }

    /// [`ServerAgreement::new`] with caller-chosen deadline budgets.
    ///
    /// # Errors
    ///
    /// See [`ServerAgreement::new`].
    pub fn with_budgets(
        seed: &[bool],
        config: &AgreementConfig,
        rng: StdRng,
        budgets: DeadlineBudgets,
    ) -> Result<ServerAgreement, AgreementError> {
        if seed.is_empty() {
            return Err(AgreementError::BadSeeds);
        }
        let core = PartyCore::new(config, budgets, rng)?;
        let l_b = config.key_len_bits.div_ceil(2 * seed.len());
        Ok(ServerAgreement {
            core,
            seed: PackedBits::from_bools(seed),
            l_b,
            sender: None,
            y_pairs: None,
            receiver: None,
            k_r: PackedBits::default(),
            key: Vec::new(),
            history: Vec::new(),
            replays: 0,
        })
    }

    /// Binds a causal [`EventScope`]: every state transition from here on
    /// emits a timeline event under this scope's session id. Disabled
    /// scopes (the default) keep transitions allocation-free.
    pub fn bind_events(&mut self, scope: EventScope) {
        self.core.events = scope;
    }

    /// Generates the sequence pairs and the batched OT first message
    /// `M_{A,R}`; transitions `Init → OtRound(0)`.
    ///
    /// # Errors
    ///
    /// [`AgreementError::Wire`] if called in any state but `Init`.
    pub fn start(&mut self) -> Result<Frame, AgreementError> {
        if self.core.state != State::Init {
            return Err(AgreementError::Wire(format!(
                "start() in state {:?}",
                self.core.state
            )));
        }
        let t = Instant::now();
        let y_pairs = random_pairs(self.seed.len(), self.l_b, &mut self.core.rng);
        let (sender, ma) = OtSender::start(self.core.group, y_pairs, &mut self.core.rng);
        let d = self.core.spend(t);
        self.core.stages.ot_round_a += d;
        self.sender = Some(sender);
        self.core.transition(State::OtRound(0));
        Ok(Frame::new(MessageKind::OtA, ma))
    }

    /// Advances the machine with one received frame.
    ///
    /// `arrival` is the frame's logical arrival time in protocol seconds;
    /// deadline budgets are enforced against it before any processing.
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
    pub fn handle(
        &mut self,
        frame: &Frame,
        arrival: f64,
    ) -> Result<Vec<Frame>, AgreementError> {
        if let Some(reply) = self.replay(frame.kind) {
            return Ok(reply);
        }
        let result = self.dispatch(frame, arrival);
        match &result {
            Ok(frames) if self.core.config.retry.enabled() => {
                self.history.push((frame.kind, frames.clone()));
            }
            Err(_) => self.core.transition(State::Failed),
            _ => {}
        }
        result
    }

    /// The duplicate-idempotency path; `None` means dispatch normally.
    fn replay(&mut self, kind: MessageKind) -> Option<Vec<Frame>> {
        if !self.core.config.retry.enabled() || self.core.state == State::Failed {
            return None;
        }
        let reply = self.history.iter().find(|(k, _)| *k == kind)?.1.clone();
        if self.replays >= super::replay_cap(&self.core.config.retry) {
            return None;
        }
        self.replays += 1;
        Some(reply)
    }

    fn dispatch(
        &mut self,
        frame: &Frame,
        arrival: f64,
    ) -> Result<Vec<Frame>, AgreementError> {
        match self.core.state {
            State::OtRound(0) => {
                self.core.expect(frame, MessageKind::OtA)?;
                Ok(vec![self.respond_ot_a(frame, arrival)?])
            }
            State::OtRound(1) => {
                self.core.expect(frame, MessageKind::OtB)?;
                Ok(vec![self.encrypt_ot_e(frame, arrival)?])
            }
            State::OtRound(2) => {
                self.core.expect(frame, MessageKind::OtE)?;
                self.absorb_ot_e(frame, arrival)?;
                Ok(vec![])
            }
            State::Reconcile => {
                self.core.expect(frame, MessageKind::Challenge)?;
                Ok(vec![self.reconcile(frame, arrival)?])
            }
            state => Err(AgreementError::Wire(format!(
                "server cannot accept {:?} in state {state:?}",
                frame.kind
            ))),
        }
    }

    /// `M_{A,M}` received: answer with the blinded choices `M_{B,R}`.
    fn respond_ot_a(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.core.arrive(MessageKind::OtA, arrival)?;
        let t = Instant::now();
        let (receiver, mb) = OtReceiver::respond(
            self.core.group,
            &self.seed.to_bools(),
            &frame.payload,
            &mut self.core.rng,
        )
        .map_err(ot_err)?;
        let d = self.core.spend(t);
        self.core.stages.ot_round_b += d;
        self.receiver = Some(receiver);
        self.core.transition(State::OtRound(1));
        Ok(Frame::new(MessageKind::OtB, mb))
    }

    /// `M_{B,M}` received (the server's `2 + τ` fence): encrypt the
    /// ciphertext batch `M_{E,R}`. The OT sender is spent; its pairs stay
    /// for `K_R`.
    fn encrypt_ot_e(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.core.arrive(MessageKind::OtB, arrival)?;
        let sender = self.sender.take().expect("sender set in start()");
        let t = Instant::now();
        let me = sender.encrypt(self.core.group, &frame.payload)
            .map_err(ot_err)?;
        let d = self.core.spend(t);
        self.core.stages.ot_round_e += d;
        self.y_pairs = Some(sender.into_secrets());
        self.core.transition(State::OtRound(2));
        Ok(Frame::new(MessageKind::OtE, me))
    }

    /// `M_{E,M}` received: decrypt the obliviously received sequences and
    /// assemble the preliminary key `K_R`; transitions to `Reconcile`.
    /// The OT receiver and the sequence pairs are spent.
    fn absorb_ot_e(&mut self, frame: &Frame, arrival: f64) -> Result<(), AgreementError> {
        self.core.arrive(MessageKind::OtE, arrival)?;
        let receiver = self.receiver.take().expect("receiver set in respond_ot_a");
        let pairs = self.y_pairs.take().expect("pairs handed back at M_B");
        let t = Instant::now();
        let x_received = receiver.decrypt(self.core.group, &frame.payload)
            .map_err(ot_err)?;
        // K_R = x₁^{sr₁} ‖ y₁^{sr₁} ‖ … (the sequence obliviously
        // received, plus the own pair — both selected by own seed).
        let (seed, l_b) = (&self.seed, self.l_b);
        let k_r = assemble_key(&x_received, seed.len(), l_b, |k, i, x| {
            k.extend_from_msb_bytes(x, l_b);
            k.extend_from_msb_bytes(chosen(&pairs, i, seed.get(i)), l_b);
        })?;
        let d = self.core.spend(t);
        self.core.stages.prelim_key += d;
        self.k_r = k_r;
        self.core.transition(State::Reconcile);
        Ok(())
    }

    /// `Challenge` received: snap `K_R` onto `K_M` with the code-offset
    /// helper, finalize the key, and answer with the HMAC `Response`.
    fn reconcile(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.core.arrive(MessageKind::Challenge, arrival)?;
        let k_len = 2 * self.seed.len() * self.l_b;
        let blocks = k_len.div_ceil(ECC_BLOCK);
        let helper_bytes_len = (blocks * ECC_BLOCK).div_ceil(8);
        if frame.payload.len() != helper_bytes_len + NONCE_LEN {
            return Err(AgreementError::ReconciliationFailed);
        }
        let co = CodeOffset::shared(self.core.config.bch_t)
            .map_err(|e| AgreementError::Config(e.to_string()))?;
        let t = Instant::now();
        let helper_rx = unpack_bits(&frame.payload[..helper_bytes_len], blocks * ECC_BLOCK);
        let nonce_rx = &frame.payload[helper_bytes_len..];
        let k_r_inter = interleave(&self.k_r.to_bools(), blocks, ECC_BLOCK);
        let Some(recovered_inter) = co.reconcile(&k_r_inter, &helper_rx, blocks * ECC_BLOCK)
        else {
            return Err(AgreementError::ReconciliationFailed);
        };
        let k_server = deinterleave(&recovered_inter, blocks, ECC_BLOCK, k_len);
        let key = finalize_key(&k_server, &self.core.config, nonce_rx);
        let response = hmac_sha256(&key, nonce_rx).to_vec();
        let d = self.core.spend(t);
        self.core.stages.ecc_reconcile += d;
        self.key = key;
        self.k_r = PackedBits::default();
        self.core.transition(State::Done);
        Ok(Frame::new(MessageKind::Response, response))
    }

    /// The current protocol state.
    pub fn state(&self) -> State {
        self.core.state
    }

    /// The logical clock (seconds since gesture start).
    pub fn clock(&self) -> f64 {
        self.core.clock
    }

    /// Advances the logical clock by `seconds` without booking compute.
    /// Drivers bill retransmission backoff here so retried messages
    /// depart later and deadline budgets stay honest.
    pub fn charge(&mut self, seconds: f64) {
        self.core.charge(seconds);
    }

    /// The message kind this machine is currently waiting for (`None`
    /// when it is not at rest waiting — `Init`, `Done`, or `Failed`).
    /// Schedulers use this to buffer reordered frames instead of feeding
    /// a future kind to the machine early.
    pub fn expected_kind(&self) -> Option<MessageKind> {
        match self.core.state {
            State::OtRound(0) => Some(MessageKind::OtA),
            State::OtRound(1) => Some(MessageKind::OtB),
            State::OtRound(2) => Some(MessageKind::OtE),
            State::Reconcile => Some(MessageKind::Challenge),
            _ => None,
        }
    }

    /// Duplicate frames answered from the reply cache so far.
    pub fn replays(&self) -> u32 {
        self.replays
    }

    /// Total compute seconds spent so far.
    pub fn compute(&self) -> f64 {
        self.core.compute
    }

    /// This party's share of the per-stage timings.
    pub fn stages(&self) -> &AgreementStages {
        &self.core.stages
    }

    /// Latest arrival time of any budgeted message.
    pub fn deadline_consumed(&self) -> f64 {
        self.core.deadline_consumed
    }

    /// The preliminary key `K_R` (empty before the OT completes and
    /// once the challenge is reconciled).
    pub fn preliminary_key(&self) -> &PackedBits {
        &self.k_r
    }

    /// The reconciled key bytes (empty unless [`State::Done`]).
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The machine's RNG — the lockstep driver copies its end state back
    /// to the caller so chained runs draw the same stream the monolith
    /// would have.
    pub fn rng(&self) -> &StdRng {
        &self.core.rng
    }
}
