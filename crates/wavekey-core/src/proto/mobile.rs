//! The mobile device's half of the key agreement, as a sans-IO state
//! machine.
//!
//! Protocol role (Fig. 4): the mobile OT-*sends* its sequence pairs
//! `x_i` and OT-*receives* the server's `y_i` (selected by its own seed
//! `S_M`), assembles the preliminary key `K_M`, commits to it with the
//! code-offset challenge, and verifies the server's HMAC response.
//!
//! ```text
//! Init ──start()──▶ OtRound(0) ──M_A──▶ OtRound(1) ──M_B──▶ OtRound(2)
//!   ──M_E──▶ Reconcile ──(commit)──▶ Confirm ──Response──▶ Done/Failed
//! ```
//!
//! What the machine holds, packed: the seed throughout; the OT sender,
//! and in it the sequence pairs, until `M_B` is answered; then the pairs
//! the spent sender hands back until `K_M` is assembled; the OT receiver
//! from `M_A` until `M_E` is decrypted; `K_M` until the key is
//! confirmed; then only the key.

use super::{assemble_key, ot_err, DeadlineBudgets, Frame, PartyCore, State};
use crate::agreement::{
    chosen, finalize_key, random_pairs, AgreementConfig, AgreementError, AgreementStages,
    ECC_BLOCK, NONCE_LEN,
};
use crate::bits::{interleave, pack_bits, unpack_bits, PackedBits};
use crate::channel::MessageKind;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;
use wavekey_crypto::ecc::CodeOffset;
use wavekey_crypto::hmac::{hmac_sha256, mac_eq};
use wavekey_crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey_obs::EventScope;

/// The mobile party's protocol state machine.
#[derive(Debug)]
pub struct MobileAgreement {
    core: PartyCore,
    /// The key-seed `S_M`.
    seed: PackedBits,
    l_b: usize,
    /// Over the sequence pairs `x_i` ([`random_pairs`]), until `M_B` is
    /// answered with `M_E`.
    sender: Option<OtSender>,
    /// The pairs the spent sender hands back, until `K_M` is assembled.
    x_pairs: Option<OtPairs>,
    /// From `M_A` until `M_E` is decrypted.
    receiver: Option<OtReceiver>,
    /// `K_M`, until the key is confirmed.
    k_m: PackedBits,
    nonce: [u8; NONCE_LEN],
    key: Vec<u8>,
    ma_prep: f64,
    mb_prep: f64,
    /// Replies already emitted, per consumed message kind. Only populated
    /// when the retry policy is enabled: duplicate frames are re-answered
    /// from this cache without touching the RNG or the state.
    history: Vec<(MessageKind, Vec<Frame>)>,
    replays: u32,
}

impl MobileAgreement {
    /// Creates a machine over the mobile's key-seed `S_M` with the
    /// paper's deadline model (`M_{A,R}` budgeted at `2 + τ`).
    ///
    /// # Errors
    ///
    /// [`AgreementError::BadSeeds`] for an empty seed,
    /// [`AgreementError::Config`] for an invalid configuration.
    pub fn new(
        seed: &[bool],
        config: &AgreementConfig,
        rng: StdRng,
    ) -> Result<MobileAgreement, AgreementError> {
        MobileAgreement::with_budgets(seed, config, rng, DeadlineBudgets::mobile_paper(config))
    }

    /// [`MobileAgreement::new`] with caller-chosen deadline budgets.
    ///
    /// # Errors
    ///
    /// See [`MobileAgreement::new`].
    pub fn with_budgets(
        seed: &[bool],
        config: &AgreementConfig,
        rng: StdRng,
        budgets: DeadlineBudgets,
    ) -> Result<MobileAgreement, AgreementError> {
        if seed.is_empty() {
            return Err(AgreementError::BadSeeds);
        }
        let core = PartyCore::new(config, budgets, rng)?;
        let l_b = config.key_len_bits.div_ceil(2 * seed.len());
        Ok(MobileAgreement {
            core,
            seed: PackedBits::from_bools(seed),
            l_b,
            sender: None,
            x_pairs: None,
            receiver: None,
            k_m: PackedBits::default(),
            nonce: [0u8; NONCE_LEN],
            key: Vec::new(),
            ma_prep: 0.0,
            mb_prep: 0.0,
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
    /// `M_{A,M}`; transitions `Init → OtRound(0)`.
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
        let x_pairs = random_pairs(self.seed.len(), self.l_b, &mut self.core.rng);
        let (sender, ma) = OtSender::start(self.core.group, x_pairs, &mut self.core.rng);
        let d = self.core.spend(t);
        self.ma_prep = d;
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
                Ok(vec![self.emit_challenge()?])
            }
            State::Confirm => {
                self.core.expect(frame, MessageKind::Response)?;
                self.confirm(frame, arrival)?;
                Ok(vec![])
            }
            state => Err(AgreementError::Wire(format!(
                "mobile cannot accept {:?} in state {state:?}",
                frame.kind
            ))),
        }
    }

    /// `M_{A,R}` received: answer with the blinded choices `M_{B,M}`.
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
        self.mb_prep = d;
        self.core.stages.ot_round_b += d;
        self.receiver = Some(receiver);
        self.core.transition(State::OtRound(1));
        Ok(Frame::new(MessageKind::OtB, mb))
    }

    /// `M_{B,R}` received: encrypt the ciphertext batch `M_{E,M}`. The
    /// OT sender is spent; its pairs stay for `K_M`.
    fn encrypt_ot_e(&mut self, frame: &Frame, arrival: f64) -> Result<Frame, AgreementError> {
        self.core.arrive(MessageKind::OtB, arrival)?;
        let sender = self.sender.take().expect("sender set in start()");
        let t = Instant::now();
        let me = sender.encrypt(self.core.group, &frame.payload)
            .map_err(ot_err)?;
        let d = self.core.spend(t);
        self.core.stages.ot_round_e += d;
        self.x_pairs = Some(sender.into_secrets());
        self.core.transition(State::OtRound(2));
        Ok(Frame::new(MessageKind::OtE, me))
    }

    /// `M_{E,R}` received: decrypt the obliviously received sequences and
    /// assemble the preliminary key `K_M`; transitions to `Reconcile`.
    /// The OT receiver and the sequence pairs are spent.
    ///
    /// Split from [`MobileAgreement::emit_challenge`] so the lockstep
    /// driver can schedule the (RNG-consuming) commit *after* the
    /// server's prelim-key assembly, exactly as the monolith did.
    pub(crate) fn absorb_ot_e(
        &mut self,
        frame: &Frame,
        arrival: f64,
    ) -> Result<(), AgreementError> {
        self.core.arrive(MessageKind::OtE, arrival)?;
        let receiver = self.receiver.take().expect("receiver set in respond_ot_a");
        let pairs = self.x_pairs.take().expect("pairs handed back at M_B");
        let t = Instant::now();
        let y_received = receiver.decrypt(self.core.group, &frame.payload)
            .map_err(ot_err)?;
        // K_M = x₁^{sm₁} ‖ y₁^{sm₁} ‖ … (own pair selected by own seed,
        // plus the sequence obliviously received — also seed-selected).
        let (seed, l_b) = (&self.seed, self.l_b);
        let k_m = assemble_key(&y_received, seed.len(), l_b, |k, i, y| {
            k.extend_from_msb_bytes(chosen(&pairs, i, seed.get(i)), l_b);
            k.extend_from_msb_bytes(y, l_b);
        })?;
        let d = self.core.spend(t);
        self.core.stages.prelim_key += d;
        self.k_m = k_m;
        self.core.transition(State::Reconcile);
        Ok(())
    }

    /// Commits to `K_M`: builds `Challenge = ECC(K_M) ‖ N` and
    /// transitions to `Confirm`.
    pub(crate) fn emit_challenge(&mut self) -> Result<Frame, AgreementError> {
        debug_assert_eq!(self.core.state, State::Reconcile);
        let k_len = 2 * self.seed.len() * self.l_b;
        let blocks = k_len.div_ceil(ECC_BLOCK);
        let co = CodeOffset::shared(self.core.config.bch_t)
            .map_err(|e| AgreementError::Config(e.to_string()))?;
        let t = Instant::now();
        let k_m_inter = interleave(&self.k_m.to_bools(), blocks, ECC_BLOCK);
        let helper = co.commit(&k_m_inter, &mut self.core.rng);
        let nonce: [u8; NONCE_LEN] = {
            let mut n = [0u8; NONCE_LEN];
            self.core.rng.fill(&mut n);
            n
        };
        let mut challenge = pack_bits(&helper);
        challenge.extend_from_slice(&nonce);
        let d = self.core.spend(t);
        self.core.stages.ecc_reconcile += d;
        self.nonce = nonce;
        self.core.transition(State::Confirm);
        Ok(Frame::new(MessageKind::Challenge, challenge))
    }

    /// `Response` received: finalize the key and verify the HMAC. `K_M`
    /// is spent once the key is confirmed.
    fn confirm(&mut self, frame: &Frame, arrival: f64) -> Result<(), AgreementError> {
        self.core.arrive(MessageKind::Response, arrival)?;
        let t = Instant::now();
        let key = finalize_key(&self.k_m.to_bools(), &self.core.config, &self.nonce);
        let expected = hmac_sha256(&key, &self.nonce);
        let ok = mac_eq(&expected, &frame.payload);
        let d = self.core.spend(t);
        self.core.stages.hmac_confirm += d;
        if !ok {
            return Err(AgreementError::ConfirmationFailed);
        }
        self.key = key;
        self.k_m = PackedBits::default();
        self.core.transition(State::Done);
        Ok(())
    }

    /// The current protocol state.
    pub fn state(&self) -> State {
        self.core.state
    }

    /// The protocol parameters this machine runs.
    pub fn config(&self) -> &AgreementConfig {
        &self.core.config
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
    /// when it is not at rest waiting — `Init`, `Done`, `Failed`, or the
    /// transient `Reconcile`). Schedulers use this to buffer reordered
    /// frames instead of feeding a future kind to the machine early.
    pub fn expected_kind(&self) -> Option<MessageKind> {
        match self.core.state {
            State::OtRound(0) => Some(MessageKind::OtA),
            State::OtRound(1) => Some(MessageKind::OtB),
            State::OtRound(2) => Some(MessageKind::OtE),
            State::Confirm => Some(MessageKind::Response),
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

    /// Preparation time of `M_{A,M}` (the τ study, §VI-C-3).
    pub fn ma_prep(&self) -> f64 {
        self.ma_prep
    }

    /// Preparation time of `M_{B,M}`.
    pub fn mb_prep(&self) -> f64 {
        self.mb_prep
    }

    /// The preliminary key `K_M` (empty before the OT completes and
    /// once the key is confirmed).
    pub fn preliminary_key(&self) -> &PackedBits {
        &self.k_m
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
        unpack_bits(&self.key, self.core.config.key_len_bits)
    }

    /// The machine's RNG — the lockstep driver copies its end state back
    /// to the caller so chained runs draw the same stream the monolith
    /// would have.
    pub fn rng(&self) -> &StdRng {
        &self.core.rng
    }
}
