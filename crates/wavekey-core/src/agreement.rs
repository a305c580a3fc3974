//! The bidirectional-OT key agreement of §IV-D / Fig. 4.
//!
//! Both parties hold similar-but-not-identical key-seeds (`S_M`, `S_R`,
//! `l_s` bits each). Each generates `l_s` pairs of random `l_b`-bit
//! sequences and obliviously transfers one sequence per pair to the other
//! side, the *selection* being driven by the other side's key-seed bits.
//! Concatenating own-selected and received sequences gives preliminary
//! keys `K_M`, `K_R` whose mismatch ratio is bounded by the seeds'
//! mismatch ratio. A code-offset challenge (`ECC(K_M) ‖ N`) lets the
//! server snap `K_R` onto `K_M` exactly, and an HMAC over the nonce
//! confirms agreement.
//!
//! All three OT rounds are batched into one message per round per
//! direction (`M_A`, `M_B`, `M_E`), and the two deadline-critical
//! messages (`M_{A,R}` at the mobile, `M_{B,M}` at the server) must
//! arrive within `2 + τ` seconds of the gesture start — the time fence
//! that locks out remote-video key-recovery attacks (§VI-C-3).
//!
//! Timing is modeled logically: real computation times are measured with
//! [`std::time::Instant`](std::time::Instant) and advanced along
//! per-party clocks that start at the end of the two-second gesture
//! window; the channel adds a configurable latency which the adversary
//! may inflate.
//!
//! The message handling lives in the sans-IO state machine of
//! [`crate::proto`] ([`crate::proto::Agreement`], run as
//! [`crate::proto::MobileAgreement`] and
//! [`crate::proto::ServerAgreement`]). The agreement's geometry and its
//! steps after the OT (the mobile's commit and confirm, the server's
//! reconcile and response) are written here once: the machines call
//! them, and so does [`run_agreement_information_layer`].
//! [`run_agreement`] is the classic in-process lockstep driver over the
//! machines ([`crate::proto::driver::drive_lockstep`]), with outputs
//! bit-identical to the pre-refactor monolith.

use crate::bits::{
    deinterleave, interleave, pack_blocks, unpack_bits, unpack_blocks, PackedBits, BLOCK_BITS,
};
use crate::channel::{Adversary, MessageKind};
use rand::rngs::StdRng;
use rand::Rng;
use wavekey_obs::{stage, Obs};
use wavekey_crypto::ecc::CodeOffset;
use wavekey_crypto::hmac::{hmac_sha256, mac_eq};
use wavekey_crypto::ot::OtPairs;

/// Configuration of one key-agreement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgreementConfig {
    /// Desired key length `l_k` in bits.
    pub key_len_bits: usize,
    /// BCH errors-per-block (`η = t/127`).
    pub bch_t: usize,
    /// Deadline slack `τ` (seconds) for `M_{A,R}` and `M_{B,M}`.
    pub tau: f64,
    /// The data-acquisition window (the paper's 2 s); protocol clocks
    /// start here.
    pub gesture_window: f64,
    /// Nominal one-way channel latency (seconds); short-range WiFi /
    /// Bluetooth is ~1 ms.
    pub channel_delay: f64,
    /// Use the tiny 61-bit test group instead of ristretto255. Test-only:
    /// provides no security.
    pub use_tiny_group: bool,
    /// Post-reconciliation privacy amplification: derive the delivered
    /// key as `HKDF(salt = nonce, ikm = K)` instead of using `K`
    /// directly. The code-offset challenge publicly leaks the ECC parity
    /// structure of `K`; the KDF makes the delivered key computationally
    /// independent of that leakage. Off by default — the paper uses `K`
    /// directly.
    pub privacy_amplification: bool,
    /// Per-message retransmission policy. The default
    /// ([`RetryPolicy::none`]) keeps the pre-recovery semantics: a single
    /// lost or mangled frame is a terminal failure.
    pub retry: RetryPolicy,
}

impl Default for AgreementConfig {
    fn default() -> Self {
        AgreementConfig {
            key_len_bits: 256,
            bch_t: 5,
            tau: 0.12,
            gesture_window: 2.0,
            channel_delay: 0.001,
            use_tiny_group: false,
            privacy_amplification: false,
            retry: RetryPolicy::none(),
        }
    }
}

/// Bounded, deterministic per-message retransmission policy.
///
/// Recovery is charged against the paper's `2 + τ` deadline budget: every
/// retransmission advances the sender's *logical* clock by
/// [`RetryPolicy::backoff`] seconds before the copy departs, so a retried
/// deadline-critical message arrives later and can still trip
/// [`AgreementError::Timeout`] — retries never widen the timing fence.
/// The backoff schedule is a pure function of the attempt number (no RNG),
/// keeping recovered runs fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retransmissions per message; `0` disables recovery.
    pub max_retries: u32,
    /// Logical-clock backoff before the first retransmission (seconds).
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff on every further retransmission.
    pub backoff_factor: f64,
}

impl RetryPolicy {
    /// No retransmission: any channel fault is terminal (the default).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, backoff_base_s: 0.0, backoff_factor: 1.0 }
    }

    /// The reference ARQ preset: 3 retransmissions with 2 ms exponential
    /// backoff (2, 4, 8 ms) — well inside the default `τ = 120 ms` slack,
    /// so a fully retried `M_A`/`M_B` still meets the fence.
    pub fn arq() -> RetryPolicy {
        RetryPolicy { max_retries: 3, backoff_base_s: 0.002, backoff_factor: 2.0 }
    }

    /// Whether any retransmission is allowed.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// Backoff charged before retransmission number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        self.backoff_base_s * self.backoff_factor.powi(attempt as i32 - 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Per-stage compute timings of one agreement run, in seconds.
///
/// The values come from the *same* [`Instant`] measurements that drive the
/// run's logical clocks — observability adds no extra clock reads to the
/// protocol path. Each stage sums both parties' compute:
///
/// * `ot_round_a/b/e` — both sides preparing `M_A`, `M_B`, `M_E`.
/// * `prelim_key` — decrypting the obliviously received sequences and
///   assembling `K_M` / `K_R`.
/// * `ecc_reconcile` — the mobile's code-offset commit plus the server's
///   reconciliation (which includes computing its HMAC response).
/// * `hmac_confirm` — the mobile's key finalization and MAC verification.
///
/// The information-layer fast path records no timings (all zeros).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgreementStages {
    /// Both parties preparing the batched first OT message `M_A`.
    pub ot_round_a: f64,
    /// Both parties preparing the blinded-choice response `M_B`.
    pub ot_round_b: f64,
    /// Both parties encrypting the ciphertext batch `M_E`.
    pub ot_round_e: f64,
    /// Preliminary key assembly (`K_M`, `K_R`) from the OT outputs.
    pub prelim_key: f64,
    /// Code-offset commit (mobile) + reconciliation & response (server).
    pub ecc_reconcile: f64,
    /// Mobile-side key finalization and HMAC verification.
    pub hmac_confirm: f64,
    /// The `2 + τ` arrival deadline the run enforced, in seconds.
    pub deadline_s: f64,
    /// Arrival time of the slowest deadline-checked message
    /// (`max(M_{A,R}, M_{B,M})`) — how much of the budget was consumed.
    pub deadline_consumed_s: f64,
}

impl AgreementStages {
    /// The timed stages as `(canonical stage name, seconds)` pairs, in
    /// protocol order (deadline fields are not stages).
    pub fn timings(&self) -> [(&'static str, f64); 6] {
        [
            (stage::OT_ROUND_A, self.ot_round_a),
            (stage::OT_ROUND_B, self.ot_round_b),
            (stage::OT_ROUND_E, self.ot_round_e),
            (stage::PRELIM_KEY, self.prelim_key),
            (stage::ECC_RECONCILE, self.ecc_reconcile),
            (stage::HMAC_CONFIRM, self.hmac_confirm),
        ]
    }

    /// Records every stage as a pre-measured span on `obs` (no-op on a
    /// disabled handle). The deadline consumption is not a stage: it
    /// reaches the metrics once per session, from the session's trace
    /// ([`Obs::session`]).
    pub fn record_to(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (name, seconds) in self.timings() {
            obs.record_duration(name, seconds);
        }
    }
}

/// Successful agreement result plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementOutcome {
    /// The established key (packed bits, `key_len_bits` long).
    pub key: Vec<u8>,
    /// The key as bits.
    pub key_bits: Vec<bool>,
    /// Seconds the mobile device spent computing.
    pub mobile_compute: f64,
    /// Seconds the server spent computing.
    pub server_compute: f64,
    /// Logical end-to-end latency including the 2 s gesture.
    pub elapsed: f64,
    /// Diagnostic: bits by which `K_M` and `K_R` disagreed before
    /// reconciliation.
    pub preliminary_mismatch_bits: usize,
    /// Preparation time of the mobile's `M_A` (the τ study, §VI-C-3).
    pub ma_prep: f64,
    /// Preparation time of the mobile's `M_B`.
    pub mb_prep: f64,
    /// Per-stage compute timings (see [`AgreementStages`]).
    pub stages: AgreementStages,
}

/// Key-agreement failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum AgreementError {
    /// Seed lengths differ or are empty.
    BadSeeds,
    /// A deadline-critical message arrived after `2 + τ`.
    Timeout(MessageKind),
    /// The adversary dropped a message.
    Dropped(MessageKind),
    /// An OT message failed to parse or batch sizes disagreed.
    Ot(String),
    /// The server could not reconcile its preliminary key (seed mismatch
    /// beyond the ECC radius, or a corrupted challenge).
    ReconciliationFailed,
    /// The final HMAC did not verify.
    ConfirmationFailed,
    /// Invalid configuration.
    Config(String),
    /// A wire frame was malformed, mis-versioned, or arrived in a state
    /// that does not expect its kind.
    Wire(String),
    /// The peer went away: the gateway closed the connection, or it
    /// fell silent past the idle budget.
    Evicted,
}

impl AgreementError {
    /// The short failure label of session traces, flight records and
    /// the `wavekey_failures_total{label=...}` counters (e.g.
    /// `"timeout_ota"`, `"reconciliation_failed"`).
    pub fn label(&self) -> String {
        match self {
            AgreementError::BadSeeds => "bad_seeds".to_string(),
            AgreementError::Timeout(k) => format!("timeout_{k:?}").to_lowercase(),
            AgreementError::Dropped(k) => format!("dropped_{k:?}").to_lowercase(),
            AgreementError::Ot(_) => "ot_error".to_string(),
            AgreementError::ReconciliationFailed => "reconciliation_failed".to_string(),
            AgreementError::ConfirmationFailed => "confirmation_failed".to_string(),
            AgreementError::Config(_) => "bad_config".to_string(),
            AgreementError::Wire(_) => "wire_error".to_string(),
            AgreementError::Evicted => "evicted".to_string(),
        }
    }
}

impl std::fmt::Display for AgreementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgreementError::BadSeeds => write!(f, "key seeds missing or mismatched lengths"),
            AgreementError::Timeout(k) => write!(f, "deadline exceeded for {k:?}"),
            AgreementError::Dropped(k) => write!(f, "message {k:?} dropped"),
            AgreementError::Ot(e) => write!(f, "ot failure: {e}"),
            AgreementError::ReconciliationFailed => write!(f, "key reconciliation failed"),
            AgreementError::ConfirmationFailed => write!(f, "key confirmation failed"),
            AgreementError::Config(msg) => write!(f, "bad agreement config: {msg}"),
            AgreementError::Wire(msg) => write!(f, "wire error: {msg}"),
            AgreementError::Evicted => write!(f, "session evicted"),
        }
    }
}

impl std::error::Error for AgreementError {}

/// Nonce length in the challenge (bytes).
pub(crate) const NONCE_LEN: usize = 16;

/// Runs the full key agreement between two seeds.
///
/// `adversary` intercepts every transmission (see [`crate::channel`]).
/// The run is a lockstep drive of the [`crate::proto`] state machines;
/// the established keys, RNG consumption, and failure taxonomy are
/// bit-identical to the pre-refactor monolithic implementation.
///
/// # Errors
///
/// See [`AgreementError`] for the failure taxonomy; benign runs with
/// seed mismatch within the ECC radius always succeed.
pub fn run_agreement(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
    adversary: &mut dyn Adversary,
) -> Result<AgreementOutcome, AgreementError> {
    let (outcome, _) = crate::proto::driver::drive_lockstep(
        s_m,
        s_r,
        config,
        rng_mobile,
        rng_server,
        adversary,
        &wavekey_obs::EventScope::disabled(),
    );
    outcome
}

/// Runs only the *information layer* of the agreement — sequence-pair
/// generation, seed-driven selection, code-offset reconciliation, and
/// HMAC confirmation — skipping the OT group arithmetic.
///
/// On a benign channel the OT layer transports the selected sequences
/// with perfect fidelity (its correctness is covered by the
/// `wavekey-crypto` tests), so success/failure and the key distribution
/// are byte-for-byte governed by this layer alone. The large-scale
/// success-rate experiments (Tables I/II, the device study) use this
/// path; latency experiments use the full [`run_agreement`]. It runs the
/// machines' own geometry, commit, reconcile and confirm steps.
///
/// # Errors
///
/// Same failure taxonomy as [`run_agreement`] minus the channel errors.
pub fn run_agreement_information_layer(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
) -> Result<AgreementOutcome, AgreementError> {
    let g = Geometry::of_seeds(s_m, s_r, config)?;
    let x_pairs = random_pairs(&g, rng_mobile);
    let y_pairs = random_pairs(&g, rng_server);
    // Each party selects both sequences of instance i with its own seed
    // bit: its own pair's directly, the peer's through the OT.
    let k_m = g.concat(|i| [chosen(&x_pairs, i, s_m[i]), chosen(&y_pairs, i, s_m[i])]);
    let k_r = g.concat(|i| [chosen(&x_pairs, i, s_r[i]), chosen(&y_pairs, i, s_r[i])]);
    let (challenge, nonce) = commit(&g, &k_m, rng_mobile);
    let (_, response) = reconcile(&g, &k_r, &challenge, config)?;
    let key = confirm(&k_m, &nonce, &response, config)?;
    Ok(AgreementOutcome {
        key_bits: unpack_bits(&key, config.key_len_bits),
        key,
        mobile_compute: 0.0,
        server_compute: 0.0,
        elapsed: config.gesture_window,
        preliminary_mismatch_bits: k_m.hamming_distance(&k_r),
        ma_prep: 0.0,
        mb_prep: 0.0,
        stages: AgreementStages::default(),
    })
}

/// The agreement's shape for `l_s`-bit seeds under one config (§IV-D-2),
/// built by each machine and driver before its first draw: each OT
/// sequence is `l_b = ⌈l_k / 2·l_s⌉` bits, the preliminary key K is
/// `2·l_s·l_b` bits interleaved over `⌈|K| / 127⌉` BCH blocks, and the
/// `Challenge` is the packed helper of those blocks followed by the
/// nonce.
#[derive(Debug)]
pub(crate) struct Geometry {
    /// Key-seed length `l_s`: OT instances per direction.
    pub(crate) l_s: usize,
    /// Bits per OT sequence.
    pub(crate) l_b: usize,
    /// Preliminary key length `|K|`.
    pub(crate) k_len: usize,
    /// BCH(127) blocks K is interleaved over.
    pub(crate) blocks: usize,
    /// `Challenge` bytes: the packed `blocks·127`-bit helper, then the nonce.
    pub(crate) challenge_len: usize,
    /// The process-wide code-offset construction for `bch_t`.
    pub(crate) code: &'static CodeOffset,
}

impl Geometry {
    /// Checks the seed length, the key length and `bch_t`, in that order,
    /// and sizes the agreement.
    ///
    /// # Errors
    ///
    /// [`AgreementError::BadSeeds`] for empty seeds,
    /// [`AgreementError::Config`] for a zero key length or a `bch_t`
    /// outside the BCH(127) family.
    pub(crate) fn new(l_s: usize, config: &AgreementConfig) -> Result<Geometry, AgreementError> {
        if l_s == 0 {
            return Err(AgreementError::BadSeeds);
        }
        if config.key_len_bits == 0 {
            return Err(AgreementError::Config("zero key length".into()));
        }
        let code =
            CodeOffset::shared(config.bch_t).map_err(|e| AgreementError::Config(e.to_string()))?;
        let l_b = config.key_len_bits.div_ceil(2 * l_s);
        let k_len = 2 * l_s * l_b;
        let blocks = k_len.div_ceil(BLOCK_BITS);
        let challenge_len = (blocks * BLOCK_BITS).div_ceil(8) + NONCE_LEN;
        Ok(Geometry { l_s, l_b, k_len, blocks, challenge_len, code })
    }

    /// [`Geometry::new`] for a seed pair, which must match in length.
    ///
    /// # Errors
    ///
    /// [`AgreementError::BadSeeds`] for seeds of different lengths, then
    /// as [`Geometry::new`].
    pub(crate) fn of_seeds(
        s_m: &[bool],
        s_r: &[bool],
        config: &AgreementConfig,
    ) -> Result<Geometry, AgreementError> {
        if s_m.len() != s_r.len() {
            return Err(AgreementError::BadSeeds);
        }
        Geometry::new(s_m.len(), config)
    }

    /// Concatenates K = x₁ ‖ y₁ ‖ x₂ ‖ y₂ ‖ …, where `seqs(i)` gives
    /// instance `i`'s mobile and server sequences, `l_b` bits each,
    /// MSB-first.
    pub(crate) fn concat<'a>(&self, seqs: impl Fn(usize) -> [&'a [u8]; 2]) -> PackedBits {
        let mut k = PackedBits::with_capacity(self.k_len);
        for i in 0..self.l_s {
            for seq in seqs(i) {
                k.extend_from_msb_bytes(seq, self.l_b);
            }
        }
        k
    }
}

/// The mobile's commit, `Challenge = ECC(K_M) ‖ N`: the code-offset
/// helper over `K_M`'s interleaved blocks, packed MSB-first, then a fresh
/// nonce, drawn from the mobile's RNG in that order. Returns the
/// `Challenge` and the nonce.
pub(crate) fn commit(
    g: &Geometry,
    k_m: &PackedBits,
    rng: &mut StdRng,
) -> (Vec<u8>, [u8; NONCE_LEN]) {
    let helper = g.code.commit(&interleave(k_m, g.blocks), rng);
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill(&mut nonce);
    let mut challenge = Vec::with_capacity(g.challenge_len);
    pack_blocks(&helper, &mut challenge);
    challenge.extend_from_slice(&nonce);
    (challenge, nonce)
}

/// The server's reconcile-and-respond: snaps `K_R` onto `K_M` with the
/// `Challenge`'s helper, finalizes the key with its nonce, and returns
/// the key and the `Response`, `HMAC(key, N)`.
///
/// # Errors
///
/// [`AgreementError::ReconciliationFailed`] for a `Challenge` of the
/// wrong length, or a `K_R` beyond the code's radius.
pub(crate) fn reconcile(
    g: &Geometry,
    k_r: &PackedBits,
    challenge: &[u8],
    config: &AgreementConfig,
) -> Result<(Vec<u8>, [u8; 32]), AgreementError> {
    if challenge.len() != g.challenge_len {
        return Err(AgreementError::ReconciliationFailed);
    }
    let (helper, nonce) = challenge.split_at(g.challenge_len - NONCE_LEN);
    let recovered = g
        .code
        .reconcile(&interleave(k_r, g.blocks), &unpack_blocks(helper, g.blocks))
        .ok_or(AgreementError::ReconciliationFailed)?;
    let key = finalize_key(&deinterleave(&recovered, g.k_len), config, nonce);
    let response = hmac_sha256(&key, nonce);
    Ok((key, response))
}

/// The mobile's confirm: finalizes `K_M` with its nonce and checks the
/// server's `Response` against the key. Returns the key.
///
/// # Errors
///
/// [`AgreementError::ConfirmationFailed`] when the MAC does not verify.
pub(crate) fn confirm(
    k_m: &PackedBits,
    nonce: &[u8],
    response: &[u8],
    config: &AgreementConfig,
) -> Result<Vec<u8>, AgreementError> {
    let key = finalize_key(k_m, config, nonce);
    if mac_eq(&hmac_sha256(&key, nonce), response) {
        Ok(key)
    } else {
        Err(AgreementError::ConfirmationFailed)
    }
}

/// Produces the delivered key bytes from the reconciled preliminary key:
/// a plain truncation to `l_k` bits (the paper's construction) or, with
/// privacy amplification enabled, `HKDF(salt = nonce, ikm = K)` over the
/// *entire* preliminary key.
pub(crate) fn finalize_key(k: &PackedBits, config: &AgreementConfig, nonce: &[u8]) -> Vec<u8> {
    if config.privacy_amplification {
        wavekey_crypto::kdf::hkdf(
            nonce,
            &k.to_msb_bytes(k.len()),
            b"wavekey-privacy-amplification-v1",
            config.key_len_bits.div_ceil(8),
        )
    } else {
        k.to_msb_bytes(config.key_len_bits.min(k.len()))
    }
}

/// `l_s` pairs of fresh random `l_b`-bit sequences as one OT secret
/// batch, each sequence MSB-first and zero-padded in `⌈l_b/8⌉` bytes
/// (the bytes [`crate::bits::pack_bits`] makes). The bits are drawn one
/// `rng.gen::<bool>()` each, pair by pair, sequence 0 first.
pub(crate) fn random_pairs(g: &Geometry, rng: &mut StdRng) -> OtPairs {
    let len = g.l_b.div_ceil(8);
    let mut pairs = OtPairs::with_capacity(len, g.l_s);
    let mut x = vec![0u8; 2 * len];
    for _ in 0..g.l_s {
        x.fill(0);
        for seq in x.chunks_exact_mut(len) {
            for j in 0..g.l_b {
                seq[j / 8] |= u8::from(rng.gen::<bool>()) << (7 - j % 8);
            }
        }
        let (x0, x1) = x.split_at(len);
        pairs.push(x0, x1);
    }
    pairs
}

/// Sequence `choice` of pair `i`: what the seed bit `choice` selects.
pub(crate) fn chosen(pairs: &OtPairs, i: usize, choice: bool) -> &[u8] {
    let (x0, x1) = pairs.pair(i);
    if choice {
        x1
    } else {
        x0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BitFlipMitm, Delayer, Dropper, Eavesdropper, PassiveChannel};
    use rand::SeedableRng;

    fn test_config() -> AgreementConfig {
        AgreementConfig {
            use_tiny_group: true,
            // Generous deadline: debug-build compute times are irrelevant
            // to protocol correctness.
            tau: 10.0,
            // Pin the paper's nominal η = 5/127 so the mismatch thresholds
            // asserted below stay meaningful if the deployed default moves.
            bch_t: 5,
            ..Default::default()
        }
    }

    fn random_seed(len: usize, rng: &mut StdRng) -> Vec<bool> {
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

    fn run(
        s_m: &[bool],
        s_r: &[bool],
        config: &AgreementConfig,
        adversary: &mut dyn Adversary,
    ) -> Result<AgreementOutcome, AgreementError> {
        let mut rm = StdRng::seed_from_u64(1);
        let mut rs = StdRng::seed_from_u64(2);
        run_agreement(s_m, s_r, config, &mut rm, &mut rs, adversary)
    }

    #[test]
    fn identical_seeds_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = random_seed(48, &mut rng);
        let out = run(&s, &s, &test_config(), &mut PassiveChannel).unwrap();
        assert_eq!(out.key_bits.len(), 256);
        assert_eq!(out.key.len(), 32);
        assert_eq!(out.preliminary_mismatch_bits, 0);
    }

    #[test]
    fn seeds_with_small_mismatch_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let s_m = random_seed(48, &mut rng);
        let s_r = flip_bits(&s_m, 2); // within η·l_s ≈ 1.9… borderline ok
        let out = run(&s_m, &s_r, &test_config(), &mut PassiveChannel).unwrap();
        assert!(out.preliminary_mismatch_bits > 0);
        assert_eq!(out.key_bits.len(), 256);
    }

    #[test]
    fn seeds_with_large_mismatch_fail() {
        let mut rng = StdRng::seed_from_u64(5);
        let s_m = random_seed(48, &mut rng);
        let s_r = flip_bits(&s_m, 24);
        let err = run(&s_m, &s_r, &test_config(), &mut PassiveChannel).unwrap_err();
        assert!(
            matches!(err, AgreementError::ReconciliationFailed | AgreementError::ConfirmationFailed),
            "{err:?}"
        );
    }

    #[test]
    fn both_sides_derive_same_key() {
        // The HMAC verification *is* the equality proof: a passing run
        // means the server reconciled to the mobile's key. Also check the
        // diagnostic is consistent.
        let mut rng = StdRng::seed_from_u64(6);
        let s_m = random_seed(48, &mut rng);
        let s_r = flip_bits(&s_m, 1);
        let out = run(&s_m, &s_r, &test_config(), &mut PassiveChannel).unwrap();
        // One seed-bit mismatch corrupts at most 2·l_b = 6 key bits.
        assert!(out.preliminary_mismatch_bits <= 6);
    }

    #[test]
    fn key_lengths_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = random_seed(48, &mut rng);
        for lk in [128usize, 168, 192, 256, 2048] {
            let config = AgreementConfig { key_len_bits: lk, ..test_config() };
            let out = run(&s, &s, &config, &mut PassiveChannel).unwrap();
            assert_eq!(out.key_bits.len(), lk, "l_k = {lk}");
        }
    }

    #[test]
    fn eavesdropper_sees_everything_but_run_succeeds() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = random_seed(48, &mut rng);
        let mut eve = Eavesdropper::default();
        let out = run(&s, &s, &test_config(), &mut eve).unwrap();
        assert_eq!(out.key_bits.len(), 256);
        // 8 transmissions: 2×(M_A, M_B, M_E) + Challenge + Response.
        assert_eq!(eve.transcript.len(), 8);
        // The transcript must not contain the key bytes verbatim.
        for (_, _, payload) in &eve.transcript {
            assert!(
                !payload.windows(out.key.len()).any(|w| w == out.key.as_slice()),
                "key leaked verbatim on the wire"
            );
        }
    }

    #[test]
    fn mitm_on_ot_b_breaks_agreement() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = random_seed(48, &mut rng);
        // Corrupt every tiny-group element (8 bytes each) of M_B.
        let mut mitm = BitFlipMitm::pervasive(MessageKind::OtB, 8);
        let err = run(&s, &s, &test_config(), &mut mitm).unwrap_err();
        assert!(
            matches!(err, AgreementError::ReconciliationFailed | AgreementError::ConfirmationFailed),
            "{err:?}"
        );
        assert!(mitm.corrupted > 0);
    }

    #[test]
    fn single_instance_mitm_is_absorbed_without_gain() {
        // Flipping one element corrupts one OT instance; the ECC repairs
        // the damage and the key is still the mobile's K_M — the attacker
        // changed nothing and learned nothing.
        let mut rng = StdRng::seed_from_u64(90);
        let s = random_seed(48, &mut rng);
        let mut mitm = BitFlipMitm::new(MessageKind::OtB, 0);
        let out = run(&s, &s, &test_config(), &mut mitm).unwrap();
        assert!(out.preliminary_mismatch_bits > 0, "corruption should perturb K_R");
        assert_eq!(out.key_bits.len(), 256);
    }

    #[test]
    fn mitm_on_challenge_fails_confirmation() {
        let mut rng = StdRng::seed_from_u64(10);
        let s = random_seed(48, &mut rng);
        let mut mitm = BitFlipMitm::new(MessageKind::Challenge, 0);
        let err = run(&s, &s, &test_config(), &mut mitm).unwrap_err();
        assert!(
            matches!(err, AgreementError::ReconciliationFailed | AgreementError::ConfirmationFailed),
            "{err:?}"
        );
    }

    #[test]
    fn delayed_ota_times_out() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = random_seed(48, &mut rng);
        let config = AgreementConfig { tau: 0.5, ..test_config() };
        let mut delayer = Delayer { target: Some(MessageKind::OtA), extra: 1.0 };
        let err = run(&s, &s, &config, &mut delayer).unwrap_err();
        assert_eq!(err, AgreementError::Timeout(MessageKind::OtA));
    }

    #[test]
    fn dropped_message_fails() {
        let mut rng = StdRng::seed_from_u64(12);
        let s = random_seed(48, &mut rng);
        let mut dropper = Dropper { target: MessageKind::OtE };
        let err = run(&s, &s, &test_config(), &mut dropper).unwrap_err();
        assert_eq!(err, AgreementError::Dropped(MessageKind::OtE));
    }

    #[test]
    fn rejects_bad_seeds() {
        let err = run(&[], &[], &test_config(), &mut PassiveChannel).unwrap_err();
        assert_eq!(err, AgreementError::BadSeeds);
        let err = run(&[true; 10], &[true; 9], &test_config(), &mut PassiveChannel).unwrap_err();
        assert_eq!(err, AgreementError::BadSeeds);
    }

    #[test]
    fn invalid_bch_t_fails_at_construction_before_any_draw() {
        use crate::proto::{MobileAgreement, ServerAgreement};
        let s = [true; 48];
        for bch_t in [0, 16] {
            let config = AgreementConfig { bch_t, ..test_config() };
            let rng = StdRng::seed_from_u64(1);
            let mobile = MobileAgreement::new(&s, &config, rng.clone());
            assert!(matches!(mobile, Err(AgreementError::Config(_))), "t = {bch_t}");
            let server = ServerAgreement::new(&s, &config, rng);
            assert!(matches!(server, Err(AgreementError::Config(_))), "t = {bch_t}");
            // Both drivers fail before the first draw: the callers' RNGs
            // are untouched.
            let (mut rm, mut rs) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
            let err = run_agreement(&s, &s, &config, &mut rm, &mut rs, &mut PassiveChannel);
            assert!(matches!(err, Err(AgreementError::Config(_))), "t = {bch_t}");
            let err = run_agreement_information_layer(&s, &s, &config, &mut rm, &mut rs);
            assert!(matches!(err, Err(AgreementError::Config(_))), "t = {bch_t}");
            assert_eq!(rm.gen::<u64>(), StdRng::seed_from_u64(1).gen::<u64>());
            assert_eq!(rs.gen::<u64>(), StdRng::seed_from_u64(2).gen::<u64>());
        }
    }

    #[test]
    fn information_layer_matches_full_protocol_verdicts() {
        // For a spread of seed mismatches, the fast path and the full
        // OT protocol must agree on success/failure.
        let mut rng = StdRng::seed_from_u64(40);
        for flips in [0usize, 1, 2, 4, 8, 16, 32] {
            let s_m = random_seed(48, &mut rng);
            let s_r = flip_bits(&s_m, flips);
            let full = run(&s_m, &s_r, &test_config(), &mut PassiveChannel).is_ok();
            // Repeat the fast path a few times: success depends on random
            // pair draws near the boundary, so compare majorities.
            let mut fast_successes = 0;
            let mut full_successes = 0;
            for t in 0..5 {
                let mut rm = StdRng::seed_from_u64(500 + t);
                let mut rs = StdRng::seed_from_u64(600 + t);
                if run_agreement_information_layer(&s_m, &s_r, &test_config(), &mut rm, &mut rs)
                    .is_ok()
                {
                    fast_successes += 1;
                }
                let mut rm = StdRng::seed_from_u64(500 + t);
                let mut rs = StdRng::seed_from_u64(600 + t);
                if run_agreement(
                    &s_m,
                    &s_r,
                    &test_config(),
                    &mut rm,
                    &mut rs,
                    &mut PassiveChannel,
                )
                .is_ok()
                {
                    full_successes += 1;
                }
            }
            // Extremes must agree exactly.
            if flips == 0 {
                assert_eq!(fast_successes, 5);
                assert!(full);
            }
            if flips >= 16 {
                assert_eq!(fast_successes, 0);
                assert!(!full);
            }
            // And overall the two paths behave alike.
            assert!(
                (fast_successes as i32 - full_successes as i32).abs() <= 1,
                "flips {flips}: fast {fast_successes} vs full {full_successes}"
            );
        }
    }

    #[test]
    fn information_layer_key_is_well_formed() {
        let mut rng = StdRng::seed_from_u64(41);
        let s = random_seed(48, &mut rng);
        let mut rm = StdRng::seed_from_u64(1);
        let mut rs = StdRng::seed_from_u64(2);
        let out =
            run_agreement_information_layer(&s, &s, &test_config(), &mut rm, &mut rs).unwrap();
        assert_eq!(out.key_bits.len(), 256);
        assert_eq!(out.preliminary_mismatch_bits, 0);
    }

    #[test]
    fn privacy_amplification_agrees_and_changes_key() {
        let mut rng = StdRng::seed_from_u64(60);
        let s = random_seed(48, &mut rng);
        let plain_cfg = test_config();
        let pa_cfg = AgreementConfig { privacy_amplification: true, ..test_config() };
        let out_plain = run(&s, &s, &plain_cfg, &mut PassiveChannel).unwrap();
        let out_pa = run(&s, &s, &pa_cfg, &mut PassiveChannel).unwrap();
        assert_eq!(out_pa.key.len(), 32);
        assert_eq!(out_pa.key_bits.len(), 256);
        // Same RNG seeds -> same preliminary key; the KDF must change the
        // delivered bytes.
        assert_ne!(out_plain.key, out_pa.key);
    }

    #[test]
    fn privacy_amplification_fails_cleanly_on_bad_seeds() {
        let mut rng = StdRng::seed_from_u64(61);
        let s_m = random_seed(48, &mut rng);
        let s_r = flip_bits(&s_m, 24);
        let cfg = AgreementConfig { privacy_amplification: true, ..test_config() };
        assert!(run(&s_m, &s_r, &cfg, &mut PassiveChannel).is_err());
    }

    #[test]
    fn failure_labels_are_pinned_per_variant() {
        let cases = [
            (AgreementError::BadSeeds, "bad_seeds"),
            (AgreementError::Timeout(MessageKind::OtA), "timeout_ota"),
            (AgreementError::Dropped(MessageKind::OtE), "dropped_ote"),
            (AgreementError::Ot("x".into()), "ot_error"),
            (AgreementError::ReconciliationFailed, "reconciliation_failed"),
            (AgreementError::ConfirmationFailed, "confirmation_failed"),
            (AgreementError::Config("x".into()), "bad_config"),
            (AgreementError::Wire("x".into()), "wire_error"),
            (AgreementError::Evicted, "evicted"),
        ];
        for (err, label) in cases {
            assert_eq!(err.label(), label, "{err:?}");
        }
    }

    #[test]
    fn elapsed_includes_gesture_window() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = random_seed(48, &mut rng);
        let out = run(&s, &s, &test_config(), &mut PassiveChannel).unwrap();
        assert!(out.elapsed >= 2.0);
        assert!(out.ma_prep >= 0.0 && out.mb_prep >= 0.0);
    }

    #[test]
    fn stage_timings_are_consistent_with_compute_totals() {
        let mut rng = StdRng::seed_from_u64(14);
        let s = random_seed(48, &mut rng);
        let out = run(&s, &s, &test_config(), &mut PassiveChannel).unwrap();
        let stage_sum: f64 = out.stages.timings().iter().map(|(_, s)| s).sum();
        let compute = out.mobile_compute + out.server_compute;
        assert!(
            (stage_sum - compute).abs() < 1e-9,
            "stages {stage_sum} != compute {compute}"
        );
        assert_eq!(out.stages.deadline_s, 12.0); // gesture_window 2 + τ 10
        assert!(out.stages.deadline_consumed_s > 0.0);
        assert!(out.stages.deadline_consumed_s <= out.stages.deadline_s);
    }
}
