//! End-to-end key establishment: gesture → both sensing pipelines →
//! key-seeds → OT key agreement.
//!
//! A [`Session`] owns the trained models and all environment
//! configuration; every call to [`Session::establish_key`] simulates one
//! fresh user gesture and runs the complete WaveKey workflow of Fig. 2.

use crate::agreement::{AgreementConfig, AgreementOutcome, Geometry};
use crate::bits::hamming_distance;
use crate::channel::{Adversary, PassiveChannel};
use crate::config::WaveKeyConfig;
use crate::model::WaveKeyModels;
use crate::seed::SeedGenerator;
use crate::Error;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wavekey_obs::{stage, EventScope, Obs, SessionTrace};
use wavekey_imu::gesture::{Gesture, GestureConfig, GestureGenerator, VolunteerId};
use wavekey_imu::pipeline::{process_imu, ImuPipelineConfig};
use wavekey_imu::sensors::{sample_imu, DeviceModel};
use wavekey_math::Vec3;
use wavekey_rfid::channel::TagModel;
use wavekey_rfid::environment::{Environment, UserPlacement};
use wavekey_rfid::pipeline::{process_rfid, RfidPipelineConfig};
use wavekey_rfid::reader::{record_rfid, ReaderSpec};

/// Everything a key-establishment session needs to know about the world.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Scheme hyper-parameters.
    pub wavekey: WaveKeyConfig,
    /// Gesture dynamics.
    pub gesture: GestureConfig,
    /// Who is waving.
    pub volunteer: VolunteerId,
    /// The mobile device in the hand.
    pub device: DeviceModel,
    /// The RFID tag in the same hand.
    pub tag: TagModel,
    /// Which emulated room (1–4).
    pub environment_id: u32,
    /// Where the user stands relative to the antenna.
    pub placement: UserPlacement,
    /// Number of people walking around (0 = the paper's static
    /// condition, 5 = its dynamic condition).
    pub walkers: usize,
    /// Use the tiny test group for the OT (tests only; no security).
    pub use_tiny_group: bool,
    /// Run the encoder forwards on the int8 path when the models carry
    /// seed-equivalent quantized encoders (see [`crate::quantize`]);
    /// models without a calibrated slot fall back to f32 per encoder.
    pub quantized_inference: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        // §VI-B defaults: Galaxy Watch, Alien 9640 tag, 5 m at 0°,
        // static laboratory room.
        SessionConfig {
            wavekey: WaveKeyConfig::default(),
            gesture: GestureConfig::default(),
            volunteer: VolunteerId(0),
            device: DeviceModel::GalaxyWatch,
            tag: TagModel::Alien9640A,
            environment_id: 1,
            placement: UserPlacement::default(),
            walkers: 0,
            use_tiny_group: false,
            quantized_inference: false,
        }
    }
}

/// The result of one successful key establishment.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The established key (packed bits).
    pub key: Vec<u8>,
    /// Bits by which the two key-seeds disagreed.
    pub seed_mismatch_bits: usize,
    /// Key-seed length `l_s`.
    pub seed_len: usize,
    /// The mobile device's key-seed `S_M`.
    pub s_m: Vec<bool>,
    /// The RFID server's key-seed `S_R`.
    pub s_r: Vec<bool>,
    /// Protocol-level diagnostics.
    pub agreement: AgreementOutcome,
}

/// A key-establishment session bound to trained models and a physical
/// configuration.
#[derive(Debug, Clone)]
pub struct Session {
    config: SessionConfig,
    models: WaveKeyModels,
    seed_gen: SeedGenerator,
    rng: StdRng,
    obs: Obs,
    sessions_started: u64,
    /// The seed pair of the most recent derivation, kept so recovery
    /// flows (BCH escalation in [`crate::AccessService::enroll`]) can
    /// re-run the agreement on the *same* gesture's seeds.
    last_seeds: Option<(Vec<bool>, Vec<bool>)>,
}

impl Session {
    /// Creates a session.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (e.g. `N_b < 2`); call
    /// [`WaveKeyConfig::validate`] first to check programmatically.
    pub fn new(config: SessionConfig, models: WaveKeyModels, seed: u64) -> Session {
        config.wavekey.validate().expect("invalid WaveKey config");
        let seed_gen = SeedGenerator::new(config.wavekey.n_b).expect("valid N_b");
        Session {
            config,
            models,
            seed_gen,
            rng: StdRng::seed_from_u64(seed),
            obs: Obs::disabled(),
            sessions_started: 0,
            last_seeds: None,
        }
    }

    /// Attaches an observability handle: every subsequent establishment
    /// call records per-stage spans, metrics, and a [`SessionTrace`]
    /// through it. The default handle is disabled (zero overhead); attach
    /// `Obs::new(Arc::new(NullCollector))` and you get the same disabled
    /// path back.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. to move the user between
    /// gestures), behind an RAII guard: releasing the guard re-validates
    /// the configuration and rebuilds the quantizer if `N_b` changed.
    /// Without the guard, a mid-experiment `N_b` mutation would leave
    /// this session quantizing with stale bins while a freshly built peer
    /// uses the new ones — the seeds would silently desynchronize.
    ///
    /// # Panics
    ///
    /// Dropping the guard panics if the mutated configuration is invalid
    /// (the same contract as [`Session::new`]).
    pub fn config_mut(&mut self) -> ConfigGuard<'_> {
        ConfigGuard { prior_n_b: self.config.wavekey.n_b, session: self }
    }

    /// Simulates one fresh gesture and establishes a key over a benign
    /// channel.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when either pipeline or the agreement fails —
    /// the per-instance failures counted by the Table I/II success rates.
    pub fn establish_key(&mut self) -> Result<SessionOutcome, Error> {
        self.establish_key_with_adversary(&mut PassiveChannel)
    }

    /// Simulates one fresh gesture with an adversary on the channel.
    ///
    /// # Errors
    ///
    /// See [`Session::establish_key`].
    pub fn establish_key_with_adversary(
        &mut self,
        adversary: &mut dyn Adversary,
    ) -> Result<SessionOutcome, Error> {
        self.establish(Some(adversary))
    }

    /// One traced fresh-gesture establishment: the full OT protocol
    /// against `adversary`, or with `None` the information layer.
    fn establish(
        &mut self,
        adversary: Option<&mut dyn Adversary>,
    ) -> Result<SessionOutcome, Error> {
        let mut trace = self.begin_trace();
        let t = Instant::now();
        let gesture = self.new_gesture();
        let d = t.elapsed().as_secs_f64();
        trace.record_stage(stage::GESTURE_SYNTH, d);
        self.obs.record_duration(stage::GESTURE_SYNTH, d);
        let result = self.establish_traced(&gesture, adversary, &mut trace);
        self.finish_trace(trace, &result);
        result
    }

    /// The yaw (radians) that turns the gesture generator's body-forward
    /// axis toward the antenna — users face the reader they interact
    /// with.
    pub fn facing_yaw(&self) -> f64 {
        let env = Environment::room(self.config.environment_id);
        let hand = self.config.placement.hand_position(&env);
        let dir = env.antenna - hand;
        dir.y.atan2(dir.x)
    }

    /// Generates one fresh gesture for this session's volunteer, already
    /// rotated to face the antenna. Attack evaluations use this so the
    /// victim's observable trajectory matches what the pipelines see.
    pub fn new_gesture(&mut self) -> Gesture {
        let gesture_seed = self.rng.gen();
        let mut generator = GestureGenerator::new(self.config.volunteer, gesture_seed);
        generator.generate(&self.config.gesture).rotated_yaw(self.facing_yaw())
    }

    /// Runs the workflow on a caller-supplied gesture (used by the attack
    /// evaluations, which need victim and attacker to share one gesture).
    ///
    /// # Errors
    ///
    /// See [`Session::establish_key`].
    pub fn establish_key_from_gesture(
        &mut self,
        gesture: &Gesture,
        adversary: &mut dyn Adversary,
    ) -> Result<SessionOutcome, Error> {
        let mut trace = self.begin_trace();
        let result = self.establish_traced(gesture, Some(adversary), &mut trace);
        self.finish_trace(trace, &result);
        result
    }

    /// One seed-derivation + agreement attempt, recording per-stage
    /// timings into `trace` as it goes: the full OT protocol against
    /// `adversary`, or with `None` the information layer.
    fn establish_traced(
        &mut self,
        gesture: &Gesture,
        adversary: Option<&mut dyn Adversary>,
        trace: &mut SessionTrace,
    ) -> Result<SessionOutcome, Error> {
        let (s_m, s_r) = self.derive_seeds_traced(gesture, trace)?;
        trace.seed_len = s_m.len();
        trace.seed_mismatch_bits = Some(hamming_distance(&s_m, &s_r));
        match adversary {
            Some(adversary) => self.agree_traced(&s_m, &s_r, adversary, trace),
            None => self.agree_fast_traced(&s_m, &s_r, trace),
        }
    }

    /// Allocates the next session id and opens its trace.
    fn begin_trace(&mut self) -> SessionTrace {
        self.sessions_started += 1;
        SessionTrace::new(self.sessions_started)
    }

    /// Stamps the outcome on `trace` and hands it to the collector (no-op
    /// on a disabled handle).
    fn finish_trace(&self, mut trace: SessionTrace, result: &Result<SessionOutcome, Error>) {
        if !self.obs.is_enabled() {
            return;
        }
        trace.outcome = match result {
            Ok(_) => "success".to_string(),
            Err(e) => outcome_label(e),
        };
        self.obs.session(&trace);
    }

    /// Derives the two key-seeds from one simulated gesture without
    /// running the agreement (used by the hyper-parameter studies).
    ///
    /// # Errors
    ///
    /// Returns pipeline errors.
    pub fn derive_seeds(&mut self) -> Result<(Vec<bool>, Vec<bool>), Error> {
        let gesture = self.new_gesture();
        self.derive_seeds_from_gesture(&gesture)
    }

    /// Seed derivation for a given gesture.
    ///
    /// # Errors
    ///
    /// Returns pipeline errors.
    pub fn derive_seeds_from_gesture(
        &mut self,
        gesture: &Gesture,
    ) -> Result<(Vec<bool>, Vec<bool>), Error> {
        let mut scratch = SessionTrace::default();
        self.derive_seeds_traced(gesture, &mut scratch)
    }

    /// Seed derivation with stage timings recorded into `trace`.
    fn derive_seeds_traced(
        &mut self,
        gesture: &Gesture,
        trace: &mut SessionTrace,
    ) -> Result<(Vec<bool>, Vec<bool>), Error> {
        let (f_m, f_r) = self.derive_latents_traced(gesture, trace)?;
        let t = Instant::now();
        let seeds = (
            self.seed_gen.seed_from_latent(&f_m),
            self.seed_gen.seed_from_latent(&f_r),
        );
        let d = t.elapsed().as_secs_f64();
        trace.record_stage(stage::QUANTIZATION, d);
        self.obs.record_duration(stage::QUANTIZATION, d);
        self.last_seeds = Some(seeds.clone());
        Ok(seeds)
    }

    /// The seed pair of the most recent derivation, if any (recovery
    /// flows re-run the agreement on these without a new gesture).
    pub fn last_seeds(&self) -> Option<&(Vec<bool>, Vec<bool>)> {
        self.last_seeds.as_ref()
    }

    /// Runs both sensing pipelines and the encoders, returning the raw
    /// latent vectors `(f_M, f_R)` before quantization — the
    /// hyper-parameter studies (Fig. 7) re-quantize one set of latents at
    /// many `N_b` values.
    ///
    /// # Errors
    ///
    /// Returns pipeline errors.
    pub fn derive_latents_from_gesture(
        &mut self,
        gesture: &Gesture,
    ) -> Result<(Vec<f32>, Vec<f32>), Error> {
        let mut scratch = SessionTrace::default();
        self.derive_latents_traced(gesture, &mut scratch)
    }

    /// Both pipelines + encoder forwards with stage timings recorded into
    /// `trace`.
    fn derive_latents_traced(
        &mut self,
        gesture: &Gesture,
        trace: &mut SessionTrace,
    ) -> Result<(Vec<f32>, Vec<f32>), Error> {
        let noise_seed: u64 = self.rng.gen();

        // Mobile side.
        let t = Instant::now();
        let imu_rec = sample_imu(gesture, &self.config.device.spec(), noise_seed);
        let a = process_imu(&imu_rec, &ImuPipelineConfig::default())?;
        let d = t.elapsed().as_secs_f64();
        trace.record_stage(stage::IMU_PIPELINE, d);
        self.obs.record_duration(stage::IMU_PIPELINE, d);

        // Server side.
        let t = Instant::now();
        let env = Environment::room(self.config.environment_id);
        let channel = env.channel(self.config.tag, self.config.walkers, noise_seed);
        let hand = self.config.placement.hand_position(&env);
        let rfid_rec = record_rfid(
            gesture,
            hand,
            Vec3::new(0.03, 0.0, 0.0),
            &channel,
            &ReaderSpec::default(),
            noise_seed,
        );
        let r = process_rfid(&rfid_rec, &RfidPipelineConfig::default())?;
        let d = t.elapsed().as_secs_f64();
        trace.record_stage(stage::RFID_PIPELINE, d);
        self.obs.record_duration(stage::RFID_PIPELINE, d);

        let t = Instant::now();
        let quantized = self.config.quantized_inference;
        let f_m = self
            .models
            .imu_forward(&crate::model::imu_to_tensor(&a), quantized)
            .into_vec();
        let f_r = self
            .models
            .rf_forward(&crate::model::rfid_to_tensor(&r), quantized)
            .into_vec();
        let d = t.elapsed().as_secs_f64();
        trace.record_stage(stage::ENCODER_FORWARD, d);
        self.obs.record_duration(stage::ENCODER_FORWARD, d);
        Ok((f_m, f_r))
    }

    /// The mobile-side encoder latent for an externally supplied
    /// acceleration matrix (used by the device-spoofing attacks, which
    /// run the public IMU-En on attacker-recovered data).
    pub fn latent_from_accel(&mut self, a: &wavekey_imu::pipeline::AccelMatrix) -> Vec<f32> {
        let quantized = self.config.quantized_inference;
        self.models
            .imu_forward(&crate::model::imu_to_tensor(a), quantized)
            .into_vec()
    }

    /// The seed generator this session quantizes with.
    pub fn seed_generator(&self) -> &SeedGenerator {
        &self.seed_gen
    }

    /// Fast-path key establishment for the large-scale success-rate
    /// experiments: one fresh gesture, both pipelines, and the agreement
    /// *information layer* (identical key logic and verdicts; the OT
    /// group arithmetic, which cannot change a benign run's outcome, is
    /// skipped — see
    /// [`run_agreement_information_layer`](crate::agreement::run_agreement_information_layer)).
    ///
    /// # Errors
    ///
    /// Same failure taxonomy as [`Session::establish_key`].
    pub fn establish_key_fast(&mut self) -> Result<SessionOutcome, Error> {
        self.establish(None)
    }

    /// The [`AgreementConfig`] this session runs the protocol with.
    fn agreement_config(&self) -> AgreementConfig {
        let wk = &self.config.wavekey;
        AgreementConfig {
            key_len_bits: wk.key_len_bits,
            bch_t: wk.bch_t,
            tau: wk.tau,
            gesture_window: wk.gesture_window,
            channel_delay: 0.001,
            use_tiny_group: self.config.use_tiny_group,
            privacy_amplification: false,
            retry: crate::agreement::RetryPolicy::none(),
        }
    }

    /// Fast-path (information-layer) agreement on externally supplied
    /// seeds — the recovery counterpart of [`Session::establish_key_fast`]:
    /// re-runs the key logic on an already-derived seed pair, so BCH
    /// escalation can retry the *same* gesture with more correction
    /// capacity instead of demanding a new wave.
    ///
    /// # Errors
    ///
    /// Same failure taxonomy as [`Session::establish_key_fast`].
    pub fn agree_fast(&mut self, s_m: &[bool], s_r: &[bool]) -> Result<SessionOutcome, Error> {
        self.agree_fast_traced(s_m, s_r, &mut SessionTrace::default())
    }

    /// The information-layer agreement step, stamping `trace`.
    fn agree_fast_traced(
        &mut self,
        s_m: &[bool],
        s_r: &[bool],
        trace: &mut SessionTrace,
    ) -> Result<SessionOutcome, Error> {
        let agreement_config = self.agreement_config();
        let mut rng_server = StdRng::seed_from_u64(self.rng.gen());
        let outcome = crate::agreement::run_agreement_information_layer(
            s_m,
            s_r,
            &agreement_config,
            &mut self.rng,
            &mut rng_server,
        )?;
        Ok(session_outcome(s_m, s_r, &agreement_config, outcome, trace))
    }

    /// Runs the key agreement on externally supplied seeds (exposed for
    /// tests and attack simulations).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Agreement`] on protocol failure.
    pub fn agree(
        &mut self,
        s_m: &[bool],
        s_r: &[bool],
        adversary: &mut dyn Adversary,
    ) -> Result<SessionOutcome, Error> {
        let mut scratch = SessionTrace::default();
        self.agree_traced(s_m, s_r, adversary, &mut scratch)
    }

    /// The agreement step, recording protocol stage timings into `trace`
    /// (and as spans on the attached handle).
    fn agree_traced(
        &mut self,
        s_m: &[bool],
        s_r: &[bool],
        adversary: &mut dyn Adversary,
        trace: &mut SessionTrace,
    ) -> Result<SessionOutcome, Error> {
        let agreement_config = self.agreement_config();
        trace.deadline_s = Some(agreement_config.gesture_window + agreement_config.tau);
        let mut rng_server = StdRng::seed_from_u64(self.rng.gen());
        let outcome = crate::proto::driver::drive_lockstep(
            s_m,
            s_r,
            &agreement_config,
            &mut self.rng,
            &mut rng_server,
            adversary,
            &EventScope::new(&self.obs, trace.session_id, "driver"),
        )?;
        for (name, seconds) in outcome.stages.timings() {
            trace.record_stage(name, seconds);
        }
        outcome.stages.record_to(&self.obs);
        trace.deadline_consumed_s = Some(outcome.stages.deadline_consumed_s);
        Ok(session_outcome(s_m, s_r, &agreement_config, outcome, trace))
    }
}

/// Wraps a successful agreement on `(s_m, s_r)`, stamping the trace's
/// key, preliminary-key and elapsed fields (both agreement paths).
fn session_outcome(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    agreement: AgreementOutcome,
    trace: &mut SessionTrace,
) -> SessionOutcome {
    trace.elapsed_s = Some(agreement.elapsed);
    trace.key_bits = agreement.key_bits.len();
    trace.preliminary_mismatch_bits = Some(agreement.preliminary_mismatch_bits);
    trace.preliminary_len_bits = Geometry::new(s_m.len(), config).ok().map(|g| g.k_len);
    SessionOutcome {
        key: agreement.key.clone(),
        seed_mismatch_bits: hamming_distance(s_m, s_r),
        seed_len: s_m.len(),
        s_m: s_m.to_vec(),
        s_r: s_r.to_vec(),
        agreement,
    }
}

/// RAII view returned by [`Session::config_mut`]: dereferences to the
/// [`SessionConfig`] and, on release, re-validates the configuration and
/// keeps the session's quantizer in sync with `N_b`.
#[derive(Debug)]
pub struct ConfigGuard<'a> {
    prior_n_b: usize,
    session: &'a mut Session,
}

impl std::ops::Deref for ConfigGuard<'_> {
    type Target = SessionConfig;

    fn deref(&self) -> &SessionConfig {
        &self.session.config
    }
}

impl std::ops::DerefMut for ConfigGuard<'_> {
    fn deref_mut(&mut self) -> &mut SessionConfig {
        &mut self.session.config
    }
}

impl Drop for ConfigGuard<'_> {
    fn drop(&mut self) {
        self.session.config.wavekey.validate().expect("invalid WaveKey config");
        if self.session.config.wavekey.n_b != self.prior_n_b {
            self.session.seed_gen =
                SeedGenerator::new(self.session.config.wavekey.n_b).expect("valid N_b");
        }
    }
}

/// Short failure label for session traces (e.g. `"timeout_ota"`,
/// `"reconciliation_failed"`), keyed off [`Error`]'s taxonomy.
fn outcome_label(err: &Error) -> String {
    match err {
        Error::Imu(_) => "imu_pipeline_error".to_string(),
        Error::Rfid(_) => "rfid_pipeline_error".to_string(),
        Error::Agreement(e) => e.label(),
        Error::Training(_) => "training_error".to_string(),
        Error::Config(_) => "config_error".to_string(),
        Error::Store(_) => "store_error".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BitFlipMitm, MessageKind};

    fn test_session() -> Session {
        let models = WaveKeyModels::new(12, 1);
        let config = SessionConfig {
            use_tiny_group: true,
            wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
            ..Default::default()
        };
        Session::new(config, models, 7)
    }

    #[test]
    fn quantized_flag_without_calibrated_slots_changes_nothing() {
        // quantized_inference=true on models without quantized slots must
        // be a bit-exact no-op: every encoder falls back to f32 and the
        // deterministic session produces the same seeds.
        let models = WaveKeyModels::new(12, 1);
        let base = SessionConfig {
            use_tiny_group: true,
            wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
            ..Default::default()
        };
        let quant_config =
            SessionConfig { quantized_inference: true, ..base.clone() };
        let mut plain = Session::new(base, models.clone(), 7);
        let mut routed = Session::new(quant_config, models, 7);
        let (s_m_a, s_r_a) = plain.derive_seeds().unwrap();
        let (s_m_b, s_r_b) = routed.derive_seeds().unwrap();
        assert_eq!(s_m_a, s_m_b);
        assert_eq!(s_r_a, s_r_b);
    }

    #[test]
    fn seeds_derive_with_untrained_models() {
        // Untrained models still produce structurally valid seeds.
        let mut session = test_session();
        let (s_m, s_r) = session.derive_seeds().unwrap();
        assert_eq!(s_m.len(), 48);
        assert_eq!(s_r.len(), 48);
    }

    #[test]
    fn agree_succeeds_on_equal_seeds() {
        let mut session = test_session();
        let seed: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        let out = session.agree(&seed, &seed, &mut PassiveChannel).unwrap();
        assert_eq!(out.seed_mismatch_bits, 0);
        assert_eq!(out.key.len(), 32);
    }

    #[test]
    fn agree_fails_under_mitm() {
        let mut session = test_session();
        let seed: Vec<bool> = (0..48).map(|i| i % 2 == 0).collect();
        let mut mitm = BitFlipMitm::pervasive(MessageKind::OtB, 8);
        let err = session.agree(&seed, &seed, &mut mitm).unwrap_err();
        assert!(matches!(err, Error::Agreement(_)));
    }

    #[test]
    fn full_establishment_runs_with_untrained_models() {
        // With untrained encoders the seeds usually disagree wildly, so
        // the run should complete as either success (lucky) or a clean
        // agreement failure — never a panic or pipeline error.
        let mut session = test_session();
        match session.establish_key() {
            Ok(out) => assert_eq!(out.key.len(), 32),
            Err(Error::Agreement(_)) => {}
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }

    #[test]
    fn config_accessors() {
        let mut session = test_session();
        assert_eq!(session.config().environment_id, 1);
        session.config_mut().environment_id = 3;
        assert_eq!(session.config().environment_id, 3);
    }

    #[test]
    fn config_guard_rebuilds_quantizer_on_n_b_change() {
        let mut session = test_session();
        let before = session.seed_generator().bits_per_symbol();
        let (s_m, _) = session.derive_seeds().unwrap();
        assert_eq!(s_m.len(), 12 * before);
        session.config_mut().wavekey.n_b = 4;
        // The quantizer tracked the mutation: seeds derived after the
        // change use the new bin count on both parties.
        let after = session.seed_generator().bits_per_symbol();
        assert_eq!(after, 2);
        assert_ne!(before, after);
        let (s_m, s_r) = session.derive_seeds().unwrap();
        assert_eq!(s_m.len(), 12 * after);
        assert_eq!(s_r.len(), 12 * after);
    }

    #[test]
    fn config_guard_changes_flow_into_the_next_agreement() {
        let mut session = test_session();
        session.config_mut().wavekey.tau = 4.5;
        let seed: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        let out = session.agree(&seed, &seed, &mut PassiveChannel).unwrap();
        assert!((out.agreement.stages.deadline_s - 6.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid WaveKey config")]
    fn config_guard_rejects_invalid_mutation() {
        let mut session = test_session();
        session.config_mut().wavekey.n_b = 1;
    }

    #[test]
    fn traces_flow_to_attached_collector() {
        let mut session = test_session();
        let (obs, mem) = Obs::with_memory();
        session.set_obs(obs);
        assert!(session.obs().is_enabled());

        let _ = session.establish_key(); // success or clean failure both trace
        let _ = session.establish_key_fast();
        let sessions = mem.sessions();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].session_id, 1);
        assert_eq!(sessions[1].session_id, 2);
        for trace in &sessions {
            assert!(!trace.outcome.is_empty());
            assert_eq!(trace.seed_len, 48);
            assert!(trace.seed_mismatch_bits.is_some());
            for s in [stage::GESTURE_SYNTH, stage::IMU_PIPELINE, stage::RFID_PIPELINE,
                      stage::ENCODER_FORWARD, stage::QUANTIZATION] {
                assert!(trace.stage_seconds(s).is_some(), "missing stage {s}");
            }
        }
        // The full protocol attempt also times the agreement stages when
        // it reaches them (success or reconciliation failure both do).
        let full = &sessions[0];
        if full.is_success() {
            assert!(full.stage_seconds(stage::OT_ROUND_A).is_some());
            assert!(full.deadline_consumed_s.is_some());
            assert_eq!(full.key_bits, 256);
        }
        let text = session.obs().prometheus_text();
        assert!(text.contains("sessions_total 2"));
    }

    #[test]
    fn deadline_histogram_counts_each_successful_session_once() {
        use wavekey_obs::MetricSnapshot;
        // The path `establish_key` takes after the seeds, on equal seeds
        // so every session succeeds: one deadline sample per success.
        let mut session = test_session();
        let (obs, _mem) = Obs::with_memory();
        session.set_obs(obs);
        let seed: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        for _ in 0..3 {
            let mut trace = session.begin_trace();
            let result = session.agree_traced(&seed, &seed, &mut PassiveChannel, &mut trace);
            assert!(result.is_ok());
            session.finish_trace(trace, &result);
        }
        let snapshot = session.obs().with_registry(|r| r.snapshot()).expect("enabled");
        let metric = |name: &str| snapshot.iter().find(|(n, _)| n == name).map(|(_, m)| m.clone());
        let Some(MetricSnapshot::Counter(successes)) = metric("sessions_success") else {
            panic!("no sessions_success counter");
        };
        let Some(MetricSnapshot::Histogram(deadline)) = metric("deadline_consumed_seconds") else {
            panic!("no deadline_consumed_seconds histogram");
        };
        assert_eq!((successes, deadline.count()), (3, 3));
    }

    #[test]
    fn agree_records_every_stage_span() {
        let mut session = test_session();
        let (obs, mem) = Obs::with_memory();
        session.set_obs(obs);
        let seed: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        session.agree(&seed, &seed, &mut PassiveChannel).unwrap();
        let names: Vec<String> = mem.spans().iter().map(|(n, _)| n.clone()).collect();
        for expected in [
            stage::OT_ROUND_A,
            stage::OT_ROUND_B,
            stage::OT_ROUND_E,
            stage::PRELIM_KEY,
            stage::ECC_RECONCILE,
            stage::HMAC_CONFIRM,
        ] {
            assert!(names.contains(&expected.to_string()), "missing span {expected}");
        }
    }

    #[test]
    fn disabled_obs_records_nothing_and_still_works() {
        let mut session = test_session();
        assert!(!session.obs().is_enabled());
        let seed: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        let out = session.agree(&seed, &seed, &mut PassiveChannel).unwrap();
        assert_eq!(out.key.len(), 32);
        assert_eq!(session.obs().prometheus_text(), "");
    }

    #[test]
    #[should_panic(expected = "invalid WaveKey config")]
    fn invalid_config_panics() {
        let models = WaveKeyModels::new(12, 1);
        let config = SessionConfig {
            wavekey: WaveKeyConfig { n_b: 1, ..Default::default() },
            ..Default::default()
        };
        Session::new(config, models, 1);
    }
}
