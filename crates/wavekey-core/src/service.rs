//! A multi-tenant WaveKey access service — the backend of the paper's
//! Context 1 (RFID line-up systems) and Context 2/3 enrolment flows.
//!
//! The service issues RFID tickets (EPCs), discovers which tickets are
//! physically present via Gen2 inventory, runs a key-establishment
//! session against a chosen ticket, and remembers the binding
//! `EPC → session key` so subsequent wireless requests can be
//! authenticated. This is the "downstream adopter" face of the library:
//! everything below it (simulation, training, protocol) is wired up by
//! [`crate::session::Session`].
//!
//! Since the durability rework, every binding lives in a
//! [`wavekey_store::DurableStore`]: ticket issues, key bindings,
//! rotations, re-enrolments and revocations are write-ahead-journaled
//! before they are acknowledged, so a service reopened over the same
//! volume ([`AccessService::open`]) recovers the exact tenant/ticket/key
//! state (see DESIGN.md §16). The single-argument constructor
//! ([`AccessService::new`]) keeps the historical behaviour by running on
//! an in-memory volume with one unlimited default tenant.

use crate::agreement::AgreementError;
use crate::model::WaveKeyModels;
use crate::session::{Session, SessionConfig, SessionOutcome};
use crate::Error;
use wavekey_store::{
    DurableStore, MemVolume, StoreConfig, StoreStats, TenantQuota, Volume,
};
use wavekey_obs::Obs;
use wavekey_imu::gesture::VolunteerId;
use wavekey_rfid::channel::TagModel;
use wavekey_rfid::environment::Environment;
use wavekey_rfid::inventory::{run_inventory, Epc, FieldTag, InventoryConfig, InventoryReport};
use wavekey_math::Vec3;

/// A ticket issued by the service: an RFID tag identity plus a queue slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceTicket {
    /// The ticket's EPC.
    pub epc: Epc,
    /// The physical tag model the dispenser loaded.
    pub model: TagModel,
    /// Position in the service queue (1-based).
    pub queue_position: u32,
}

/// The tenant id [`AccessService::new`] creates and that the historical
/// single-tenant API (`issue_ticket`, `enroll`, `verify_request`, …)
/// operates on. It has an unlimited quota, so the single-tenant surface
/// behaves exactly as it did before the durability rework.
pub const DEFAULT_TENANT: u64 = 1;

/// Tag models are journaled as a single byte (their discriminant).
fn model_to_u8(model: TagModel) -> u8 {
    model as u8
}

fn model_from_u8(byte: u8) -> TagModel {
    match byte {
        0 => TagModel::Alien9640A,
        1 => TagModel::Alien9640B,
        2 => TagModel::Alien9730A,
        3 => TagModel::Alien9730B,
        4 => TagModel::DogBoneA,
        _ => TagModel::DogBoneB,
    }
}

/// Graceful-degradation policy for [`AccessService::enroll`]: what the
/// kiosk tries before telling the visitor their wave failed.
///
/// On a reconciliation / confirmation failure the service first
/// *escalates* the BCH correction capacity `t` (re-running the agreement
/// on the same gesture's seeds, `bch_step` at a time up to `bch_ceiling`,
/// the BCH(127) limit being 15), then falls back to `regesture_attempts`
/// full re-gestures. Disabled by default — the base enrolment path is
/// byte-for-byte what it was without a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Highest BCH `t` escalation may reach (1..=15; 0 disables
    /// escalation).
    pub bch_ceiling: usize,
    /// How much each escalation rung adds to `t` (0 disables escalation).
    pub bch_step: usize,
    /// Full re-gesture attempts after escalation is exhausted.
    pub regesture_attempts: u32,
}

impl DegradePolicy {
    /// No recovery: enrolment failures surface immediately.
    pub fn disabled() -> DegradePolicy {
        DegradePolicy { bch_ceiling: 0, bch_step: 0, regesture_attempts: 0 }
    }

    /// The reference kiosk policy: escalate `t` by 2 up to the BCH(127)
    /// ceiling of 15, then allow one re-gesture.
    pub fn reference() -> DegradePolicy {
        DegradePolicy { bch_ceiling: 15, bch_step: 2, regesture_attempts: 1 }
    }

    /// Whether any recovery rung is configured.
    pub fn enabled(&self) -> bool {
        (self.bch_ceiling > 0 && self.bch_step > 0) || self.regesture_attempts > 0
    }
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy::disabled()
    }
}

/// The line-up / access-control backend.
#[derive(Debug)]
pub struct AccessService {
    models: WaveKeyModels,
    base_config: SessionConfig,
    store: DurableStore,
    session_seed: u64,
    /// Keyed HMAC target for the unknown-EPC arm of `verify_request`, so
    /// rejects burn the same MAC cost as real verifications (no timing
    /// oracle distinguishing enrolled from unknown EPCs).
    dummy_key: [u8; 32],
    degrade: DegradePolicy,
    obs: Obs,
    /// Store stats already forwarded to `obs` (counters are pumped as
    /// deltas after each operation).
    pumped: StoreStats,
}

impl AccessService {
    /// Creates a service with trained models and a base session
    /// configuration (environment, placement defaults), backed by an
    /// in-memory volume: durable across nothing, but journaled and
    /// snapshot-capable all the same (tests and short-lived kiosks).
    pub fn new(models: WaveKeyModels, base_config: SessionConfig, seed: u64) -> AccessService {
        AccessService::open(
            models,
            base_config,
            seed,
            Box::new(MemVolume::new()),
            StoreConfig::default(),
        )
        .expect("a fresh in-memory store cannot fail to open")
    }

    /// Opens a service over an existing (or empty) volume, recovering any
    /// journaled state: snapshot load, tail replay, torn-tail repair. The
    /// default tenant is created if this is a fresh volume.
    pub fn open(
        models: WaveKeyModels,
        base_config: SessionConfig,
        seed: u64,
        volume: Box<dyn Volume>,
        store_config: StoreConfig,
    ) -> Result<AccessService, Error> {
        let mut store = DurableStore::open(volume, store_config)?;
        store.ensure_tenant(DEFAULT_TENANT, TenantQuota::unlimited())?;
        let dummy_key =
            wavekey_crypto::hmac_sha256(&seed.to_le_bytes(), b"wavekey-service-dummy-key");
        Ok(AccessService {
            models,
            base_config,
            store,
            session_seed: seed,
            dummy_key,
            degrade: DegradePolicy::disabled(),
            obs: Obs::disabled(),
            pumped: StoreStats::default(),
        })
    }

    /// Sets the graceful-degradation policy for enrolment (disabled by
    /// default).
    pub fn set_degrade_policy(&mut self, policy: DegradePolicy) {
        self.degrade = policy;
    }

    /// Attaches an observability handle. The service keeps its own
    /// counters (tickets issued, enrolments, request verifications) and
    /// forwards the handle into every enrolment session, so per-session
    /// traces land in the same collector (e.g. a
    /// [`wavekey_obs::FlightRecorder`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        // Recovery may have happened before the handle was attached
        // (`open` → `set_obs`); pump the accumulated store deltas now.
        self.pump_store_counters();
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Read access to the durable store (stats, state inspection).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Mutable access to the durable store, for administrative flows the
    /// service does not wrap (manual snapshots, direct quota surgery in
    /// tests and soaks).
    pub fn store_mut(&mut self) -> &mut DurableStore {
        &mut self.store
    }

    /// Forward store-stat deltas into the obs registry as Prometheus-style
    /// counters.
    fn pump_store_counters(&mut self) {
        let stats = *self.store.stats();
        let prev = self.pumped;
        let pumped = self.obs.with_registry(|r| {
            let d = |new: u64, old: u64| new.saturating_sub(old);
            let pairs = [
                ("wavekey_store_replays_total", d(stats.replays, prev.replays)),
                (
                    "wavekey_store_records_replayed_total",
                    d(stats.records_replayed, prev.records_replayed),
                ),
                (
                    "wavekey_store_evictions_total{reason=\"memory\"}",
                    d(stats.evictions_memory, prev.evictions_memory),
                ),
                ("wavekey_store_reloads_total", d(stats.reloads, prev.reloads)),
                (
                    "wavekey_store_torn_tails_repaired_total",
                    d(stats.torn_tails_repaired, prev.torn_tails_repaired),
                ),
                ("wavekey_store_snapshots_total", d(stats.snapshots, prev.snapshots)),
                (
                    "wavekey_store_snapshot_rename_failures_total",
                    d(stats.rename_failures, prev.rename_failures),
                ),
                (
                    "wavekey_store_quota_denials_total",
                    d(stats.quota_denials, prev.quota_denials),
                ),
                (
                    "wavekey_store_rate_denials_total",
                    d(stats.rate_denials, prev.rate_denials),
                ),
            ];
            for (name, delta) in pairs {
                if delta > 0 {
                    r.inc_counter(name, delta);
                }
            }
        });
        // A disabled obs never ran the closure: keep the deltas queued so
        // they land once a real handle is attached.
        if pumped.is_some() {
            self.pumped = stats;
        }
    }

    /// Creates a new tenant with the given quota, returning its id. The
    /// tenant's tickets, keys and quota are journaled like everything
    /// else and survive recovery.
    pub fn create_tenant(&mut self, quota: TenantQuota) -> Result<u64, Error> {
        let id = self.store.create_tenant(quota)?;
        self.obs.inc("service_tenants_created");
        self.pump_store_counters();
        Ok(id)
    }

    /// Issues a fresh ticket for the default tenant (the paper's
    /// automatic dispenser).
    pub fn issue_ticket(&mut self, model: TagModel) -> ServiceTicket {
        self.issue_ticket_for(DEFAULT_TENANT, model)
            .expect("the default tenant always exists and has no quota")
    }

    /// Issues a fresh ticket under `tenant`, enforcing its ticket quota.
    /// Serials (and hence queue positions and EPCs) are per-tenant and
    /// 1-based, exactly as the single-tenant service numbered them.
    pub fn issue_ticket_for(
        &mut self,
        tenant: u64,
        model: TagModel,
    ) -> Result<ServiceTicket, Error> {
        let serial = self.store.peek_serial(tenant)? + 1;
        let epc = Epc::derive(model, serial);
        self.store.issue(tenant, epc.0, model_to_u8(model))?;
        self.obs.inc("service_tickets_issued");
        self.pump_store_counters();
        Ok(ServiceTicket { epc, model, queue_position: serial })
    }

    /// Number of issued tickets for the default tenant.
    pub fn issued(&self) -> usize {
        self.issued_for(DEFAULT_TENANT)
    }

    /// Number of issued tickets for `tenant` (including revoked ones —
    /// the dispenser count, not the live count).
    pub fn issued_for(&self, tenant: u64) -> usize {
        self.store
            .state()
            .tenant(tenant)
            .map(|t| t.ticket_count())
            .unwrap_or(0)
    }

    /// Reconstructs the public ticket view from durable state. `None` for
    /// unknown or revoked tickets.
    fn service_ticket(&self, tenant: u64, epc: Epc) -> Option<ServiceTicket> {
        let t = self.store.state().ticket(tenant, &epc.0)?;
        if t.revoked {
            return None;
        }
        Some(ServiceTicket {
            epc,
            model: model_from_u8(t.model),
            queue_position: t.serial + 1,
        })
    }

    /// Runs a Gen2 inventory over the simulated waiting area and returns
    /// which *known* tickets are present (unknown EPCs are ignored —
    /// visitors' other tags are not our business).
    pub fn discover_present(
        &self,
        in_field: &[FieldTag],
        seed: u64,
    ) -> (Vec<ServiceTicket>, InventoryReport) {
        let env = Environment::room(self.base_config.environment_id);
        let channel = env.channel(self.base_config.tag, self.base_config.walkers, seed);
        let report = run_inventory(in_field, &channel, &InventoryConfig::default(), seed);
        let present = report
            .found
            .iter()
            .filter_map(|epc| self.service_ticket(DEFAULT_TENANT, *epc))
            .collect();
        (present, report)
    }

    /// Builds the field-tag descriptor for a ticket standing at the
    /// service's default user placement (helper for simulations).
    pub fn field_tag(&self, ticket: &ServiceTicket) -> FieldTag {
        let env = Environment::room(self.base_config.environment_id);
        let position = self.base_config.placement.hand_position(&env) + Vec3::new(0.03, 0.0, 0.0);
        FieldTag { epc: ticket.epc, model: ticket.model, position }
    }

    /// Runs one key-establishment attempt for `epc`: the visitor waves
    /// their device (simulated as `volunteer`) together with the ticket.
    /// On success the key is bound to the ticket.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for unknown tickets; otherwise the session's
    /// failure taxonomy (the caller retries, as a kiosk flow would).
    pub fn enroll(
        &mut self,
        epc: Epc,
        volunteer: VolunteerId,
    ) -> Result<SessionOutcome, Error> {
        self.enroll_for(DEFAULT_TENANT, epc, volunteer)
    }

    /// Tenant-scoped [`AccessService::enroll`]. Charges one token from
    /// the tenant's enrolment rate-limit bucket per attempt (the default
    /// tenant's bucket is unlimited); a successful session journals a
    /// `KeyBound` record for first-time enrolments and a `ReEnrolled`
    /// record when the ticket already carried a key.
    pub fn enroll_for(
        &mut self,
        tenant: u64,
        epc: Epc,
        volunteer: VolunteerId,
    ) -> Result<SessionOutcome, Error> {
        let ticket = self
            .service_ticket(tenant, epc)
            .ok_or_else(|| Error::Config(format!("unknown ticket {epc}")))?;
        if let Err(e) = self.store.take_enroll_token(tenant) {
            self.obs.inc("service_enroll_rate_limited");
            self.pump_store_counters();
            return Err(e.into());
        }
        let config = SessionConfig {
            volunteer,
            tag: ticket.model,
            ..self.base_config.clone()
        };
        self.session_seed = self.session_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut session = Session::new(config, self.models.clone(), self.session_seed);
        session.set_obs(self.obs.clone());
        self.obs.inc("service_enroll_attempts");
        let span = self.obs.span("service_enroll");
        let result = session.establish_key_fast();
        span.finish();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => match self.recover_enroll(&mut session, &e) {
                Some(outcome) => outcome,
                None => {
                    self.obs.inc("service_enroll_failures");
                    return Err(e);
                }
            },
        };
        self.obs.inc("service_enroll_success");
        let re_enrolment = self
            .store
            .state()
            .ticket(tenant, &epc.0)
            .map(|t| t.generation > 0)
            .unwrap_or(false);
        if re_enrolment {
            self.store.re_enroll(tenant, epc.0, &outcome.key)?;
            self.obs.inc("service_re_enrolments");
        } else {
            self.store.bind_key(tenant, epc.0, &outcome.key)?;
        }
        self.pump_store_counters();
        Ok(outcome)
    }

    /// Rotates a ticket's bound key server-side: the new key is derived
    /// from the old one (`HMAC(old_key, "wavekey-rotate" ‖ generation)`),
    /// journaled as a `KeyRotated` record, and returned. Requires an
    /// existing key.
    pub fn rotate_key(&mut self, tenant: u64, epc: Epc) -> Result<Vec<u8>, Error> {
        let (old_key, generation) = {
            let t = self
                .store
                .key_for(tenant, epc.0)?
                .map(|k| k.to_vec())
                .ok_or_else(|| Error::Config(format!("no key bound for {epc}")))?;
            let g = self
                .store
                .state()
                .ticket(tenant, &epc.0)
                .map(|t| t.generation)
                .unwrap_or(0);
            (t, g)
        };
        let mut msg = b"wavekey-rotate".to_vec();
        msg.extend_from_slice(&(generation + 1).to_le_bytes());
        let new_key = wavekey_crypto::hmac_sha256(&old_key, &msg).to_vec();
        self.store.rotate_key(tenant, epc.0, &new_key)?;
        self.obs.inc("service_key_rotations");
        self.pump_store_counters();
        Ok(new_key)
    }

    /// Revokes a ticket: its key material is dropped and the journal
    /// records the revocation (recovery will not resurrect the key).
    pub fn revoke_ticket(&mut self, tenant: u64, epc: Epc) -> Result<(), Error> {
        self.store.revoke(tenant, epc.0)?;
        self.obs.inc("service_tickets_revoked");
        self.pump_store_counters();
        Ok(())
    }

    /// Advances the rate-limit clock: refills every tenant's enrolment
    /// token bucket by its quota's refill rate.
    pub fn tick(&mut self) {
        self.store.tick();
    }

    /// Installs a compacted snapshot and truncates the journal.
    pub fn snapshot(&mut self) -> Result<(), Error> {
        self.store.snapshot()?;
        self.pump_store_counters();
        Ok(())
    }

    /// The graceful-degradation ladder: on a reconciliation or
    /// confirmation failure, first escalate the BCH correction capacity
    /// on the *same* gesture's seeds, then fall back to full re-gestures.
    /// Returns `None` when the ladder is disabled, does not apply to this
    /// failure, or is exhausted.
    fn recover_enroll(&mut self, session: &mut Session, err: &Error) -> Option<SessionOutcome> {
        if !self.degrade.enabled() {
            return None;
        }
        if !matches!(
            err,
            Error::Agreement(
                AgreementError::ReconciliationFailed | AgreementError::ConfirmationFailed
            )
        ) {
            return None;
        }
        if self.degrade.bch_step > 0 {
            if let Some((s_m, s_r)) = session.last_seeds().cloned() {
                let mut t = session.config().wavekey.bch_t + self.degrade.bch_step;
                while t <= self.degrade.bch_ceiling.min(15) {
                    self.obs.inc("service_enroll_escalations");
                    session.config_mut().wavekey.bch_t = t;
                    if let Ok(outcome) = session.agree_fast(&s_m, &s_r) {
                        self.obs.inc("service_enroll_recovered");
                        return Some(outcome);
                    }
                    t += self.degrade.bch_step;
                }
            }
        }
        for _ in 0..self.degrade.regesture_attempts {
            self.obs.inc("service_enroll_regestures");
            if let Ok(outcome) = session.establish_key_fast() {
                self.obs.inc("service_enroll_recovered");
                return Some(outcome);
            }
        }
        None
    }

    /// The key bound to a ticket, if enrolment succeeded.
    ///
    /// Non-mutating peek: under a memory ceiling an *evicted* key reads as
    /// `None` here — [`AccessService::fetch_key`] reloads it from the
    /// journal. Without a ceiling (the default) the two agree always.
    pub fn key_for(&self, epc: Epc) -> Option<&[u8]> {
        self.store.peek_key(DEFAULT_TENANT, epc.0)
    }

    /// The key bound to a ticket under `tenant`, transparently reloading
    /// it from the journal if it was evicted under the memory ceiling.
    pub fn fetch_key(&mut self, tenant: u64, epc: Epc) -> Result<Option<Vec<u8>>, Error> {
        let key = self.store.key_for(tenant, epc.0)?.map(|k| k.to_vec());
        self.pump_store_counters();
        Ok(key)
    }

    /// Authenticates a wireless request: an HMAC over `message` keyed by
    /// the ticket's bound key.
    ///
    /// Returns `false` for unknown or un-enrolled tickets.
    pub fn verify_request(&mut self, epc: Epc, message: &[u8], mac: &[u8]) -> bool {
        self.verify_request_for(DEFAULT_TENANT, epc, message, mac)
    }

    /// Tenant-scoped [`AccessService::verify_request`].
    ///
    /// Constant-cost rejection: the unknown/un-enrolled arm computes an
    /// HMAC against a per-service dummy key before answering, so response
    /// time does not leak whether an EPC is enrolled (the timing oracle
    /// the pre-durability service had).
    pub fn verify_request_for(
        &mut self,
        tenant: u64,
        epc: Epc,
        message: &[u8],
        mac: &[u8],
    ) -> bool {
        self.obs.inc("service_verify_requests");
        // The MAC is computed on the borrowed key: neither arm allocates.
        let accepted = match self.store.key_for(tenant, epc.0) {
            Ok(Some(key)) => {
                wavekey_crypto::hmac::mac_eq(&wavekey_crypto::hmac_sha256(key, message), mac)
            }
            missing => {
                if missing.is_err() {
                    self.obs.inc("service_verify_store_errors");
                }
                let dummy = wavekey_crypto::hmac_sha256(&self.dummy_key, message);
                let _ = std::hint::black_box(wavekey_crypto::hmac::mac_eq(&dummy, mac));
                false
            }
        };
        if accepted {
            self.obs.inc("service_verify_accepted");
        } else {
            self.obs.inc("service_verify_rejected");
        }
        self.pump_store_counters();
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveKeyConfig;

    fn service() -> AccessService {
        let models = WaveKeyModels::new(12, 5);
        let config = SessionConfig {
            use_tiny_group: true,
            wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
            ..Default::default()
        };
        AccessService::new(models, config, 77)
    }

    #[test]
    fn tickets_are_unique_and_ordered() {
        let mut svc = service();
        let a = svc.issue_ticket(TagModel::Alien9640A);
        let b = svc.issue_ticket(TagModel::DogBoneA);
        assert_ne!(a.epc, b.epc);
        assert_eq!(a.queue_position, 1);
        assert_eq!(b.queue_position, 2);
        assert_eq!(svc.issued(), 2);
    }

    #[test]
    fn discovery_reports_only_known_tickets() {
        let mut svc = service();
        let t1 = svc.issue_ticket(TagModel::Alien9640A);
        let t2 = svc.issue_ticket(TagModel::Alien9730A);
        let stranger = FieldTag {
            epc: Epc::derive(TagModel::DogBoneB, 9999),
            model: TagModel::DogBoneB,
            position: svc.field_tag(&t1).position,
        };
        let field = vec![svc.field_tag(&t1), svc.field_tag(&t2), stranger];
        let (present, report) = svc.discover_present(&field, 3);
        // The stranger is singulated by the reader but filtered by the
        // service.
        assert!(report.found.len() >= present.len());
        let epcs: Vec<Epc> = present.iter().map(|t| t.epc).collect();
        assert!(epcs.contains(&t1.epc) || epcs.contains(&t2.epc));
        assert!(!epcs.contains(&Epc::derive(TagModel::DogBoneB, 9999)));
    }

    #[test]
    fn enroll_unknown_ticket_fails_cleanly() {
        let mut svc = service();
        let err = svc
            .enroll(Epc::derive(TagModel::Alien9640A, 424242), VolunteerId(0))
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn counters_and_session_traces_reach_the_flight_recorder() {
        let mut svc = service();
        let recorder = std::sync::Arc::new(wavekey_obs::FlightRecorder::new(8));
        svc.set_obs(Obs::new(recorder.clone()));

        let ticket = svc.issue_ticket(TagModel::Alien9640A);
        let _ = svc.enroll(ticket.epc, VolunteerId(0)); // either outcome traces
        assert_eq!(recorder.len(), 1, "enrolment session should be recorded");
        let trace = recorder.latest().expect("trace");
        assert_eq!(trace.seed_len, 48);

        svc.verify_request(ticket.epc, b"msg", &[0u8; 32]);
        let text = svc.obs().prometheus_text();
        assert!(text.contains("service_tickets_issued 1"));
        assert!(text.contains("service_enroll_attempts 1"));
        assert!(text.contains("service_verify_requests 1"));
        assert!(text.contains("service_verify_rejected 1"));
    }

    #[test]
    fn enrolment_binds_key_and_authenticates() {
        let mut svc = service();
        let ticket = svc.issue_ticket(TagModel::Alien9640A);
        // Untrained models: retry until a (lucky or legitimate) success, or
        // accept failure — both paths exercise the binding logic.
        let mut key = None;
        for _ in 0..20 {
            if let Ok(out) = svc.enroll(ticket.epc, VolunteerId(0)) {
                key = Some(out.key);
                break;
            }
        }
        match key {
            Some(key) => {
                assert_eq!(svc.key_for(ticket.epc), Some(key.as_slice()));
                let mac = wavekey_crypto::hmac_sha256(&key, b"paperwork");
                assert!(svc.verify_request(ticket.epc, b"paperwork", &mac));
                assert!(!svc.verify_request(ticket.epc, b"tampered", &mac));
            }
            None => {
                assert_eq!(svc.key_for(ticket.epc), None);
                assert!(!svc.verify_request(ticket.epc, b"x", &[0u8; 32]));
            }
        }
    }

    // ------------------------------------------------- durability rework

    fn service_on(volume: MemVolume, store_config: StoreConfig) -> AccessService {
        let models = WaveKeyModels::new(12, 5);
        let config = SessionConfig {
            use_tiny_group: true,
            wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
            ..Default::default()
        };
        AccessService::open(models, config, 77, Box::new(volume), store_config)
            .expect("open service")
    }

    #[test]
    fn service_recovers_bindings_after_a_kill() {
        let media = MemVolume::new();
        let mut svc = service_on(media.clone(), StoreConfig::default());
        let t1 = svc.issue_ticket(TagModel::Alien9640A);
        let t2 = svc.issue_ticket(TagModel::DogBoneB);
        // Synthetic keys: storage behaviour is under test, not agreement.
        svc.store_mut()
            .bind_key(DEFAULT_TENANT, t1.epc.0, &[0xA1; 32])
            .unwrap();
        svc.store_mut()
            .bind_key(DEFAULT_TENANT, t2.epc.0, &[0xB2; 32])
            .unwrap();

        // Kill the process (drop) and recover from the same media.
        drop(svc);
        let mut back = service_on(media.deep_clone(), StoreConfig::default());
        assert_eq!(back.issued(), 2);
        assert_eq!(back.key_for(t1.epc), Some(&[0xA1; 32][..]));
        let mac = wavekey_crypto::hmac_sha256(&[0xB2; 32], b"after-crash");
        assert!(back.verify_request(t2.epc, b"after-crash", &mac));
        // Recovered tickets keep their model and queue position.
        let (present, _) = back.discover_present(&[back.field_tag(&t2)], 5);
        if let Some(found) = present.first() {
            assert_eq!(found.model, TagModel::DogBoneB);
            assert_eq!(found.queue_position, 2);
        }
        assert_eq!(back.store().stats().replays, 1);
    }

    #[test]
    fn tenants_are_isolated_and_quota_limited() {
        let mut svc = service();
        let small = svc
            .create_tenant(TenantQuota { max_tickets: 2, enroll_burst: 5, enroll_refill: 1 })
            .unwrap();
        assert_ne!(small, DEFAULT_TENANT);
        let a = svc.issue_ticket_for(small, TagModel::Alien9640A).unwrap();
        let _b = svc.issue_ticket_for(small, TagModel::Alien9640A).unwrap();
        // Third ticket trips the quota...
        let err = svc.issue_ticket_for(small, TagModel::Alien9640A).unwrap_err();
        assert!(matches!(
            err,
            Error::Store(wavekey_store::StoreError::QuotaExceeded { .. })
        ));
        // ...but the default tenant is unaffected.
        svc.issue_ticket(TagModel::Alien9640A);
        assert_eq!(svc.issued_for(small), 2);
        assert_eq!(svc.issued(), 1);

        // Keys are per-tenant: binding under `small` is invisible to the
        // default tenant even at the same EPC.
        svc.store_mut().bind_key(small, a.epc.0, &[7; 32]).unwrap();
        let mac = wavekey_crypto::hmac_sha256(&[7; 32], b"msg");
        assert!(svc.verify_request_for(small, a.epc, b"msg", &mac));
        assert!(!svc.verify_request_for(DEFAULT_TENANT, a.epc, b"msg", &mac));
    }

    #[test]
    fn enrolment_rate_limit_denies_before_running_a_session() {
        let mut svc = service();
        let starved = svc
            .create_tenant(TenantQuota { max_tickets: 8, enroll_burst: 1, enroll_refill: 1 })
            .unwrap();
        let t = svc.issue_ticket_for(starved, TagModel::Alien9640A).unwrap();
        // First attempt drains the single token (its outcome depends on
        // the untrained models; either way the token is spent).
        let _ = svc.enroll_for(starved, t.epc, VolunteerId(0));
        let err = svc.enroll_for(starved, t.epc, VolunteerId(0)).unwrap_err();
        assert!(matches!(
            err,
            Error::Store(wavekey_store::StoreError::RateLimited { .. })
        ));
        // A tick refills the bucket; the next attempt at least *runs*.
        svc.tick();
        match svc.enroll_for(starved, t.epc, VolunteerId(1)) {
            Err(Error::Store(wavekey_store::StoreError::RateLimited { .. })) => {
                panic!("token refill did not take")
            }
            _ => {}
        }
    }

    #[test]
    fn rotation_chains_generations_and_survives_recovery() {
        let media = MemVolume::new();
        let mut svc = service_on(media.clone(), StoreConfig::default());
        let t = svc.issue_ticket(TagModel::Alien9730A);
        svc.store_mut()
            .bind_key(DEFAULT_TENANT, t.epc.0, &[0x11; 32])
            .unwrap();
        let k2 = svc.rotate_key(DEFAULT_TENANT, t.epc).unwrap();
        let k3 = svc.rotate_key(DEFAULT_TENANT, t.epc).unwrap();
        assert_ne!(k2, k3);
        assert_eq!(
            svc.store().state().ticket(DEFAULT_TENANT, &t.epc.0).unwrap().generation,
            3
        );
        // Old keys stop verifying, the newest verifies.
        let mac_old = wavekey_crypto::hmac_sha256(&[0x11; 32], b"door");
        let mac_new = wavekey_crypto::hmac_sha256(&k3, b"door");
        assert!(!svc.verify_request(t.epc, b"door", &mac_old));
        assert!(svc.verify_request(t.epc, b"door", &mac_new));
        // Rotation on a never-bound ticket is a config error.
        let unbound = svc.issue_ticket(TagModel::Alien9730A);
        assert!(matches!(
            svc.rotate_key(DEFAULT_TENANT, unbound.epc),
            Err(Error::Config(_))
        ));

        drop(svc);
        let mut back = service_on(media.deep_clone(), StoreConfig::default());
        assert_eq!(back.key_for(t.epc), Some(k3.as_slice()));
        assert_eq!(
            back.store().state().ticket(DEFAULT_TENANT, &t.epc.0).unwrap().generation,
            3
        );
        assert!(back.verify_request(t.epc, b"door", &mac_new));
    }

    #[test]
    fn revocation_kills_the_key_for_good() {
        let media = MemVolume::new();
        let mut svc = service_on(media.clone(), StoreConfig::default());
        let t = svc.issue_ticket(TagModel::DogBoneA);
        svc.store_mut()
            .bind_key(DEFAULT_TENANT, t.epc.0, &[0x42; 32])
            .unwrap();
        let mac = wavekey_crypto::hmac_sha256(&[0x42; 32], b"gate");
        assert!(svc.verify_request(t.epc, b"gate", &mac));
        svc.revoke_ticket(DEFAULT_TENANT, t.epc).unwrap();
        assert!(!svc.verify_request(t.epc, b"gate", &mac));
        assert_eq!(svc.key_for(t.epc), None);
        // Recovery replays the revocation; the key does not resurrect.
        drop(svc);
        let mut back = service_on(media.deep_clone(), StoreConfig::default());
        assert!(!back.verify_request(t.epc, b"gate", &mac));
        assert_eq!(back.key_for(t.epc), None);
    }

    #[test]
    fn eviction_under_ceiling_is_transparent_to_verification() {
        let media = MemVolume::new();
        let config = StoreConfig {
            // Room for two 32-byte keys (64-byte ticket overhead each).
            memory_ceiling_bytes: 2 * (wavekey_store::state::TICKET_OVERHEAD_BYTES + 32),
            ..StoreConfig::default()
        };
        let mut svc = service_on(media, config);
        let tickets: Vec<ServiceTicket> =
            (0..5).map(|_| svc.issue_ticket(TagModel::Alien9640A)).collect();
        for (i, t) in tickets.iter().enumerate() {
            svc.store_mut()
                .bind_key(DEFAULT_TENANT, t.epc.0, &[i as u8; 32])
                .unwrap();
        }
        assert!(svc.store().stats().evictions_memory >= 3);
        // Some key is evicted (peek misses)...
        let victim = tickets
            .iter()
            .enumerate()
            .find(|(_, t)| svc.key_for(t.epc).is_none())
            .map(|(i, t)| (i, t.clone()))
            .expect("at least one evicted key");
        // ...but verification reloads it from the journal on demand.
        let mac = wavekey_crypto::hmac_sha256(&[victim.0 as u8; 32], b"badge");
        assert!(svc.verify_request(victim.1.epc, b"badge", &mac));
        assert!(svc.store().stats().reloads >= 1);
        // And fetch_key sees every key regardless of residency.
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(
                svc.fetch_key(DEFAULT_TENANT, t.epc).unwrap(),
                Some(vec![i as u8; 32])
            );
        }
    }

    #[test]
    fn verify_rejects_a_ticket_whose_evicted_key_rotted() {
        let media = MemVolume::new();
        let config = StoreConfig {
            memory_ceiling_bytes: wavekey_store::state::TICKET_OVERHEAD_BYTES + 32,
            ..StoreConfig::default()
        };
        let mut svc = service_on(media.clone(), config);
        svc.set_obs(Obs::new(std::sync::Arc::new(wavekey_obs::FlightRecorder::new(4))));
        let a = svc.issue_ticket(TagModel::Alien9640A);
        let b = svc.issue_ticket(TagModel::Alien9640A);
        svc.store_mut().bind_key(DEFAULT_TENANT, a.epc.0, &[0xA1; 32]).unwrap();
        svc.store_mut().bind_key(DEFAULT_TENANT, b.epc.0, &[0xB2; 32]).unwrap();
        assert_eq!(svc.key_for(a.epc), None, "a's key was evicted");
        // Rot one bit of a's key inside the journal record that holds it.
        let mut image = media.clone();
        let mut journal = image.read(wavekey_store::JOURNAL_FILE).unwrap().unwrap();
        let at = journal.windows(32).position(|w| w == [0xA1; 32]).unwrap();
        journal[at + 7] ^= 0x04;
        image.write(wavekey_store::JOURNAL_FILE, &journal).unwrap();

        let mac = wavekey_crypto::hmac_sha256(&[0xA1; 32], b"door");
        assert!(!svc.verify_request(a.epc, b"door", &mac));
        let text = svc.obs().prometheus_text();
        assert!(text.contains("service_verify_store_errors 1"), "in:\n{text}");
        assert!(text.contains("service_verify_rejected 1"));
        // The intact ticket still verifies.
        let mac = wavekey_crypto::hmac_sha256(&[0xB2; 32], b"door");
        assert!(svc.verify_request(b.epc, b"door", &mac));
    }

    #[test]
    fn store_counters_reach_the_obs_registry() {
        let media = MemVolume::new();
        let mut svc = service_on(media.clone(), StoreConfig::default());
        let t = svc.issue_ticket(TagModel::Alien9640A);
        svc.store_mut()
            .bind_key(DEFAULT_TENANT, t.epc.0, &[9; 32])
            .unwrap();
        drop(svc);

        let mut back = service_on(media.deep_clone(), StoreConfig::default());
        let recorder = std::sync::Arc::new(wavekey_obs::FlightRecorder::new(4));
        back.set_obs(Obs::new(recorder));
        back.snapshot().unwrap();
        let text = back.obs().prometheus_text();
        assert!(
            text.contains("wavekey_store_replays_total 1"),
            "missing replay counter in:\n{text}"
        );
        assert!(text.contains("wavekey_store_records_replayed_total"));
        assert!(text.contains("wavekey_store_snapshots_total 1"));
    }

    /// The enrolment degradation ladder: BCH escalation re-runs the same
    /// seeds at higher correction capacity, and a re-gesture gets one
    /// more wave — recovering enrolments the base path loses. Disabled
    /// policy keeps the base path untouched.
    #[test]
    fn enroll_degradation_ladder_recovers_failures() {
        // Service seed 23 deterministically produces a first gesture whose
        // seed mismatch exceeds the base BCH capacity but sits inside the
        // ladder's reach (escalated `t` or one re-gesture) — found by
        // scanning; any such seed works.
        let mk = |seed: u64| {
            let models = WaveKeyModels::new(12, 5);
            let config = SessionConfig {
                use_tiny_group: true,
                wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
                ..Default::default()
            };
            AccessService::new(models, config, seed)
        };

        let mut base = mk(23);
        let ticket = base.issue_ticket(TagModel::Alien9640A);
        let err = base.enroll(ticket.epc, VolunteerId(0)).unwrap_err();
        assert!(matches!(err, Error::Agreement(_)), "{err}");
        assert_eq!(base.key_for(ticket.epc), None);

        let mut ladder = mk(23);
        ladder.set_degrade_policy(DegradePolicy::reference());
        let recorder = std::sync::Arc::new(wavekey_obs::FlightRecorder::new(64));
        ladder.set_obs(Obs::new(recorder.clone()));
        let ticket = ladder.issue_ticket(TagModel::Alien9640A);
        let out = ladder
            .enroll(ticket.epc, VolunteerId(0))
            .expect("ladder recovers the same gesture the base path loses");
        assert_eq!(ladder.key_for(ticket.epc), Some(out.key.as_slice()));
        let text = ladder.obs().prometheus_text();
        assert!(text.contains("service_enroll_escalations"), "{text}");
        assert!(text.contains("service_enroll_recovered 1"), "{text}");
        assert!(text.contains("service_enroll_success 1"), "{text}");
        assert!(!text.contains("service_enroll_failures"), "{text}");
    }
}
