//! [`DurableStore`] — the recoverable store `AccessService` sits on.
//!
//! Write path: every mutation encodes one journal record, appends it to the
//! volume *first*, and only then folds it into the in-memory state — the
//! classic WAL invariant (nothing is acknowledged that is not persisted).
//! If the append errors (real media failure or an injected storage fault),
//! the store truncates the journal back to its pre-append length so the
//! on-media image never holds a half-acknowledged record, and the caller
//! may simply retry.
//!
//! Read path: `key_for` stamps LRU clocks and transparently reloads keys
//! that were evicted under the memory ceiling. Every key has a *home*, the
//! byte range of its latest durable copy (the journal record that wrote
//! it, or its bytes in the installed snapshot); a reload reads only that
//! range and checks it against a digest taken at eviction, so damage
//! anywhere else cannot change what it returns, and damage inside it is
//! an error rather than an older key. Victims come from the state's
//! ordered LRU index, one first-element lookup per eviction.
//!
//! Recovery: `open` loads the snapshot (if any), replays the journal tail,
//! repairs torn tails by truncation, and — only in salvage mode — truncates
//! away corrupted history, keeping the intact prefix.

use crate::faults;
use crate::journal::{self, TailStatus, JOURNAL_FILE};
use crate::media::Volume;
use crate::record::{decode_record, encode_record, RecordBody};
use crate::snapshot::{self, decode_snapshot, encode_snapshot, SNAPSHOT_FILE, SNAPSHOT_TMP};
use crate::state::{Home, StoreState, TenantQuota};
use crate::{fnv_mix, StoreError};

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Resident-key memory ceiling in bytes; 0 = unlimited (no eviction).
    pub memory_ceiling_bytes: usize,
    /// Auto-snapshot after this many appends; 0 = manual snapshots only.
    pub snapshot_every: u64,
    /// On mid-journal corruption, keep the intact prefix instead of
    /// refusing to open. Default off: losing acknowledged history should
    /// be an explicit operator decision.
    pub salvage_corruption: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_ceiling_bytes: 0,
            snapshot_every: 0,
            salvage_corruption: false,
        }
    }
}

/// Counters the service pumps into `wavekey-obs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Full recoveries performed (`open` calls that replayed state).
    pub replays: u64,
    /// Journal records folded during recoveries.
    pub records_replayed: u64,
    /// Torn tails repaired by truncation at open.
    pub torn_tails_repaired: u64,
    /// Corrupted-history salvages performed at open.
    pub salvaged: u64,
    /// Keys evicted under the memory ceiling.
    pub evictions_memory: u64,
    /// Evicted keys reloaded on demand.
    pub reloads: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Snapshot installs that failed at the rename step.
    pub rename_failures: u64,
    /// Appends rolled back after a media error (torn/short writes).
    pub append_repairs: u64,
    /// Ticket-quota denials.
    pub quota_denials: u64,
    /// Enrolment rate-limit denials.
    pub rate_denials: u64,
}

/// The durable store. Owns the volume; all reads and writes of the
/// journal/snapshot files go through it.
pub struct DurableStore {
    volume: Box<dyn Volume>,
    state: StoreState,
    config: StoreConfig,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
    /// Highest seq folded into the installed snapshot (0 = none).
    snapshot_seq: u64,
    appends_since_snapshot: u64,
    access_clock: u64,
    stats: StoreStats,
}

impl core::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DurableStore")
            .field("tenants", &self.state.tenants.len())
            .field("next_seq", &self.next_seq)
            .field("snapshot_seq", &self.snapshot_seq)
            .field("resident_bytes", &self.state.resident_bytes())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl DurableStore {
    /// Open (or create) a store on `volume`, recovering any existing state.
    pub fn open(volume: Box<dyn Volume>, config: StoreConfig) -> Result<Self, StoreError> {
        let mut store = DurableStore {
            volume,
            state: StoreState::new(),
            config,
            next_seq: 1,
            snapshot_seq: 0,
            appends_since_snapshot: 0,
            access_clock: 0,
            stats: StoreStats::default(),
        };
        store.recover()?;
        Ok(store)
    }

    fn recover(&mut self) -> Result<(), StoreError> {
        // A leftover tmp snapshot means a crash before the install rename;
        // the journal is authoritative, the tmp is garbage.
        self.volume.remove(SNAPSHOT_TMP)?;

        let mut state = StoreState::new();
        let mut snapshot_seq = 0u64;
        if let Some(snap) = self.volume.read(SNAPSHOT_FILE)? {
            let (seq, state_bytes) =
                decode_snapshot(&snap).map_err(StoreError::SnapshotCorrupted)?;
            state = StoreState::deserialize(&state_bytes)
                .map_err(StoreError::SnapshotCorrupted)?;
            snapshot_seq = seq;
        }

        let journal_bytes = self.volume.read(JOURNAL_FILE)?.unwrap_or_default();
        let replayed = journal::replay(&journal_bytes);
        match replayed.tail {
            TailStatus::Clean => {}
            TailStatus::TornTail { .. } => {
                // The torn suffix was never acknowledged; cut it off.
                self.volume.truncate(JOURNAL_FILE, replayed.consumed)?;
                self.stats.torn_tails_repaired += 1;
            }
            TailStatus::Corrupted { offset } => {
                if self.config.salvage_corruption {
                    self.volume.truncate(JOURNAL_FILE, replayed.consumed)?;
                    self.stats.salvaged += 1;
                } else {
                    return Err(StoreError::Corrupted { offset });
                }
            }
        }

        let mut last_seq = snapshot_seq;
        let ends = replayed.offsets.iter().skip(1).chain([&replayed.consumed]);
        for ((rec, &start), &end) in replayed.records.iter().zip(&replayed.offsets).zip(ends) {
            // Records at or below the snapshot seq were already folded into
            // the snapshot (crash between install-rename and journal
            // truncate); applying them again would be wrong for rotations.
            if rec.seq <= snapshot_seq {
                continue;
            }
            state.apply_homed(&rec.body, Some(Home::journal(start, end - start)));
            last_seq = rec.seq;
            self.stats.records_replayed += 1;
        }

        self.state = state;
        self.snapshot_seq = snapshot_seq;
        self.next_seq = last_seq + 1;
        self.appends_since_snapshot = 0;
        self.stats.replays += 1;
        Ok(())
    }

    /// Append one record durably, then fold it into memory. On a media
    /// error the journal is rolled back to its pre-append length and the
    /// state is untouched — the operation simply did not happen.
    fn append(&mut self, body: RecordBody) -> Result<(), StoreError> {
        let bytes = encode_record(self.next_seq, &body);
        let before = self.volume.len(JOURNAL_FILE)?;
        if let Err(e) = self.volume.append(JOURNAL_FILE, &bytes) {
            // Best-effort rollback of whatever prefix a torn write left.
            let _ = self.volume.truncate(JOURNAL_FILE, before);
            self.stats.append_repairs += 1;
            return Err(e);
        }
        self.state.apply_homed(&body, Some(Home::journal(before, bytes.len())));
        // Writing a key counts as using it: without a stamp, a freshly
        // bound key would be the LRU victim of its own append.
        if let RecordBody::KeyBound { tenant, epc, .. }
        | RecordBody::KeyRotated { tenant, epc, .. }
        | RecordBody::ReEnrolled { tenant, epc, .. } = &body
        {
            self.access_clock += 1;
            self.state.touch(*tenant, epc, self.access_clock);
        }
        self.next_seq += 1;
        self.appends_since_snapshot += 1;
        if self.config.snapshot_every > 0
            && self.appends_since_snapshot >= self.config.snapshot_every
        {
            // Auto-compaction failure must not fail the append that
            // triggered it: the record is already durable in the journal.
            // rename_failures counts what happened.
            let _ = self.snapshot();
        }
        self.enforce_ceiling(None);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Public mutation API (validating; replay via `apply` stays lenient).
    // ------------------------------------------------------------------

    /// Create a tenant with the given quota, returning its id.
    pub fn create_tenant(&mut self, quota: TenantQuota) -> Result<u64, StoreError> {
        let id = self.state.tenants.keys().max().copied().unwrap_or(0) + 1;
        self.append(RecordBody::TenantCreated {
            tenant: id,
            max_tickets: quota.max_tickets,
            enroll_burst: quota.enroll_burst,
            enroll_refill: quota.enroll_refill,
        })?;
        Ok(id)
    }

    /// Create tenant `id` with `quota` if it does not exist yet (used by
    /// the access service to pin its default tenant to a fixed id across
    /// recoveries). No-op when the tenant already exists.
    pub fn ensure_tenant(&mut self, id: u64, quota: TenantQuota) -> Result<(), StoreError> {
        if self.state.tenant(id).is_some() {
            return Ok(());
        }
        self.append(RecordBody::TenantCreated {
            tenant: id,
            max_tickets: quota.max_tickets,
            enroll_burst: quota.enroll_burst,
            enroll_refill: quota.enroll_refill,
        })
    }

    /// Serial the next issued ticket for `tenant` will get.
    pub fn peek_serial(&self, tenant: u64) -> Result<u32, StoreError> {
        Ok(self
            .state
            .tenant(tenant)
            .ok_or(StoreError::UnknownTenant(tenant))?
            .next_serial)
    }

    /// Issue a ticket (EPC) under `tenant`. Enforces the ticket quota.
    pub fn issue(&mut self, tenant: u64, epc: [u8; 12], model: u8) -> Result<u32, StoreError> {
        let t = self
            .state
            .tenant(tenant)
            .ok_or(StoreError::UnknownTenant(tenant))?;
        if t.live_tickets() >= t.quota.max_tickets as usize {
            self.stats.quota_denials += 1;
            return Err(StoreError::QuotaExceeded { tenant });
        }
        let serial = t.next_serial;
        self.append(RecordBody::TicketIssued {
            tenant,
            epc,
            model,
            serial,
        })?;
        Ok(serial)
    }

    /// Bind the first key to a ticket (initial enrolment). Returns the new
    /// generation.
    pub fn bind_key(&mut self, tenant: u64, epc: [u8; 12], key: &[u8]) -> Result<u32, StoreError> {
        let gen = self.require_ticket(tenant, &epc)?.generation + 1;
        self.append(RecordBody::KeyBound {
            tenant,
            epc,
            generation: gen,
            key: key.to_vec(),
        })?;
        Ok(gen)
    }

    /// Rotate an existing key server-side. Returns the new generation.
    pub fn rotate_key(&mut self, tenant: u64, epc: [u8; 12], key: &[u8]) -> Result<u32, StoreError> {
        let gen = self.require_ticket(tenant, &epc)?.generation + 1;
        self.append(RecordBody::KeyRotated {
            tenant,
            epc,
            generation: gen,
            key: key.to_vec(),
        })?;
        Ok(gen)
    }

    /// Record a fresh over-the-air re-enrolment. Returns the new
    /// generation.
    pub fn re_enroll(&mut self, tenant: u64, epc: [u8; 12], key: &[u8]) -> Result<u32, StoreError> {
        let gen = self.require_ticket(tenant, &epc)?.generation + 1;
        self.append(RecordBody::ReEnrolled {
            tenant,
            epc,
            generation: gen,
            key: key.to_vec(),
        })?;
        Ok(gen)
    }

    /// Record an over-the-air enrolment: the first key of a ticket
    /// (generation 0) is bound, a later one re-enrols. Returns the new
    /// generation.
    pub fn enroll(&mut self, tenant: u64, epc: [u8; 12], key: &[u8]) -> Result<u32, StoreError> {
        if self.require_ticket(tenant, &epc)?.generation == 0 {
            self.bind_key(tenant, epc, key)
        } else {
            self.re_enroll(tenant, epc, key)
        }
    }

    /// Revoke a ticket; its key is gone for good.
    pub fn revoke(&mut self, tenant: u64, epc: [u8; 12]) -> Result<(), StoreError> {
        self.require_ticket(tenant, &epc)?;
        self.append(RecordBody::TicketRevoked { tenant, epc })
    }

    fn require_ticket(
        &self,
        tenant: u64,
        epc: &[u8; 12],
    ) -> Result<&crate::state::TicketState, StoreError> {
        self.state
            .tenant(tenant)
            .ok_or(StoreError::UnknownTenant(tenant))?
            .ticket(epc)
            .ok_or(StoreError::UnknownTicket)
    }

    // ------------------------------------------------------------------
    // Rate limiting
    // ------------------------------------------------------------------

    /// Take one enrolment token for `tenant`, or fail with `RateLimited`.
    pub fn take_enroll_token(&mut self, tenant: u64) -> Result<(), StoreError> {
        let t = self
            .state
            .tenant_mut(tenant)
            .ok_or(StoreError::UnknownTenant(tenant))?;
        if t.tokens == 0 {
            self.stats.rate_denials += 1;
            return Err(StoreError::RateLimited { tenant });
        }
        // Unlimited buckets never drain (the single-tenant default).
        if t.tokens != u32::MAX {
            t.tokens -= 1;
        }
        Ok(())
    }

    /// Advance the rate-limit clock: refill every tenant's tokens.
    pub fn tick(&mut self) {
        self.state.tick();
    }

    // ------------------------------------------------------------------
    // Key access, eviction, reload
    // ------------------------------------------------------------------

    /// Look up the current key for `(tenant, epc)`, stamping the LRU clock
    /// and transparently reloading it if it was evicted. `Ok(None)` means
    /// the ticket is unknown, unbound, or revoked.
    pub fn key_for(&mut self, tenant: u64, epc: [u8; 12]) -> Result<Option<&[u8]>, StoreError> {
        self.access_clock += 1;
        let clock = self.access_clock;
        let needs_reload = matches!(
            self.state.ticket(tenant, &epc),
            Some(t) if t.evicted && !t.revoked
        );
        if needs_reload {
            self.reload_key(tenant, epc)?;
            // The reloaded key is the most recently used — protect it while
            // re-enforcing the ceiling.
            self.enforce_ceiling(Some((tenant, epc)));
        }
        self.state.touch(tenant, &epc, clock);
        Ok(self.peek_key(tenant, epc))
    }

    /// Non-mutating peek: returns the resident key only (an evicted key
    /// reads as `None`). For the reloading path use `key_for`.
    pub fn peek_key(&self, tenant: u64, epc: [u8; 12]) -> Option<&[u8]> {
        self.state
            .ticket(tenant, &epc)
            .and_then(|t| t.key.as_deref())
    }

    /// Reload one evicted key from its home: read only that byte range
    /// and check it against the digest taken at eviction. Bytes that do
    /// not reproduce the evicted key (rot, a file cut short, a record that
    /// is not this key's latest) are `Corrupted` at the home's file
    /// offset, and the ticket stays evicted.
    fn reload_key(&mut self, tenant: u64, epc: [u8; 12]) -> Result<(), StoreError> {
        let Some(ticket) = self.state.ticket(tenant, &epc) else {
            return Ok(());
        };
        let (generation, digest) = (ticket.generation, ticket.evicted_digest);
        // Every key the store holds was read from or written to media, so
        // an evicted key always has a home.
        let home = ticket.home.ok_or(StoreError::Corrupted { offset: 0 })?;
        let (file, offset) = if home.in_snapshot {
            (SNAPSHOT_FILE, snapshot::HEADER_LEN + home.offset)
        } else {
            (JOURNAL_FILE, home.offset)
        };
        let key = match self.volume.read_range(file, offset, home.len as usize)? {
            Some(key) if home.in_snapshot => Some(key),
            Some(record) => match decode_record(&record).map(|(rec, _)| rec.body) {
                Ok(
                    RecordBody::KeyBound { tenant: t, epc: e, generation: g, key }
                    | RecordBody::KeyRotated { tenant: t, epc: e, generation: g, key }
                    | RecordBody::ReEnrolled { tenant: t, epc: e, generation: g, key },
                ) if t == tenant && e == epc && g == generation => Some(key),
                _ => None,
            },
            None => None,
        };
        match key {
            Some(key) if fnv_mix(&key) == digest => {
                self.state.set_key(tenant, &epc, Some(key), Some(home));
                self.stats.reloads += 1;
                Ok(())
            }
            _ => Err(StoreError::Corrupted { offset }),
        }
    }

    /// Evict least-recently-used resident keys until under the ceiling.
    fn enforce_ceiling(&mut self, protect: Option<(u64, [u8; 12])>) {
        if self.config.memory_ceiling_bytes == 0 {
            return;
        }
        while self.state.resident_bytes() > self.config.memory_ceiling_bytes {
            let Some((tenant, epc)) = self.state.lru_resident(protect) else {
                break;
            };
            #[cfg(test)]
            assert_eq!(
                Some((tenant, epc)),
                self.state.lru_resident_scan(protect),
                "the ordered LRU index and the ticket scan pick different victims"
            );
            self.state.evict(tenant, &epc);
            self.stats.evictions_memory += 1;
        }
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Install a compacted snapshot and truncate the journal.
    ///
    /// Evicted keys are hydrated first: the journal is about to be
    /// truncated, so a snapshot with holes would lose them forever.
    /// Hydration may push resident keys over the ceiling, so it is
    /// re-enforced whether or not the install succeeds.
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        let installed = self.install_snapshot();
        self.enforce_ceiling(None);
        installed
    }

    fn install_snapshot(&mut self) -> Result<(), StoreError> {
        self.hydrate_all()?;
        let seq_through = self.next_seq - 1;
        let mut homes = Vec::new();
        let state_bytes = self
            .state
            .serialize_homed(|tenant, epc, home| homes.push((tenant, *epc, home)));
        let snap = encode_snapshot(seq_through, &state_bytes);
        self.volume.write(SNAPSHOT_TMP, &snap)?;
        if let Err(e) = self.volume.rename(SNAPSHOT_TMP, SNAPSHOT_FILE) {
            // Old snapshot and journal remain authoritative; drop the tmp.
            self.stats.rename_failures += 1;
            let _ = self.volume.remove(SNAPSHOT_TMP);
            return Err(StoreError::SnapshotRename(match e {
                StoreError::Io(m) => m,
                other => other.to_string(),
            }));
        }
        // Commit point passed. The rename replaced the file that old
        // snapshot homes pointed into, and the truncate below removes the
        // records journal homes point at, so every key moves to its bytes
        // in the new snapshot now.
        for (tenant, epc, home) in homes {
            self.state.set_home(tenant, &epc, home);
        }
        // Journal records ≤ seq_through are redundant.
        self.volume.truncate(JOURNAL_FILE, 0)?;
        self.snapshot_seq = seq_through;
        self.appends_since_snapshot = 0;
        self.stats.snapshots += 1;
        Ok(())
    }

    /// Reload every evicted key (used before snapshots and full-state
    /// comparisons).
    pub fn hydrate_all(&mut self) -> Result<(), StoreError> {
        for (tenant, epc) in self.state.evicted_epcs() {
            self.reload_key(tenant, epc)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Canonical bytes of the *fully hydrated* durable state — the
    /// bit-identical comparison basis the recovery soak uses.
    pub fn full_state_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        self.hydrate_all()?;
        Ok(self.state.serialize())
    }

    /// Stable digest of the fully hydrated durable state.
    pub fn full_digest(&mut self) -> Result<u64, StoreError> {
        Ok(crate::mix(crate::fnv_mix(&self.full_state_bytes()?)))
    }

    pub fn state(&self) -> &StoreState {
        &self.state
    }

    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Seq of the last acknowledged record.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current journal length in bytes (for boundary-enumeration tests).
    pub fn journal_len(&self) -> Result<usize, StoreError> {
        self.volume.len(JOURNAL_FILE)
    }
}

/// Convenience: open a faulted in-memory store for soak harnesses.
pub fn open_faulted_mem(
    media: crate::media::MemVolume,
    plan: faults::StorageFaults,
    config: StoreConfig,
) -> Result<DurableStore, StoreError> {
    DurableStore::open(Box::new(faults::FaultedVolume::new(media, plan)), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{
        ScheduledStorageFault, StorageFaultKind, StorageFaults, StorageOp,
    };
    use crate::media::MemVolume;
    use crate::record::HEADER_LEN;
    use crate::state::TICKET_OVERHEAD_BYTES;

    fn epc(i: u8) -> [u8; 12] {
        let mut e = [0u8; 12];
        e[0] = i;
        e[11] = i.wrapping_mul(7);
        e
    }

    fn key(i: u8) -> Vec<u8> {
        vec![i; 32]
    }

    #[test]
    fn kill_and_recover_is_bit_identical() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..10u8 {
            store.issue(t, epc(i), 1).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        store.rotate_key(t, epc(3), &key(0xB3)).unwrap();
        store.revoke(t, epc(7)).unwrap();
        let want = store.full_state_bytes().unwrap();

        // "Kill": drop the store, reopen on a crash image of the media.
        drop(store);
        let mut back =
            DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default()).unwrap();
        assert_eq!(back.full_state_bytes().unwrap(), want);
        assert_eq!(back.stats().replays, 1);
        assert!(back.stats().records_replayed >= 23);
        assert_eq!(back.key_for(t, epc(3)).unwrap(), Some(&key(0xB3)[..]));
        assert_eq!(back.key_for(t, epc(7)).unwrap(), None); // revoked
    }

    #[test]
    fn enroll_binds_then_re_enrols_and_both_survive_a_reopen() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        assert_eq!(store.enroll(t, epc(1), &key(1)).unwrap(), 1);
        assert_eq!(store.enroll(t, epc(1), &key(2)).unwrap(), 2);
        drop(store);

        let image = media.deep_clone();
        let records = journal::replay(&image.read(JOURNAL_FILE).unwrap().unwrap()).records;
        let writes: Vec<(&str, u32, &[u8])> = records
            .iter()
            .filter_map(|r| match &r.body {
                RecordBody::KeyBound { generation, key, .. } => {
                    Some(("bound", *generation, &key[..]))
                }
                RecordBody::ReEnrolled { generation, key, .. } => {
                    Some(("re-enrolled", *generation, &key[..]))
                }
                _ => None,
            })
            .collect();
        assert_eq!(writes, [("bound", 1, &key(1)[..]), ("re-enrolled", 2, &key(2)[..])]);
        let mut back = DurableStore::open(Box::new(image), StoreConfig::default()).unwrap();
        assert_eq!(back.state().ticket(t, &epc(1)).unwrap().generation, 2);
        assert_eq!(back.key_for(t, epc(1)).unwrap(), Some(&key(2)[..]));
    }

    #[test]
    fn snapshot_compacts_and_recovery_is_equivalent() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..8u8 {
            store.issue(t, epc(i), 2).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        store.snapshot().unwrap();
        assert_eq!(store.journal_len().unwrap(), 0, "journal truncated");
        // Post-snapshot tail.
        store.rotate_key(t, epc(1), &key(0xC1)).unwrap();
        store.issue(t, epc(20), 2).unwrap();
        let want = store.full_state_bytes().unwrap();

        let mut back =
            DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default()).unwrap();
        assert_eq!(back.full_state_bytes().unwrap(), want);
        // Only the 2 tail records replay; the other 17 came from the snapshot.
        assert_eq!(back.stats().records_replayed, 2);
    }

    #[test]
    fn crash_between_rename_and_truncate_replays_idempotently() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        store.bind_key(t, epc(1), &key(1)).unwrap();
        store.rotate_key(t, epc(1), &key(2)).unwrap();
        let want = store.full_state_bytes().unwrap();

        // Simulate the torn protocol: install the snapshot by hand but
        // "crash" before the journal truncate — journal still holds all
        // records, snapshot covers them too.
        let seq = store.last_seq();
        let state_bytes = store.full_state_bytes().unwrap();
        let mut m = media.deep_clone();
        m.write(SNAPSHOT_FILE, &encode_snapshot(seq, &state_bytes))
            .unwrap();
        let mut back = DurableStore::open(Box::new(m), StoreConfig::default()).unwrap();
        assert_eq!(back.full_state_bytes().unwrap(), want);
        // All journal records were ≤ snapshot seq → skipped, not re-applied.
        assert_eq!(back.stats().records_replayed, 0);
        // Generation must not have double-advanced.
        assert_eq!(back.state().ticket(t, &epc(1)).unwrap().generation, 2);
    }

    #[test]
    fn torn_append_rolls_back_and_retry_succeeds() {
        let media = MemVolume::new();
        let plan = StorageFaults::scripted(
            3,
            vec![ScheduledStorageFault {
                op: StorageOp::Append,
                occurrence: 2,
                fault: StorageFaultKind::TornAppend,
            }],
        );
        let mut store = open_faulted_mem(media.clone(), plan, StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        let before = store.journal_len().unwrap();
        let err = store.bind_key(t, epc(1), &key(1)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // Rollback: journal unchanged, state unchanged.
        assert_eq!(store.journal_len().unwrap(), before);
        assert_eq!(store.state().ticket(t, &epc(1)).unwrap().key, None);
        assert_eq!(store.stats().append_repairs, 1);
        // Retry lands.
        store.bind_key(t, epc(1), &key(1)).unwrap();
        assert_eq!(store.key_for(t, epc(1)).unwrap(), Some(&key(1)[..]));
        // And the media image is recoverable right now.
        let mut back =
            DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default()).unwrap();
        assert_eq!(back.key_for(t, epc(1)).unwrap(), Some(&key(1)[..]));
    }

    #[test]
    fn failed_snapshot_rename_leaves_old_snapshot_and_journal_authoritative() {
        let media = MemVolume::new();
        let plan = StorageFaults::scripted(
            5,
            vec![ScheduledStorageFault {
                op: StorageOp::Rename,
                occurrence: 1, // the *second* snapshot fails
                fault: StorageFaultKind::RenameFail,
            }],
        );
        let mut store = open_faulted_mem(media.clone(), plan, StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        store.bind_key(t, epc(1), &key(1)).unwrap();
        store.snapshot().unwrap(); // first snapshot installs

        store.rotate_key(t, epc(1), &key(2)).unwrap();
        let jlen = store.journal_len().unwrap();
        let err = store.snapshot().unwrap_err();
        assert!(matches!(err, StoreError::SnapshotRename(_)));
        assert_eq!(store.stats().rename_failures, 1);
        // Journal untouched by the failed install.
        assert_eq!(store.journal_len().unwrap(), jlen);
        let want = store.full_state_bytes().unwrap();
        // Recovery uses old snapshot + journal tail and agrees.
        let mut back =
            DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default()).unwrap();
        assert_eq!(back.full_state_bytes().unwrap(), want);
        assert_eq!(back.state().ticket(t, &epc(1)).unwrap().generation, 2);
    }

    #[test]
    fn lru_eviction_under_ceiling_reloads_on_demand() {
        let media = MemVolume::new();
        // Room for ~3 keys of 32 bytes (overhead 64 + 32 = 96 each).
        let config = StoreConfig {
            memory_ceiling_bytes: 3 * (TICKET_OVERHEAD_BYTES + 32),
            snapshot_every: 0,
            salvage_corruption: false,
        };
        let mut store = DurableStore::open(Box::new(media.clone()), config).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..6u8 {
            store.issue(t, epc(i), 1).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        assert_eq!(store.stats().evictions_memory, 3);
        assert!(store.state().resident_bytes() <= config.memory_ceiling_bytes);
        // Three keys were evicted; peek shows them gone...
        let evicted: Vec<u8> = (0..6u8).filter(|&i| store.peek_key(t, epc(i)).is_none()).collect();
        assert_eq!(evicted.len(), 3);
        // ...but key_for transparently reloads them from the journal.
        let victim = evicted[0];
        assert_eq!(store.key_for(t, epc(victim)).unwrap(), Some(&key(victim)[..]));
        assert_eq!(store.stats().reloads, 1);
        // Ceiling still holds after the reload (something else got evicted).
        assert!(store.state().resident_bytes() <= config.memory_ceiling_bytes);
        // Hydration + snapshot preserves every key even with evictions.
        store.snapshot().unwrap();
        let mut back = DurableStore::open(Box::new(media.deep_clone()), config).unwrap();
        for i in 0..6u8 {
            assert_eq!(
                back.key_for(t, epc(i)).unwrap(),
                Some(&key(i)[..]),
                "key {i} survived eviction + snapshot + recovery"
            );
        }
    }

    #[test]
    fn reload_sees_rotations_that_happened_after_eviction() {
        let media = MemVolume::new();
        let config = StoreConfig {
            memory_ceiling_bytes: TICKET_OVERHEAD_BYTES + 32, // exactly 1 key
            snapshot_every: 0,
            salvage_corruption: false,
        };
        let mut store = DurableStore::open(Box::new(media), config).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        store.issue(t, epc(2), 1).unwrap();
        store.bind_key(t, epc(1), &key(1)).unwrap();
        store.bind_key(t, epc(2), &key(2)).unwrap(); // evicts epc(1)
        assert_eq!(store.peek_key(t, epc(1)), None);
        // Rotate the *evicted* ticket: journal gains a newer generation.
        store.rotate_key(t, epc(1), &key(0xEE)).unwrap();
        assert_eq!(store.key_for(t, epc(1)).unwrap(), Some(&key(0xEE)[..]));
    }

    #[test]
    fn quotas_and_rate_limits_enforce_and_survive_recovery() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let quota = TenantQuota {
            max_tickets: 2,
            enroll_burst: 2,
            enroll_refill: 1,
        };
        let t = store.create_tenant(quota).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        store.issue(t, epc(2), 1).unwrap();
        assert!(matches!(
            store.issue(t, epc(3), 1),
            Err(StoreError::QuotaExceeded { .. })
        ));
        assert_eq!(store.stats().quota_denials, 1);
        // Revoking frees a quota slot.
        store.revoke(t, epc(2)).unwrap();
        store.issue(t, epc(3), 1).unwrap();

        store.take_enroll_token(t).unwrap();
        store.take_enroll_token(t).unwrap();
        assert!(matches!(
            store.take_enroll_token(t),
            Err(StoreError::RateLimited { .. })
        ));
        store.tick();
        store.take_enroll_token(t).unwrap();

        // Quota config survives recovery (tokens reset to burst).
        let mut back =
            DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default()).unwrap();
        assert_eq!(back.state().tenant(t).unwrap().quota, quota);
        assert!(matches!(
            back.issue(t, epc(9), 1),
            Err(StoreError::QuotaExceeded { .. })
        ));
        back.take_enroll_token(t).unwrap();
    }

    #[test]
    fn corruption_refuses_to_open_unless_salvage() {
        let media = MemVolume::new();
        let mut store =
            DurableStore::open(Box::new(media.clone()), StoreConfig::default()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..5u8 {
            store.issue(t, epc(i), 1).unwrap();
        }
        // Rot a byte in the middle of the journal (record 2's payload).
        let mut image = media.deep_clone();
        let mut j = image.read(JOURNAL_FILE).unwrap().unwrap();
        let pos = j.len() / 2;
        j[pos] ^= 0x08;
        image.write(JOURNAL_FILE, &j).unwrap();

        let strict = DurableStore::open(Box::new(image.clone()), StoreConfig::default());
        assert!(matches!(strict, Err(StoreError::Corrupted { .. })));

        let salvage_cfg = StoreConfig {
            salvage_corruption: true,
            ..StoreConfig::default()
        };
        let salvaged = DurableStore::open(Box::new(image), salvage_cfg).unwrap();
        assert_eq!(salvaged.stats().salvaged, 1);
        // Salvage keeps an intact prefix — strictly fewer tickets, none wrong.
        let n = salvaged.state().tenant(t).map(|t| t.ticket_count()).unwrap_or(0);
        assert!(n < 5);
        for (e, ticket) in salvaged.state().tenant(t).unwrap().tickets() {
            assert_eq!(*e, epc(ticket.serial as u8), "salvaged ticket is genuine");
        }
    }

    #[test]
    fn auto_snapshot_fires_on_cadence() {
        let media = MemVolume::new();
        let config = StoreConfig {
            snapshot_every: 10,
            ..StoreConfig::default()
        };
        let mut store = DurableStore::open(Box::new(media.clone()), config).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..30u8 {
            store.issue(t, epc(i), 1).unwrap();
        }
        assert!(store.stats().snapshots >= 2);
        // Journal stays short because compaction keeps truncating it.
        let back = DurableStore::open(Box::new(media.deep_clone()), config).unwrap();
        assert!(back.stats().records_replayed < 11);
        assert_eq!(back.state().tenant(t).unwrap().ticket_count(), 30);
    }

    fn one_key_config() -> StoreConfig {
        StoreConfig {
            memory_ceiling_bytes: TICKET_OVERHEAD_BYTES + 32,
            ..StoreConfig::default()
        }
    }

    /// Byte offset of the journal record matching `pick`.
    fn record_offset(media: &MemVolume, pick: impl Fn(&RecordBody) -> bool) -> usize {
        let replayed = journal::replay(&media.read(JOURNAL_FILE).unwrap().unwrap());
        let at = replayed.records.iter().position(|r| pick(&r.body)).unwrap();
        replayed.offsets[at]
    }

    fn flip_bit(media: &MemVolume, file: &str, at: usize) {
        let mut bytes = media.read(file).unwrap().unwrap();
        bytes[at] ^= 0x10;
        media.clone().write(file, &bytes).unwrap();
    }

    /// One-key ceiling: bind e1, bind e2, rotate e1, read e2. Leaves e1
    /// evicted with its generation-2 key homed in the rotate record.
    fn rotated_then_evicted() -> (DurableStore, MemVolume, u64) {
        let media = MemVolume::new();
        let mut store = DurableStore::open(Box::new(media.clone()), one_key_config()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        store.issue(t, epc(1), 1).unwrap();
        store.issue(t, epc(2), 1).unwrap();
        store.bind_key(t, epc(1), &key(1)).unwrap();
        store.bind_key(t, epc(2), &key(2)).unwrap();
        store.rotate_key(t, epc(1), &key(0xE1)).unwrap();
        assert_eq!(store.key_for(t, epc(2)).unwrap(), Some(&key(2)[..]));
        assert_eq!(store.peek_key(t, epc(1)), None);
        (store, media, t)
    }

    #[test]
    fn reload_serves_the_latest_generation_despite_rot_in_another_record() {
        let (mut store, media, t) = rotated_then_evicted();
        let at = record_offset(&media, |b| {
            matches!(b, RecordBody::KeyBound { epc: e, .. } if *e == epc(2))
        });
        flip_bit(&media, JOURNAL_FILE, at + HEADER_LEN + 2);
        assert_eq!(store.key_for(t, epc(1)).unwrap(), Some(&key(0xE1)[..]));
        assert_eq!(store.state().ticket(t, &epc(1)).unwrap().generation, 2);
        assert_eq!(store.stats().reloads, 2);
    }

    /// Reading `(t, e)` fails with `Corrupted` and leaves the state and
    /// the counters exactly as they were.
    fn assert_reload_refused(store: &mut DurableStore, t: u64, e: [u8; 12]) {
        let (state, stats) = (store.state().clone(), *store.stats());
        for _ in 0..2 {
            let got = store.key_for(t, e);
            assert!(matches!(got, Err(StoreError::Corrupted { .. })), "got {got:?}");
            assert_eq!(store.state(), &state);
            assert_eq!(store.stats(), &stats);
        }
    }

    #[test]
    fn reload_refuses_rot_inside_the_keys_journal_home() {
        let (mut store, media, t) = rotated_then_evicted();
        let home = store.state().ticket(t, &epc(1)).unwrap().home.unwrap();
        let at = record_offset(&media, |b| matches!(b, RecordBody::KeyRotated { .. }));
        assert_eq!((home.in_snapshot, home.offset), (false, at));
        flip_bit(&media, JOURNAL_FILE, at + HEADER_LEN + 30);
        assert_reload_refused(&mut store, t, epc(1));
        // The other key's home is intact.
        assert_eq!(store.key_for(t, epc(2)).unwrap(), Some(&key(2)[..]));
    }

    #[test]
    fn reload_refuses_rot_inside_the_keys_snapshot_home() {
        let media = MemVolume::new();
        let mut store = DurableStore::open(Box::new(media.clone()), one_key_config()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 1..=2u8 {
            store.issue(t, epc(i), 1).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        store.snapshot().unwrap();
        assert_eq!(store.journal_len().unwrap(), 0);
        // e1 is the older key, so the snapshot's re-enforced ceiling
        // evicted it again, now homed in the snapshot.
        assert_eq!(store.peek_key(t, epc(1)), None);
        let home = store.state().ticket(t, &epc(1)).unwrap().home.unwrap();
        assert!(home.in_snapshot);
        let snap = media.read(SNAPSHOT_FILE).unwrap().unwrap();
        let at = snap.windows(32).position(|w| w == key(1)).unwrap();
        assert_eq!(at, snapshot::HEADER_LEN + home.offset);
        flip_bit(&media, SNAPSHOT_FILE, at + 5);
        assert_reload_refused(&mut store, t, epc(1));
    }

    #[test]
    fn homes_move_to_the_snapshot_only_when_it_installs() {
        let media = MemVolume::new();
        let plan = StorageFaults::scripted(
            11,
            vec![ScheduledStorageFault {
                op: StorageOp::Rename,
                occurrence: 0,
                fault: StorageFaultKind::RenameFail,
            }],
        );
        let mut store = open_faulted_mem(media.clone(), plan, one_key_config()).unwrap();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 1..=3u8 {
            store.issue(t, epc(i), 1).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        let homes = |s: &DurableStore| -> Vec<Option<Home>> {
            (1..=3u8).map(|i| s.state().ticket(t, &epc(i)).unwrap().home).collect()
        };
        let before = homes(&store);
        assert!(before.iter().all(|h| matches!(h, Some(h) if !h.in_snapshot)));
        assert!(matches!(store.snapshot(), Err(StoreError::SnapshotRename(_))));
        assert_eq!(homes(&store), before, "a failed install moves no home");
        store.snapshot().unwrap();
        assert!(homes(&store).iter().all(|h| matches!(h, Some(h) if h.in_snapshot)));
        for i in 1..=3u8 {
            assert_eq!(store.key_for(t, epc(i)).unwrap(), Some(&key(i)[..]));
        }
        // Reopened, keys are homed in the loaded snapshot; the first write
        // enforces the ceiling, and reads reload from the snapshot.
        let mut back = DurableStore::open(Box::new(media.deep_clone()), one_key_config()).unwrap();
        assert!(homes(&back).iter().all(|h| matches!(h, Some(h) if h.in_snapshot)));
        back.issue(t, epc(9), 1).unwrap();
        for i in (1..=3u8).rev() {
            assert_eq!(back.key_for(t, epc(i)).unwrap(), Some(&key(i)[..]));
        }
        assert!(back.stats().reloads >= 1);
    }

    #[test]
    fn reloads_read_ranges_of_a_file_volume() {
        let dir = std::env::temp_dir().join(format!("wavekey-store-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let volume = crate::media::FileVolume::open(&dir).unwrap();
            DurableStore::open(Box::new(volume), one_key_config()).unwrap()
        };
        let mut store = open();
        let t = store.create_tenant(TenantQuota::unlimited()).unwrap();
        for i in 0..4u8 {
            store.issue(t, epc(i), 1).unwrap();
            store.bind_key(t, epc(i), &key(i)).unwrap();
        }
        store.snapshot().unwrap();
        store.rotate_key(t, epc(2), &key(0xD2)).unwrap();
        let want = [key(0), key(1), key(0xD2), key(3)];
        for (i, k) in want.iter().enumerate() {
            assert_eq!(store.key_for(t, epc(i as u8)).unwrap(), Some(&k[..]));
        }
        drop(store);
        let mut back = open();
        back.issue(t, epc(9), 1).unwrap(); // enforces the ceiling
        for (i, k) in want.iter().enumerate().rev() {
            assert_eq!(back.key_for(t, epc(i as u8)).unwrap(), Some(&k[..]));
        }
        assert!(back.stats().reloads >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ordered-LRU differential: random issue/bind/rotate/re-enrol/revoke/
    /// read/snapshot/reopen sequences under a 1–4 key ceiling. Every victim
    /// is checked against the ticket scan inside `enforce_ceiling`; here
    /// every read must match a twin store with no ceiling, the counters
    /// other than evictions and reloads must match the twin's, and the
    /// hydrated state must end byte-identical.
    #[test]
    fn ordered_lru_matches_the_scan_and_a_ceiling_free_twin() {
        use rand::Rng;
        let (mut evictions, mut reloads) = (0, 0);
        rand::check::cases("ordered_lru_matches_the_scan_and_a_ceiling_free_twin", 128, |rng| {
            let slots = rng.gen_range(1..=4usize);
            let config = StoreConfig {
                memory_ceiling_bytes: slots * (TICKET_OVERHEAD_BYTES + 32),
                ..StoreConfig::default()
            };
            let (media, twin_media) = (MemVolume::new(), MemVolume::new());
            let mut store = DurableStore::open(Box::new(media.clone()), config).unwrap();
            let mut twin =
                DurableStore::open(Box::new(twin_media.clone()), StoreConfig::default()).unwrap();
            let quotas = [
                TenantQuota::unlimited(),
                TenantQuota {
                    max_tickets: 5,
                    ..TenantQuota::unlimited()
                },
            ];
            for quota in quotas {
                assert_eq!(store.create_tenant(quota), twin.create_tenant(quota));
            }
            for step in 0..rng.gen_range(40..160u32) {
                let t = rng.gen_range(1..=2u64);
                let e = epc(rng.gen_range(0..7u8));
                let mut k = [0u8; 32];
                rng.fill(&mut k[..]);
                match rng.gen_range(0..100u32) {
                    0..=11 => assert_eq!(store.issue(t, e, 1), twin.issue(t, e, 1)),
                    12..=27 => assert_eq!(store.bind_key(t, e, &k), twin.bind_key(t, e, &k)),
                    28..=37 => assert_eq!(store.rotate_key(t, e, &k), twin.rotate_key(t, e, &k)),
                    38..=43 => assert_eq!(store.re_enroll(t, e, &k), twin.re_enroll(t, e, &k)),
                    44..=47 => assert_eq!(store.revoke(t, e), twin.revoke(t, e)),
                    48..=95 => {
                        let want = twin.key_for(t, e).unwrap().map(<[u8]>::to_vec);
                        let got = store.key_for(t, e).unwrap().map(<[u8]>::to_vec);
                        assert_eq!(got, want, "step {step}: key_for({t}, {e:?})");
                    }
                    96..=97 => assert_eq!(store.snapshot(), twin.snapshot()),
                    _ => {
                        evictions += store.stats().evictions_memory;
                        reloads += store.stats().reloads;
                        let twin_media = Box::new(twin_media.clone());
                        store = DurableStore::open(Box::new(media.clone()), config).unwrap();
                        twin = DurableStore::open(twin_media, StoreConfig::default()).unwrap();
                    }
                }
                let masked = StoreStats {
                    evictions_memory: 0,
                    reloads: 0,
                    ..*store.stats()
                };
                assert_eq!(masked, *twin.stats(), "step {step}");
            }
            assert_eq!(store.full_state_bytes().unwrap(), twin.full_state_bytes().unwrap());
            evictions += store.stats().evictions_memory;
            reloads += store.stats().reloads;
        });
        // The cases must actually drive the ceiling.
        assert!(evictions > 500 && reloads > 500, "{evictions} evictions, {reloads} reloads");
    }
}
