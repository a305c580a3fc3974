//! The replayable tenant/ticket/key state machine.
//!
//! `StoreState` is a pure fold over journal records: `apply` is total and
//! deterministic, so any two replays of the same record prefix are
//! bit-identical — the property the recovery soak gates on. Tickets are
//! held in sharded per-tenant maps (EPC-hash sharding) so hot multi-tenant
//! lookups don't contend on one tree; canonical serialization iterates
//! tenants, shards and EPCs in a fixed order and excludes every ephemeral
//! field (LRU stamps, rate-limit tokens, key homes), making `serialize()`
//! a stable fingerprint of durable state.
//!
//! Resident keys are also indexed in eviction order, so picking the
//! least-recently-used key is a first-element lookup rather than a scan
//! over every ticket.

use std::collections::{BTreeMap, BTreeSet};

use crate::record::{RecordBody, RecordError, MAX_KEY_LEN};
use crate::{fnv_mix, mix};

/// Number of ticket shards per tenant. Eight keeps trees shallow for the
/// fleet sizes the gateway soak drives without bloating tiny tenants.
pub const TICKET_SHARDS: usize = 8;

/// Serialization format version for snapshots.
pub const STATE_VERSION: u8 = 1;

/// Fixed per-ticket bookkeeping cost used by the memory-ceiling
/// accounting: EPC + serial/generation/flags + map overhead estimate.
pub const TICKET_OVERHEAD_BYTES: usize = 64;

/// Durable per-tenant quota configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum live (unrevoked) tickets.
    pub max_tickets: u32,
    /// Enrolment token-bucket capacity.
    pub enroll_burst: u32,
    /// Tokens refilled per `tick()`.
    pub enroll_refill: u32,
}

impl TenantQuota {
    /// Effectively no limits — the default tenant of a single-tenant
    /// service behaves exactly like the pre-durability `AccessService`.
    pub fn unlimited() -> Self {
        TenantQuota {
            max_tickets: u32::MAX,
            enroll_burst: u32::MAX,
            enroll_refill: u32::MAX,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

/// Where the latest durable copy of a key lives: a byte range of the
/// journal (the whole record that wrote the key) or of the installed
/// snapshot's payload (the key bytes themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Home {
    /// The range is in the snapshot payload, not the journal.
    pub in_snapshot: bool,
    /// First byte of the range.
    pub offset: usize,
    /// Length of the range in bytes.
    pub len: u32,
}

/// One issued ticket (EPC) and its key lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketState {
    /// Tag model byte recorded at issue time.
    pub model: u8,
    /// Issue serial (doubles as lineup queue position).
    pub serial: u32,
    /// Key generation: 0 = never bound, then 1, 2, … per bind/rotate.
    pub generation: u32,
    /// Current key material; `None` when unbound, revoked, or evicted.
    pub key: Option<Vec<u8>>,
    /// Ticket has been revoked; key material is gone for good.
    pub revoked: bool,
    /// Ephemeral: key was evicted under memory pressure and can be
    /// reloaded from its home. Never serialized.
    pub evicted: bool,
    /// Ephemeral: `fnv_mix` of the key bytes, taken at eviction; a reload
    /// must reproduce it. Never serialized.
    pub evicted_digest: u64,
    /// Ephemeral: where the current key's latest durable copy lives;
    /// `None` when there is no key or it was never persisted. Never
    /// serialized.
    pub home: Option<Home>,
    /// Ephemeral: LRU stamp. Never serialized.
    pub last_access: u64,
}

impl TicketState {
    fn new(model: u8, serial: u32, revoked: bool) -> Self {
        TicketState {
            model,
            serial,
            generation: 0,
            key: None,
            revoked,
            evicted: false,
            evicted_digest: 0,
            home: None,
            last_access: 0,
        }
    }
}

/// One tenant: quota, serial counter, and sharded tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantState {
    pub quota: TenantQuota,
    pub next_serial: u32,
    shards: Vec<BTreeMap<[u8; 12], TicketState>>,
    /// Unrevoked tickets, maintained by `revive`/`revoke`.
    live: usize,
    /// Ephemeral enrolment tokens (refilled by `tick`). Never serialized.
    pub tokens: u32,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            quota,
            next_serial: 0,
            shards: vec![BTreeMap::new(); TICKET_SHARDS],
            live: 0,
            tokens: quota.enroll_burst,
        }
    }

    fn shard_of(epc: &[u8; 12]) -> usize {
        (fnv_mix(epc) % TICKET_SHARDS as u64) as usize
    }

    pub fn ticket(&self, epc: &[u8; 12]) -> Option<&TicketState> {
        self.shards[Self::shard_of(epc)].get(epc)
    }

    pub(crate) fn ticket_mut(&mut self, epc: &[u8; 12]) -> Option<&mut TicketState> {
        self.shards[Self::shard_of(epc)].get_mut(epc)
    }

    /// The ticket for `epc`, created with `model`/`serial` if absent, and
    /// unrevoked afterwards. A new ticket starts out revoked so that the
    /// live count goes up exactly once, here.
    fn revive(&mut self, epc: &[u8; 12], model: u8, serial: u32) -> &mut TicketState {
        let ticket = self.shards[Self::shard_of(epc)]
            .entry(*epc)
            .or_insert_with(|| TicketState::new(model, serial, true));
        if ticket.revoked {
            ticket.revoked = false;
            self.live += 1;
        }
        ticket
    }

    fn revoke(&mut self, epc: &[u8; 12]) {
        if let Some(ticket) = self.shards[Self::shard_of(epc)].get_mut(epc) {
            if !ticket.revoked {
                ticket.revoked = true;
                self.live -= 1;
            }
        }
    }

    /// Iterate tickets in canonical order (shard index, then EPC).
    pub fn tickets(&self) -> impl Iterator<Item = (&[u8; 12], &TicketState)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Live (unrevoked) ticket count, for quota checks.
    pub fn live_tickets(&self) -> usize {
        self.live
    }

    pub fn ticket_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// Position of a resident key in eviction order:
/// `(last_access, tenant, shard, epc)`.
type LruEntry = (u64, u64, u8, [u8; 12]);

/// The whole durable state: tenants by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreState {
    pub tenants: BTreeMap<u64, TenantState>,
    /// Bytes of resident key material plus per-ticket overhead, maintained
    /// incrementally by `apply`/evict/reload — the memory-ceiling input.
    resident_bytes: usize,
    /// Every resident key, ordered oldest stamp first and then in
    /// canonical ticket order — the victim a scan over all tickets that
    /// keeps the first strictly-oldest stamp would pick.
    lru: BTreeSet<LruEntry>,
}

impl StoreState {
    pub fn new() -> Self {
        StoreState::default()
    }

    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    pub fn tenant(&self, id: u64) -> Option<&TenantState> {
        self.tenants.get(&id)
    }

    pub fn tenant_mut(&mut self, id: u64) -> Option<&mut TenantState> {
        self.tenants.get_mut(&id)
    }

    pub fn ticket(&self, tenant: u64, epc: &[u8; 12]) -> Option<&TicketState> {
        self.tenants.get(&tenant).and_then(|t| t.ticket(epc))
    }

    pub(crate) fn ticket_mut(&mut self, tenant: u64, epc: &[u8; 12]) -> Option<&mut TicketState> {
        self.tenants.get_mut(&tenant).and_then(|t| t.ticket_mut(epc))
    }

    fn cost_of(key: &Option<Vec<u8>>) -> usize {
        key.as_ref().map(|k| TICKET_OVERHEAD_BYTES + k.len()).unwrap_or(0)
    }

    fn lru_entry(tenant: u64, epc: &[u8; 12], stamp: u64) -> LruEntry {
        (stamp, tenant, TenantState::shard_of(epc) as u8, *epc)
    }

    /// Replace a ticket's key and its home, keeping the resident-bytes
    /// counter and the LRU index honest. Every key mutation in the crate
    /// funnels through here or through `evict`.
    pub(crate) fn set_key(
        &mut self,
        tenant: u64,
        epc: &[u8; 12],
        key: Option<Vec<u8>>,
        home: Option<Home>,
    ) {
        let new_cost = Self::cost_of(&key);
        let Some(t) = self.ticket_mut(tenant, epc) else {
            return;
        };
        let old_cost = Self::cost_of(&t.key);
        let (was, is) = (t.key.is_some(), key.is_some());
        t.key = key;
        t.home = home;
        t.evicted = false;
        let entry = Self::lru_entry(tenant, epc, t.last_access);
        self.resident_bytes = self.resident_bytes - old_cost + new_cost;
        if was && !is {
            self.lru.remove(&entry);
        } else if is && !was {
            self.lru.insert(entry);
        }
    }

    /// Drop a resident key under memory pressure. Its home and a digest of
    /// its bytes stay behind for the reload.
    pub(crate) fn evict(&mut self, tenant: u64, epc: &[u8; 12]) {
        let Some(t) = self.ticket_mut(tenant, epc) else {
            return;
        };
        let Some(key) = t.key.take() else {
            return;
        };
        t.evicted = true;
        t.evicted_digest = fnv_mix(&key);
        let entry = Self::lru_entry(tenant, epc, t.last_access);
        self.resident_bytes -= TICKET_OVERHEAD_BYTES + key.len();
        self.lru.remove(&entry);
    }

    /// Point a ticket's key at a new durable copy of the same bytes.
    pub(crate) fn set_home(&mut self, tenant: u64, epc: &[u8; 12], home: Home) {
        if let Some(t) = self.ticket_mut(tenant, epc) {
            t.home = Some(home);
        }
    }

    /// Stamp a ticket's LRU clock, moving its resident key (if any) in the
    /// eviction order.
    pub(crate) fn touch(&mut self, tenant: u64, epc: &[u8; 12], stamp: u64) {
        let Some(t) = self.ticket_mut(tenant, epc) else {
            return;
        };
        let old = std::mem::replace(&mut t.last_access, stamp);
        if t.key.is_some() {
            self.lru.remove(&Self::lru_entry(tenant, epc, old));
            self.lru.insert(Self::lru_entry(tenant, epc, stamp));
        }
    }

    /// Fold one journal record into the state. Total and deterministic:
    /// records referencing unknown tenants or tickets create them with
    /// neutral defaults rather than failing — replay must accept any
    /// record sequence the journal actually holds (the *store*'s public
    /// API enforces existence before appending).
    pub fn apply(&mut self, body: &RecordBody) {
        self.apply_homed(body, None);
    }

    /// [`StoreState::apply`], recording `home` as the durable copy of the
    /// key a bind/rotate/re-enrol record writes.
    pub(crate) fn apply_homed(&mut self, body: &RecordBody, home: Option<Home>) {
        match body {
            RecordBody::TenantCreated {
                tenant,
                max_tickets,
                enroll_burst,
                enroll_refill,
            } => {
                let quota = TenantQuota {
                    max_tickets: *max_tickets,
                    enroll_burst: *enroll_burst,
                    enroll_refill: *enroll_refill,
                };
                // Idempotent re-create updates the quota but keeps tickets.
                match self.tenants.get_mut(tenant) {
                    Some(t) => {
                        t.quota = quota;
                        t.tokens = t.tokens.min(quota.enroll_burst);
                    }
                    None => {
                        self.tenants.insert(*tenant, TenantState::new(quota));
                    }
                }
            }
            RecordBody::TicketIssued {
                tenant,
                epc,
                model,
                serial,
            } => {
                let t = self
                    .tenants
                    .entry(*tenant)
                    .or_insert_with(|| TenantState::new(TenantQuota::unlimited()));
                // Re-issue of an existing EPC refreshes model/serial and
                // clears revocation (a new physical tag took the slot).
                let ticket = t.revive(epc, *model, *serial);
                ticket.model = *model;
                ticket.serial = *serial;
                t.next_serial = t.next_serial.max(serial.wrapping_add(1));
            }
            RecordBody::KeyBound {
                tenant,
                epc,
                generation,
                key,
            }
            | RecordBody::KeyRotated {
                tenant,
                epc,
                generation,
                key,
            }
            | RecordBody::ReEnrolled {
                tenant,
                epc,
                generation,
                key,
            } => {
                // Ensure the ticket exists (neutral defaults on replay of a
                // journal whose issue record predates the snapshot window).
                let t = self
                    .tenants
                    .entry(*tenant)
                    .or_insert_with(|| TenantState::new(TenantQuota::unlimited()));
                t.revive(epc, 0xFF, 0).generation = *generation;
                self.set_key(*tenant, epc, Some(key.clone()), home);
            }
            RecordBody::TicketRevoked { tenant, epc } => {
                if let Some(t) = self.tenants.get_mut(tenant) {
                    t.revoke(epc);
                }
                self.set_key(*tenant, epc, None, None);
            }
        }
    }

    /// EPCs whose keys are currently evicted (for hydration).
    pub fn evicted_epcs(&self) -> Vec<(u64, [u8; 12])> {
        let mut out = Vec::new();
        for (id, t) in &self.tenants {
            for (epc, ticket) in t.tickets() {
                if ticket.evicted {
                    out.push((*id, *epc));
                }
            }
        }
        out
    }

    /// The least-recently-accessed resident key, excluding `protect`.
    /// Returns `(tenant, epc)` or `None` if nothing is evictable.
    pub fn lru_resident(&self, protect: Option<(u64, [u8; 12])>) -> Option<(u64, [u8; 12])> {
        self.lru
            .iter()
            .map(|&(_, tenant, _, epc)| (tenant, epc))
            .find(|&victim| Some(victim) != protect)
    }

    /// Reference for [`StoreState::lru_resident`]: a scan over every
    /// ticket keeping the first strictly-oldest resident key.
    #[cfg(test)]
    pub(crate) fn lru_resident_scan(
        &self,
        protect: Option<(u64, [u8; 12])>,
    ) -> Option<(u64, [u8; 12])> {
        let mut best: Option<(u64, [u8; 12], u64)> = None;
        for (id, t) in &self.tenants {
            for (epc, ticket) in t.tickets() {
                if ticket.key.is_none() {
                    continue;
                }
                if protect == Some((*id, *epc)) {
                    continue;
                }
                let stamp = ticket.last_access;
                if best.map(|(_, _, s)| stamp < s).unwrap_or(true) {
                    best = Some((*id, *epc, stamp));
                }
            }
        }
        best.map(|(id, epc, _)| (id, epc))
    }

    /// Refill every tenant's enrolment tokens by its quota's refill rate.
    pub fn tick(&mut self) {
        for t in self.tenants.values_mut() {
            t.tokens = t.tokens.saturating_add(t.quota.enroll_refill).min(t.quota.enroll_burst);
        }
    }

    /// Canonical serialization of durable state. Ephemeral fields (LRU
    /// stamps, tokens, eviction flags, homes) are excluded, so two states
    /// that agree on durable content serialize bit-identically.
    ///
    /// Callers must hydrate evicted keys first (`DurableStore` does); a
    /// state serialized with holes would "forget" keys on snapshot.
    pub fn serialize(&self) -> Vec<u8> {
        self.serialize_homed(|_, _, _| {})
    }

    /// [`StoreState::serialize`], reporting where each key's bytes land
    /// in the output as a snapshot [`Home`].
    pub(crate) fn serialize_homed(&self, mut on_key: impl FnMut(u64, &[u8; 12], Home)) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        out.extend_from_slice(&(self.tenants.len() as u32).to_le_bytes());
        for (id, t) in &self.tenants {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&t.quota.max_tickets.to_le_bytes());
            out.extend_from_slice(&t.quota.enroll_burst.to_le_bytes());
            out.extend_from_slice(&t.quota.enroll_refill.to_le_bytes());
            out.extend_from_slice(&t.next_serial.to_le_bytes());
            out.extend_from_slice(&(t.ticket_count() as u32).to_le_bytes());
            for (epc, ticket) in t.tickets() {
                out.extend_from_slice(epc);
                out.push(ticket.model);
                out.extend_from_slice(&ticket.serial.to_le_bytes());
                out.extend_from_slice(&ticket.generation.to_le_bytes());
                out.push(ticket.revoked as u8);
                match &ticket.key {
                    Some(k) => {
                        out.push(1);
                        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                        on_key(*id, epc, Home::snapshot(out.len(), k.len()));
                        out.extend_from_slice(k);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    /// Total deserializer for `serialize` output. Each key is homed at its
    /// byte range in `bytes`, the snapshot payload it was decoded from.
    pub fn deserialize(bytes: &[u8]) -> Result<StoreState, RecordError> {
        let mut cur = SCursor { buf: bytes, pos: 0 };
        let version = cur.u8()?;
        if version != STATE_VERSION {
            return Err(RecordError::UnknownVersion(version));
        }
        let ntenants = cur.u32()? as usize;
        let mut state = StoreState::new();
        for _ in 0..ntenants {
            let id = cur.u64()?;
            let quota = TenantQuota {
                max_tickets: cur.u32()?,
                enroll_burst: cur.u32()?,
                enroll_refill: cur.u32()?,
            };
            let next_serial = cur.u32()?;
            let ntickets = cur.u32()? as usize;
            let mut tenant = TenantState::new(quota);
            tenant.next_serial = next_serial;
            for _ in 0..ntickets {
                let epc: [u8; 12] = cur.bytes(12)?.try_into().unwrap();
                let model = cur.u8()?;
                let serial = cur.u32()?;
                let generation = cur.u32()?;
                let revoked = cur.u8()? != 0;
                let mut ticket = TicketState::new(model, serial, revoked);
                ticket.generation = generation;
                if cur.u8()? != 0 {
                    let klen = cur.u32()? as usize;
                    if klen > MAX_KEY_LEN {
                        return Err(RecordError::Oversized { len: klen });
                    }
                    ticket.home = Some(Home::snapshot(cur.pos, klen));
                    ticket.key = Some(cur.bytes(klen)?.to_vec());
                    state.resident_bytes += TICKET_OVERHEAD_BYTES + klen;
                    state.lru.insert(Self::lru_entry(id, &epc, 0));
                }
                tenant.live += usize::from(!revoked);
                // Canonical bytes never repeat an EPC or a tenant; a
                // repeat would leave stale entries in the counters.
                if tenant.shards[TenantState::shard_of(&epc)].insert(epc, ticket).is_some() {
                    return Err(RecordError::Malformed);
                }
            }
            if state.tenants.insert(id, tenant).is_some() {
                return Err(RecordError::Malformed);
            }
        }
        if cur.pos != bytes.len() {
            return Err(RecordError::Malformed);
        }
        Ok(state)
    }

    /// Stable 64-bit fingerprint of durable state.
    pub fn digest(&self) -> u64 {
        mix(fnv_mix(&self.serialize()))
    }

    /// Durable equality ignoring ephemeral fields — compares canonical
    /// serializations, so eviction flags and LRU stamps don't matter.
    pub fn durably_equals(&self, other: &StoreState) -> bool {
        self.serialize() == other.serialize()
    }
}

impl Home {
    fn snapshot(offset: usize, len: usize) -> Home {
        Home {
            in_snapshot: true,
            offset,
            len: len as u32,
        }
    }

    pub(crate) fn journal(offset: usize, len: usize) -> Home {
        Home {
            in_snapshot: false,
            offset,
            len: len as u32,
        }
    }
}

struct SCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SCursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Malformed)?;
        if end > self.buf.len() {
            return Err(RecordError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epc(i: u8) -> [u8; 12] {
        [i; 12]
    }

    #[test]
    fn apply_is_deterministic_and_replay_reconstructs() {
        let records = vec![
            RecordBody::TenantCreated {
                tenant: 1,
                max_tickets: 10,
                enroll_burst: 5,
                enroll_refill: 1,
            },
            RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(1),
                model: 2,
                serial: 0,
            },
            RecordBody::KeyBound {
                tenant: 1,
                epc: epc(1),
                generation: 1,
                key: vec![9; 32],
            },
            RecordBody::KeyRotated {
                tenant: 1,
                epc: epc(1),
                generation: 2,
                key: vec![7; 32],
            },
            RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(2),
                model: 3,
                serial: 1,
            },
            RecordBody::TicketRevoked {
                tenant: 1,
                epc: epc(2),
            },
        ];
        let mut a = StoreState::new();
        let mut b = StoreState::new();
        for r in &records {
            a.apply(r);
            b.apply(r);
        }
        assert!(a.durably_equals(&b));
        assert_eq!(a.digest(), b.digest());

        let t1 = a.ticket(1, &epc(1)).unwrap();
        assert_eq!(t1.generation, 2);
        assert_eq!(t1.key.as_deref(), Some(&[7u8; 32][..]));
        let t2 = a.ticket(1, &epc(2)).unwrap();
        assert!(t2.revoked);
        assert_eq!(t2.key, None);
        assert_eq!(a.tenant(1).unwrap().live_tickets(), 1);
        assert_eq!(a.tenant(1).unwrap().next_serial, 2);
    }

    #[test]
    fn serialize_roundtrips_and_is_canonical() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TenantCreated {
            tenant: 2,
            max_tickets: 3,
            enroll_burst: 2,
            enroll_refill: 1,
        });
        for i in 0..6u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: (i % 2) as u64 + 1,
                epc: epc(i),
                model: i,
                serial: i as u32,
            });
            if i % 2 == 0 {
                s.apply(&RecordBody::KeyBound {
                    tenant: (i % 2) as u64 + 1,
                    epc: epc(i),
                    generation: 1,
                    key: vec![i; 24],
                });
            }
        }
        let bytes = s.serialize();
        let back = StoreState::deserialize(&bytes).unwrap();
        assert!(back.durably_equals(&s));
        assert_eq!(back.serialize(), bytes);
        assert_eq!(back.resident_bytes(), s.resident_bytes());
    }

    #[test]
    fn deserialize_rejects_repeated_tenants_and_tickets() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TicketIssued {
            tenant: 1,
            epc: epc(1),
            model: 1,
            serial: 0,
        });
        s.apply(&RecordBody::KeyBound {
            tenant: 1,
            epc: epc(1),
            generation: 1,
            key: vec![1; 16],
        });
        let bytes = s.serialize();
        // version 1 byte, tenant count 4, tenant header 28 (ticket count last).
        let (tenant_at, tickets_at) = (5, 5 + 28);
        let mut tickets_twice = bytes.clone();
        tickets_twice[tickets_at - 4..tickets_at].copy_from_slice(&2u32.to_le_bytes());
        tickets_twice.extend_from_slice(&bytes[tickets_at..]);
        assert_eq!(StoreState::deserialize(&tickets_twice), Err(RecordError::Malformed));
        let mut tenants_twice = bytes.clone();
        tenants_twice[1..5].copy_from_slice(&2u32.to_le_bytes());
        tenants_twice.extend_from_slice(&bytes[tenant_at..]);
        assert_eq!(StoreState::deserialize(&tenants_twice), Err(RecordError::Malformed));
    }

    #[test]
    fn deserialize_is_total_on_mutated_bytes() {
        let mut s = StoreState::new();
        for i in 0..4u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(i),
                model: 1,
                serial: i as u32,
            });
            s.apply(&RecordBody::KeyBound {
                tenant: 1,
                epc: epc(i),
                generation: 1,
                key: vec![i; 16],
            });
        }
        let bytes = s.serialize();
        // Truncations.
        for cut in 0..bytes.len() {
            let _ = StoreState::deserialize(&bytes[..cut]); // must not panic
        }
        // Single-byte stomps.
        for pos in 0..bytes.len() {
            let mut m = bytes.clone();
            m[pos] = m[pos].wrapping_add(0x41);
            let _ = StoreState::deserialize(&m); // must not panic
        }
    }

    #[test]
    fn resident_bytes_tracks_key_material() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TicketIssued {
            tenant: 1,
            epc: epc(1),
            model: 1,
            serial: 0,
        });
        assert_eq!(s.resident_bytes(), 0);
        s.apply(&RecordBody::KeyBound {
            tenant: 1,
            epc: epc(1),
            generation: 1,
            key: vec![0; 32],
        });
        assert_eq!(s.resident_bytes(), TICKET_OVERHEAD_BYTES + 32);
        s.apply(&RecordBody::KeyRotated {
            tenant: 1,
            epc: epc(1),
            generation: 2,
            key: vec![0; 48],
        });
        assert_eq!(s.resident_bytes(), TICKET_OVERHEAD_BYTES + 48);
        s.evict(1, &epc(1));
        assert_eq!(s.resident_bytes(), 0);
        s.apply(&RecordBody::TicketRevoked {
            tenant: 1,
            epc: epc(1),
        });
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn tick_refills_tokens_to_burst_cap() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TenantCreated {
            tenant: 1,
            max_tickets: 10,
            enroll_burst: 3,
            enroll_refill: 2,
        });
        let t = s.tenant_mut(1).unwrap();
        t.tokens = 0;
        s.tick();
        assert_eq!(s.tenant(1).unwrap().tokens, 2);
        s.tick();
        assert_eq!(s.tenant(1).unwrap().tokens, 3); // capped at burst
    }

    #[test]
    fn lru_resident_picks_oldest_and_respects_protection() {
        let mut s = StoreState::new();
        for i in 0..3u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(i),
                model: 1,
                serial: i as u32,
            });
            s.apply(&RecordBody::KeyBound {
                tenant: 1,
                epc: epc(i),
                generation: 1,
                key: vec![i; 16],
            });
        }
        // Unstamped keys tie at 0 and leave in canonical ticket order.
        assert_eq!(s.lru_resident(None), s.lru_resident_scan(None));
        s.touch(1, &epc(0), 5);
        s.touch(1, &epc(1), 2);
        s.touch(1, &epc(2), 9);
        assert_eq!(s.lru_resident(None), Some((1, epc(1))));
        assert_eq!(s.lru_resident(Some((1, epc(1)))), Some((1, epc(0))));
        // Re-stamping moves a key; evicting one removes it.
        s.touch(1, &epc(1), 10);
        assert_eq!(s.lru_resident(None), Some((1, epc(0))));
        s.evict(1, &epc(0));
        assert_eq!(s.lru_resident(None), Some((1, epc(2))));
        assert_eq!(s.lru_resident(Some((1, epc(2)))), Some((1, epc(1))));
        s.evict(1, &epc(2));
        assert_eq!(s.lru_resident(Some((1, epc(1)))), None);
        assert_eq!(s.lru_resident(None), s.lru_resident_scan(None));
    }

    #[test]
    fn live_count_matches_a_scan_after_random_records() {
        use rand::Rng;
        rand::check::cases("live_count_matches_a_scan_after_random_records", 64, |rng| {
            let mut s = StoreState::new();
            for seq in 0..rng.gen_range(1..120u32) {
                let tenant = rng.gen_range(1..4u64);
                let e = epc(rng.gen_range(0..12u8));
                let body = match rng.gen_range(0..5u8) {
                    0 => RecordBody::TicketIssued {
                        tenant,
                        epc: e,
                        model: 1,
                        serial: seq,
                    },
                    1 => RecordBody::KeyBound {
                        tenant,
                        epc: e,
                        generation: seq,
                        key: vec![seq as u8; 16],
                    },
                    2 => RecordBody::ReEnrolled {
                        tenant,
                        epc: e,
                        generation: seq,
                        key: vec![seq as u8; 16],
                    },
                    3 => RecordBody::TicketRevoked { tenant, epc: e },
                    _ => RecordBody::TenantCreated {
                        tenant,
                        max_tickets: 4,
                        enroll_burst: 1,
                        enroll_refill: 1,
                    },
                };
                s.apply(&body);
                for t in s.tenants.values() {
                    let scan = t.tickets().filter(|(_, t)| !t.revoked).count();
                    assert_eq!(t.live_tickets(), scan, "after {body:?}");
                }
            }
            let back = StoreState::deserialize(&s.serialize()).unwrap();
            for (id, t) in &s.tenants {
                assert_eq!(back.tenant(*id).unwrap().live_tickets(), t.live_tickets());
            }
        });
    }
}
