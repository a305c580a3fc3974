//! # wavekey-store — durable state for the WaveKey access service
//!
//! The paper's access-control model only works if the server side survives
//! restarts: tags are passive and cheap, so the reader/server pair carries
//! all the state (EPC → bound key, tenant quotas, rotation generations).
//! This crate is the durability layer under `AccessService`:
//!
//! * [`record`] — the journal record codec. Length-prefixed, checksummed,
//!   version-tagged records with *total* decoding: truncation or corruption
//!   is a typed [`record::RecordError`], never a panic (the same discipline
//!   as `wavekey-core`'s `proto::frame`).
//! * [`journal`] — append-only write-ahead journal framing and replay with
//!   an explicit tail taxonomy (clean / torn tail / mid-journal corruption).
//! * [`snapshot`] — compacted snapshots written via the classic
//!   write-tmp → rename → truncate-journal protocol.
//! * [`state`] — the replayable tenant/ticket/key state machine with
//!   sharded per-tenant maps and canonical (bit-stable) serialization.
//! * [`media`] — the [`media::Volume`] abstraction over storage media, with
//!   an in-memory volume for tests/benches and a file-backed volume.
//! * [`faults`] — seeded storage-fault injection (torn appends, short
//!   appends, bit rot, failed snapshot rename), pure in
//!   `(seed, occurrence)` exactly like the PR 5 wire `FaultPlan`.
//! * [`store`] — [`store::DurableStore`]: the recoverable store that the
//!   access service sits on, with per-tenant quotas/rate limits and LRU
//!   eviction under a configurable memory ceiling.
//!
//! The crate is deliberately std-only (no rand): the journal format has
//! no hidden serializer dependency.

pub mod faults;
pub mod journal;
pub mod media;
pub mod record;
pub mod snapshot;
pub mod state;
pub mod store;

pub use faults::{FaultedVolume, InjectedStorageFault, StorageFaultKind, StorageFaultProfile, StorageFaults, StorageOp};
pub use journal::{Replay, TailStatus, JOURNAL_FILE};
pub use media::{FileVolume, MemVolume, Volume};
pub use record::{Record, RecordBody, RecordError, JOURNAL_VERSION};
pub use snapshot::{SNAPSHOT_FILE, SNAPSHOT_TMP};
pub use state::{StoreState, TenantQuota, TenantState, TicketState};
pub use store::{DurableStore, StoreConfig, StoreStats};

/// Errors surfaced by the durable store and its media layer.
///
/// `Clone + PartialEq` so callers (e.g. `wavekey-core`'s `Error`) can embed
/// it in their own comparable error enums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O-class failure from the underlying volume (including injected
    /// storage faults, which surface exactly like real media errors).
    Io(String),
    /// Acknowledged bytes are damaged: the journal carries corruption that
    /// is not a torn tail and salvage mode is disabled, or an evicted key's
    /// home no longer holds that key. `offset` is the byte offset of the
    /// damage in the journal or snapshot file.
    Corrupted { offset: usize },
    /// The snapshot file itself failed to decode. Snapshots are installed
    /// atomically (tmp + rename), so this means real media damage.
    SnapshotCorrupted(record::RecordError),
    /// A journal record failed to decode.
    Record(record::RecordError),
    /// Operation referenced a tenant id that was never created.
    UnknownTenant(u64),
    /// Operation referenced an EPC with no issued ticket for that tenant.
    UnknownTicket,
    /// The tenant's `max_tickets` quota would be exceeded.
    QuotaExceeded { tenant: u64 },
    /// The tenant's enrolment token bucket is empty this tick.
    RateLimited { tenant: u64 },
    /// Snapshot rename failed; the old snapshot and the journal are intact.
    SnapshotRename(String),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "storage i/o error: {m}"),
            StoreError::Corrupted { offset } => {
                write!(f, "stored bytes corrupted at byte {offset}")
            }
            StoreError::SnapshotCorrupted(e) => write!(f, "snapshot corrupted: {e}"),
            StoreError::Record(e) => write!(f, "journal record error: {e}"),
            StoreError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            StoreError::UnknownTicket => write!(f, "unknown ticket (EPC not issued)"),
            StoreError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} ticket quota exceeded")
            }
            StoreError::RateLimited { tenant } => {
                write!(f, "tenant {tenant} enrolment rate limited")
            }
            StoreError::SnapshotRename(m) => write!(f, "snapshot rename failed: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<record::RecordError> for StoreError {
    fn from(e: record::RecordError) -> Self {
        StoreError::Record(e)
    }
}

/// splitmix64 finalizer — the same mixer the wire-level `FaultPlan` uses,
/// reused for fault decisions and checksums so every verdict is a pure
/// function of its inputs.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice, splitmix-finalized. Used for record checksums
/// and state digests; not cryptographic (integrity against crashes and bit
/// rot, not against an adversary with write access to the media).
#[inline]
pub(crate) fn fnv_mix(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}
