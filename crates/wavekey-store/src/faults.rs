//! Seeded storage-fault injection.
//!
//! The PR 5 wire-level `FaultPlan` made the channel adversary a pure
//! function of `(seed, direction, kind, occurrence)`. This module applies
//! the same discipline to the media layer: every fault verdict here is a
//! pure splitmix64 hash of `(seed, operation class, occurrence)`, so a
//! failing soak run is reproducible from its seed alone and two arms with
//! the same seed see the same faults regardless of wall-clock interleaving.
//!
//! Fault taxonomy (see DESIGN.md §16):
//!
//! * **Torn append** — a crash mid-write persists a hash-chosen strict
//!   prefix of the record; the caller sees an I/O error. Models the classic
//!   torn tail that WAL recovery must repair.
//! * **Short append** — same, but the persisted prefix is the first half;
//!   exercises the boundary where the header survives but the payload
//!   does not.
//! * **Bit rot** — the append itself succeeds, then a single bit somewhere
//!   in the already-persisted journal flips *silently*. Only the record
//!   checksum can catch this, later, at replay time.
//! * **Rename fail** — the snapshot install rename errors without moving
//!   anything; the old snapshot and journal must remain authoritative.

use crate::media::Volume;
use crate::{mix, StoreError};

/// Operation classes with independent occurrence counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    Append,
    Rename,
}

/// The injectable storage faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    TornAppend,
    ShortAppend,
    BitRot,
    RenameFail,
}

/// Per-operation fault probabilities (evaluated deterministically from the
/// seed, not from an RNG stream — reordering unrelated ops cannot change a
/// verdict).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultProfile {
    /// P(torn append) per append.
    pub torn_append: f64,
    /// P(short append) per append.
    pub short_append: f64,
    /// P(silent bit rot) per append.
    pub bit_rot: f64,
    /// P(rename failure) per rename.
    pub rename_fail: f64,
}

impl StorageFaultProfile {
    /// No faults; a `FaultedVolume` with this profile is transparent.
    pub fn none() -> Self {
        StorageFaultProfile {
            torn_append: 0.0,
            short_append: 0.0,
            bit_rot: 0.0,
            rename_fail: 0.0,
        }
    }

    /// Reference mixture used by the `store_soak` faulted arm: frequent
    /// enough to hit every path in a few hundred ops, rare enough that
    /// progress is still made between faults.
    pub fn reference() -> Self {
        StorageFaultProfile {
            torn_append: 0.06,
            short_append: 0.04,
            bit_rot: 0.03,
            rename_fail: 0.25,
        }
    }
}

/// A fault that actually fired, for post-run reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedStorageFault {
    pub op: StorageOp,
    pub occurrence: u64,
    pub fault: StorageFaultKind,
}

/// A scheduled (scripted) fault: fire `fault` at the given occurrence of
/// the given operation class, regardless of the profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledStorageFault {
    pub op: StorageOp,
    pub occurrence: u64,
    pub fault: StorageFaultKind,
}

/// The deterministic fault plan. Verdicts depend only on
/// `(seed, op class, occurrence)`; the internal counters exist to number
/// occurrences, and `injected` logs what fired.
#[derive(Debug, Clone)]
pub struct StorageFaults {
    seed: u64,
    profile: StorageFaultProfile,
    scripted: Vec<ScheduledStorageFault>,
    appends: u64,
    renames: u64,
    injected: Vec<InjectedStorageFault>,
}

impl StorageFaults {
    pub fn new(seed: u64, profile: StorageFaultProfile) -> Self {
        StorageFaults {
            seed,
            profile,
            scripted: Vec::new(),
            appends: 0,
            renames: 0,
            injected: Vec::new(),
        }
    }

    /// A plan that only fires the scripted faults.
    pub fn scripted(seed: u64, schedule: Vec<ScheduledStorageFault>) -> Self {
        let mut plan = StorageFaults::new(seed, StorageFaultProfile::none());
        plan.scripted = schedule;
        plan
    }

    /// Faults that fired so far, in order.
    pub fn injected(&self) -> &[InjectedStorageFault] {
        &self.injected
    }

    /// Unit-interval hash, pure in `(seed, op, occurrence)`.
    fn unit(&self, op: StorageOp, occurrence: u64) -> f64 {
        let class = match op {
            StorageOp::Append => 0x41,
            StorageOp::Rename => 0x52,
        };
        let h = mix(self.seed ^ mix(class) ^ mix(occurrence.wrapping_mul(0x9e37_79b9)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Auxiliary hash for fault parameters (cut points, rot offsets).
    pub(crate) fn param(&self, op: StorageOp, occurrence: u64, salt: u64) -> u64 {
        let class = match op {
            StorageOp::Append => 0x41,
            StorageOp::Rename => 0x52,
        };
        mix(self.seed ^ mix(class ^ 0x70) ^ mix(occurrence) ^ mix(salt))
    }

    /// Decide the fault (if any) for the next append, advancing the
    /// occurrence counter. Returns the occurrence index used.
    fn decide_append(&mut self) -> (u64, Option<StorageFaultKind>) {
        let occ = self.appends;
        self.appends += 1;
        if let Some(s) = self
            .scripted
            .iter()
            .find(|s| s.op == StorageOp::Append && s.occurrence == occ)
        {
            return (occ, Some(s.fault));
        }
        let u = self.unit(StorageOp::Append, occ);
        let p = &self.profile;
        let fault = if u < p.torn_append {
            Some(StorageFaultKind::TornAppend)
        } else if u < p.torn_append + p.short_append {
            Some(StorageFaultKind::ShortAppend)
        } else if u < p.torn_append + p.short_append + p.bit_rot {
            Some(StorageFaultKind::BitRot)
        } else {
            None
        };
        (occ, fault)
    }

    fn decide_rename(&mut self) -> (u64, Option<StorageFaultKind>) {
        let occ = self.renames;
        self.renames += 1;
        if let Some(s) = self
            .scripted
            .iter()
            .find(|s| s.op == StorageOp::Rename && s.occurrence == occ)
        {
            return (occ, Some(s.fault));
        }
        if self.unit(StorageOp::Rename, occ) < self.profile.rename_fail {
            (occ, Some(StorageFaultKind::RenameFail))
        } else {
            (occ, None)
        }
    }

    fn log(&mut self, op: StorageOp, occurrence: u64, fault: StorageFaultKind) {
        self.injected.push(InjectedStorageFault {
            op,
            occurrence,
            fault,
        });
    }
}

/// A volume wrapper that injects the planned faults into append/rename.
/// Reads, truncates, writes and removes pass through unfaulted: the store
/// uses them for *recovery* actions, and faulting the repair path would
/// test the test, not the store.
#[derive(Debug)]
pub struct FaultedVolume<V: Volume> {
    inner: V,
    faults: StorageFaults,
}

impl<V: Volume> FaultedVolume<V> {
    pub fn new(inner: V, faults: StorageFaults) -> Self {
        FaultedVolume { inner, faults }
    }

    pub fn faults(&self) -> &StorageFaults {
        &self.faults
    }

    pub fn into_inner(self) -> V {
        self.inner
    }
}

impl<V: Volume> Volume for FaultedVolume<V> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(name)
    }

    fn read_range(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_range(name, offset, len)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.write(name, bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let (occ, fault) = self.faults.decide_append();
        match fault {
            None => self.inner.append(name, bytes),
            Some(StorageFaultKind::TornAppend) => {
                // Persist a hash-chosen strict prefix, then fail the call —
                // what a crash between page writes leaves behind.
                let keep = if bytes.is_empty() {
                    0
                } else {
                    (self.faults.param(StorageOp::Append, occ, 1) % bytes.len() as u64) as usize
                };
                self.inner.append(name, &bytes[..keep])?;
                self.faults.log(StorageOp::Append, occ, StorageFaultKind::TornAppend);
                Err(StoreError::Io(format!(
                    "injected torn append (occurrence {occ}, kept {keep}/{})",
                    bytes.len()
                )))
            }
            Some(StorageFaultKind::ShortAppend) => {
                let keep = bytes.len() / 2;
                self.inner.append(name, &bytes[..keep])?;
                self.faults.log(StorageOp::Append, occ, StorageFaultKind::ShortAppend);
                Err(StoreError::Io(format!(
                    "injected short append (occurrence {occ}, kept {keep}/{})",
                    bytes.len()
                )))
            }
            Some(StorageFaultKind::BitRot) => {
                // The append itself succeeds; then one bit of the persisted
                // file decays silently. No error is returned — only the
                // record checksum can catch this later.
                self.inner.append(name, bytes)?;
                if let Some(mut file) = self.inner.read(name)? {
                    if !file.is_empty() {
                        let bit =
                            self.faults.param(StorageOp::Append, occ, 2) % (file.len() as u64 * 8);
                        file[(bit / 8) as usize] ^= 1 << (bit % 8);
                        self.inner.write(name, &file)?;
                        self.faults.log(StorageOp::Append, occ, StorageFaultKind::BitRot);
                    }
                }
                Ok(())
            }
            Some(StorageFaultKind::RenameFail) => {
                // Misconfigured schedule; a rename fault on an append slot
                // degrades to no fault rather than inventing semantics.
                self.inner.append(name, bytes)
            }
        }
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
        self.inner.truncate(name, len)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        let (occ, fault) = self.faults.decide_rename();
        match fault {
            Some(StorageFaultKind::RenameFail) => {
                self.faults.log(StorageOp::Rename, occ, StorageFaultKind::RenameFail);
                Err(StoreError::Io(format!(
                    "injected rename failure (occurrence {occ})"
                )))
            }
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    fn len(&self, name: &str) -> Result<usize, StoreError> {
        self.inner.len(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemVolume;

    fn verdict_trace(seed: u64, n: u64) -> Vec<Option<StorageFaultKind>> {
        let mut plan = StorageFaults::new(seed, StorageFaultProfile::reference());
        (0..n).map(|_| plan.decide_append().1).collect()
    }

    #[test]
    fn verdicts_are_pure_in_seed_and_occurrence() {
        assert_eq!(verdict_trace(0xFA01, 256), verdict_trace(0xFA01, 256));
        assert_ne!(verdict_trace(0xFA01, 256), verdict_trace(0xFA02, 256));
        // Occurrence k's verdict does not depend on how many verdicts were
        // asked for before it in a different run length.
        let long = verdict_trace(0xFA03, 300);
        let short = verdict_trace(0xFA03, 50);
        assert_eq!(&long[..50], &short[..]);
    }

    #[test]
    fn reference_profile_fires_every_kind() {
        let mut plan = StorageFaults::new(0xFA11, StorageFaultProfile::reference());
        let mut kinds = [false; 3];
        for _ in 0..4000 {
            match plan.decide_append().1 {
                Some(StorageFaultKind::TornAppend) => kinds[0] = true,
                Some(StorageFaultKind::ShortAppend) => kinds[1] = true,
                Some(StorageFaultKind::BitRot) => kinds[2] = true,
                _ => {}
            }
        }
        let mut rename_fired = false;
        for _ in 0..64 {
            if plan.decide_rename().1.is_some() {
                rename_fired = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "append kinds seen: {kinds:?}");
        assert!(rename_fired);
    }

    #[test]
    fn scripted_faults_fire_exactly_on_schedule() {
        let faults = StorageFaults::scripted(
            7,
            vec![
                ScheduledStorageFault {
                    op: StorageOp::Append,
                    occurrence: 1,
                    fault: StorageFaultKind::TornAppend,
                },
                ScheduledStorageFault {
                    op: StorageOp::Rename,
                    occurrence: 0,
                    fault: StorageFaultKind::RenameFail,
                },
            ],
        );
        let mut vol = FaultedVolume::new(MemVolume::new(), faults);
        vol.append("j", b"aaaa").unwrap();
        assert!(vol.append("j", b"bbbb").is_err()); // occurrence 1: torn
        vol.append("j", b"cccc").unwrap();
        let len = vol.len("j").unwrap();
        assert!(len < 12, "torn append persisted a strict prefix, len={len}");
        vol.write("tmp", b"snap").unwrap();
        assert!(vol.rename("tmp", "snap").is_err());
        assert_eq!(vol.read("snap").unwrap(), None, "failed rename moved nothing");
        assert_eq!(vol.faults().injected().len(), 2);
    }

    #[test]
    fn bit_rot_is_silent_and_flips_exactly_one_bit() {
        let faults = StorageFaults::scripted(
            9,
            vec![ScheduledStorageFault {
                op: StorageOp::Append,
                occurrence: 1,
                fault: StorageFaultKind::BitRot,
            }],
        );
        let mut vol = FaultedVolume::new(MemVolume::new(), faults);
        vol.append("j", &[0u8; 32]).unwrap();
        vol.append("j", &[0u8; 32]).unwrap(); // rot fires here, silently
        let file = vol.read("j").unwrap().unwrap();
        assert_eq!(file.len(), 64, "bit rot must not change the length");
        let ones: u32 = file.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
    }
}
