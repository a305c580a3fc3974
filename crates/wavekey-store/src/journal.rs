//! Write-ahead journal framing and replay.
//!
//! The journal file is a plain concatenation of records
//! ([`crate::record::encode_record`]); append-only media means only the
//! tail can be damaged by a crash, and anything *before* a later valid
//! record that fails to decode must be bit rot. Replay turns a byte image
//! into the decodable record prefix plus a [`TailStatus`] that classifies
//! what stopped it:
//!
//! * [`TailStatus::Clean`] — the image ends exactly on a record boundary.
//! * [`TailStatus::TornTail`] — the tail is a torn write (truncated record,
//!   or damage with no valid record after it). Recovery truncates the file
//!   at `offset` and carries on: the torn record was never acknowledged.
//! * [`TailStatus::Corrupted`] — damage *followed by* a later decodable
//!   record, or a sequence-number discontinuity. This cannot be a torn
//!   tail; it is bit rot inside acknowledged history and is only repaired
//!   when the store is explicitly opened in salvage mode.

use crate::record::{decode_record, RecordError, HEADER_LEN};
use crate::record::{Record, MAGIC0, MAGIC1};

/// File name of the journal inside a volume.
pub const JOURNAL_FILE: &str = "journal.wal";

/// How replay's forward progress ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Image ends exactly at a record boundary.
    Clean,
    /// Torn write at `offset`; bytes from there on were never a complete,
    /// acknowledged record. Safe to truncate.
    TornTail { offset: usize },
    /// Damage at `offset` with valid history after it (or a seq
    /// discontinuity): acknowledged records are unreadable.
    Corrupted { offset: usize },
}

/// Result of replaying a journal image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Records decoded, in order, up to the damage (if any).
    pub records: Vec<Record>,
    /// Byte offset of each of `records` in the image: record `i` spans
    /// `offsets[i]..offsets[i + 1]`, and the last one ends at `consumed`.
    pub offsets: Vec<usize>,
    /// Tail classification.
    pub tail: TailStatus,
    /// Bytes consumed by `records` — the clean prefix length, which is the
    /// truncation point for torn-tail repair.
    pub consumed: usize,
}

/// Replay a journal byte image. Total: never panics on any input.
pub fn replay(bytes: &[u8]) -> Replay {
    let mut records: Vec<Record> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset == bytes.len() {
            return Replay {
                records,
                offsets,
                tail: TailStatus::Clean,
                consumed: offset,
            };
        }
        match decode_record(&bytes[offset..]) {
            Ok((rec, used)) => {
                if let Some(prev) = records.last() {
                    if rec.seq != prev.seq + 1 {
                        // Sequence discontinuity inside a decodable stream:
                        // records were lost or resurrected — not a tail
                        // condition, history is damaged.
                        return Replay {
                            records,
                            offsets,
                            tail: TailStatus::Corrupted { offset },
                            consumed: offset,
                        };
                    }
                }
                records.push(rec);
                offsets.push(offset);
                offset += used;
            }
            Err(err) => {
                let tail = classify_damage(bytes, offset, &err);
                return Replay {
                    records,
                    offsets,
                    tail,
                    consumed: offset,
                };
            }
        }
    }
}

/// Distinguish a torn tail from mid-journal corruption: damage is only
/// "corruption" if a later, valid record proves acknowledged history
/// continues past it.
fn classify_damage(bytes: &[u8], offset: usize, err: &RecordError) -> TailStatus {
    // A truncation that reaches EOF is the canonical torn tail; no bytes
    // exist after it to scan.
    if let RecordError::Truncated { .. } = err {
        return TailStatus::TornTail { offset };
    }
    // Otherwise scan forward for a plausible record start that decodes.
    let mut p = offset + 1;
    while p + HEADER_LEN <= bytes.len() {
        if bytes[p] == MAGIC0 && bytes[p + 1] == MAGIC1 {
            if decode_record(&bytes[p..]).is_ok() {
                return TailStatus::Corrupted { offset };
            }
        }
        p += 1;
    }
    TailStatus::TornTail { offset }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, RecordBody};

    fn body(i: u32) -> RecordBody {
        RecordBody::TicketIssued {
            tenant: 1,
            epc: [i as u8; 12],
            model: 2,
            serial: i,
        }
    }

    fn journal_of(n: u64) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0];
        for seq in 0..n {
            bytes.extend_from_slice(&encode_record(seq, &body(seq as u32)));
            boundaries.push(bytes.len());
        }
        (bytes, boundaries)
    }

    #[test]
    fn clean_journal_replays_fully() {
        let (bytes, boundaries) = journal_of(20);
        let r = replay(&bytes);
        assert_eq!(r.tail, TailStatus::Clean);
        assert_eq!(r.records.len(), 20);
        assert_eq!(r.consumed, bytes.len());
        assert_eq!(r.offsets, boundaries[..20]);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_torn_tail_with_prefix_records() {
        let (bytes, boundaries) = journal_of(6);
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut]);
            // The records recovered are exactly those fully before the cut.
            let full = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(r.records.len(), full, "cut at {cut}");
            if boundaries.contains(&cut) {
                assert_eq!(r.tail, TailStatus::Clean, "cut at {cut} is a boundary");
            } else {
                let start = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
                assert_eq!(
                    r.tail,
                    TailStatus::TornTail { offset: start },
                    "cut at {cut}"
                );
                assert_eq!(r.consumed, start);
            }
        }
    }

    #[test]
    fn mid_journal_bit_rot_is_corruption_not_a_torn_tail() {
        let (mut bytes, boundaries) = journal_of(8);
        // Flip a payload bit in record 3.
        let pos = boundaries[3] + HEADER_LEN + 2;
        bytes[pos] ^= 0x10;
        let r = replay(&bytes);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.offsets, boundaries[..3]);
        assert_eq!(r.tail, TailStatus::Corrupted { offset: boundaries[3] });
        assert_eq!(r.consumed, boundaries[3]);
    }

    #[test]
    fn rot_in_the_final_record_reads_as_a_torn_tail() {
        // Damage with no valid record after it cannot be distinguished from
        // a torn write — and treating it as one is safe: the final record is
        // the only unacknowledgeable one.
        let (mut bytes, boundaries) = journal_of(4);
        let last = boundaries[3];
        bytes[last + HEADER_LEN + 1] ^= 0x40;
        let r = replay(&bytes);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.tail, TailStatus::TornTail { offset: last });
    }

    #[test]
    fn seq_discontinuity_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(0, &body(0)));
        bytes.extend_from_slice(&encode_record(1, &body(1)));
        let gap_at = bytes.len();
        bytes.extend_from_slice(&encode_record(5, &body(5)));
        let r = replay(&bytes);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.tail, TailStatus::Corrupted { offset: gap_at });
    }

    #[test]
    fn garbage_between_records_never_panics() {
        let (bytes, _) = journal_of(3);
        // Prepend garbage, inject garbage, append garbage — replay must
        // classify, not panic.
        let mut g1 = vec![0xDE, 0xAD, 0xBE, 0xEF];
        g1.extend_from_slice(&bytes);
        let r1 = replay(&g1);
        assert_eq!(r1.records.len(), 0);
        assert_eq!(r1.tail, TailStatus::Corrupted { offset: 0 });

        let mut g2 = bytes.clone();
        g2.extend_from_slice(&[0x57, 0x4A, 0xFF]); // magic then junk, truncated
        let r2 = replay(&g2);
        assert_eq!(r2.records.len(), 3);
        assert!(matches!(r2.tail, TailStatus::TornTail { .. }));
    }

    #[test]
    fn empty_journal_is_clean() {
        let r = replay(&[]);
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.tail, TailStatus::Clean);
        assert_eq!(r.consumed, 0);
    }
}
