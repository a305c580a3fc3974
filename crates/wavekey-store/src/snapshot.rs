//! Snapshot file codec and the compaction protocol.
//!
//! A snapshot is the canonical state serialization wrapped in a
//! checksummed header recording the journal sequence number it covers:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x57 0x53 ("WS")
//! 2       1     version
//! 3       1     reserved (0)
//! 4       8     seq_through — last journal seq folded into this snapshot
//! 12      4     payload length
//! 16      8     checksum over version ‖ seq_through ‖ payload
//! 24      n     payload (StoreState::serialize bytes)
//! ```
//!
//! Install protocol (see DESIGN.md §16): write `snapshot.tmp`, rename onto
//! `snapshot.bin`, then truncate the journal. Rename is the commit point —
//! a crash before it leaves the old snapshot authoritative; a crash after
//! it but before the truncate leaves journal records with
//! `seq ≤ seq_through`, which replay skips idempotently.

use crate::record::RecordError;
use crate::state::STATE_VERSION;
use crate::fnv_mix;

/// Installed snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch name the snapshot is written to before the install rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

const MAGIC0: u8 = 0x57;
const MAGIC1: u8 = 0x53;
/// Header bytes before the payload; snapshot homes are payload offsets.
pub(crate) const HEADER_LEN: usize = 24;

/// Snapshot payloads hold whole-state serializations; bound them well
/// above any realistic fleet but below "corrupted length field".
const MAX_SNAPSHOT: usize = 1 << 28;

/// Encode a snapshot covering journal records up to and including
/// `seq_through`.
pub fn encode_snapshot(seq_through: u64, state_bytes: &[u8]) -> Vec<u8> {
    let checksum = checksum_of(STATE_VERSION, seq_through, state_bytes);
    let mut out = Vec::with_capacity(HEADER_LEN + state_bytes.len());
    out.push(MAGIC0);
    out.push(MAGIC1);
    out.push(STATE_VERSION);
    out.push(0);
    out.extend_from_slice(&seq_through.to_le_bytes());
    out.extend_from_slice(&(state_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(state_bytes);
    out
}

/// Total decoder: returns `(seq_through, state_bytes)`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<u8>), RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[0] != MAGIC0 || bytes[1] != MAGIC1 {
        return Err(RecordError::BadMagic {
            found: [bytes[0], bytes[1]],
        });
    }
    let version = bytes[2];
    if version != STATE_VERSION {
        return Err(RecordError::UnknownVersion(version));
    }
    if bytes[3] != 0 {
        // Reserved byte is outside the checksum; reject any value other
        // than the one we write so bit flips there cannot be accepted.
        return Err(RecordError::Malformed);
    }
    let seq_through = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let plen = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if plen > MAX_SNAPSHOT {
        return Err(RecordError::Oversized { len: plen });
    }
    let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let total = HEADER_LEN + plen;
    if bytes.len() < total {
        return Err(RecordError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(RecordError::Malformed);
    }
    let payload = &bytes[HEADER_LEN..total];
    let actual = checksum_of(version, seq_through, payload);
    if actual != declared {
        return Err(RecordError::ChecksumMismatch {
            expected: declared,
            found: actual,
        });
    }
    Ok((seq_through, payload.to_vec()))
}

fn checksum_of(version: u8, seq_through: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(9 + payload.len());
    buf.push(version);
    buf.extend_from_slice(&seq_through.to_le_bytes());
    buf.extend_from_slice(payload);
    fnv_mix(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBody;
    use crate::state::StoreState;

    #[test]
    fn snapshot_roundtrips() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TicketIssued {
            tenant: 1,
            epc: [3; 12],
            model: 1,
            serial: 0,
        });
        let state_bytes = s.serialize();
        let snap = encode_snapshot(41, &state_bytes);
        let (seq, back) = decode_snapshot(&snap).unwrap();
        assert_eq!(seq, 41);
        assert_eq!(back, state_bytes);
        assert!(StoreState::deserialize(&back).unwrap().durably_equals(&s));
    }

    #[test]
    fn snapshot_decoding_is_total() {
        let snap = encode_snapshot(7, &StoreState::new().serialize());
        for cut in 0..snap.len() {
            assert!(decode_snapshot(&snap[..cut]).is_err()); // and no panic
        }
        for bit in 0..(snap.len() * 8) {
            let mut m = snap.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_snapshot(&m).is_err(),
                "flipped bit {bit} was accepted"
            );
        }
        let mut trailing = snap.clone();
        trailing.push(0);
        assert_eq!(decode_snapshot(&trailing), Err(RecordError::Malformed));
    }
}
