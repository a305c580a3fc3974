//! The wire frame: the versioned, length-delimited envelope every
//! protocol message travels in.
//!
//! Layout (little-endian, hand-rolled, no serializer):
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x57 0x4B ("WK")
//! 2       1     version (WIRE_VERSION = 3)
//! 3       1     kind    (MessageKind wire tag, see MessageKind::wire_tag)
//! 4       4     payload length, u32 LE
//! 8       n     payload
//! ```
//!
//! Decoding is total: every malformed input maps to a [`FrameError`],
//! never a panic — the adversary owns the channel, so the decoder is an
//! attack surface.

use crate::channel::MessageKind;

/// The two magic bytes every frame starts with.
pub const MAGIC: [u8; 2] = [0x57, 0x4B];
/// The current wire-format version. Version 3 carries one sender scalar
/// per OT batch: `M_A` is one ristretto255 element (32 bytes) and every
/// key hashes its instance index. Version 2 carried one `M_A` element
/// per instance, version 1 MODP-1024 elements (128 bytes), so a peer of
/// either is refused at the header.
pub const WIRE_VERSION: u8 = 3;
/// Fixed header length in bytes (magic + version + kind + length).
pub const HEADER_LEN: usize = 8;
/// Upper bound on payload length: an OT batch of a few thousand instances
/// stays far below this; anything larger is hostile.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// One framed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Wire-format version (always [`WIRE_VERSION`] for frames we build;
    /// adversaries may rewrite it, and handlers must reject mismatches).
    pub version: u8,
    /// Which protocol message the payload carries.
    pub kind: MessageKind,
    /// The message body (an encoded OT round, the challenge, or the
    /// response).
    pub payload: Vec<u8>,
}

/// Frame decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a header, or payload shorter than declared.
    Truncated,
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unrecognized version byte.
    UnknownVersion(u8),
    /// Unrecognized kind tag.
    UnknownKind(u8),
    /// The declared length disagrees with the bytes actually present.
    LengthMismatch {
        /// Payload length the header declared.
        declared: usize,
        /// Payload bytes actually present after the header.
        actual: usize,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown message kind tag {k}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "frame length mismatch: declared {declared}, got {actual}")
            }
            FrameError::Oversized(n) => write!(f, "frame payload oversized: {n} bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Builds a current-version frame.
    pub fn new(kind: MessageKind, payload: Vec<u8>) -> Frame {
        Frame { version: WIRE_VERSION, kind, payload }
    }

    /// Serializes the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.version);
        out.push(self.kind.wire_tag());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses one frame from `bytes`, which must contain exactly one
    /// frame (trailing bytes are a [`FrameError::LengthMismatch`]).
    ///
    /// # Errors
    ///
    /// See [`FrameError`]; no input panics.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        if bytes[0..2] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = bytes[2];
        if version != WIRE_VERSION {
            return Err(FrameError::UnknownVersion(version));
        }
        let kind =
            MessageKind::from_wire(bytes[3]).ok_or(FrameError::UnknownKind(bytes[3]))?;
        let declared = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if declared > MAX_PAYLOAD {
            return Err(FrameError::Oversized(declared));
        }
        let actual = bytes.len() - HEADER_LEN;
        if actual < declared {
            return Err(FrameError::Truncated);
        }
        if actual > declared {
            return Err(FrameError::LengthMismatch { declared, actual });
        }
        Ok(Frame { version, kind, payload: bytes[HEADER_LEN..].to_vec() })
    }

    /// Reads just the kind tag of an encoded frame, without validating
    /// the rest (routing aid for queues and logs).
    pub fn peek_kind(bytes: &[u8]) -> Option<MessageKind> {
        if bytes.len() < 4 || bytes[0..2] != MAGIC {
            return None;
        }
        MessageKind::from_wire(bytes[3])
    }
}

/// Incremental frame decoder for byte streams.
///
/// A connection-oriented transport delivers arbitrary chunks — half a
/// header here, three frames and a tail there — so the gateway needs a
/// decoder that accepts any split: [`Decoder::push`] appends bytes,
/// [`Decoder::next_frame`] pops the next complete frame (or a typed
/// error for a malformed header, after which the decoder resynchronizes
/// by scanning forward for the next [`MAGIC`]).
///
/// Guarantees:
///
/// * **Split-point invariance** — the sequence of `Ok` frames depends
///   only on the byte stream, never on how it was chunked. (Error
///   *counts* may differ: a garbage run reports one [`FrameError::BadMagic`]
///   per scan that discards bytes.)
/// * **Totality** — no input panics; garbage is skipped, not trusted.
/// * **Bounded amnesia** — a header whose declared payload never arrives
///   is indistinguishable from a slow sender, so the decoder waits;
///   stream owners bound that wait with idle timeouts, not the decoder.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily to keep pops O(1)).
    start: usize,
    resyncs: u64,
}

impl Decoder {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends a chunk of received bytes (any split is fine).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed as frames or garbage.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// How many times the decoder lost framing and had to scan for the
    /// next [`MAGIC`].
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Pops the next complete frame.
    ///
    /// * `None` — need more bytes (partial header or partial payload).
    /// * `Some(Err(_))` — malformed bytes at the head of the buffer; the
    ///   decoder has already skipped them and will resync on the next
    ///   call. Callers typically count and continue.
    /// * `Some(Ok(frame))` — one whole frame, consumed from the buffer.
    pub fn next_frame(&mut self) -> Option<Result<Frame, FrameError>> {
        if self.seek_magic() {
            self.resyncs += 1;
            self.compact();
            return Some(Err(FrameError::BadMagic));
        }
        let w = &self.buf[self.start..];
        if w.len() < HEADER_LEN {
            self.compact();
            return None;
        }
        // seek_magic leaves the window either empty, a bare MAGIC[0]
        // tail, or aligned on the full magic — so the header is at 0.
        let version = w[2];
        if version != WIRE_VERSION {
            return Some(self.reject(FrameError::UnknownVersion(version)));
        }
        let Some(kind) = MessageKind::from_wire(w[3]) else {
            let tag = w[3];
            return Some(self.reject(FrameError::UnknownKind(tag)));
        };
        let declared = u32::from_le_bytes(w[4..8].try_into().expect("4 bytes")) as usize;
        if declared > MAX_PAYLOAD {
            return Some(self.reject(FrameError::Oversized(declared)));
        }
        if w.len() < HEADER_LEN + declared {
            self.compact();
            return None;
        }
        let payload = w[HEADER_LEN..HEADER_LEN + declared].to_vec();
        self.start += HEADER_LEN + declared;
        self.compact();
        Some(Ok(Frame { version, kind, payload }))
    }

    /// Discards bytes until the window starts with a plausible magic (a
    /// full [`MAGIC`], or its first byte at the very end of the buffer —
    /// the second byte may still be in flight). Returns whether any
    /// garbage was discarded.
    fn seek_magic(&mut self) -> bool {
        let w = &self.buf[self.start..];
        let mut skip = 0;
        while skip < w.len() {
            if w[skip] == MAGIC[0] && (skip + 1 == w.len() || w[skip + 1] == MAGIC[1]) {
                break;
            }
            skip += 1;
        }
        self.start += skip;
        skip > 0
    }

    /// The header at the window start is malformed: skip past its magic
    /// so the next scan cannot trip on the same bytes, and count the
    /// resync.
    fn reject(&mut self, err: FrameError) -> Result<Frame, FrameError> {
        self.start += MAGIC.len();
        self.resyncs += 1;
        self.compact();
        Err(err)
    }

    /// Reclaims the consumed prefix once it dominates the buffer, and
    /// frees the buffer once it is fully drained, keeping long-lived
    /// connections from retaining every byte they ever received, or a
    /// frame's worth of capacity while they wait for the next one.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf = Vec::new();
            self.start = 0;
        } else if self.start >= 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_identity_over_random_frames() {
        // StdRng-driven property loop over every kind and payload sizes
        // up to 2 KiB.
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        for case in 0..500 {
            let kind = MessageKind::ALL[case % MessageKind::ALL.len()];
            let len = rng.gen_range(0..2048);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let frame = Frame::new(kind, payload);
            let bytes = frame.encode();
            assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
            assert_eq!(Frame::decode(&bytes).unwrap(), frame, "case {case}");
            assert_eq!(Frame::peek_kind(&bytes), Some(kind));
        }
    }

    #[test]
    fn random_mutations_never_panic_the_decoder() {
        // Seeded mutation fuzz over valid frames — flip bytes, cut tails,
        // splice junk. Decoding is total: every mutation yields Ok or a
        // typed error, and an Ok must re-encode byte-identically.
        let mut rng = StdRng::seed_from_u64(0x0F4A_117);
        for case in 0..2000 {
            let kind = MessageKind::ALL[case % MessageKind::ALL.len()];
            let len = rng.gen_range(0..512);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let mut bytes = Frame::new(kind, payload).encode();
            match rng.gen_range(0..3) {
                0 => {
                    for _ in 0..rng.gen_range(1..8) {
                        let idx = rng.gen_range(0..bytes.len());
                        bytes[idx] ^= rng.gen_range(1..=u8::MAX);
                    }
                }
                1 => {
                    let cut = rng.gen_range(0..bytes.len());
                    bytes.truncate(cut);
                }
                _ => {
                    let extra = rng.gen_range(1..32);
                    bytes.extend((0..extra).map(|_| rng.gen::<u8>()));
                }
            }
            if let Ok(frame) = Frame::decode(&bytes) {
                assert_eq!(frame.encode(), bytes, "case {case}");
            }
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected_without_panic() {
        let frame = Frame::new(MessageKind::Challenge, vec![7u8; 40]);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::BadMagic),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_a_length_mismatch() {
        let mut bytes = Frame::new(MessageKind::OtA, vec![1, 2, 3]).encode();
        bytes.push(0xFF);
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            FrameError::LengthMismatch { declared: 3, actual: 4 }
        );
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut bytes = Frame::new(MessageKind::OtE, vec![]).encode();
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            FrameError::Oversized(u32::MAX as usize)
        );
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let mut bytes = Frame::new(MessageKind::OtB, vec![9]).encode();
        bytes[2] = 42;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), FrameError::UnknownVersion(42));
        let mut bytes = Frame::new(MessageKind::OtB, vec![9]).encode();
        bytes[3] = 0;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), FrameError::UnknownKind(0));
        bytes[3] = 200;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), FrameError::UnknownKind(200));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Frame::new(MessageKind::Response, vec![]).encode();
        bytes[0] = b'X';
        assert_eq!(Frame::decode(&bytes).unwrap_err(), FrameError::BadMagic);
        assert_eq!(Frame::peek_kind(&bytes), None);
    }

    // ----------------------------------------------- streaming decoder

    fn random_frames(rng: &mut StdRng, n: usize, max_len: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let kind = MessageKind::ALL[i % MessageKind::ALL.len()];
                let len = rng.gen_range(0..max_len);
                Frame::new(kind, (0..len).map(|_| rng.gen()).collect())
            })
            .collect()
    }

    /// Feeds `bytes` to a fresh decoder in chunks cut at `rng`-chosen
    /// split points, returning every Ok frame (errors are tolerated).
    fn decode_chunked(rng: &mut StdRng, bytes: &[u8], max_chunk: usize) -> (Vec<Frame>, Decoder) {
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let take = rng.gen_range(1..=max_chunk.min(bytes.len() - at));
            dec.push(&bytes[at..at + take]);
            at += take;
            while let Some(item) = dec.next_frame() {
                if let Ok(frame) = item {
                    got.push(frame);
                }
            }
        }
        (got, dec)
    }

    #[test]
    fn streaming_decoder_is_split_point_invariant() {
        // Seeded split-point fuzz: the same clean byte stream must yield
        // the same frames no matter how it is chunked, with no resyncs and
        // nothing left buffered.
        let mut rng = StdRng::seed_from_u64(0xDECD_E5);
        for case in 0..60 {
            let n = rng.gen_range(1..12);
            let frames = random_frames(&mut rng, n, 300);
            let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
            for max_chunk in [1usize, 3, 7, 64, stream.len()] {
                let (got, dec) = decode_chunked(&mut rng, &stream, max_chunk);
                assert_eq!(got, frames, "case {case} chunk {max_chunk}");
                assert_eq!(dec.buffered(), 0, "case {case} chunk {max_chunk}");
                assert_eq!(dec.resyncs(), 0, "case {case} chunk {max_chunk}");
            }
        }
    }

    #[test]
    fn streaming_decoder_resyncs_through_garbage() {
        // Frames separated by junk runs (junk avoids MAGIC[0] so a run
        // can never fake a header): every frame must still be recovered,
        // and the decoder must report at least one resync per junk run.
        let mut rng = StdRng::seed_from_u64(0x6A4B_A6E);
        for case in 0..40 {
            let n = rng.gen_range(1..8);
            let frames = random_frames(&mut rng, n, 128);
            let mut stream = Vec::new();
            let mut junk_runs = 0u64;
            for frame in &frames {
                if rng.gen_range(0..10) < 7 {
                    junk_runs += 1;
                    let len = rng.gen_range(1..40);
                    stream.extend((0..len).map(|_| loop {
                        let b: u8 = rng.gen();
                        if b != MAGIC[0] {
                            break b;
                        }
                    }));
                }
                stream.extend(frame.encode());
            }
            let (got, dec) = decode_chunked(&mut rng, &stream, 13);
            assert_eq!(got, frames, "case {case}");
            assert!(dec.resyncs() >= junk_runs, "case {case}");
        }
    }

    #[test]
    fn streaming_decoder_reports_header_errors_then_recovers() {
        let good = Frame::new(MessageKind::OtB, vec![0xAA; 9]);
        // A frame with a rewritten version byte, then an oversized
        // header, then the good frame. Payload/length bytes avoid 0x57
        // so the resync scan lands exactly on the good magic.
        let mut stream = Frame::new(MessageKind::OtA, vec![1, 2, 3]).encode();
        stream[2] = 9;
        let mut oversized = Frame::new(MessageKind::OtE, vec![]).encode();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        stream.extend(oversized);
        stream.extend(good.encode());

        let mut dec = Decoder::new();
        dec.push(&stream);
        let mut errs = Vec::new();
        let mut frames = Vec::new();
        while let Some(item) = dec.next_frame() {
            match item {
                Ok(f) => frames.push(f),
                Err(e) => errs.push(e),
            }
        }
        assert_eq!(frames, vec![good]);
        assert!(errs.contains(&FrameError::UnknownVersion(9)), "{errs:?}");
        assert!(errs.contains(&FrameError::Oversized(u32::MAX as usize)), "{errs:?}");
        assert!(dec.resyncs() >= 2);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn streaming_decoder_waits_for_partial_frames() {
        let frame = Frame::new(MessageKind::Challenge, vec![5u8; 32]);
        let bytes = frame.encode();
        let mut dec = Decoder::new();
        for cut in [1usize, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 10] {
            let mut d = Decoder::new();
            d.push(&bytes[..cut]);
            assert!(d.next_frame().is_none(), "cut {cut}");
            assert_eq!(d.buffered(), cut, "cut {cut}");
        }
        dec.push(&bytes[..5]);
        assert!(dec.next_frame().is_none());
        dec.push(&bytes[5..]);
        assert_eq!(dec.next_frame(), Some(Ok(frame)));
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.resyncs(), 0);
    }

    #[test]
    fn streaming_decoder_mutation_fuzz_never_panics() {
        // Mutate whole multi-frame streams (bit flips, deletions,
        // splices), then feed them through random chunkings. The decoder
        // must never panic, and every Ok frame must re-encode cleanly.
        let mut rng = StdRng::seed_from_u64(0xFA22_DEC);
        for _ in 0..300 {
            let n = rng.gen_range(1..6);
            let frames = random_frames(&mut rng, n, 100);
            let mut stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
            for _ in 0..rng.gen_range(1..10) {
                match rng.gen_range(0..3) {
                    0 => {
                        let idx = rng.gen_range(0..stream.len());
                        stream[idx] ^= rng.gen_range(1..=u8::MAX);
                    }
                    1 => {
                        let idx = rng.gen_range(0..stream.len());
                        stream.remove(idx);
                    }
                    _ => {
                        let idx = rng.gen_range(0..=stream.len());
                        let extra: Vec<u8> =
                            (0..rng.gen_range(1..16)).map(|_| rng.gen()).collect();
                        stream.splice(idx..idx, extra);
                    }
                }
            }
            let (got, _) = decode_chunked(&mut rng, &stream, 17);
            for frame in got {
                assert_eq!(frame.version, WIRE_VERSION);
                assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
            }
        }
    }

    #[test]
    fn streaming_decoder_compacts_consumed_bytes() {
        // A long-lived connection must not retain every byte it ever
        // received: after draining many frames the internal buffer stays
        // bounded by roughly one frame, not the whole history.
        let mut dec = Decoder::new();
        let frame = Frame::new(MessageKind::OtA, vec![7u8; 1024]);
        for _ in 0..64 {
            dec.push(&frame.encode());
            assert_eq!(dec.next_frame(), Some(Ok(frame.clone())));
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn wire_tags_roundtrip_for_every_kind() {
        for kind in MessageKind::ALL {
            assert_eq!(MessageKind::from_wire(kind.wire_tag()), Some(kind));
        }
        assert_eq!(MessageKind::from_wire(0), None);
        assert_eq!(MessageKind::from_wire(6), None);
    }
}
