//! The wireless channel between mobile device and RFID server, with
//! pluggable adversaries.
//!
//! The paper's adversary model (§III) gives the attacker full control of
//! the WiFi/Bluetooth channel: they can observe (eavesdropping), modify
//! or relay (MitM), delay, or drop every message. The [`Adversary`] trait
//! is the hook through which the §VI-E security evaluation exercises each
//! capability.
//!
//! Adversaries operate on the wire layer: they intercept whole
//! [`Frame`]s — header fields (version, kind) and payload alike — rather
//! than in-memory protocol structs. Byte-offset attacks such as
//! [`BitFlipMitm`] index into the frame *payload*; header attacks rewrite
//! the frame fields directly (see [`VersionSpoofer`]).

use crate::proto::frame::Frame;

/// Which way a message is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Mobile device → RFID server.
    MobileToServer,
    /// RFID server → mobile device.
    ServerToMobile,
}

/// The protocol message types of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// The batched OT first message `M_A`.
    OtA,
    /// The batched OT response `M_B`.
    OtB,
    /// The batched OT ciphertexts `M_E`.
    OtE,
    /// The reconciliation challenge `ECC(K_M) ‖ N`.
    Challenge,
    /// The HMAC confirmation.
    Response,
}

impl MessageKind {
    /// Every kind, in protocol order.
    pub const ALL: [MessageKind; 5] = [
        MessageKind::OtA,
        MessageKind::OtB,
        MessageKind::OtE,
        MessageKind::Challenge,
        MessageKind::Response,
    ];

    /// The one-byte tag this kind is framed with on the wire.
    pub fn wire_tag(self) -> u8 {
        match self {
            MessageKind::OtA => 1,
            MessageKind::OtB => 2,
            MessageKind::OtE => 3,
            MessageKind::Challenge => 4,
            MessageKind::Response => 5,
        }
    }

    /// Stable lower-case label for metrics and causal event timelines.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::OtA => "ot_a",
            MessageKind::OtB => "ot_b",
            MessageKind::OtE => "ot_e",
            MessageKind::Challenge => "challenge",
            MessageKind::Response => "response",
        }
    }

    /// Parses a wire tag back into a kind (`None` for unknown tags).
    pub fn from_wire(tag: u8) -> Option<MessageKind> {
        match tag {
            1 => Some(MessageKind::OtA),
            2 => Some(MessageKind::OtB),
            3 => Some(MessageKind::OtE),
            4 => Some(MessageKind::Challenge),
            5 => Some(MessageKind::Response),
            _ => None,
        }
    }
}

/// What the adversary does with an intercepted message.
///
/// Both frame channels (the lockstep driver and the
/// [`crate::proto::Link`] the gateway attaches to each connection)
/// handle all five actions; in the strictly alternating lockstep
/// exchange `Duplicate` and `Reorder` degenerate to `Forward` because at
/// most one frame is ever in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryAction {
    /// Deliver (possibly after modifying the frame).
    Forward,
    /// Swallow the message; without retransmission the run fails.
    Drop,
    /// Deliver the message twice — the receiver must be idempotent.
    Duplicate,
    /// Hold the message back and release it behind the next transmission.
    Reorder,
    /// Deliver after the given extra latency (seconds, added to the
    /// nominal channel delay).
    Delay(f64),
}

/// A channel-level adversary. The default implementations forward
/// unmodified; override `intercept` to attack.
pub trait Adversary {
    /// Called for every transmission. `frame` (header and payload alike)
    /// may be mutated before the returned action is applied.
    fn intercept(&mut self, direction: Direction, frame: &mut Frame) -> AdversaryAction;
}

/// The benign channel: forwards everything untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveChannel;

impl Adversary for PassiveChannel {
    fn intercept(&mut self, _direction: Direction, _frame: &mut Frame) -> AdversaryAction {
        AdversaryAction::Forward
    }
}

/// A passive eavesdropper: records a copy of every message (§V-A).
///
/// The transcript stores the fully *encoded* frame bytes — exactly what
/// a radio sniffer would capture, header included.
#[derive(Debug, Clone, Default)]
pub struct Eavesdropper {
    /// Everything observed on the channel, as encoded frames.
    pub transcript: Vec<(Direction, MessageKind, Vec<u8>)>,
}

impl Adversary for Eavesdropper {
    fn intercept(&mut self, direction: Direction, frame: &mut Frame) -> AdversaryAction {
        self.transcript.push((direction, frame.kind, frame.encode()));
        AdversaryAction::Forward
    }
}

/// A bit-flipping man-in-the-middle: XORs payload bytes of every message
/// of the targeted kind (§V-C).
///
/// A *single* flipped byte corrupts only one OT instance, whose damage
/// the reconciliation ECC absorbs (the established key is the mobile's
/// `K_M` either way, so the attacker gains nothing). To actually break a
/// run, corrupt pervasively with a small `stride`.
#[derive(Debug, Clone)]
pub struct BitFlipMitm {
    /// Which message type to corrupt.
    pub target: MessageKind,
    /// Which direction to corrupt (both if `None`).
    pub direction: Option<Direction>,
    /// Payload byte offset of the first flip (wrapped to the payload
    /// length).
    pub offset: usize,
    /// Flip every `stride`-th byte starting at `offset`; `None` flips a
    /// single byte.
    pub stride: Option<usize>,
    /// Number of messages corrupted so far.
    pub corrupted: usize,
}

impl BitFlipMitm {
    /// Corrupts `target` messages in both directions at payload byte
    /// `offset`.
    pub fn new(target: MessageKind, offset: usize) -> BitFlipMitm {
        BitFlipMitm { target, direction: None, offset, stride: None, corrupted: 0 }
    }

    /// Corrupts every `stride`-th payload byte of `target` messages —
    /// enough damage that reconciliation cannot repair it.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn pervasive(target: MessageKind, stride: usize) -> BitFlipMitm {
        assert!(stride > 0, "stride must be positive");
        BitFlipMitm { target, direction: None, offset: 0, stride: Some(stride), corrupted: 0 }
    }
}

impl Adversary for BitFlipMitm {
    fn intercept(&mut self, direction: Direction, frame: &mut Frame) -> AdversaryAction {
        let dir_match = self.direction.map_or(true, |d| d == direction);
        let payload = &mut frame.payload;
        if frame.kind == self.target && dir_match && !payload.is_empty() {
            match self.stride {
                None => {
                    let idx = self.offset % payload.len();
                    payload[idx] ^= 0x01;
                }
                Some(stride) => {
                    let mut idx = self.offset % payload.len();
                    while idx < payload.len() {
                        payload[idx] ^= 0x01;
                        idx += stride;
                    }
                }
            }
            self.corrupted += 1;
        }
        AdversaryAction::Forward
    }
}

/// Delays targeted messages — models the relay / remote-processing
/// latency that the `2 + τ` deadline defeats (§VI-C-3).
#[derive(Debug, Clone)]
pub struct Delayer {
    /// Which message type to delay (all if `None`).
    pub target: Option<MessageKind>,
    /// Added latency in seconds.
    pub extra: f64,
}

impl Adversary for Delayer {
    fn intercept(&mut self, _direction: Direction, frame: &mut Frame) -> AdversaryAction {
        if self.target.map_or(true, |t| t == frame.kind) {
            AdversaryAction::Delay(self.extra)
        } else {
            AdversaryAction::Forward
        }
    }
}

/// Drops every message of a given kind (jamming).
#[derive(Debug, Clone)]
pub struct Dropper {
    /// Which message type to drop.
    pub target: MessageKind,
}

impl Adversary for Dropper {
    fn intercept(&mut self, _direction: Direction, frame: &mut Frame) -> AdversaryAction {
        if frame.kind == self.target {
            AdversaryAction::Drop
        } else {
            AdversaryAction::Forward
        }
    }
}

/// Rewrites the frame header's version byte on targeted messages — a
/// wire-layer downgrade/confusion attack the codec must reject cleanly.
#[derive(Debug, Clone)]
pub struct VersionSpoofer {
    /// Which message type to re-version.
    pub target: MessageKind,
    /// The version byte to stamp on the frame.
    pub version: u8,
}

impl Adversary for VersionSpoofer {
    fn intercept(&mut self, _direction: Direction, frame: &mut Frame) -> AdversaryAction {
        if frame.kind == self.target {
            frame.version = self.version;
        }
        AdversaryAction::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: MessageKind, payload: Vec<u8>) -> Frame {
        Frame::new(kind, payload)
    }

    #[test]
    fn passive_forwards_untouched() {
        let mut ch = PassiveChannel;
        let mut f = frame(MessageKind::OtA, vec![1, 2, 3]);
        let action = ch.intercept(Direction::MobileToServer, &mut f);
        assert_eq!(action, AdversaryAction::Forward);
        assert_eq!(f, frame(MessageKind::OtA, vec![1, 2, 3]));
    }

    #[test]
    fn eavesdropper_records_encoded_frames_but_forwards() {
        let mut eve = Eavesdropper::default();
        let mut f = frame(MessageKind::OtE, vec![9, 9]);
        let encoded = f.encode();
        eve.intercept(Direction::ServerToMobile, &mut f);
        assert_eq!(f.payload, vec![9, 9]);
        assert_eq!(eve.transcript.len(), 1);
        assert_eq!(eve.transcript[0].0, Direction::ServerToMobile);
        assert_eq!(eve.transcript[0].1, MessageKind::OtE);
        assert_eq!(eve.transcript[0].2, encoded);
        // The recorded bytes are a valid frame capture.
        assert_eq!(Frame::decode(&eve.transcript[0].2).unwrap().payload, vec![9, 9]);
    }

    #[test]
    fn mitm_flips_targeted_kind_only() {
        let mut mitm = BitFlipMitm::new(MessageKind::OtB, 0);
        let mut f = frame(MessageKind::OtA, vec![0xF0]);
        mitm.intercept(Direction::MobileToServer, &mut f);
        assert_eq!(f.payload, vec![0xF0]);
        let mut f = frame(MessageKind::OtB, vec![0xF0]);
        mitm.intercept(Direction::MobileToServer, &mut f);
        assert_eq!(f.payload, vec![0xF1]);
        assert_eq!(mitm.corrupted, 1);
    }

    #[test]
    fn mitm_leaves_the_header_intact() {
        // Payload-offset flips must never land in the frame header: the
        // attack the tests model is payload corruption, not framing
        // corruption (VersionSpoofer covers that separately).
        let mut mitm = BitFlipMitm::pervasive(MessageKind::Challenge, 1);
        let mut f = frame(MessageKind::Challenge, vec![0u8; 16]);
        mitm.intercept(Direction::MobileToServer, &mut f);
        assert_eq!(f.version, crate::proto::frame::WIRE_VERSION);
        assert_eq!(f.kind, MessageKind::Challenge);
        assert!(f.payload.iter().all(|&b| b == 0x01));
    }

    #[test]
    fn delayer_returns_delay_for_targeted_kind() {
        let mut d = Delayer { target: Some(MessageKind::OtA), extra: 0.5 };
        let mut f = frame(MessageKind::OtA, vec![]);
        assert_eq!(
            d.intercept(Direction::MobileToServer, &mut f),
            AdversaryAction::Delay(0.5)
        );
        let mut f = frame(MessageKind::OtE, vec![]);
        assert_eq!(d.intercept(Direction::MobileToServer, &mut f), AdversaryAction::Forward);
    }

    #[test]
    fn dropper_drops() {
        let mut d = Dropper { target: MessageKind::Challenge };
        let mut f = frame(MessageKind::Challenge, vec![]);
        assert_eq!(d.intercept(Direction::MobileToServer, &mut f), AdversaryAction::Drop);
    }

    #[test]
    fn version_spoofer_rewrites_targeted_header() {
        let mut spoof = VersionSpoofer { target: MessageKind::OtA, version: 9 };
        let mut f = frame(MessageKind::OtA, vec![1]);
        assert_eq!(
            spoof.intercept(Direction::ServerToMobile, &mut f),
            AdversaryAction::Forward
        );
        assert_eq!(f.version, 9);
        // Re-encoding the spoofed frame yields bytes the codec rejects.
        assert!(Frame::decode(&f.encode()).is_err());
        let mut f = frame(MessageKind::OtB, vec![1]);
        spoof.intercept(Direction::ServerToMobile, &mut f);
        assert_eq!(f.version, crate::proto::frame::WIRE_VERSION);
    }
}
