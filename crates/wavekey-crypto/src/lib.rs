//! From-scratch cryptography for the WaveKey key-agreement protocol.
//!
//! The paper's key agreement (§IV-D) is a bidirectional batch of
//! 1-out-of-2 Oblivious Transfers in a prime-order group, followed by
//! error-correction-based reconciliation and an HMAC confirmation. None of
//! the required primitives may be assumed here, so all are implemented
//! from scratch:
//!
//! * [`group`] — the public group the two parties agree on (the paper's
//!   `g`, `u`): ristretto255 (RFC 9496) over edwards25519, with its field
//!   and point arithmetic in the private `field` and `ristretto` modules,
//!   plus a 61-bit test group.
//! * [`bigint`] — arbitrary-precision unsigned integers and Miller-Rabin
//!   primality testing: the test oracle for the group arithmetic.
//! * [`sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC, used as
//!   the OT key-derivation hash `H(·)` and the final key confirmation.
//!   Blocks compress on the x86 SHA extensions where the CPU has them.
//! * [`cipher`] — a SHA-256-CTR keystream cipher implementing the OT
//!   payload encryption `E(x, k)`.
//! * [`ot`] — the "simplest OT" of Chou-Orlandi (Fig. 3 of the paper),
//!   batched as the protocol batches it, one call per round from wire
//!   bytes to wire bytes.
//! * [`kdf`] — HKDF (RFC 5869 over our HMAC) for the optional
//!   privacy-amplification step after reconciliation.
//! * [`ecc`] — binary BCH codes over GF(2⁷) with Berlekamp-Massey
//!   decoding, plus the code-offset (fuzzy commitment) construction that
//!   realizes the paper's `Challenge = ECC(K_M) ‖ N` reconciliation.

pub mod bigint;
pub mod cipher;
pub mod ecc;
mod field;
pub mod group;
pub mod hmac;
pub mod kdf;
pub mod ot;
mod ristretto;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

pub use bigint::Ubig;
pub use cipher::{ctr_apply, ctr_decrypt, ctr_encrypt};
pub use ecc::{Bch, CodeOffset};
pub use group::Group;
pub use hmac::hmac_sha256;
pub use kdf::hkdf;
pub use ot::{OtPairs, OtReceiver, OtSender};
pub use sha256::sha256;
