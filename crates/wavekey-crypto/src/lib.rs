//! From-scratch cryptography for the WaveKey key-agreement protocol.
//!
//! The paper's key agreement (§IV-D) is a bidirectional batch of
//! 1-out-of-2 Oblivious Transfers in a prime-order group, followed by
//! error-correction-based reconciliation and an HMAC confirmation. None of
//! the required primitives may be assumed here, so all are implemented
//! from scratch:
//!
//! * [`bigint`] — arbitrary-precision unsigned integers with Montgomery
//!   modular exponentiation (the OT group operations) and Miller-Rabin
//!   primality testing.
//! * [`group`] — the fixed 1024-bit safe-prime Diffie-Hellman group the
//!   two parties agree on (the paper's public primes `g`, `u`).
//! * [`sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC, used as
//!   the OT key-derivation hash `H(·)` and the final key confirmation.
//!   Blocks compress on the x86 SHA extensions where the CPU has them.
//! * [`cipher`] — a SHA-256-CTR keystream cipher implementing the OT
//!   payload encryption `E(x, k)`.
//! * [`ot`] — the "simplest OT" of Chou-Orlandi (Fig. 3 of the paper),
//!   batched as the protocol batches it.
//! * [`rounds`] — the same OT rounds as byte-level single calls, so a
//!   sans-IO protocol state machine can advance one round per wire frame.
//! * [`kdf`] — HKDF (RFC 5869 over our HMAC) for the optional
//!   privacy-amplification step after reconciliation.
//! * [`ecc`] — binary BCH codes over GF(2⁷) with Berlekamp-Massey
//!   decoding, plus the code-offset (fuzzy commitment) construction that
//!   realizes the paper's `Challenge = ECC(K_M) ‖ N` reconciliation.

#[cfg(target_arch = "x86_64")]
mod adx;
pub mod bigint;
pub mod cipher;
pub mod ecc;
pub mod group;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod ifma;
pub mod kdf;
pub mod ot;
pub mod rounds;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

pub use bigint::Ubig;
pub use cipher::{ctr_apply, ctr_decrypt, ctr_encrypt};
pub use ecc::{Bch, CodeOffset};
pub use group::DhGroup;
pub use hmac::hmac_sha256;
pub use kdf::hkdf;
pub use ot::{OtPairs, OtReceiver, OtSender};
pub use sha256::sha256;
