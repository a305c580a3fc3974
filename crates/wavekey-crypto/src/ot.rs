//! Batched 1-out-of-2 Oblivious Transfer (Fig. 3 of the paper).
//!
//! The construction is the discrete-log "simplest OT" of Chou-Orlandi,
//! exactly as the paper describes it:
//!
//! ```text
//! sender:    a ← Z_u,  M_a = g^a
//! receiver:  b ← Z_u,  M_b = g^b        (choice 0)
//!                      M_b = M_a·g^b    (choice 1)
//! sender:    k⁰ = H(M_b^a), k¹ = H((M_b/M_a)^a)
//!            e⁰ = E(x⁰, k⁰), e¹ = E(x¹, k¹)
//! receiver:  k = H(M_a^b) decrypts e^choice
//! ```
//!
//! WaveKey runs `l_s` instances per direction and batches each protocol
//! round into one message (`M_A`, `M_B`, `M_E`), which this module
//! mirrors: a batch of instances moves through three batched messages.
//!
//! Every batch is flat. Its exponents and its group elements are each
//! one `Vec<u64>` of `n·k` little-endian limbs (`k` =
//! [`DhGroup::limbs`]: 1 on the tiny group, 16 on MODP-1024), and its
//! secret pairs are one byte buffer ([`OtPairs`]). Wire decode and
//! encode go straight between frame bytes and limbs.

use crate::bigint::{ct_select_limbs, Ubig};
use crate::cipher::ctr_apply;
use crate::group::DhGroup;
use crate::sha256::sha256;
use rand::rngs::StdRng;

/// A batch of byte-string pairs in one buffer: `len()` instances of two
/// `secret_len()`-byte strings, laid out `x⁰₀ ‖ x¹₀ ‖ x⁰₁ ‖ x¹₁ ‖ …`.
/// The sender's secrets, and the ciphertext pairs of `M_E` that encrypt
/// them in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtPairs {
    secret_len: usize,
    count: usize,
    bytes: Vec<u8>,
}

impl OtPairs {
    /// An empty batch of `secret_len`-byte pairs with room for `count`.
    pub fn with_capacity(secret_len: usize, count: usize) -> OtPairs {
        OtPairs { secret_len, count: 0, bytes: Vec::with_capacity(2 * secret_len * count) }
    }

    /// Owned pairs copied into one buffer.
    ///
    /// # Panics
    ///
    /// Panics unless every string has the length of the first.
    pub fn from_pairs(pairs: &[(Vec<u8>, Vec<u8>)]) -> OtPairs {
        let secret_len = pairs.first().map_or(0, |(x0, _)| x0.len());
        let mut out = OtPairs::with_capacity(secret_len, pairs.len());
        for (x0, x1) in pairs {
            out.push(x0, x1);
        }
        out
    }

    /// Appends one pair.
    ///
    /// # Panics
    ///
    /// Panics unless both strings are `secret_len()` bytes.
    pub fn push(&mut self, x0: &[u8], x1: &[u8]) {
        assert!(
            x0.len() == self.secret_len && x1.len() == self.secret_len,
            "every string of a batch is {} bytes",
            self.secret_len
        );
        self.bytes.extend_from_slice(x0);
        self.bytes.extend_from_slice(x1);
        self.count += 1;
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes per string.
    pub fn secret_len(&self) -> usize {
        self.secret_len
    }

    /// Pair `i` as `(x⁰, x¹)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pair(&self, i: usize) -> (&[u8], &[u8]) {
        assert!(i < self.count, "pair {i} of {}", self.count);
        self.bytes[2 * i * self.secret_len..][..2 * self.secret_len].split_at(self.secret_len)
    }

    fn pair_mut(&mut self, i: usize) -> (&mut [u8], &mut [u8]) {
        self.bytes[2 * i * self.secret_len..][..2 * self.secret_len].split_at_mut(self.secret_len)
    }
}

/// The batched first message `M_A`: one group element per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageA {
    /// `m_i = g^{a_i}` for every instance, `k` limbs each.
    pub elements: Vec<u64>,
}

/// The batched response `M_B`: one group element per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageB {
    /// `n_i` (the receiver's blinded choice) per instance, `k` limbs
    /// each.
    pub elements: Vec<u64>,
}

/// The batched ciphertext message `M_E`: a ciphertext pair per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageE {
    /// `(e_i⁰, e_i¹)` per instance.
    pub pairs: OtPairs,
}

impl OtMessageA {
    /// Serializes to fixed-width concatenated elements.
    pub fn encode(&self, group: &DhGroup) -> Vec<u8> {
        encode_elements(group, &self.elements)
    }

    /// Parses a serialized message.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::Malformed`] when the length is not a whole number
    /// of elements, or when an element is 0 or not below `u`.
    pub fn decode(group: &DhGroup, bytes: &[u8]) -> Result<OtMessageA, OtError> {
        Ok(OtMessageA { elements: decode_elements(group, bytes)? })
    }
}

impl OtMessageB {
    /// Serializes to fixed-width concatenated elements.
    pub fn encode(&self, group: &DhGroup) -> Vec<u8> {
        encode_elements(group, &self.elements)
    }

    /// Parses a serialized message.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::Malformed`] when the length is not a whole number
    /// of elements, or when an element is 0 or not below `u`.
    pub fn decode(group: &DhGroup, bytes: &[u8]) -> Result<OtMessageB, OtError> {
        Ok(OtMessageB { elements: decode_elements(group, bytes)? })
    }
}

impl OtMessageE {
    /// Serializes as `u32` count, then per pair two `u32`-length-prefixed
    /// ciphertexts.
    pub fn encode(&self) -> Vec<u8> {
        let p = &self.pairs;
        let mut out = Vec::with_capacity(4 + p.count * (8 + 2 * p.secret_len));
        out.extend_from_slice(&(p.count as u32).to_le_bytes());
        let prefix = (p.secret_len as u32).to_le_bytes();
        for i in 0..p.count {
            let (e0, e1) = p.pair(i);
            for e in [e0, e1] {
                out.extend_from_slice(&prefix);
                out.extend_from_slice(e);
            }
        }
        out
    }

    /// Parses a serialized message.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::Malformed`] on truncated input, and when the
    /// ciphertexts are not all of one length: an honest sender encrypts
    /// two strings of one length per instance, the same for the whole
    /// batch.
    pub fn decode(bytes: &[u8]) -> Result<OtMessageE, OtError> {
        let take_u32 = |pos: &mut usize| -> Result<usize, OtError> {
            let v = bytes.get(*pos..*pos + 4).ok_or(OtError::Malformed)?;
            *pos += 4;
            Ok(u32::from_le_bytes(v.try_into().expect("4 bytes")) as usize)
        };
        let mut pos = 0usize;
        let count = take_u32(&mut pos)?;
        // Every pair carries two 4-byte length prefixes, so a count the
        // remaining bytes cannot hold is rejected before it sizes the
        // allocation.
        if count > 1_000_000 || count > (bytes.len() - pos) / 8 {
            return Err(OtError::Malformed);
        }
        // The first prefix, read ahead, fixes every string's length.
        let mut peek = pos;
        let secret_len = if count == 0 { 0 } else { take_u32(&mut peek)? };
        let body = secret_len.checked_mul(2).and_then(|n| n.checked_add(8));
        if body.and_then(|n| n.checked_mul(count)) != Some(bytes.len() - pos) {
            return Err(OtError::Malformed);
        }
        let mut pairs = OtPairs::with_capacity(secret_len, count);
        for _ in 0..count {
            let mut at = [0usize; 2];
            for slot in &mut at {
                if take_u32(&mut pos)? != secret_len {
                    return Err(OtError::Malformed);
                }
                *slot = pos;
                pos += secret_len;
            }
            pairs.push(&bytes[at[0]..][..secret_len], &bytes[at[1]..][..secret_len]);
        }
        Ok(OtMessageE { pairs })
    }
}

fn encode_elements(group: &DhGroup, elements: &[u64]) -> Vec<u8> {
    let (k, w) = (group.limbs(), group.element_len());
    let mut out = vec![0u8; elements.len() / k * w];
    for (x, bytes) in elements.chunks_exact(k).zip(out.chunks_exact_mut(w)) {
        group.encode_into(x, bytes);
    }
    out
}

/// Parses fixed-width elements straight into limbs, rejecting any that
/// is 0 or not below `u`. A zero `M_B` would give the receiver both keys
/// of an instance (`k⁰ = k¹ = H(0)`), and a zero `M_A` would make `M_B`
/// zero exactly on choice-1 instances, showing the sender every choice
/// bit.
fn decode_elements(group: &DhGroup, bytes: &[u8]) -> Result<Vec<u64>, OtError> {
    let (k, w) = (group.limbs(), group.element_len());
    if bytes.len() % w != 0 {
        return Err(OtError::Malformed);
    }
    let mut out = vec![0u64; bytes.len() / w * k];
    for (c, x) in bytes.chunks_exact(w).zip(out.chunks_exact_mut(k)) {
        if !group.decode_into(c, x) {
            return Err(OtError::Malformed);
        }
    }
    Ok(out)
}

/// Errors from the OT protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtError {
    /// A message failed to parse.
    Malformed,
    /// Message batch sizes disagree between rounds.
    BatchMismatch,
}

impl std::fmt::Display for OtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OtError::Malformed => write!(f, "malformed OT message"),
            OtError::BatchMismatch => write!(f, "OT batch size mismatch"),
        }
    }
}

impl std::error::Error for OtError {}

/// `count` random exponents of `k` limbs in one flat buffer, drawn in
/// instance order.
fn random_exponents(group: &DhGroup, count: usize, rng: &mut StdRng) -> Vec<u64> {
    let k = group.limbs();
    let mut out = vec![0u64; count * k];
    for x in out.chunks_exact_mut(k) {
        group.random_exponent_into(rng, x);
    }
    out
}

/// The OT sender: holds the secret pairs and the per-instance exponents.
///
/// The group is *not* stored here — it is borrowed through the protocol
/// calls, so batches never clone the (table-carrying) [`DhGroup`].
#[derive(Debug, Clone)]
pub struct OtSender {
    secrets: OtPairs,
    /// `a_i`, `k` limbs each.
    a: Vec<u64>,
}

impl OtSender {
    /// Starts a batch of OT instances over `secrets` (one `(x⁰, x¹)` pair
    /// per instance), returning the sender state and the batched `M_A`.
    ///
    /// Exponent sampling stays sequential (deterministic per RNG seed);
    /// the `g^{a_i}` comb walks all go through one
    /// [`DhGroup::pow_g_many`] call.
    pub fn start(group: &DhGroup, secrets: OtPairs, rng: &mut StdRng) -> (OtSender, OtMessageA) {
        let a = random_exponents(group, secrets.len(), rng);
        let mut elements = vec![0u64; a.len()];
        group.pow_g_many(&a, &mut elements);
        (OtSender { secrets, a }, OtMessageA { elements })
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// The secret pairs the batch was started over, once it is spent.
    pub fn into_secrets(self) -> OtPairs {
        self.secrets
    }

    /// Processes the receiver's `M_B` and produces the ciphertext batch
    /// `M_E`.
    ///
    /// Each instance costs one general exponentiation (`n^a`, shared by
    /// both keys, all of them through [`DhGroup::pow_many`]) and one
    /// comb walk (all of them through [`DhGroup::pow_g_many`]): the naive
    /// `k¹ = H((n·g^{−a})^a)` is folded algebraically into
    /// `H(n^a · g^{−a² mod (u−1)})` — valid because the generator's order
    /// divides `u−1` — so its ~1020 squarings become a fixed-base table
    /// walk. The canonical group element, and so the key, is the same as
    /// the naive form's. What is left per instance is one product, two
    /// hashes and the CTR encryptions, which run in place on a copy of
    /// the secrets.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::BatchMismatch`] when `M_B` has the wrong number
    /// of elements.
    pub fn encrypt(&self, group: &DhGroup, msg_b: &OtMessageB) -> Result<OtMessageE, OtError> {
        if msg_b.elements.len() != self.a.len() {
            return Err(OtError::BatchMismatch);
        }
        let k = group.limbs();
        let mut na = vec![0u64; self.a.len()];
        group.pow_many(&msg_b.elements, &self.a, &mut na);
        let mut neg_a2 = vec![0u64; self.a.len()];
        for (a, e) in self.a.chunks_exact(k).zip(neg_a2.chunks_exact_mut(k)) {
            let a = Ubig::from_limbs(a);
            group.neg_exponent(&a.mul(&a)).write_limbs(e);
        }
        let mut g_neg_a2 = vec![0u64; self.a.len()];
        group.pow_g_many(&neg_a2, &mut g_neg_a2);
        // The spent exponents take each instance's `n^a·g^{−a²}`.
        let k1 = &mut neg_a2;
        let mut pairs = self.secrets.clone();
        for (i, (na, k1)) in na.chunks_exact(k).zip(k1.chunks_exact_mut(k)).enumerate() {
            group.mul_into(na, &g_neg_a2[i * k..][..k], k1);
            let (e0, e1) = pairs.pair_mut(i);
            ctr_apply(&derive_key(group, na), e0);
            ctr_apply(&derive_key(group, k1), e1);
        }
        Ok(OtMessageE { pairs })
    }
}

/// The OT receiver: holds the choice bits and the blinding exponents.
///
/// Like [`OtSender`], the group is borrowed through the protocol calls
/// rather than cloned into the state.
#[derive(Debug, Clone)]
pub struct OtReceiver {
    /// Choice bit `i` at bit `i % 64` of word `i / 64`.
    choices: Vec<u64>,
    count: usize,
    /// `b_i`, `k` limbs each.
    b: Vec<u64>,
    /// The sender's `M_A` elements, `k` limbs each.
    m_a: Vec<u64>,
}

impl OtReceiver {
    /// Responds to the sender's `M_A` with the blinded choices `M_B`.
    ///
    /// Blinding-exponent sampling stays sequential; the `g^{b_i}` comb
    /// walks all go through one [`DhGroup::pow_g_many`] call, and each
    /// instance then blinds with one product.
    ///
    /// # Errors
    ///
    /// [`OtError::BatchMismatch`] when `M_A` does not hold one element
    /// per choice.
    pub fn respond(
        group: &DhGroup,
        choices: &[bool],
        msg_a: &OtMessageA,
        rng: &mut StdRng,
    ) -> Result<(OtReceiver, OtMessageB), OtError> {
        OtReceiver::respond_to(group, choices, msg_a.elements.clone(), rng)
    }

    /// [`OtReceiver::respond`] over `M_A`'s elements, which the receiver
    /// keeps.
    fn respond_to(
        group: &DhGroup,
        choices: &[bool],
        m_a: Vec<u64>,
        rng: &mut StdRng,
    ) -> Result<(OtReceiver, OtMessageB), OtError> {
        let k = group.limbs();
        if m_a.len() != choices.len() * k {
            return Err(OtError::BatchMismatch);
        }
        let b = random_exponents(group, choices.len(), rng);
        let mut gb = vec![0u64; b.len()];
        group.pow_g_many(&b, &mut gb);
        let mut elements = vec![0u64; b.len()];
        let mut packed = vec![0u64; choices.len().div_ceil(64)];
        for (i, &choice) in choices.iter().enumerate() {
            let at = i * k..(i + 1) * k;
            blind(group, choice, &m_a[at.clone()], &gb[at.clone()], &mut elements[at]);
            packed[i / 64] |= u64::from(choice) << (i % 64);
        }
        let receiver = OtReceiver { choices: packed, count: choices.len(), b, m_a };
        Ok((receiver, OtMessageB { elements }))
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decrypts the chosen secret of every instance from `M_E`, returning
    /// them in one buffer: instance `i`'s at
    /// `i·secret_len..(i+1)·secret_len`, where `secret_len` is `M_E`'s
    /// ciphertext length. The per-instance exponentiations `M_A^b` all go
    /// through [`DhGroup::pow_many`], and the chosen ciphertext is picked
    /// by a byte mask rather than a branch on the choice bit.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::BatchMismatch`] when `M_E` has the wrong number
    /// of pairs.
    pub fn decrypt(&self, group: &DhGroup, msg_e: &OtMessageE) -> Result<Vec<u8>, OtError> {
        if msg_e.pairs.len() != self.count {
            return Err(OtError::BatchMismatch);
        }
        let k = group.limbs();
        let mut shared = vec![0u64; self.b.len()];
        group.pow_many(&self.m_a, &self.b, &mut shared);
        let len = msg_e.pairs.secret_len();
        let mut out = vec![0u8; self.count * len];
        for i in 0..self.count {
            let (e0, e1) = msg_e.pairs.pair(i);
            let x = &mut out[i * len..][..len];
            pick((self.choices[i / 64] >> (i % 64)) & 1 == 1, e0, e1, x);
            ctr_apply(&derive_key(group, &shared[i * k..][..k]), x);
        }
        Ok(out)
    }
}

/// One instance of `M_B` into `out`: `M_A·g^b` when the choice bit is 1,
/// else `g^b`. The product is always computed and the pick is a masked
/// select over the modulus width, so the time to build `M_B` does not
/// depend on the choice bit, which is a key-seed bit.
fn blind(group: &DhGroup, choice: bool, m_a: &[u64], gb: &[u64], out: &mut [u64]) {
    group.mul_into(m_a, gb, out);
    ct_select_limbs(choice, out, gb);
}

/// `e1` when `choice` is set, else `e0`, merged into `out` under a byte
/// mask so the pick does not branch on the choice bit. The mask passes
/// through [`std::hint::black_box`] so the optimizer cannot turn the
/// merge back into a branch. All three slices have one length.
fn pick(choice: bool, e0: &[u8], e1: &[u8], out: &mut [u8]) {
    debug_assert!(e0.len() == out.len() && e1.len() == out.len());
    let mask = std::hint::black_box(u8::from(choice)).wrapping_neg();
    for ((o, &x0), &x1) in out.iter_mut().zip(e0).zip(e1) {
        *o = x0 ^ (mask & (x0 ^ x1));
    }
}

/// Key derivation `H(element)` for the payload cipher, over the
/// element's wire bytes.
fn derive_key(group: &DhGroup, element: &[u64]) -> [u8; 32] {
    let w = group.element_len();
    let mut buf = [0u8; 256];
    if w <= buf.len() {
        group.encode_into(element, &mut buf[..w]);
        sha256(&buf[..w])
    } else {
        let mut wide = vec![0u8; w];
        group.encode_into(element, &mut wide);
        sha256(&wide)
    }
}

/// The byte-round entry points of [`crate::rounds`]: `M_A` straight from
/// its wire bytes into the receiver.
pub(crate) fn respond_to_bytes(
    group: &DhGroup,
    choices: &[bool],
    ma_bytes: &[u8],
    rng: &mut StdRng,
) -> Result<(OtReceiver, OtMessageB), OtError> {
    OtReceiver::respond_to(group, choices, decode_elements(group, ma_bytes)?, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::{ctr_decrypt, ctr_encrypt};
    use rand::{Rng, SeedableRng};

    /// Instance `i` of a flat batch.
    fn at(group: &DhGroup, flat: &[u64], i: usize) -> Ubig {
        let k = group.limbs();
        Ubig::from_limbs(&flat[i * k..][..k])
    }

    /// `xs` as a flat batch of `k`-limb values.
    fn flat(group: &DhGroup, xs: &[Ubig]) -> Vec<u64> {
        let k = group.limbs();
        let mut out = vec![0u64; xs.len() * k];
        for (x, o) in xs.iter().zip(out.chunks_exact_mut(k)) {
            x.write_limbs(o);
        }
        out
    }

    /// A decrypted batch split back into its `count` payloads.
    fn split(plain: &[u8], count: usize) -> Vec<Vec<u8>> {
        let len = plain.len() / count.max(1);
        (0..count).map(|i| plain[i * len..][..len].to_vec()).collect()
    }

    fn run_batch(group: &DhGroup, secrets: Vec<(Vec<u8>, Vec<u8>)>, choices: Vec<bool>) -> Vec<Vec<u8>> {
        let mut rng_s = StdRng::seed_from_u64(100);
        let mut rng_r = StdRng::seed_from_u64(200);
        let (sender, msg_a) = OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
        let (receiver, msg_b) = OtReceiver::respond(group, &choices, &msg_a, &mut rng_r).unwrap();
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        split(&receiver.decrypt(group, &msg_e).unwrap(), choices.len())
    }

    #[test]
    fn receiver_gets_exactly_the_chosen_secret() {
        let group = DhGroup::tiny_test_group();
        let secrets = vec![
            (b"zero-0".to_vec(), b"one--0".to_vec()),
            (b"zero-1".to_vec(), b"one--1".to_vec()),
            (b"zero-2".to_vec(), b"one--2".to_vec()),
        ];
        let out = run_batch(&group, secrets, vec![false, true, false]);
        assert_eq!(out[0], b"zero-0");
        assert_eq!(out[1], b"one--1");
        assert_eq!(out[2], b"zero-2");
    }

    #[test]
    fn unchosen_ciphertext_does_not_decrypt() {
        let group = DhGroup::tiny_test_group();
        let mut rng_s = StdRng::seed_from_u64(1);
        let mut rng_r = StdRng::seed_from_u64(2);
        let secrets = OtPairs::from_pairs(&[(b"secret-zero".to_vec(), b"secret-one!".to_vec())]);
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng_s);
        let (receiver, msg_b) =
            OtReceiver::respond(&group, &[false], &msg_a, &mut rng_r).unwrap();
        let msg_e = sender.encrypt(&group, &msg_b).unwrap();
        // Forge a receiver that tries the *other* ciphertext with its key.
        let k = {
            // Receiver key = H(M_a^b): reconstruct what it would use.
            let out = receiver.decrypt(&group, &msg_e).unwrap();
            assert_eq!(out, b"secret-zero");
            // Decrypt e1 with the receiver's k (choice 0 key): garbage.
            let shared = group.pow(&at(&group, &msg_a.elements, 0), &at(&group, &receiver.b, 0));
            ctr_decrypt(&derive_key(&group, &flat(&group, &[shared])), msg_e.pairs.pair(0).1)
        };
        assert_ne!(k, b"secret-one!");
    }

    #[test]
    fn works_on_modp_1024() {
        let group = DhGroup::modp_1024();
        let secrets = vec![(vec![1u8, 2, 3], vec![4u8, 5, 6])];
        let out = run_batch(&group, secrets, vec![true]);
        assert_eq!(out[0], vec![4, 5, 6]);
    }

    #[test]
    fn message_codecs_roundtrip() {
        let group = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(9);
        let secrets = OtPairs::from_pairs(&[(vec![1, 2], vec![3, 4]), (vec![5, 6], vec![7, 8])]);
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng);
        let bytes_a = msg_a.encode(&group);
        assert_eq!(OtMessageA::decode(&group, &bytes_a).unwrap(), msg_a);

        let (_, msg_b) =
            OtReceiver::respond(&group, &[true, false], &msg_a, &mut rng).unwrap();
        let bytes_b = msg_b.encode(&group);
        assert_eq!(OtMessageB::decode(&group, &bytes_b).unwrap(), msg_b);

        let msg_e = sender.encrypt(&group, &msg_b).unwrap();
        let bytes_e = msg_e.encode();
        assert_eq!(OtMessageE::decode(&bytes_e).unwrap(), msg_e);
    }

    #[test]
    fn codec_rejects_malformed() {
        let group = DhGroup::tiny_test_group();
        assert_eq!(
            OtMessageA::decode(&group, &[1, 2, 3]).unwrap_err(),
            OtError::Malformed
        );
        assert_eq!(OtMessageE::decode(&[1, 2]).unwrap_err(), OtError::Malformed);
        let msg = OtMessageE { pairs: OtPairs::from_pairs(&[(vec![1], vec![2])]) };
        let mut bytes = msg.encode();
        bytes.pop();
        assert_eq!(OtMessageE::decode(&bytes).unwrap_err(), OtError::Malformed);
    }

    #[test]
    fn batch_mismatch_detected() {
        let group = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(10);
        let secrets = OtPairs::from_pairs(&[(vec![1], vec![2])]);
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng);
        assert!(OtReceiver::respond(&group, &[true, false], &msg_a, &mut rng).is_err());
        let bad_b = OtMessageB { elements: vec![] };
        assert_eq!(sender.encrypt(&group, &bad_b).unwrap_err(), OtError::BatchMismatch);
    }

    #[test]
    fn batched_enqueue_detects_mismatch() {
        // `encrypt` and `decrypt` queue a whole round into one `pow_many`
        // call. A round of the wrong size must come back as
        // `BatchMismatch` before that call: a short or long `M_B` would
        // trip `pow_many`'s batch-shape assertion, and a short `M_E`
        // would leave payloads undecrypted. Eight MODP-1024 instances
        // fill one lane group.
        let group = DhGroup::modp_1024_shared();
        let k = group.limbs();
        let mut rng = StdRng::seed_from_u64(11);
        let secrets = OtPairs::from_pairs(&vec![(vec![1], vec![2]); 8]);
        let (sender, msg_a) = OtSender::start(group, secrets, &mut rng);
        let (receiver, msg_b) = OtReceiver::respond(group, &[true; 8], &msg_a, &mut rng).unwrap();
        for len in [0, 7, 9] {
            let elements =
                msg_b.elements.chunks_exact(k).cycle().take(len).flatten().copied().collect();
            let bad_b = OtMessageB { elements };
            assert_eq!(sender.encrypt(group, &bad_b).unwrap_err(), OtError::BatchMismatch, "M_B of {len}");
        }
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        for len in [0, 7, 9] {
            let mut pairs = OtPairs::with_capacity(msg_e.pairs.secret_len(), len);
            for i in (0..8).cycle().take(len) {
                let (e0, e1) = msg_e.pairs.pair(i);
                pairs.push(e0, e1);
            }
            let bad_e = OtMessageE { pairs };
            assert_eq!(receiver.decrypt(group, &bad_e).unwrap_err(), OtError::BatchMismatch, "M_E of {len}");
        }
        assert_eq!(receiver.decrypt(group, &msg_e).unwrap(), vec![2; 8]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let group = DhGroup::tiny_test_group();
        let out = run_batch(&group, vec![], vec![]);
        assert!(out.is_empty());
    }

    #[test]
    fn batched_rounds_match_scalar_rounds_bit_for_bit() {
        // `encrypt` and `decrypt` hand a round's general exponentiations
        // to `pow_many` in one call. Every ciphertext and payload must
        // equal a per-instance scalar oracle on the one-limb group and on
        // MODP-1024, whose batches run on the eight-lane kernel where the
        // CPU has it: short, padded, full and ragged batches.
        let tiny = DhGroup::tiny_test_group();
        for group in [&tiny, DhGroup::modp_1024_shared()] {
            for count in [1usize, 2, 3, 8, 9] {
                let secrets: Vec<_> = (0..count)
                    .map(|i| (vec![i as u8; 4], vec![0xA0 | i as u8; 4]))
                    .collect();
                let choices: Vec<bool> = (0..count).map(|i| i % 2 == 1).collect();
                let mut rng_s = StdRng::seed_from_u64(77);
                let mut rng_r = StdRng::seed_from_u64(88);
                let (sender, msg_a) =
                    OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
                let (receiver, msg_b) =
                    OtReceiver::respond(group, &choices, &msg_a, &mut rng_r).unwrap();
                let msg_e = sender.encrypt(group, &msg_b).unwrap();
                let out = split(&receiver.decrypt(group, &msg_e).unwrap(), count);
                let key = |e: &Ubig| derive_key(group, &flat(group, std::slice::from_ref(e)));
                for i in 0..count {
                    let (a, n) = (at(group, &sender.a, i), at(group, &msg_b.elements, i));
                    let na = group.pow(&n, &a);
                    let k1 = key(&group.mul(&na, &group.inv_pow_g(&a.mul(&a))));
                    let (x0, x1) = &secrets[i];
                    let want = (ctr_encrypt(&key(&na), x0), ctr_encrypt(&k1, x1));
                    let got = msg_e.pairs.pair(i);
                    let got_pair = (got.0.to_vec(), got.1.to_vec());
                    assert_eq!(got_pair, want, "M_E count {count} instance {i}");
                    let (m_a, b) = (at(group, &msg_a.elements, i), at(group, &receiver.b, i));
                    let shared = group.pow(&m_a, &b);
                    let ct = if choices[i] { got.1 } else { got.0 };
                    let plain = ctr_decrypt(&key(&shared), ct);
                    assert_eq!(out[i], plain, "payload count {count} instance {i}");
                    assert_eq!(&out[i], if choices[i] { x1 } else { x0 });
                }
            }
        }
    }

    /// `k¹ = H((n·g^{−a})^a)` exactly as the protocol states it: a
    /// Fermat inversion, then a second general exponentiation.
    fn naive_k1(group: &DhGroup, n: &Ubig, a: &Ubig) -> [u8; 32] {
        let quotient = group.div(n, &group.pow_g(a));
        derive_key(group, &flat(group, &[group.pow(&quotient, a)]))
    }

    /// Runs the folded sender over the `(n_i, a_i)` instances and checks
    /// both ciphertexts of every pair against the naive key derivations.
    fn check_fold(group: &DhGroup, instances: &[(Ubig, Ubig)]) {
        let secrets: Vec<_> = (0..instances.len())
            .map(|i| (vec![i as u8; 4], vec![0xF0 ^ i as u8; 4]))
            .collect();
        let (ns, as_): (Vec<Ubig>, Vec<Ubig>) = instances.iter().cloned().unzip();
        let sender = OtSender { secrets: OtPairs::from_pairs(&secrets), a: flat(group, &as_) };
        let msg_b = OtMessageB { elements: flat(group, &ns) };
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        for (i, ((n, a), (x0, x1))) in instances.iter().zip(&secrets).enumerate() {
            let k0 = derive_key(group, &flat(group, &[group.pow(n, a)]));
            let (e0, e1) = msg_e.pairs.pair(i);
            assert_eq!(e0, ctr_encrypt(&k0, x0), "e0, n {n} a {a}");
            assert_eq!(e1, ctr_encrypt(&naive_k1(group, n, a), x1), "e1, n {n} a {a}");
        }
    }

    #[test]
    fn folded_k1_matches_naive_quotient_power() {
        let tiny = DhGroup::tiny_test_group();
        let groups = [(&tiny, 24), (DhGroup::modp_1024_shared(), 3)];
        for (group, cases) in groups {
            let u = group.modulus();
            let one = Ubig::one();
            // Edges: n ∈ {0, 1, u−1} against a ∈ {1, u−2}; a = u−2 is the
            // largest sampled exponent, so a² needs the mod (u−1) fold.
            let mut edges = Vec::new();
            for n in [Ubig::zero(), one.clone(), u.sub(&one)] {
                for a in [one.clone(), u.sub(&Ubig::from_u64(2))] {
                    edges.push((n.clone(), a));
                }
            }
            check_fold(group, &edges);
            let name = format!("ot_fold_k1_{}bit", u.bit_len());
            rand::check::cases(&name, cases, |rng| {
                let instances: Vec<_> = (0..2)
                    .map(|_| (Ubig::random_below(u, rng), group.random_exponent(rng)))
                    .collect();
                check_fold(group, &instances);
            });
        }
    }

    #[test]
    fn branch_free_pick_matches_branchy_pick() {
        rand::check::cases("branch_free_pick_matches_branchy_pick", 64, |rng| {
            let len = rng.gen_range(0..40);
            let e0: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let e1: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            for choice in [false, true] {
                let branchy = if choice { &e1 } else { &e0 };
                let mut out = vec![0u8; len];
                pick(choice, &e0, &e1, &mut out);
                assert_eq!(&out, branchy);
            }
        });
    }

    #[test]
    fn unequal_ciphertext_pair_is_malformed() {
        let group = DhGroup::tiny_test_group();
        let mut rng_s = StdRng::seed_from_u64(12);
        let mut rng_r = StdRng::seed_from_u64(13);
        let secrets = OtPairs::from_pairs(&[(vec![1, 2], vec![3, 4]), (vec![5, 6], vec![7, 8])]);
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng_s);
        let (receiver, msg_b) =
            OtReceiver::respond(&group, &[false, true], &msg_a, &mut rng_r).unwrap();
        let bytes = sender.encrypt(&group, &msg_b).unwrap().encode();
        let msg_e = OtMessageE::decode(&bytes).unwrap();
        assert!(receiver.decrypt(&group, &msg_e).is_ok());
        // Lengthen pair 1's e¹ (its prefix sits 6 bytes from the end) by
        // one byte.
        let mut long = bytes.clone();
        let at = long.len() - 6;
        long[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        long.push(0);
        assert_eq!(OtMessageE::decode(&long).unwrap_err(), OtError::Malformed);
        // A whole batch of one other length still parses.
        let short = OtMessageE { pairs: OtPairs::from_pairs(&vec![(vec![1], vec![2]); 2]) };
        assert!(OtMessageE::decode(&short.encode()).is_ok());
    }

    #[test]
    fn decode_rejects_counts_the_frame_cannot_hold() {
        // 12 bytes declaring a million pairs: rejected before any
        // allocation sized by the count.
        let mut frame = 1_000_000u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 8]);
        assert_eq!(OtMessageE::decode(&frame).unwrap_err(), OtError::Malformed);
        // A count one pair above what the bytes hold is rejected too;
        // the exact count still parses.
        let msg = OtMessageE { pairs: OtPairs::from_pairs(&vec![(vec![], vec![]); 3]) };
        let mut bytes = msg.encode();
        assert_eq!(OtMessageE::decode(&bytes).unwrap(), msg);
        bytes[0] = 4;
        assert_eq!(OtMessageE::decode(&bytes).unwrap_err(), OtError::Malformed);
    }

    #[test]
    fn m_e_decode_is_total_and_canonical() {
        // `M_E` arrives from the peer: well-formed batches decode, and no
        // damaged one panics; whatever decodes re-encodes to its bytes.
        rand::check::cases("m_e_decode_is_total_and_canonical", 512, |rng| {
            let (count, len) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
            let mut bytes = (count as u32).to_le_bytes().to_vec();
            for _ in 0..2 * count {
                bytes.extend_from_slice(&(len as u32).to_le_bytes());
                bytes.extend((0..len).map(|_| rng.gen::<u8>()));
            }
            let damage = rng.gen_range(0..4);
            match damage {
                0 => {}
                1 => {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen();
                }
                2 => bytes.truncate(rng.gen_range(0..bytes.len())),
                _ => bytes.push(rng.gen()),
            }
            match OtMessageE::decode(&bytes) {
                Ok(msg) => assert_eq!(msg.encode(), bytes),
                Err(e) => assert!(damage != 0, "well-formed batch rejected: {e}"),
            }
        });
    }

    #[test]
    fn decode_rejects_zero_and_unreduced_elements() {
        // 0, u, u+1 and the all-0xFF encoding are never honest
        // elements: 0 would zero the keys derived from it, and an
        // encoding of u or above is not a reduced element.
        for group in [DhGroup::tiny_test_group_shared(), DhGroup::modp_1024_shared()] {
            let (u, w) = (group.modulus(), group.element_len());
            let honest = group.encode_element(&group.pow_g(&Ubig::from_u64(5)));
            assert!(OtMessageA::decode(group, &honest).is_ok());
            let all_ff = Ubig::from_be_bytes(&vec![0xFF; w]);
            for bad in [Ubig::zero(), u.clone(), u.add(&Ubig::one()), all_ff] {
                let bytes = bad.to_be_bytes_padded(w);
                // The bad element alone, and behind an honest one.
                for frame in [bytes.clone(), [honest.clone(), bytes].concat()] {
                    let a = OtMessageA::decode(group, &frame);
                    assert_eq!(a.unwrap_err(), OtError::Malformed, "M_A {bad}");
                    let b = OtMessageB::decode(group, &frame);
                    assert_eq!(b.unwrap_err(), OtError::Malformed, "M_B {bad}");
                }
            }
        }
    }

    #[test]
    fn branch_free_blinding_matches_branchy_form() {
        for group in [DhGroup::tiny_test_group_shared(), DhGroup::modp_1024_shared()] {
            let cases_n = if group.modulus().bit_len() > 64 { 16 } else { 256 };
            rand::check::cases("branch_free_blinding_matches_branchy_form", cases_n, |rng| {
                let m_a = Ubig::random_below(group.modulus(), rng);
                let gb = group.pow_g(&group.random_exponent(rng));
                let product = group.mul(&m_a, &gb);
                let (m_a_l, gb_l) = (flat(group, &[m_a]), flat(group, std::slice::from_ref(&gb)));
                for choice in [false, true] {
                    let branchy = if choice { product.clone() } else { gb.clone() };
                    let mut selected = flat(group, std::slice::from_ref(&product));
                    ct_select_limbs(choice, &mut selected, &gb_l);
                    assert_eq!(Ubig::from_limbs(&selected), branchy);
                    let mut blinded = vec![0u64; group.limbs()];
                    blind(group, choice, &m_a_l, &gb_l, &mut blinded);
                    assert_eq!(Ubig::from_limbs(&blinded), branchy);
                }
            });
        }
    }

    #[test]
    fn flat_element_codec_matches_ubig_codec() {
        // The limb codec is the `Ubig` codec: the same wire bytes out,
        // the same value back, on both widths.
        for group in [DhGroup::tiny_test_group_shared(), DhGroup::modp_1024_shared()] {
            rand::check::cases("flat_element_codec_matches_ubig_codec", 32, |rng| {
                let e = group.pow_g(&group.random_exponent(rng));
                let mut bytes = vec![0u8; group.element_len()];
                group.encode_into(&flat(group, std::slice::from_ref(&e)), &mut bytes);
                assert_eq!(bytes, group.encode_element(&e));
                let mut back = vec![0u64; group.limbs()];
                assert!(group.decode_into(&bytes, &mut back));
                assert_eq!(Ubig::from_limbs(&back), e);
            });
        }
    }
}
