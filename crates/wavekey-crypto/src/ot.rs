//! Batched 1-out-of-2 Oblivious Transfer (Fig. 3 of the paper).
//!
//! The construction is the "simplest OT" of Chou-Orlandi in its batched
//! form, one sender scalar for the whole batch, written additively over
//! ristretto255 ([`Group`]):
//!
//! ```text
//! sender:    a ← Z_ℓ,  M_A = a·G                  (one a per batch)
//! receiver:  bᵢ ← Z_ℓ, M_Bᵢ = bᵢ·G                (choice 0)
//!                      M_Bᵢ = M_A + bᵢ·G          (choice 1)
//! sender:    k⁰ᵢ = H(i ‖ a·M_Bᵢ), k¹ᵢ = H(i ‖ a·(M_Bᵢ − M_A))
//!            e⁰ᵢ = E(x⁰ᵢ, k⁰ᵢ), e¹ᵢ = E(x¹ᵢ, k¹ᵢ)
//! receiver:  kᵢ = H(i ‖ bᵢ·M_A) decrypts e^choiceᵢ
//! ```
//!
//! `H` hashes the instance index `i` (a little-endian `u32`) and the
//! element's 32-byte encoding: one SHA-256 block. With one `a` for every
//! instance, the index is what keeps instances apart: a receiver that
//! sends one `M_B` element twice, or `M_Bⱼ = M_Bᵢ + M_A`, would otherwise
//! get two instances with one key and read `xᵢ ⊕ xⱼ` off the
//! ciphertexts.
//!
//! WaveKey runs `l_s` instances per direction and batches each protocol
//! round into one message (`M_A`, one element; `M_B` and `M_E`, one
//! entry per instance). Each round is one call that takes and returns
//! wire bytes, so a sans-IO protocol machine advances one round per
//! frame: [`OtSender::start`] → `M_A`, [`OtReceiver::respond`] → `M_B`,
//! [`OtSender::encrypt`] → `M_E`, [`OtReceiver::decrypt`] → payloads.
//!
//! Every batch is flat: its scalars and its decoded elements are each one
//! `Vec<u64>` ([`Group::scalar_words`] and [`Group::point_words`] per
//! instance), and its secret pairs are one byte buffer ([`OtPairs`]).

use crate::cipher::ctr_apply;
use crate::group::Group;
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
        OtPairs {
            secret_len,
            count: 0,
            bytes: Vec::with_capacity(2 * secret_len * count),
        }
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

/// The batched ciphertext message `M_E`: a ciphertext pair per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OtMessageE {
    /// `(e_i⁰, e_i¹)` per instance.
    pairs: OtPairs,
}

impl OtMessageE {
    /// Serializes as `u32` count, then per pair two `u32`-length-prefixed
    /// ciphertexts.
    fn encode(&self) -> Vec<u8> {
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
    fn decode(bytes: &[u8]) -> Result<OtMessageE, OtError> {
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

/// Parses fixed-width elements, rejecting the frame when its length is
/// not a whole number of elements or when any element is one no honest
/// party sends ([`Group::decode_into`]). An identity `M_B` would give the
/// receiver both keys of an instance, and an identity `M_A` would make
/// `M_B = b·G` on both choices while fixing every `k¹`.
fn decode_elements(group: Group, bytes: &[u8]) -> Result<Vec<u64>, OtError> {
    let (pw, w) = (group.point_words(), group.element_len());
    if !bytes.len().is_multiple_of(w) {
        return Err(OtError::Malformed);
    }
    let mut out = vec![0u64; bytes.len() / w * pw];
    for (c, p) in bytes.chunks_exact(w).zip(out.chunks_exact_mut(pw)) {
        if !group.decode_into(c, p) {
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

/// `count` random scalars in one flat buffer, drawn in instance order.
fn random_scalars(group: Group, count: usize, rng: &mut StdRng) -> Vec<u64> {
    let sw = group.scalar_words();
    let mut out = vec![0u64; count * sw];
    for x in out.chunks_exact_mut(sw) {
        group.random_scalar_into(rng, x);
    }
    out
}

/// The OT sender: holds the secret pairs and the batch's one scalar.
#[derive(Debug, Clone)]
pub struct OtSender {
    secrets: OtPairs,
    /// `a`, [`Group::scalar_words`] words, for every instance.
    a: Vec<u64>,
}

impl OtSender {
    /// Starts a batch of OT instances over `secrets` (one `(x⁰, x¹)` pair
    /// per instance), returning the sender state and the encoded `M_A`:
    /// one element, `a·G`, whatever the batch size.
    pub fn start(group: Group, secrets: OtPairs, rng: &mut StdRng) -> (OtSender, Vec<u8>) {
        let a = random_scalars(group, 1, rng);
        let mut m_a = vec![0u64; group.point_words()];
        group.mul_base_many(&a, &mut m_a);
        let mut bytes = vec![0u8; group.element_len()];
        group.encode_into(&m_a, &mut bytes);
        (OtSender { secrets, a }, bytes)
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

    /// Answers the receiver's encoded `M_B` with the encoded ciphertext
    /// batch `M_E`.
    ///
    /// Each instance costs one variable-base multiplication, `a·M_Bᵢ`,
    /// shared by both keys (all through one [`Group::mul_many`] call by
    /// the one scalar). The naive `k¹ᵢ = H(i ‖ a·(M_Bᵢ − M_A))` is folded
    /// into `H(i ‖ a·M_Bᵢ + (−a²)·G)`, and `(−a²)·G` is one comb walk for
    /// the whole batch. The element, and so the key, is the naive form's.
    /// Both elements are computed at half scale and doubled by the batch
    /// encoder ([`Group::halves`]). What is left per instance is one
    /// addition, two hashes and the CTR encryptions, which run in place
    /// on a copy of the secrets.
    ///
    /// # Errors
    ///
    /// [`OtError::Malformed`] when `m_b` does not parse,
    /// [`OtError::BatchMismatch`] when it has the wrong number of
    /// elements.
    pub fn encrypt(&self, group: Group, m_b: &[u8]) -> Result<Vec<u8>, OtError> {
        let m_b = decode_elements(group, m_b)?;
        let pw = group.point_words();
        if m_b.len() / pw != self.len() {
            return Err(OtError::BatchMismatch);
        }
        // Both keys' elements at half scale: (a/2)·M_Bᵢ, and that plus
        // (−a²/2)·G; the batch encoder doubles them.
        let mut k0 = vec![0u64; m_b.len()];
        group.mul_many(&m_b, &group.halves(&self.a), &mut k0);
        let mut neg_a2 = vec![0u64; self.a.len()];
        group.neg_square_into(&self.a, &mut neg_a2);
        let mut fold = vec![0u64; pw];
        group.mul_base_many(&group.halves(&neg_a2), &mut fold);
        let mut k1 = vec![0u64; m_b.len()];
        for (q, f) in k0.chunks_exact(pw).zip(k1.chunks_exact_mut(pw)) {
            group.add_into(q, &fold, f);
        }
        let mut pairs = self.secrets.clone();
        for (i, (k0, k1)) in keys(group, &k0).iter().zip(&keys(group, &k1)).enumerate() {
            let (e0, e1) = pairs.pair_mut(i);
            ctr_apply(k0, e0);
            ctr_apply(k1, e1);
        }
        Ok(OtMessageE { pairs }.encode())
    }
}

/// The OT receiver: holds the choice bits, the blinding scalars and the
/// sender's decoded `M_A`.
#[derive(Debug, Clone)]
pub struct OtReceiver {
    /// Choice bit `i` at bit `i % 64` of word `i / 64`.
    choices: Vec<u64>,
    count: usize,
    /// `bᵢ`, [`Group::scalar_words`] each.
    b: Vec<u64>,
    /// The sender's one `M_A` element, [`Group::point_words`] words.
    m_a: Vec<u64>,
}

impl OtReceiver {
    /// Answers the sender's encoded `M_A` with the encoded blinded
    /// choices `M_B`.
    ///
    /// Scalar sampling is sequential. Every `M_Bᵢ` is blended at half
    /// scale: the `(bᵢ/2)·G` all go through one [`Group::mul_base_many`]
    /// call, `M_A/2` is one multiplication for the batch, and each
    /// instance adds the two and keeps the sum or `(bᵢ/2)·G` under a
    /// mask. The batch encoder doubles them with one inversion.
    ///
    /// # Errors
    ///
    /// [`OtError::Malformed`] when `m_a` is not exactly one element that
    /// parses, before any scalar is drawn or any choice is blinded.
    pub fn respond(
        group: Group,
        choices: &[bool],
        m_a: &[u8],
        rng: &mut StdRng,
    ) -> Result<(OtReceiver, Vec<u8>), OtError> {
        if m_a.len() != group.element_len() {
            return Err(OtError::Malformed);
        }
        let m_a = decode_elements(group, m_a)?;
        let (sw, pw) = (group.scalar_words(), group.point_words());
        let b = random_scalars(group, choices.len(), rng);
        let mut one = vec![0u64; sw];
        one[0] = 1;
        let mut half_m_a = vec![0u64; pw];
        group.mul_many(&m_a, &group.halves(&one), &mut half_m_a);
        let mut half_gb = vec![0u64; choices.len() * pw];
        group.mul_base_many(&group.halves(&b), &mut half_gb);
        let mut m_b = vec![0u64; half_gb.len()];
        let mut packed = vec![0u64; choices.len().div_ceil(64)];
        let blinded = half_gb.chunks_exact(pw).zip(m_b.chunks_exact_mut(pw));
        for (i, (&choice, (gb, out))) in choices.iter().zip(blinded).enumerate() {
            blind(group, choice, &half_m_a, gb, out);
            packed[i / 64] |= u64::from(choice) << (i % 64);
        }
        let mut bytes = vec![0u8; choices.len() * group.element_len()];
        group.encode_doubled_many(&m_b, &mut bytes);
        let receiver = OtReceiver {
            choices: packed,
            count: choices.len(),
            b,
            m_a,
        };
        Ok((receiver, bytes))
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decrypts the chosen secret of every instance from the encoded
    /// `M_E`, returning them in one buffer: instance `i`'s at
    /// `i·secret_len..(i+1)·secret_len`, where `secret_len` is `M_E`'s
    /// ciphertext length. Every `bᵢ·M_A` shares the base `M_A`, so they
    /// are walks of one comb of `M_A` ([`Group::comb`]), built here and
    /// dropped on return. The chosen ciphertext is picked by a byte mask
    /// rather than a branch on the choice bit.
    ///
    /// # Errors
    ///
    /// [`OtError::Malformed`] when `m_e` does not parse,
    /// [`OtError::BatchMismatch`] when it has the wrong number of pairs.
    pub fn decrypt(&self, group: Group, m_e: &[u8]) -> Result<Vec<u8>, OtError> {
        let msg_e = OtMessageE::decode(m_e)?;
        if msg_e.pairs.len() != self.count {
            return Err(OtError::BatchMismatch);
        }
        let mut shared = vec![0u64; self.count * group.point_words()];
        group
            .comb(&self.m_a)
            .mul_many(&group.halves(&self.b), &mut shared);
        let len = msg_e.pairs.secret_len();
        let mut out = vec![0u8; self.count * len];
        for (i, key) in keys(group, &shared).iter().enumerate() {
            let (e0, e1) = msg_e.pairs.pair(i);
            let x = &mut out[i * len..][..len];
            pick((self.choices[i / 64] >> (i % 64)) & 1 == 1, e0, e1, x);
            ctr_apply(key, x);
        }
        Ok(out)
    }
}

/// One instance of `M_B` into `out`: `M_A + b·G` when the choice bit is
/// 1, else `b·G` (at half scale, `M_A/2` and `(b/2)·G`). The sum is
/// always computed and the pick is a masked select over every word, so
/// the time to build `M_B` does not depend on the choice bit, which is a
/// key-seed bit.
fn blind(group: Group, choice: bool, m_a: &[u64], gb: &[u64], out: &mut [u64]) {
    group.add_into(m_a, gb, out);
    let keep = std::hint::black_box(u64::from(choice)).wrapping_neg();
    for (o, &g) in out.iter_mut().zip(gb) {
        *o = (*o & keep) | (g & !keep);
    }
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

/// The payload cipher keys `H(i ‖ enc(2·Pᵢ))` of the half-scale elements
/// `Pᵢ` of a flat batch ([`Group::encode_doubled_many`]): instance `i`'s
/// index as a little-endian `u32`, then its element's encoding.
fn keys(group: Group, halves: &[u64]) -> Vec<[u8; 32]> {
    let w = group.element_len();
    let mut encoded = vec![0u8; halves.len() / group.point_words() * w];
    group.encode_doubled_many(halves, &mut encoded);
    encoded
        .chunks_exact(w)
        .enumerate()
        .map(|(i, e)| index_hash(i, e))
        .collect()
}

/// `H(i ‖ e)` for the encoding `e` of instance `i`'s element: 36 bytes
/// on ristretto255, one SHA-256 block.
fn index_hash(i: usize, e: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 4 + 32];
    block[..4].copy_from_slice(&(i as u32).to_le_bytes());
    block[4..4 + e.len()].copy_from_slice(e);
    sha256(&block[..4 + e.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::Ubig;
    use crate::cipher::{ctr_decrypt, ctr_encrypt};
    use crate::ristretto::{self, Point};
    use rand::{Rng, SeedableRng};

    const GROUPS: [Group; 2] = [Group::Ristretto255, Group::Tiny];

    /// The plain encodings of a flat batch of elements.
    fn encode_elements(group: Group, elements: &[u64]) -> Vec<u8> {
        let (pw, w) = (group.point_words(), group.element_len());
        let mut out = vec![0u8; elements.len() / pw * w];
        for (p, bytes) in elements.chunks_exact(pw).zip(out.chunks_exact_mut(w)) {
            group.encode_into(p, bytes);
        }
        out
    }

    /// The plain encoding of one element.
    fn encode(group: Group, element: &[u64]) -> Vec<u8> {
        let mut bytes = vec![0u8; group.element_len()];
        group.encode_into(element, &mut bytes);
        bytes
    }

    /// `H(i ‖ enc(P))`, instance `i`'s key of one full-scale element: the
    /// oracle the tests check [`keys`] against.
    fn derive_key(group: Group, i: usize, element: &[u64]) -> [u8; 32] {
        sha256(&[&(i as u32).to_le_bytes()[..], &encode(group, element)].concat())
    }

    /// A decrypted batch split back into its `count` payloads.
    fn split(plain: &[u8], count: usize) -> Vec<Vec<u8>> {
        let len = plain.len() / count.max(1);
        (0..count)
            .map(|i| plain[i * len..][..len].to_vec())
            .collect()
    }

    fn run_batch(
        group: Group,
        secrets: Vec<(Vec<u8>, Vec<u8>)>,
        choices: Vec<bool>,
    ) -> Vec<Vec<u8>> {
        let mut rng_s = StdRng::seed_from_u64(100);
        let mut rng_r = StdRng::seed_from_u64(200);
        let (sender, m_a) = OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
        let (receiver, m_b) = OtReceiver::respond(group, &choices, &m_a, &mut rng_r).unwrap();
        let m_e = sender.encrypt(group, &m_b).unwrap();
        split(&receiver.decrypt(group, &m_e).unwrap(), choices.len())
    }

    /// Element `i` of a flat batch.
    fn at(group: Group, flat: &[u64], i: usize) -> &[u64] {
        let pw = group.point_words();
        &flat[i * pw..][..pw]
    }

    /// `x·P`, the one-element [`Group::mul_many`]: a variable-base
    /// multiplication.
    fn mul(group: Group, p: &[u64], x: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; group.point_words()];
        group.mul_many(p, x, &mut out);
        out
    }

    /// `x·G`, the one-element [`Group::mul_base_many`].
    fn mul_base(group: Group, x: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; group.point_words()];
        group.mul_base_many(x, &mut out);
        out
    }

    /// `p + q`.
    fn add(group: Group, p: &[u64], q: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; group.point_words()];
        group.add_into(p, q, &mut out);
        out
    }

    /// `k¹ᵢ = H(i ‖ a·(M_Bᵢ − a·G))` as the protocol states it: a
    /// subtraction, then a second variable-base multiplication (on the
    /// tiny group a Fermat inversion and a general exponentiation,
    /// through `Ubig`).
    fn naive_k1(group: Group, i: usize, m_b: &[u64], a: &[u64]) -> [u8; 32] {
        let element = match group {
            Group::Ristretto255 => {
                let a4: &[u64; 4] = a.try_into().unwrap();
                let quotient = Point::from_words(m_b).add(&ristretto::mul_base(a4).neg());
                ristretto::encode(&ristretto::mul(&quotient, a4)).to_vec()
            }
            Group::Tiny => {
                let u = Ubig::from_u64((1 << 61) - 1);
                let a = Ubig::from_u64(a[0]);
                let g_a = Ubig::from_u64(37).mod_pow(&a, &u);
                let quotient = Ubig::from_u64(m_b[0]).mul(&g_a.mod_inv_prime(&u)).rem(&u);
                quotient.mod_pow(&a, &u).to_be_bytes_padded(8)
            }
        };
        sha256(&[&(i as u32).to_le_bytes()[..], &element].concat())
    }

    #[test]
    fn receiver_gets_exactly_the_chosen_secret() {
        for group in GROUPS {
            let secrets = vec![
                (b"zero-0".to_vec(), b"one--0".to_vec()),
                (b"zero-1".to_vec(), b"one--1".to_vec()),
                (b"zero-2".to_vec(), b"one--2".to_vec()),
            ];
            let out = run_batch(group, secrets, vec![false, true, false]);
            assert_eq!(out[0], b"zero-0");
            assert_eq!(out[1], b"one--1");
            assert_eq!(out[2], b"zero-2");
        }
    }

    #[test]
    fn unchosen_ciphertext_does_not_decrypt() {
        let group = Group::Ristretto255;
        let mut rng_s = StdRng::seed_from_u64(1);
        let mut rng_r = StdRng::seed_from_u64(2);
        let secrets = OtPairs::from_pairs(&[(b"secret-zero".to_vec(), b"secret-one!".to_vec())]);
        let (sender, m_a) = OtSender::start(group, secrets, &mut rng_s);
        let (receiver, m_b) = OtReceiver::respond(group, &[false], &m_a, &mut rng_r).unwrap();
        let m_e = OtMessageE::decode(&sender.encrypt(group, &m_b).unwrap()).unwrap();
        assert_eq!(
            receiver.decrypt(group, &m_e.encode()).unwrap(),
            b"secret-zero"
        );
        // The receiver's key H(0 ‖ b·M_A) opens e⁰ only: on e¹ it is
        // garbage.
        let shared = mul(group, &receiver.m_a, &receiver.b);
        let e1 = m_e.pairs.pair(0).1;
        assert_ne!(
            ctr_decrypt(&derive_key(group, 0, &shared), e1),
            b"secret-one!"
        );
    }

    #[test]
    fn works_on_ristretto255() {
        let secrets = vec![(vec![1u8, 2, 3], vec![4u8, 5, 6])];
        let out = run_batch(Group::Ristretto255, secrets, vec![true]);
        assert_eq!(out[0], vec![4, 5, 6]);
    }

    #[test]
    fn message_codecs_roundtrip() {
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(9);
            let secrets =
                OtPairs::from_pairs(&[(vec![1, 2], vec![3, 4]), (vec![5, 6], vec![7, 8])]);
            let (sender, m_a) = OtSender::start(group, secrets, &mut rng);
            assert_eq!(m_a.len(), group.element_len());
            assert_eq!(
                encode_elements(group, &decode_elements(group, &m_a).unwrap()),
                m_a
            );
            let (_, m_b) = OtReceiver::respond(group, &[true, false], &m_a, &mut rng).unwrap();
            assert_eq!(
                encode_elements(group, &decode_elements(group, &m_b).unwrap()),
                m_b
            );
            let m_e = sender.encrypt(group, &m_b).unwrap();
            assert_eq!(OtMessageE::decode(&m_e).unwrap().encode(), m_e);
        }
    }

    #[test]
    fn codec_rejects_malformed() {
        for group in GROUPS {
            assert_eq!(
                decode_elements(group, &[1, 2, 3]).unwrap_err(),
                OtError::Malformed
            );
        }
        assert_eq!(OtMessageE::decode(&[1, 2]).unwrap_err(), OtError::Malformed);
        let msg = OtMessageE {
            pairs: OtPairs::from_pairs(&[(vec![1], vec![2])]),
        };
        let mut bytes = msg.encode();
        bytes.pop();
        assert_eq!(OtMessageE::decode(&bytes).unwrap_err(), OtError::Malformed);
    }

    #[test]
    fn malformed_bytes_are_rejected_at_every_round() {
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(1);
            let respond = |m_a: &[u8], rng: &mut StdRng| {
                OtReceiver::respond(group, &[true], m_a, rng).map(|_| ())
            };
            assert_eq!(
                respond(&[1, 2, 3], &mut rng).unwrap_err(),
                OtError::Malformed
            );
            let (sender, m_a) =
                OtSender::start(group, OtPairs::from_pairs(&[(vec![1], vec![2])]), &mut rng);
            assert_eq!(sender.encrypt(group, &[9]).unwrap_err(), OtError::Malformed);
            let (receiver, _) = OtReceiver::respond(group, &[true], &m_a, &mut rng).unwrap();
            assert_eq!(
                receiver.decrypt(group, &[0, 0]).unwrap_err(),
                OtError::Malformed
            );
        }
    }

    #[test]
    fn batch_mismatch_detected() {
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(10);
            let secrets = OtPairs::from_pairs(&[(vec![1], vec![2])]);
            let (sender, m_a) = OtSender::start(group, secrets, &mut rng);
            // M_A is one element whatever the batch size, so a receiver
            // of two choices answers a one-instance sender; the sender
            // refuses its two-element M_B.
            let (_, two) = OtReceiver::respond(group, &[true, false], &m_a, &mut rng).unwrap();
            assert_eq!(
                sender.encrypt(group, &two).unwrap_err(),
                OtError::BatchMismatch
            );
            // An M_B with the wrong number of elements.
            let (_, m_b) = OtReceiver::respond(group, &[true], &m_a, &mut rng).unwrap();
            assert_eq!(
                sender.encrypt(group, &[]).unwrap_err(),
                OtError::BatchMismatch
            );
            let doubled = [&m_b[..], &m_b[..]].concat();
            assert_eq!(
                sender.encrypt(group, &doubled).unwrap_err(),
                OtError::BatchMismatch
            );
        }
    }

    #[test]
    fn batched_enqueue_detects_mismatch() {
        // `encrypt` and `decrypt` queue a whole round into one batch
        // call. A round of the wrong size must come back as
        // `BatchMismatch` before that call: a short or long `M_B` would
        // trip the batch's shape, and a short `M_E` would leave payloads
        // undecrypted.
        let group = Group::Ristretto255;
        let w = group.element_len();
        let mut rng = StdRng::seed_from_u64(11);
        let secrets = OtPairs::from_pairs(&vec![(vec![1], vec![2]); 8]);
        let (sender, m_a) = OtSender::start(group, secrets, &mut rng);
        let (receiver, m_b) = OtReceiver::respond(group, &[true; 8], &m_a, &mut rng).unwrap();
        for len in [0, 7, 9] {
            let bad_b: Vec<u8> = m_b
                .chunks_exact(w)
                .cycle()
                .take(len)
                .flatten()
                .copied()
                .collect();
            assert_eq!(
                sender.encrypt(group, &bad_b).unwrap_err(),
                OtError::BatchMismatch,
                "M_B of {len}"
            );
        }
        let m_e = OtMessageE::decode(&sender.encrypt(group, &m_b).unwrap()).unwrap();
        for len in [0, 7, 9] {
            let mut pairs = OtPairs::with_capacity(m_e.pairs.secret_len(), len);
            for i in (0..8).cycle().take(len) {
                let (e0, e1) = m_e.pairs.pair(i);
                pairs.push(e0, e1);
            }
            let bad_e = OtMessageE { pairs }.encode();
            assert_eq!(
                receiver.decrypt(group, &bad_e).unwrap_err(),
                OtError::BatchMismatch,
                "M_E of {len}"
            );
        }
        assert_eq!(receiver.decrypt(group, &m_e.encode()).unwrap(), vec![2; 8]);
    }

    #[test]
    fn empty_batch_is_fine() {
        for group in GROUPS {
            assert!(run_batch(group, vec![], vec![]).is_empty());
        }
    }

    #[test]
    fn batched_rounds_match_scalar_rounds_bit_for_bit() {
        // `encrypt` and `decrypt` hand a round's multiplications to one
        // batch call, the receiver's through one comb of `M_A`. Every
        // ciphertext and payload must equal a per-instance oracle with
        // `k¹ᵢ` in the naive form `a·(M_Bᵢ − M_A)` and the receiver's
        // `bᵢ·M_A` by variable-base multiplication, on both groups:
        // short, full and ragged batches.
        for group in GROUPS {
            for count in [1usize, 2, 3, 8, 9] {
                let secrets: Vec<_> = (0..count)
                    .map(|i| (vec![i as u8; 4], vec![0xA0 | i as u8; 4]))
                    .collect();
                let choices: Vec<bool> = (0..count).map(|i| i % 2 == 1).collect();
                let mut rng_s = StdRng::seed_from_u64(77);
                let mut rng_r = StdRng::seed_from_u64(88);
                let (sender, m_a) =
                    OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng_s);
                let (receiver, m_b) =
                    OtReceiver::respond(group, &choices, &m_a, &mut rng_r).unwrap();
                let m_e = sender.encrypt(group, &m_b).unwrap();
                let out = split(&receiver.decrypt(group, &m_e).unwrap(), count);
                let m_e = OtMessageE::decode(&m_e).unwrap();
                let m_b = decode_elements(group, &m_b).unwrap();
                let sw = group.scalar_words();
                let a = &sender.a;
                for i in 0..count {
                    let k0 = derive_key(group, i, &mul(group, at(group, &m_b, i), a));
                    let (x0, x1) = &secrets[i];
                    let want = (
                        ctr_encrypt(&k0, x0),
                        ctr_encrypt(&naive_k1(group, i, at(group, &m_b, i), a), x1),
                    );
                    let got = m_e.pairs.pair(i);
                    assert_eq!(
                        (got.0.to_vec(), got.1.to_vec()),
                        want,
                        "M_E count {count} instance {i}"
                    );
                    let b = &receiver.b[i * sw..][..sw];
                    let key = derive_key(group, i, &mul(group, &receiver.m_a, b));
                    let ct = if choices[i] { got.1 } else { got.0 };
                    assert_eq!(
                        out[i],
                        ctr_decrypt(&key, ct),
                        "payload count {count} instance {i}"
                    );
                    assert_eq!(&out[i], if choices[i] { x1 } else { x0 });
                }
            }
        }
    }

    #[test]
    fn folded_k1_matches_naive_quotient_power() {
        // The sender's `a·M_Bᵢ + (−a²)·G` against `a·(M_Bᵢ − a·G)` over
        // random `M_B` and batches at the smallest, the largest and a
        // random scalar `a`.
        for (group, cases) in [(Group::Ristretto255, 2), (Group::Tiny, 8)] {
            let name = format!("ot_fold_k1_{group:?}");
            rand::check::cases(&name, cases, |rng| {
                let (sw, pw) = (group.scalar_words(), group.point_words());
                let mut smallest = vec![0u64; sw];
                smallest[0] = 1;
                let mut largest = vec![0u64; sw];
                Ubig::from_limbs(match group {
                    Group::Ristretto255 => &ristretto::L,
                    Group::Tiny => &[(1 << 61) - 1],
                })
                .sub(&Ubig::one())
                .write_limbs(&mut largest);
                for a in [smallest, largest, random_scalars(group, 1, rng)] {
                    let mut m_b = vec![0u64; 3 * pw];
                    group.mul_base_many(&random_scalars(group, 3, rng), &mut m_b);
                    let secrets = OtPairs::from_pairs(&vec![(vec![7u8; 4], vec![9u8; 4]); 3]);
                    let sender = OtSender {
                        secrets,
                        a: a.clone(),
                    };
                    let m_e = sender
                        .encrypt(group, &encode_elements(group, &m_b))
                        .unwrap();
                    let m_e = OtMessageE::decode(&m_e).unwrap();
                    for i in 0..3 {
                        let k1 = naive_k1(group, i, at(group, &m_b, i), &a);
                        assert_eq!(
                            m_e.pairs.pair(i).1,
                            ctr_encrypt(&k1, &[9u8; 4]),
                            "a {a:?} instance {i}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn repeated_or_related_m_b_never_repeats_a_keystream() {
        // With one `a` per batch, an active receiver that sends one `M_B`
        // element in every instance, or `M_Bⱼ = M_Bⱼ₋₁ + M_A`, makes the
        // elements behind `k⁰` and `k¹` repeat across instances. The
        // index in `H` keeps every keystream apart: no two of the
        // batch's ciphertexts `e`, `e'` satisfy `e ⊕ e' = x ⊕ x'` for
        // their secrets `x`, `x'`.
        for group in GROUPS {
            let n = 4;
            let secrets: Vec<_> = (0..n as u8)
                .map(|i| (vec![i; 16], vec![0x80 | i; 16]))
                .collect();
            let mut rng = StdRng::seed_from_u64(14);
            let (sender, m_a) = OtSender::start(group, OtPairs::from_pairs(&secrets), &mut rng);
            let (_, honest) = OtReceiver::respond(group, &[false], &m_a, &mut rng).unwrap();
            let repeated = honest.repeat(n);
            let step = decode_elements(group, &m_a).unwrap();
            let mut related = decode_elements(group, &honest).unwrap();
            for j in 1..n {
                let next = add(group, at(group, &related, j - 1), &step);
                related.extend(next);
            }
            for (name, m_b) in [
                ("repeated", repeated),
                ("related", encode_elements(group, &related)),
            ] {
                let m_e = OtMessageE::decode(&sender.encrypt(group, &m_b).unwrap()).unwrap();
                let streams: Vec<Vec<u8>> = (0..n)
                    .flat_map(|i| {
                        let (e0, e1) = m_e.pairs.pair(i);
                        let (x0, x1) = &secrets[i];
                        [(e0, x0), (e1, x1)]
                            .map(|(e, x)| e.iter().zip(x).map(|(e, x)| e ^ x).collect())
                    })
                    .collect();
                for (u, s) in streams.iter().enumerate() {
                    for (v, t) in streams.iter().enumerate().skip(u + 1) {
                        assert_ne!(s, t, "{group:?} {name}: ciphertexts {u} and {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn m_a_of_zero_or_two_elements_is_refused_before_any_choice_is_blinded() {
        // M_A is exactly one element: an empty frame and a frame of two
        // honest elements are malformed, and the receiver draws no scalar
        // before it says so.
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(15);
            let secrets = OtPairs::from_pairs(&[(vec![1], vec![2])]);
            let (_, m_a) = OtSender::start(group, secrets, &mut rng);
            for bad in [Vec::new(), m_a.repeat(2)] {
                let mut twin = rng.clone();
                let answer = OtReceiver::respond(group, &[false, true], &bad, &mut rng);
                assert_eq!(
                    answer.unwrap_err(),
                    OtError::Malformed,
                    "{} bytes",
                    bad.len()
                );
                assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "a scalar was drawn");
            }
            assert!(OtReceiver::respond(group, &[false, true], &m_a, &mut rng).is_ok());
        }
    }

    #[test]
    fn m_b_from_the_batch_encoder_matches_plain_encode() {
        // `M_Bᵢ` blended at half scale and doubled by the batch encoder
        // has the plain encoding of `bᵢ·G` (choice 0) or `M_A + bᵢ·G`
        // (choice 1).
        for group in GROUPS {
            rand::check::cases(
                "m_b_from_the_batch_encoder_matches_plain_encode",
                4,
                |rng| {
                    let secrets = OtPairs::from_pairs(&[(vec![1], vec![2])]);
                    let (_, m_a) = OtSender::start(group, secrets, rng);
                    let m_a_point = decode_elements(group, &m_a).unwrap();
                    let choices = [false, true, true, false, true];
                    let (receiver, m_b) = OtReceiver::respond(group, &choices, &m_a, rng).unwrap();
                    let (sw, w) = (group.scalar_words(), group.element_len());
                    for (i, &choice) in choices.iter().enumerate() {
                        let gb = mul_base(group, &receiver.b[i * sw..][..sw]);
                        let want = if choice {
                            add(group, &m_a_point, &gb)
                        } else {
                            gb
                        };
                        assert_eq!(&m_b[i * w..][..w], encode(group, &want), "instance {i}");
                    }
                },
            );
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
        let group = Group::Tiny;
        let mut rng_s = StdRng::seed_from_u64(12);
        let mut rng_r = StdRng::seed_from_u64(13);
        let secrets = OtPairs::from_pairs(&[(vec![1, 2], vec![3, 4]), (vec![5, 6], vec![7, 8])]);
        let (sender, m_a) = OtSender::start(group, secrets, &mut rng_s);
        let (receiver, m_b) = OtReceiver::respond(group, &[false, true], &m_a, &mut rng_r).unwrap();
        let bytes = sender.encrypt(group, &m_b).unwrap();
        assert!(receiver.decrypt(group, &bytes).is_ok());
        // Lengthen pair 1's e¹ (its prefix sits 6 bytes from the end) by
        // one byte.
        let mut long = bytes.clone();
        let at = long.len() - 6;
        long[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        long.push(0);
        assert_eq!(OtMessageE::decode(&long).unwrap_err(), OtError::Malformed);
        // A whole batch of one other length still parses.
        let short = OtMessageE {
            pairs: OtPairs::from_pairs(&vec![(vec![1], vec![2]); 2]),
        };
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
        let msg = OtMessageE {
            pairs: OtPairs::from_pairs(&vec![(vec![], vec![]); 3]),
        };
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

    /// Encodings no honest party sends: on the tiny group 0, `u`, `u + 1`
    /// and all-0xFF; on ristretto255 the identity, `p`, `2^255 − 1`, an
    /// odd `s` and a non-square `s`.
    fn hostile_elements(group: Group) -> Vec<Vec<u8>> {
        match group {
            Group::Tiny => {
                let u = (1u64 << 61) - 1;
                [0, u, u + 1, u64::MAX]
                    .iter()
                    .map(|v| v.to_be_bytes().to_vec())
                    .collect()
            }
            Group::Ristretto255 => {
                let mut p = [0xff; 32];
                p[0] = 0xed;
                p[31] = 0x7f;
                let mut odd = [0u8; 32];
                odd[0] = 1;
                // s = 8 is the smallest even s whose decoding ratio is not
                // a square.
                let mut non_square = [0u8; 32];
                non_square[0] = 8;
                assert!(ristretto::decode(&non_square).is_none());
                vec![
                    vec![0; 32],
                    p.to_vec(),
                    vec![0xff; 32],
                    odd.to_vec(),
                    non_square.to_vec(),
                ]
            }
        }
    }

    #[test]
    fn decode_rejects_zero_and_unreduced_elements() {
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(5);
            let (_, honest) =
                OtSender::start(group, OtPairs::from_pairs(&[(vec![1], vec![2])]), &mut rng);
            assert!(decode_elements(group, &honest).is_ok());
            for bad in hostile_elements(group) {
                // The bad element alone, and behind an honest one.
                for frame in [bad.clone(), [honest.clone(), bad.clone()].concat()] {
                    assert_eq!(
                        decode_elements(group, &frame).unwrap_err(),
                        OtError::Malformed,
                        "{bad:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_m_a_is_rejected_before_any_choice_is_blinded() {
        // Against an identity M_A every M_B would be b·G whatever the
        // choice, and every k¹ would be fixed, so the receiver refuses to
        // answer; so does the sender against an identity among its M_B.
        for group in GROUPS {
            let mut rng = StdRng::seed_from_u64(3);
            let (sender, m_a) = OtSender::start(
                group,
                OtPairs::from_pairs(&vec![(vec![1], vec![2]); 2]),
                &mut rng,
            );
            let zero = &hostile_elements(group)[0];
            let answer = OtReceiver::respond(group, &[false, true], zero, &mut rng);
            assert_eq!(answer.unwrap_err(), OtError::Malformed);
            let (_, honest) = OtReceiver::respond(group, &[true], &m_a, &mut rng).unwrap();
            for bad in [zero.repeat(2), [&honest[..], &zero[..]].concat()] {
                assert_eq!(sender.encrypt(group, &bad).unwrap_err(), OtError::Malformed);
            }
        }
    }

    #[test]
    fn branch_free_blinding_matches_branchy_form() {
        for group in GROUPS {
            rand::check::cases("branch_free_blinding_matches_branchy_form", 16, |rng| {
                let pw = group.point_words();
                let mut points = vec![0u64; 2 * pw];
                group.mul_base_many(&random_scalars(group, 2, rng), &mut points);
                let (m_a, gb) = points.split_at(pw);
                let mut sum = vec![0u64; pw];
                group.add_into(m_a, gb, &mut sum);
                for choice in [false, true] {
                    let branchy = if choice { &sum } else { gb };
                    let mut blinded = vec![0u64; pw];
                    blind(group, choice, m_a, gb, &mut blinded);
                    assert_eq!(&blinded, branchy);
                }
            });
        }
    }

    #[test]
    fn flat_element_codec_matches_ubig_codec() {
        // The tiny group's wire bytes are the residue's big-endian `Ubig`
        // bytes; a ristretto255 encoding is a little-endian even value
        // below p. Both decode back to the same bytes.
        for group in GROUPS {
            rand::check::cases("flat_element_codec_matches_ubig_codec", 32, |rng| {
                let mut e = vec![0u64; group.point_words()];
                group.mul_base_many(&random_scalars(group, 1, rng), &mut e);
                let bytes = encode_elements(group, &e);
                match group {
                    Group::Tiny => assert_eq!(bytes, Ubig::from_u64(e[0]).to_be_bytes_padded(8)),
                    Group::Ristretto255 => {
                        let mut be = bytes.clone();
                        be.reverse();
                        let s = Ubig::from_be_bytes(&be);
                        let p = Ubig::one().shl(255).sub(&Ubig::from_u64(19));
                        assert!(!s.is_odd() && s.cmp_abs(&p).is_lt());
                    }
                }
                assert_eq!(
                    encode_elements(group, &decode_elements(group, &bytes).unwrap()),
                    bytes
                );
            });
        }
    }
}
