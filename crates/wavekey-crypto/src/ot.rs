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

use crate::bigint::Ubig;
use crate::cipher::{ctr_decrypt, ctr_encrypt};
use crate::group::DhGroup;
use crate::sha256::sha256;
use rand::rngs::StdRng;

/// The batched first message `M_A`: one group element per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageA {
    /// `m_i = g^{a_i}` for every instance.
    pub elements: Vec<Ubig>,
}

/// The batched response `M_B`: one group element per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageB {
    /// `n_i` (the receiver's blinded choice) per instance.
    pub elements: Vec<Ubig>,
}

/// The batched ciphertext message `M_E`: a ciphertext pair per instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtMessageE {
    /// `(e_i⁰, e_i¹)` per instance.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
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
        let mut out = Vec::new();
        out.extend_from_slice(&(self.pairs.len() as u32).to_le_bytes());
        for (e0, e1) in &self.pairs {
            out.extend_from_slice(&(e0.len() as u32).to_le_bytes());
            out.extend_from_slice(e0);
            out.extend_from_slice(&(e1.len() as u32).to_le_bytes());
            out.extend_from_slice(e1);
        }
        out
    }

    /// Parses a serialized message.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::Malformed`] on truncated input.
    pub fn decode(bytes: &[u8]) -> Result<OtMessageE, OtError> {
        let mut pos = 0usize;
        let take_u32 = |pos: &mut usize| -> Result<u32, OtError> {
            if *pos + 4 > bytes.len() {
                return Err(OtError::Malformed);
            }
            let v = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().unwrap());
            *pos += 4;
            Ok(v)
        };
        let count = take_u32(&mut pos)? as usize;
        // Every pair carries two 4-byte length prefixes, so a count the
        // remaining bytes cannot hold is rejected before it sizes the
        // allocation.
        if count > 1_000_000 || count > (bytes.len() - pos) / 8 {
            return Err(OtError::Malformed);
        }
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let l0 = take_u32(&mut pos)? as usize;
            if pos + l0 > bytes.len() {
                return Err(OtError::Malformed);
            }
            let e0 = bytes[pos..pos + l0].to_vec();
            pos += l0;
            let l1 = take_u32(&mut pos)? as usize;
            if pos + l1 > bytes.len() {
                return Err(OtError::Malformed);
            }
            let e1 = bytes[pos..pos + l1].to_vec();
            pos += l1;
            pairs.push((e0, e1));
        }
        if pos != bytes.len() {
            return Err(OtError::Malformed);
        }
        Ok(OtMessageE { pairs })
    }
}

fn encode_elements(group: &DhGroup, elements: &[Ubig]) -> Vec<u8> {
    let mut out = Vec::with_capacity(elements.len() * group.element_len());
    for e in elements {
        out.extend_from_slice(&group.encode_element(e));
    }
    out
}

/// Parses fixed-width elements, rejecting any that is 0 or not below
/// `u`. A zero `M_B` would give the receiver both keys of an instance
/// (`k⁰ = k¹ = H(0)`), and a zero `M_A` would make `M_B` zero exactly on
/// choice-1 instances, showing the sender every choice bit.
fn decode_elements(group: &DhGroup, bytes: &[u8]) -> Result<Vec<Ubig>, OtError> {
    let w = group.element_len();
    if bytes.len() % w != 0 {
        return Err(OtError::Malformed);
    }
    bytes
        .chunks_exact(w)
        .map(|c| group.decode_element(c).ok_or(OtError::Malformed))
        .collect()
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

/// The OT sender: holds the secret pairs and the per-instance exponents.
///
/// The group is *not* stored here — it is borrowed through the protocol
/// calls, so batches never clone the (table-carrying) [`DhGroup`].
#[derive(Debug, Clone)]
pub struct OtSender {
    secrets: Vec<(Vec<u8>, Vec<u8>)>,
    a: Vec<Ubig>,
}

impl OtSender {
    /// Starts a batch of OT instances over `secrets` (one `(x⁰, x¹)` pair
    /// per instance), returning the sender state and the batched `M_A`.
    ///
    /// Exponent sampling stays sequential (deterministic per RNG seed);
    /// the `g^{a_i}` comb walks all go through one
    /// [`DhGroup::pow_g_many`] call.
    pub fn start(
        group: &DhGroup,
        secrets: Vec<(Vec<u8>, Vec<u8>)>,
        rng: &mut StdRng,
    ) -> (OtSender, OtMessageA) {
        let a: Vec<Ubig> = secrets.iter().map(|_| group.random_exponent(rng)).collect();
        let msg = OtMessageA { elements: group.pow_g_many(&a) };
        (OtSender { secrets, a }, msg)
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
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
    /// hashes and the CTR encryptions.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::BatchMismatch`] when `M_B` has the wrong number
    /// of elements.
    pub fn encrypt(&self, group: &DhGroup, msg_b: &OtMessageB) -> Result<OtMessageE, OtError> {
        if msg_b.elements.len() != self.secrets.len() {
            return Err(OtError::BatchMismatch);
        }
        let na = group.pow_many(&msg_b.elements, &self.a);
        let neg_a2: Vec<Ubig> = self.a.iter().map(|a| group.neg_exponent(&a.mul(a))).collect();
        let g_neg_a2 = group.pow_g_many(&neg_a2);
        let pairs = self
            .secrets
            .iter()
            .zip(na.iter().zip(&g_neg_a2))
            .map(|((x0, x1), (na, g_neg_a2))| {
                let k0 = derive_key(group, na);
                let k1 = derive_key(group, &group.mul(na, g_neg_a2));
                (ctr_encrypt(&k0, x0), ctr_encrypt(&k1, x1))
            })
            .collect();
        Ok(OtMessageE { pairs })
    }
}

/// The OT receiver: holds the choice bits and the blinding exponents.
///
/// Like [`OtSender`], the group is borrowed through the protocol calls
/// rather than cloned into the state.
#[derive(Debug, Clone)]
pub struct OtReceiver {
    choices: Vec<bool>,
    b: Vec<Ubig>,
    m_a: Vec<Ubig>,
}

impl OtReceiver {
    /// Responds to the sender's `M_A` with the blinded choices `M_B`.
    ///
    /// Blinding-exponent sampling stays sequential; the `g^{b_i}` comb
    /// walks all go through one [`DhGroup::pow_g_many`] call, and each
    /// instance then blinds with one product.
    pub fn respond(
        group: &DhGroup,
        choices: &[bool],
        msg_a: &OtMessageA,
        rng: &mut StdRng,
    ) -> Result<(OtReceiver, OtMessageB), OtError> {
        if msg_a.elements.len() != choices.len() {
            return Err(OtError::BatchMismatch);
        }
        let b: Vec<Ubig> = choices.iter().map(|_| group.random_exponent(rng)).collect();
        let gb = group.pow_g_many(&b);
        let elements = choices
            .iter()
            .zip(msg_a.elements.iter().zip(&gb))
            .map(|(&choice, (m_a, gb))| blind(group, choice, m_a, gb))
            .collect();
        let msg = OtMessageB { elements };
        Ok((
            OtReceiver { choices: choices.to_vec(), b, m_a: msg_a.elements.clone() },
            msg,
        ))
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Decrypts the chosen secret of every instance from `M_E`. The
    /// per-instance exponentiations `M_A^b` all go through
    /// [`DhGroup::pow_many`], and the chosen ciphertext is picked by a
    /// byte mask rather than a branch on the choice bit.
    ///
    /// # Errors
    ///
    /// Returns [`OtError::BatchMismatch`] when `M_E` has the wrong number
    /// of pairs, and [`OtError::Malformed`] when a pair's two
    /// ciphertexts differ in length (an honest sender's never do).
    pub fn decrypt(&self, group: &DhGroup, msg_e: &OtMessageE) -> Result<Vec<Vec<u8>>, OtError> {
        if msg_e.pairs.len() != self.choices.len() {
            return Err(OtError::BatchMismatch);
        }
        if msg_e.pairs.iter().any(|(e0, e1)| e0.len() != e1.len()) {
            return Err(OtError::Malformed);
        }
        let shared = group.pow_many(&self.m_a, &self.b);
        Ok(self
            .choices
            .iter()
            .zip(&msg_e.pairs)
            .zip(&shared)
            .map(|((&c, (e0, e1)), k)| ctr_decrypt(&derive_key(group, k), &pick(c, e0, e1)))
            .collect())
    }
}

/// One instance of `M_B`: `M_A·g^b` when the choice bit is 1, else
/// `g^b`. The product is always computed and the pick is a masked
/// select over the modulus width, so the time to build `M_B` does not
/// depend on the choice bit, which is a key-seed bit.
fn blind(group: &DhGroup, choice: bool, m_a: &Ubig, gb: &Ubig) -> Ubig {
    let limbs = group.modulus().bit_len().div_ceil(64);
    Ubig::ct_select(choice, &group.mul(m_a, gb), gb, limbs)
}

/// `e1` when `choice` is set, else `e0`, merged under a byte mask so the
/// pick does not branch on the choice bit. The mask passes through
/// [`std::hint::black_box`] so the optimizer cannot turn the merge back
/// into a branch. Both ciphertexts must have the same length.
fn pick(choice: bool, e0: &[u8], e1: &[u8]) -> Vec<u8> {
    debug_assert_eq!(e0.len(), e1.len());
    let mask = std::hint::black_box(u8::from(choice)).wrapping_neg();
    e0.iter().zip(e1).map(|(&x0, &x1)| x0 ^ (mask & (x0 ^ x1))).collect()
}

/// Key derivation `H(element)` for the payload cipher.
fn derive_key(group: &DhGroup, element: &Ubig) -> [u8; 32] {
    sha256(&group.encode_element(element))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn run_batch(group: &DhGroup, secrets: Vec<(Vec<u8>, Vec<u8>)>, choices: Vec<bool>) -> Vec<Vec<u8>> {
        let mut rng_s = StdRng::seed_from_u64(100);
        let mut rng_r = StdRng::seed_from_u64(200);
        let (sender, msg_a) = OtSender::start(group, secrets, &mut rng_s);
        let (receiver, msg_b) = OtReceiver::respond(group, &choices, &msg_a, &mut rng_r).unwrap();
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        receiver.decrypt(group, &msg_e).unwrap()
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
        let secrets = vec![(b"secret-zero".to_vec(), b"secret-one!".to_vec())];
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng_s);
        let (receiver, msg_b) =
            OtReceiver::respond(&group, &[false], &msg_a, &mut rng_r).unwrap();
        let msg_e = sender.encrypt(&group, &msg_b).unwrap();
        // Forge a receiver that tries the *other* ciphertext with its key.
        let k = {
            // Receiver key = H(M_a^b): reconstruct what it would use.
            let out = receiver.decrypt(&group, &msg_e).unwrap();
            assert_eq!(out[0], b"secret-zero");
            // Decrypt e1 with the receiver's k (choice 0 key): garbage.
            let wrong = ctr_decrypt(
                &derive_key(&group, &group.pow(&msg_a.elements[0], &receiver.b[0])),
                &msg_e.pairs[0].1,
            );
            wrong
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
        let (sender, msg_a) = OtSender::start(
            &group,
            vec![(vec![1, 2], vec![3, 4]), (vec![5], vec![6])],
            &mut rng,
        );
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
        let msg = OtMessageE { pairs: vec![(vec![1], vec![2])] };
        let mut bytes = msg.encode();
        bytes.pop();
        assert_eq!(OtMessageE::decode(&bytes).unwrap_err(), OtError::Malformed);
    }

    #[test]
    fn batch_mismatch_detected() {
        let group = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(10);
        let (sender, msg_a) = OtSender::start(&group, vec![(vec![1], vec![2])], &mut rng);
        assert!(OtReceiver::respond(&group, &[true, false], &msg_a, &mut rng).is_err());
        let bad_b = OtMessageB { elements: vec![] };
        assert_eq!(sender.encrypt(&group, &bad_b).unwrap_err(), OtError::BatchMismatch);
    }

    #[test]
    fn batched_enqueue_detects_mismatch() {
        // `encrypt` and `decrypt` queue a whole round into one `pow_many`
        // call. A round of the wrong size must come back as
        // `BatchMismatch` before that call: a short or long `M_B` would
        // trip `pow_many`'s equal-length assertion, and a short `M_E`
        // would zip down to fewer payloads. Eight MODP-1024 instances
        // fill one lane group.
        let group = DhGroup::modp_1024_shared();
        let mut rng = StdRng::seed_from_u64(11);
        let (sender, msg_a) = OtSender::start(group, vec![(vec![1], vec![2]); 8], &mut rng);
        let (receiver, msg_b) = OtReceiver::respond(group, &[true; 8], &msg_a, &mut rng).unwrap();
        for len in [0, 7, 9] {
            let elements = msg_b.elements.iter().cycle().take(len).cloned().collect();
            let bad_b = OtMessageB { elements };
            assert_eq!(sender.encrypt(group, &bad_b).unwrap_err(), OtError::BatchMismatch, "M_B of {len}");
        }
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        for len in [0, 7, 9] {
            let pairs = msg_e.pairs.iter().cycle().take(len).cloned().collect();
            let bad_e = OtMessageE { pairs };
            assert_eq!(receiver.decrypt(group, &bad_e).unwrap_err(), OtError::BatchMismatch, "M_E of {len}");
        }
        assert_eq!(receiver.decrypt(group, &msg_e).unwrap(), vec![vec![2]; 8]);
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
                let (sender, msg_a) = OtSender::start(group, secrets.clone(), &mut rng_s);
                let (receiver, msg_b) =
                    OtReceiver::respond(group, &choices, &msg_a, &mut rng_r).unwrap();
                let msg_e = sender.encrypt(group, &msg_b).unwrap();
                let out = receiver.decrypt(group, &msg_e).unwrap();
                for i in 0..count {
                    let (a, n) = (&sender.a[i], &msg_b.elements[i]);
                    let na = group.pow(n, a);
                    let k1 = derive_key(group, &group.mul(&na, &group.inv_pow_g(&a.mul(a))));
                    let (x0, x1) = &secrets[i];
                    let want = (ctr_encrypt(&derive_key(group, &na), x0), ctr_encrypt(&k1, x1));
                    assert_eq!(msg_e.pairs[i], want, "M_E count {count} instance {i}");
                    let k = derive_key(group, &group.pow(&receiver.m_a[i], &receiver.b[i]));
                    let ct = if choices[i] { &msg_e.pairs[i].1 } else { &msg_e.pairs[i].0 };
                    assert_eq!(out[i], ctr_decrypt(&k, ct), "payload count {count} instance {i}");
                    assert_eq!(&out[i], if choices[i] { x1 } else { x0 });
                }
            }
        }
    }

    /// `k¹ = H((n·g^{−a})^a)` exactly as the protocol states it: a
    /// Fermat inversion, then a second general exponentiation.
    fn naive_k1(group: &DhGroup, n: &Ubig, a: &Ubig) -> [u8; 32] {
        let quotient = group.div(n, &group.pow_g(a));
        derive_key(group, &group.pow(&quotient, a))
    }

    /// Runs the folded sender over the `(n_i, a_i)` instances and checks
    /// both ciphertexts of every pair against the naive key derivations.
    fn check_fold(group: &DhGroup, instances: &[(Ubig, Ubig)]) {
        let secrets: Vec<_> = (0..instances.len())
            .map(|i| (vec![i as u8; 4], vec![0xF0 ^ i as u8; 4]))
            .collect();
        let sender = OtSender {
            secrets: secrets.clone(),
            a: instances.iter().map(|(_, a)| a.clone()).collect(),
        };
        let msg_b = OtMessageB { elements: instances.iter().map(|(n, _)| n.clone()).collect() };
        let msg_e = sender.encrypt(group, &msg_b).unwrap();
        for (i, ((n, a), (x0, x1))) in instances.iter().zip(&secrets).enumerate() {
            let k0 = derive_key(group, &group.pow(n, a));
            assert_eq!(msg_e.pairs[i].0, ctr_encrypt(&k0, x0), "e0, n {n} a {a}");
            assert_eq!(msg_e.pairs[i].1, ctr_encrypt(&naive_k1(group, n, a), x1), "e1, n {n} a {a}");
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
                assert_eq!(&pick(choice, &e0, &e1), branchy);
            }
        });
    }

    #[test]
    fn unequal_ciphertext_pair_is_malformed() {
        let group = DhGroup::tiny_test_group();
        let mut rng_s = StdRng::seed_from_u64(12);
        let mut rng_r = StdRng::seed_from_u64(13);
        let secrets = vec![(vec![1, 2], vec![3, 4]), (vec![5, 6], vec![7, 8])];
        let (sender, msg_a) = OtSender::start(&group, secrets, &mut rng_s);
        let (receiver, msg_b) =
            OtReceiver::respond(&group, &[false, true], &msg_a, &mut rng_r).unwrap();
        let mut msg_e = sender.encrypt(&group, &msg_b).unwrap();
        assert!(receiver.decrypt(&group, &msg_e).is_ok());
        msg_e.pairs[1].1.push(0);
        assert_eq!(receiver.decrypt(&group, &msg_e).unwrap_err(), OtError::Malformed);
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
        let msg = OtMessageE { pairs: vec![(vec![], vec![]); 3] };
        let mut bytes = msg.encode();
        assert_eq!(OtMessageE::decode(&bytes).unwrap(), msg);
        bytes[0] = 4;
        assert_eq!(OtMessageE::decode(&bytes).unwrap_err(), OtError::Malformed);
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
                let limbs = group.modulus().bit_len().div_ceil(64);
                for choice in [false, true] {
                    let branchy = if choice { product.clone() } else { gb.clone() };
                    assert_eq!(Ubig::ct_select(choice, &product, &gb, limbs), branchy);
                    assert_eq!(blind(group, choice, &m_a, &gb), branchy);
                }
            });
        }
    }
}
