//! The OT payload cipher `E(x, k)`: a SHA-256 counter-mode keystream XOR.
//!
//! The "simplest OT" needs a symmetric encryption keyed by the derived
//! group-element hash. A hash-based CTR keystream is the standard
//! instantiation: `keystream_i = SHA-256(k ‖ i)`, ciphertext = plaintext ⊕
//! keystream. Encryption and decryption are the same operation.

use crate::sha256::sha256;

/// Encrypts (or decrypts) `data` with the 32-byte key `key`.
///
/// # Examples
///
/// ```
/// use wavekey_crypto::{ctr_encrypt, ctr_decrypt};
/// let key = [7u8; 32];
/// let ct = ctr_encrypt(&key, b"hello wavekey");
/// assert_eq!(ctr_decrypt(&key, &ct), b"hello wavekey");
/// ```
pub fn ctr_encrypt(key: &[u8; 32], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    ctr_apply(key, &mut out);
    out
}

/// [`ctr_encrypt`] in place: XORs the keystream of `key` into `data`,
/// which encrypts a plaintext and decrypts a ciphertext alike.
pub fn ctr_apply(key: &[u8; 32], data: &mut [u8]) {
    let mut block = [0u8; 40];
    block[..32].copy_from_slice(key);
    for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
        block[32..].copy_from_slice(&counter.to_be_bytes());
        let ks = sha256(&block);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

/// Decrypts data encrypted by [`ctr_encrypt`] (XOR is its own inverse).
pub fn ctr_decrypt(key: &[u8; 32], data: &[u8]) -> Vec<u8> {
    ctr_encrypt(key, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0x42u8; 32];
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = ctr_encrypt(&key, &data);
            assert_eq!(ct.len(), len);
            assert_eq!(ctr_decrypt(&key, &ct), data);
        }
    }

    #[test]
    fn wrong_key_gives_garbage() {
        let k1 = [1u8; 32];
        let k2 = [2u8; 32];
        let ct = ctr_encrypt(&k1, b"secret message here");
        assert_ne!(ctr_decrypt(&k2, &ct), b"secret message here");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let key = [9u8; 32];
        let pt = vec![0u8; 64];
        let ct = ctr_encrypt(&key, &pt);
        // The keystream itself: must not be all zeros and the two 32-byte
        // blocks must differ (counter works).
        assert_ne!(ct, pt);
        assert_ne!(&ct[..32], &ct[32..]);
    }

    #[test]
    fn deterministic() {
        let key = [3u8; 32];
        assert_eq!(ctr_encrypt(&key, b"abc"), ctr_encrypt(&key, b"abc"));
    }
}
