//! HMAC-SHA256 (RFC 2104), used for the WaveKey key confirmation.
//!
//! At the end of the key agreement the RFID server responds with
//! `HMAC(N, K)` over the mobile device's nonce using the reconciled key as
//! the secret (§IV-D-2); the mobile device verifies it before adopting the
//! key.

use crate::sha256::{sha256, Sha256};

const BLOCK_SIZE: usize = 64;

/// Computes `HMAC-SHA256(key, message)`. The padded key blocks are hashed
/// as stream prefixes, so nothing is copied into a heap buffer.
///
/// # Examples
///
/// ```
/// let mac = wavekey_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(mac.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let pad = |byte: u8| key_block.map(|b| b ^ byte);
    let mut inner = Sha256::new();
    inner.update(&pad(0x36));
    inner.update(message);
    let inner_hash = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&pad(0x5c));
    outer.update(&inner_hash);
    outer.finalize()
}

/// Constant-time equality for MACs.
pub fn mac_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6 (key longer than the block size).
    #[test]
    fn rfc4231_case6() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// Known answers with a 32-byte key `0, 1, …, 31` over messages
    /// `(31·i + 7) mod 256` whose inner hash crosses the padding
    /// boundaries, computed with Python's `hmac` and `hashlib`.
    #[test]
    fn block_boundary_known_answers() {
        let key: Vec<u8> = (0..32).collect();
        let vectors = [
            (0, "d38b42096d80f45f826b44a9d5607de72496a415d3f4a1a8c88e3bb9da8dc1cb"),
            (55, "de6b53b584d8000fef8dcce9c8376c7e25037e296a93d67a32b8ac8a36f99f36"),
            (56, "df1f400235c50a2b9637ee98412e26fd32cf3f3638cfd86a46ac611045cb91db"),
            (64, "df1073ceb88d413fa7cf7a142d8b3c7ca1f31aa825b233fd38952fdfafd3d629"),
            (119, "f230dbe19414f0f282aae445deae2c5b3ebf4512541c48627b1f1624f2102d95"),
        ];
        for (len, want) in vectors {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(to_hex(&hmac_sha256(&key, &msg)), want, "length {len}");
        }
    }

    #[test]
    fn mac_eq_behavior() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(mac_eq(&a, &b));
        b[0] ^= 1;
        assert!(!mac_eq(&a, &b));
        assert!(!mac_eq(&a, &a[..31]));
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
