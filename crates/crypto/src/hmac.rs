//! HMAC-SHA256 (RFC 2104) and a two-step extract/expand KDF in the HKDF
//! (RFC 5869) style, built on the in-repo SHA-256.
//!
//! Used by the double-ratchet-style session encryption in `agora-comm` and
//! for deriving per-purpose keys from node secrets.

use crate::sha256::{Hash256, Sha256};

/// HMAC-SHA256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Hash256 {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        let kh = {
            let mut h = Sha256::new();
            h.update(key);
            h.finalize()
        };
        k[..32].copy_from_slice(kh.as_bytes());
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(data);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(inner.as_bytes());
    h.finalize()
}

/// HKDF-Extract: PRK = HMAC(salt, ikm).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Hash256 {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand producing `n` output blocks of 32 bytes each.
pub fn hkdf_expand(prk: &Hash256, info: &[u8], n: u8) -> Vec<Hash256> {
    assert!(n >= 1, "at least one output block");
    let mut out = Vec::with_capacity(n as usize);
    let mut prev: Vec<u8> = Vec::new();
    for i in 1..=n {
        let mut data = prev.clone();
        data.extend_from_slice(info);
        data.push(i);
        let block = hmac_sha256(prk.as_bytes(), &data);
        prev = block.as_bytes().to_vec();
        out.push(block);
    }
    out
}

/// Derive one 32-byte key for a named purpose from input key material.
pub fn derive_key(ikm: &[u8], purpose: &str) -> Hash256 {
    let prk = hkdf_extract(b"agora-kdf", ikm);
    hkdf_expand(&prk, purpose.as_bytes(), 1)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2104 pads a short key with zeros to the 64-byte block, so keys
    // that differ only by trailing zero bytes (up to 64 bytes long) are the
    // same key.
    #[test]
    fn trailing_zero_bytes_pad_to_the_same_key() {
        let mac = hmac_sha256(b"key", b"msg");
        assert_eq!(hmac_sha256(b"key\0", b"msg"), mac);
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"key");
        assert_eq!(hmac_sha256(&block, b"msg"), mac);
        let mut over = [0u8; 65];
        over[..3].copy_from_slice(b"key");
        assert_ne!(hmac_sha256(&over, b"msg"), mac, "65 bytes are hashed first");
    }

    // RFC 2104 replaces a key longer than the block with its hash, so such a
    // key MACs exactly as its own SHA-256 digest does.
    #[test]
    fn long_key_macs_as_its_digest() {
        let key = [0xaau8; 131];
        let digest = crate::sha256::sha256(&key);
        assert_eq!(
            hmac_sha256(&key, b"msg"),
            hmac_sha256(digest.as_bytes(), b"msg")
        );
    }

    #[test]
    fn hkdf_expand_blocks_differ_and_are_deterministic() {
        let prk = hkdf_extract(b"salt", b"secret");
        let a = hkdf_expand(&prk, b"ctx", 3);
        assert_eq!(a.len(), 3);
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
        assert_eq!(hkdf_expand(&prk, b"ctx", 3), a);
        assert_ne!(hkdf_expand(&prk, b"other", 1)[0], a[0]);
    }

    #[test]
    fn derive_key_separates_purposes() {
        let k1 = derive_key(b"ikm", "chain-signing");
        let k2 = derive_key(b"ikm", "storage-encryption");
        assert_ne!(k1, k2);
        assert_eq!(derive_key(b"ikm", "chain-signing"), k1);
    }
}
