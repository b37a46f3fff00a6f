//! RSA signatures (PKCS#1 v1.5, SHA-256) built on [`crate::bignum`].
//!
//! This is the signing primitive the paper obtains from the `ring` crate.
//! It implements key generation (Miller–Rabin), CRT-accelerated signing and
//! public-key verification. Signature length equals the modulus length, so an
//! RSA-2048 key produces the 256-byte file signatures whose size drives the
//! repository-growth experiment (Figure 9 of the paper).
//!
//! **Security note:** arithmetic here is not constant-time. The workspace is a
//! systems-research simulation; do not use this module to protect real data.

use crate::bignum::BigUint;
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::sha2::Sha256;
use crate::{base64, hex};

/// ASN.1 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 notes).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Public RSA exponent used by all generated keys.
const PUBLIC_EXPONENT: u64 = 65537;

const PUB_PEM_TAG: &str = "TSR RSA PUBLIC KEY";
const PRIV_PEM_TAG: &str = "TSR RSA PRIVATE KEY";

/// An RSA public key (modulus + exponent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key with CRT parameters.
#[derive(Clone, Debug)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl RsaPublicKey {
    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Modulus length in bytes == signature length.
    pub fn signature_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] when the signature does not
    /// verify, and [`CryptoError::InvalidKey`] when the signature length does
    /// not match the modulus.
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], sig: &[u8]) -> Result<(), CryptoError> {
        let k = self.signature_len();
        if sig.len() != k {
            return Err(CryptoError::InvalidKey(format!(
                "signature length {} != modulus length {}",
                sig.len(),
                k
            )));
        }
        let s = BigUint::from_be_bytes(sig);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = s.modpow(&self.e, &self.n).to_be_bytes_padded(k);
        let expected = emsa_pkcs1_v15(msg, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Serializes to the compact binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_component(&mut out, &self.n);
        write_component(&mut out, &self.e);
        out
    }

    /// Parses the compact binary form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut cur = bytes;
        let n = read_component(&mut cur)?;
        let e = read_component(&mut cur)?;
        if !cur.is_empty() {
            return Err(CryptoError::InvalidKey("trailing bytes".into()));
        }
        Ok(RsaPublicKey { n, e })
    }

    /// PEM-style armored serialization.
    pub fn to_pem(&self) -> String {
        pem_wrap(PUB_PEM_TAG, &self.to_bytes())
    }

    /// Parses the PEM-style form produced by [`Self::to_pem`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] when the armor or payload is
    /// malformed.
    pub fn from_pem(pem: &str) -> Result<Self, CryptoError> {
        Self::from_bytes(&pem_unwrap(PUB_PEM_TAG, pem)?)
    }

    /// A short stable identifier: hex SHA-256 of the encoded key.
    pub fn fingerprint(&self) -> String {
        hex::to_hex(&Sha256::digest(&self.to_bytes())[..8])
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key of `bits` modulus size using the provided DRBG.
    ///
    /// `bits` must be even and at least 512. RSA-2048 matches the paper's
    /// 256-byte signatures; smaller keys are useful to keep tests fast.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 512` or `bits` is odd.
    pub fn generate(bits: usize, rng: &mut HmacDrbg) -> Self {
        assert!(bits >= 512, "RSA keys below 512 bits are not supported");
        assert!(bits.is_multiple_of(2), "RSA modulus size must be even");
        let e = BigUint::from(PUBLIC_EXPONENT);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let phi = p1.mul(&q1);
            let d = match e.modinv(&phi) {
                Some(d) => d,
                None => continue,
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = match q.modinv(&p) {
                Some(v) => v,
                None => continue,
            };
            return RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signature length in bytes (equals modulus length).
    pub fn signature_len(&self) -> usize {
        self.public.signature_len()
    }

    /// Signs `msg` with PKCS#1 v1.5 / SHA-256 using CRT.
    ///
    /// The output always has [`Self::signature_len`] bytes.
    pub fn sign_pkcs1_sha256(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.signature_len();
        let em = emsa_pkcs1_v15(msg, k).expect("modulus is large enough for SHA-256");
        let m = BigUint::from_be_bytes(&em);
        // CRT: m1 = m^dp mod p; m2 = m^dq mod q; h = qinv*(m1-m2) mod p
        let m1 = m.modpow(&self.dp, &self.p);
        let m2 = m.modpow(&self.dq, &self.q);
        let diff = if m1 >= m2 {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p
            self.p.sub(&m2.sub(&m1).rem(&self.p))
        };
        let h = self.qinv.modmul(&diff, &self.p);
        let s = m2.add(&h.mul(&self.q));
        s.to_be_bytes_padded(k)
    }

    /// Serializes to the compact binary form (all CRT components).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for c in [
            &self.public.n,
            &self.public.e,
            &self.d,
            &self.p,
            &self.q,
            &self.dp,
            &self.dq,
            &self.qinv,
        ] {
            write_component(&mut out, c);
        }
        out
    }

    /// Parses the compact binary form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut cur = bytes;
        let n = read_component(&mut cur)?;
        let e = read_component(&mut cur)?;
        let d = read_component(&mut cur)?;
        let p = read_component(&mut cur)?;
        let q = read_component(&mut cur)?;
        let dp = read_component(&mut cur)?;
        let dq = read_component(&mut cur)?;
        let qinv = read_component(&mut cur)?;
        if !cur.is_empty() {
            return Err(CryptoError::InvalidKey("trailing bytes".into()));
        }
        Ok(RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
            p,
            q,
            dp,
            dq,
            qinv,
        })
    }

    /// PEM-style armored serialization.
    pub fn to_pem(&self) -> String {
        pem_wrap(PRIV_PEM_TAG, &self.to_bytes())
    }

    /// Parses the PEM-style form produced by [`Self::to_pem`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] when the armor or payload is
    /// malformed.
    pub fn from_pem(pem: &str) -> Result<Self, CryptoError> {
        Self::from_bytes(&pem_unwrap(PRIV_PEM_TAG, pem)?)
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(msg) into `k` bytes.
fn emsa_pkcs1_v15(msg: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO.len() + 32;
    if k < t_len + 11 {
        return Err(CryptoError::InvalidKey(
            "modulus too small for SHA-256 PKCS#1 v1.5".into(),
        ));
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&Sha256::digest(msg));
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

fn write_component(out: &mut Vec<u8>, c: &BigUint) {
    let bytes = c.to_be_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

fn read_component(cur: &mut &[u8]) -> Result<BigUint, CryptoError> {
    if cur.len() < 4 {
        return Err(CryptoError::InvalidKey("truncated component length".into()));
    }
    let len = u32::from_be_bytes(cur[..4].try_into().unwrap()) as usize;
    *cur = &cur[4..];
    if cur.len() < len {
        return Err(CryptoError::InvalidKey("truncated component".into()));
    }
    let c = BigUint::from_be_bytes(&cur[..len]);
    *cur = &cur[len..];
    Ok(c)
}

fn pem_wrap(tag: &str, payload: &[u8]) -> String {
    let b64 = base64::encode(payload);
    let mut out = format!("-----BEGIN {tag}-----\n");
    for chunk in b64.as_bytes().chunks(64) {
        out.push_str(std::str::from_utf8(chunk).unwrap());
        out.push('\n');
    }
    out.push_str(&format!("-----END {tag}-----\n"));
    out
}

fn pem_unwrap(tag: &str, pem: &str) -> Result<Vec<u8>, CryptoError> {
    let begin = format!("-----BEGIN {tag}-----");
    let end = format!("-----END {tag}-----");
    let start = pem
        .find(&begin)
        .ok_or_else(|| CryptoError::InvalidKey("missing PEM begin marker".into()))?
        + begin.len();
    let stop = pem[start..]
        .find(&end)
        .ok_or_else(|| CryptoError::InvalidKey("missing PEM end marker".into()))?
        + start;
    base64::decode(&pem[start..stop])
        .ok_or_else(|| CryptoError::InvalidKey("invalid PEM base64 payload".into()))
}

/// Generates a random prime with exactly `bits` bits (top two bits set).
fn gen_prime(bits: usize, rng: &mut HmacDrbg) -> BigUint {
    debug_assert!(bits >= 128);
    loop {
        let mut bytes = rng.bytes(bits / 8);
        // Force the top two bits so p*q has full length, and make it odd.
        bytes[0] |= 0xc0;
        *bytes.last_mut().unwrap() |= 1;
        let candidate = BigUint::from_be_bytes(&bytes);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Small primes used for fast trial division before Miller–Rabin.
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let limit = 8192usize;
        let mut sieve = vec![true; limit];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..limit {
            if sieve[i] {
                let mut j = i * i;
                while j < limit {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        (2..limit as u64).filter(|&i| sieve[i as usize]).collect()
    })
}

/// Miller–Rabin with trial division, 24 pseudo-random witness rounds.
pub fn is_probable_prime(n: &BigUint, rng: &mut HmacDrbg) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in small_primes() {
        let pb = BigUint::from(p);
        if &pb >= n {
            return pb == *n;
        }
        let (_, r) = n.div_rem_u64(p);
        if r == 0 {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n1 = n.sub(&BigUint::one());
    let mut d = n1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let n_bytes = n.bit_len().div_ceil(8);
    'witness: for _ in 0..24 {
        // Random witness in [2, n-2]; rejection-sample by reduction.
        let a = BigUint::from_be_bytes(&rng.bytes(n_bytes))
            .rem(&n1.sub(&BigUint::one()))
            .add(&BigUint::from(2u64));
        let mut x = a.modpow(&d, n);
        if x.is_one() || x == n1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x.modmul(&x, n);
            if x == n1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Shared test keys so key generation cost is paid once per size.
    pub(crate) fn test_key_1024() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"tsr-test-key-1024");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    fn test_key_2048() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"tsr-test-key-2048");
            RsaPrivateKey::generate(2048, &mut rng)
        })
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key_1024();
        let sig = key.sign_pkcs1_sha256(b"hello world");
        assert_eq!(sig.len(), key.signature_len());
        key.public_key()
            .verify_pkcs1_sha256(b"hello world", &sig)
            .unwrap();
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let key = test_key_1024();
        let sig = key.sign_pkcs1_sha256(b"hello world");
        assert!(matches!(
            key.public_key().verify_pkcs1_sha256(b"hello worle", &sig),
            Err(CryptoError::BadSignature)
        ));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key_1024();
        let mut sig = key.sign_pkcs1_sha256(b"msg");
        sig[10] ^= 1;
        assert!(key.public_key().verify_pkcs1_sha256(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = test_key_1024();
        let sig = key.sign_pkcs1_sha256(b"msg");
        assert!(key
            .public_key()
            .verify_pkcs1_sha256(b"msg", &sig[..sig.len() - 1])
            .is_err());
    }

    #[test]
    fn rsa2048_signature_is_256_bytes() {
        // The paper's size-overhead analysis assumes 256-byte signatures.
        let key = test_key_2048();
        let sig = key.sign_pkcs1_sha256(b"payload");
        assert_eq!(sig.len(), 256);
        key.public_key()
            .verify_pkcs1_sha256(b"payload", &sig)
            .unwrap();
    }

    #[test]
    fn signatures_are_deterministic() {
        let key = test_key_1024();
        assert_eq!(key.sign_pkcs1_sha256(b"x"), key.sign_pkcs1_sha256(b"x"));
    }

    #[test]
    fn cross_key_verification_fails() {
        let mut rng = HmacDrbg::new(b"other-key");
        let other = RsaPrivateKey::generate(1024, &mut rng);
        let sig = test_key_1024().sign_pkcs1_sha256(b"m");
        assert!(other.public_key().verify_pkcs1_sha256(b"m", &sig).is_err());
    }

    #[test]
    fn public_key_binary_roundtrip() {
        let pk = test_key_1024().public_key().clone();
        let parsed = RsaPublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(parsed, pk);
    }

    #[test]
    fn public_key_pem_roundtrip() {
        let pk = test_key_1024().public_key().clone();
        let pem = pk.to_pem();
        assert!(pem.starts_with("-----BEGIN TSR RSA PUBLIC KEY-----"));
        assert_eq!(RsaPublicKey::from_pem(&pem).unwrap(), pk);
    }

    #[test]
    fn private_key_roundtrip_signs_identically() {
        let sk = test_key_1024();
        let re = RsaPrivateKey::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(re.sign_pkcs1_sha256(b"m"), sk.sign_pkcs1_sha256(b"m"));
        let re2 = RsaPrivateKey::from_pem(&sk.to_pem()).unwrap();
        assert_eq!(re2.sign_pkcs1_sha256(b"m"), sk.sign_pkcs1_sha256(b"m"));
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let b = test_key_1024().public_key().to_bytes();
        assert!(RsaPublicKey::from_bytes(&b[..b.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn from_pem_rejects_garbage() {
        assert!(RsaPublicKey::from_pem("not a pem").is_err());
        assert!(RsaPublicKey::from_pem(
            "-----BEGIN TSR RSA PUBLIC KEY-----\n!!!\n-----END TSR RSA PUBLIC KEY-----"
        )
        .is_err());
    }

    #[test]
    fn fingerprints_distinguish_keys() {
        let mut rng = HmacDrbg::new(b"fp");
        let k2 = RsaPrivateKey::generate(1024, &mut rng);
        assert_ne!(
            test_key_1024().public_key().fingerprint(),
            k2.public_key().fingerprint()
        );
        assert_eq!(test_key_1024().public_key().fingerprint().len(), 16);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = HmacDrbg::new(b"det");
        let mut r2 = HmacDrbg::new(b"det");
        let k1 = RsaPrivateKey::generate(1024, &mut r1);
        let k2 = RsaPrivateKey::generate(1024, &mut r2);
        assert_eq!(k1.public_key(), k2.public_key());
    }

    #[test]
    fn miller_rabin_knows_small_primes() {
        let mut rng = HmacDrbg::new(b"mr");
        for p in [2u64, 3, 5, 7, 11, 8191] {
            assert!(is_probable_prime(&BigUint::from(p), &mut rng), "{p}");
        }
        for c in [0u64, 1, 4, 9, 15, 8192 * 3] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut rng), "{c}");
        }
    }

    #[test]
    fn miller_rabin_large_known_prime() {
        let mut rng = HmacDrbg::new(b"mr2");
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
        assert!(is_probable_prime(&p, &mut rng));
        // 2^128 - 1 factors.
        let c = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        assert!(!is_probable_prime(&c, &mut rng));
    }

    #[test]
    fn emsa_structure() {
        let em = emsa_pkcs1_v15(b"m", 128).unwrap();
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert_eq!(em[128 - 32 - 19 - 1], 0x00);
        assert!(em[2..128 - 32 - 19 - 1].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn emsa_rejects_tiny_modulus() {
        assert!(emsa_pkcs1_v15(b"m", 32).is_err());
    }
}
