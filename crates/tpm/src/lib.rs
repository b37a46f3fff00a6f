//! # tsr-tpm
//!
//! A software TPM 2.0 with the semantics the TSR reproduction needs
//! (paper §2.3 and §5.5):
//!
//! - extend-only **PCR banks** (SHA-256),
//! - signed **quotes** over a PCR selection and a verifier nonce
//!   (remote attestation),
//! - **monotonic counters** (rollback protection for TSR's sealed cache
//!   metadata),
//! - small **NVRAM** storage.
//!
//! The simulator reproduces the trust semantics — extend-only registers,
//! unforgeable quotes, counters that never decrease — not the TPM wire
//! protocol.
//!
//! # Examples
//!
//! ```
//! use tsr_tpm::Tpm;
//!
//! let mut tpm = Tpm::new(b"device-seed");
//! tpm.extend(10, &[0xab; 32]);
//! let quote = tpm.quote(&[10], b"verifier-nonce");
//! quote.verify(tpm.attestation_key(), b"verifier-nonce").unwrap();
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{RsaPrivateKey, RsaPublicKey, Sha256};

/// Number of PCRs in the bank.
pub const PCR_COUNT: usize = 24;
/// The PCR used by Linux IMA.
pub const IMA_PCR: u32 = 10;

/// Errors produced by TPM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpmError {
    /// PCR index out of range.
    InvalidPcr(u32),
    /// Unknown monotonic counter id.
    UnknownCounter(u32),
    /// Unknown NVRAM index.
    UnknownNvIndex(u32),
    /// A quote failed verification.
    QuoteInvalid(String),
}

impl fmt::Display for TpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpmError::InvalidPcr(i) => write!(f, "invalid pcr index {i}"),
            TpmError::UnknownCounter(i) => write!(f, "unknown monotonic counter {i}"),
            TpmError::UnknownNvIndex(i) => write!(f, "unknown nv index {i}"),
            TpmError::QuoteInvalid(m) => write!(f, "quote verification failed: {m}"),
        }
    }
}

impl Error for TpmError {}

/// A signed attestation over selected PCR values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Which PCRs are covered, in ascending order.
    pub pcr_selection: Vec<u32>,
    /// The PCR values at quote time, parallel to `pcr_selection`.
    pub pcr_values: Vec<[u8; 32]>,
    /// The verifier-supplied anti-replay nonce.
    pub nonce: Vec<u8>,
    /// RSA signature over the canonical quote encoding.
    pub signature: Vec<u8>,
}

impl Quote {
    fn message(selection: &[u32], values: &[[u8; 32]], nonce: &[u8]) -> Vec<u8> {
        let mut msg = b"TPM2-QUOTE".to_vec();
        msg.extend_from_slice(&(selection.len() as u32).to_be_bytes());
        for (i, v) in selection.iter().zip(values) {
            msg.extend_from_slice(&i.to_be_bytes());
            msg.extend_from_slice(v);
        }
        msg.extend_from_slice(&(nonce.len() as u32).to_be_bytes());
        msg.extend_from_slice(nonce);
        msg
    }

    /// Verifies the quote signature and nonce against the attestation key.
    ///
    /// # Errors
    ///
    /// Returns [`TpmError::QuoteInvalid`] when the nonce differs or the
    /// signature does not verify.
    pub fn verify(&self, ak: &RsaPublicKey, expected_nonce: &[u8]) -> Result<(), TpmError> {
        if self.nonce != expected_nonce {
            return Err(TpmError::QuoteInvalid("nonce mismatch".into()));
        }
        let msg = Self::message(&self.pcr_selection, &self.pcr_values, &self.nonce);
        ak.verify_pkcs1_sha256(&msg, &self.signature)
            .map_err(|e| TpmError::QuoteInvalid(e.to_string()))
    }

    /// The quoted value of `pcr`, if it is in the selection.
    pub fn pcr(&self, pcr: u32) -> Option<&[u8; 32]> {
        self.pcr_selection
            .iter()
            .position(|&p| p == pcr)
            .map(|i| &self.pcr_values[i])
    }
}

/// The software TPM device.
#[derive(Debug)]
pub struct Tpm {
    pcrs: [[u8; 32]; PCR_COUNT],
    /// The seed DRBG the attestation key is generated from on first use.
    ak_rng: HmacDrbg,
    attestation_key: OnceLock<RsaPrivateKey>,
    counters: Vec<u64>,
    nvram: BTreeMap<u32, Vec<u8>>,
}

impl Tpm {
    /// Manufactures a TPM; the attestation key is derived from `seed`.
    ///
    /// A real TPM's key is provisioned, not made at power-on, so this one
    /// is generated the first time a quote or [`Self::attestation_key`]
    /// needs it — always the same key for the same seed.
    pub fn new(seed: &[u8]) -> Self {
        Tpm {
            pcrs: [[0u8; 32]; PCR_COUNT],
            ak_rng: HmacDrbg::new(&[b"tsr-tpm-ak:", seed].concat()),
            attestation_key: OnceLock::new(),
            counters: Vec::new(),
            nvram: BTreeMap::new(),
        }
    }

    /// The private attestation key, generated on first use.
    fn ak(&self) -> &RsaPrivateKey {
        self.attestation_key
            .get_or_init(|| RsaPrivateKey::generate(1024, &mut self.ak_rng.clone()))
    }

    /// The public attestation key verifiers trust.
    pub fn attestation_key(&self) -> &RsaPublicKey {
        self.ak().public_key()
    }

    /// Extends `pcr` with a measurement digest:
    /// `PCR ← SHA-256(PCR ‖ digest)`.
    ///
    /// # Panics
    ///
    /// Panics if `pcr >= PCR_COUNT` — measurement code must use valid PCRs.
    pub fn extend(&mut self, pcr: u32, digest: &[u8; 32]) {
        let idx = pcr as usize;
        assert!(idx < PCR_COUNT, "pcr index {pcr} out of range");
        let mut h = Sha256::new();
        h.update(&self.pcrs[idx]);
        h.update(digest);
        self.pcrs[idx] = h.finalize();
    }

    /// Reads a PCR value.
    ///
    /// # Errors
    ///
    /// Returns [`TpmError::InvalidPcr`] for out-of-range indices.
    pub fn read_pcr(&self, pcr: u32) -> Result<[u8; 32], TpmError> {
        self.pcrs
            .get(pcr as usize)
            .copied()
            .ok_or(TpmError::InvalidPcr(pcr))
    }

    /// Produces a signed quote over `selection` with the verifier `nonce`.
    ///
    /// # Panics
    ///
    /// Panics if any selected PCR is out of range.
    pub fn quote(&self, selection: &[u32], nonce: &[u8]) -> Quote {
        let mut sel: Vec<u32> = selection.to_vec();
        sel.sort_unstable();
        sel.dedup();
        let values: Vec<[u8; 32]> = sel
            .iter()
            .map(|&p| {
                self.read_pcr(p)
                    .unwrap_or_else(|_| panic!("pcr {p} out of range"))
            })
            .collect();
        let msg = Quote::message(&sel, &values, nonce);
        Quote {
            pcr_selection: sel,
            pcr_values: values,
            nonce: nonce.to_vec(),
            signature: self.ak().sign_pkcs1_sha256(&msg),
        }
    }

    /// Creates a new monotonic counter starting at 0, returning its id.
    pub fn create_counter(&mut self) -> u32 {
        self.counters.push(0);
        (self.counters.len() - 1) as u32
    }

    /// Increments a counter and returns the new value.
    ///
    /// # Errors
    ///
    /// Returns [`TpmError::UnknownCounter`] for invalid ids.
    pub fn increment_counter(&mut self, id: u32) -> Result<u64, TpmError> {
        let c = self
            .counters
            .get_mut(id as usize)
            .ok_or(TpmError::UnknownCounter(id))?;
        *c += 1;
        Ok(*c)
    }

    /// Reads a counter.
    ///
    /// # Errors
    ///
    /// Returns [`TpmError::UnknownCounter`] for invalid ids.
    pub fn read_counter(&self, id: u32) -> Result<u64, TpmError> {
        self.counters
            .get(id as usize)
            .copied()
            .ok_or(TpmError::UnknownCounter(id))
    }

    /// Writes NVRAM at `index`.
    pub fn nv_write(&mut self, index: u32, data: Vec<u8>) {
        self.nvram.insert(index, data);
    }

    /// Reads NVRAM at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TpmError::UnknownNvIndex`] when nothing was written there.
    pub fn nv_read(&self, index: u32) -> Result<&[u8], TpmError> {
        self.nvram
            .get(&index)
            .map(Vec::as_slice)
            .ok_or(TpmError::UnknownNvIndex(index))
    }

    /// Simulates a platform reboot: PCRs reset, counters and NVRAM persist.
    pub fn reboot(&mut self) {
        self.pcrs = [[0u8; 32]; PCR_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpm() -> Tpm {
        Tpm::new(b"test-tpm")
    }

    #[test]
    fn pcrs_start_zero() {
        let t = tpm();
        assert_eq!(t.read_pcr(0).unwrap(), [0u8; 32]);
        assert_eq!(t.read_pcr(23).unwrap(), [0u8; 32]);
        assert!(t.read_pcr(24).is_err());
    }

    #[test]
    fn extend_changes_pcr_deterministically() {
        let mut a = tpm();
        let mut b = tpm();
        a.extend(10, &[1u8; 32]);
        b.extend(10, &[1u8; 32]);
        assert_eq!(a.read_pcr(10).unwrap(), b.read_pcr(10).unwrap());
        assert_ne!(a.read_pcr(10).unwrap(), [0u8; 32]);
    }

    #[test]
    fn extend_order_matters() {
        let mut a = tpm();
        let mut b = tpm();
        a.extend(10, &[1u8; 32]);
        a.extend(10, &[2u8; 32]);
        b.extend(10, &[2u8; 32]);
        b.extend(10, &[1u8; 32]);
        assert_ne!(a.read_pcr(10).unwrap(), b.read_pcr(10).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extend_invalid_pcr_panics() {
        tpm().extend(99, &[0u8; 32]);
    }

    #[test]
    fn quote_roundtrip() {
        let mut t = tpm();
        t.extend(10, &[7u8; 32]);
        let q = t.quote(&[10, 0], b"nonce-1");
        q.verify(t.attestation_key(), b"nonce-1").unwrap();
        assert_eq!(q.pcr(10).unwrap(), &t.read_pcr(10).unwrap());
        assert_eq!(q.pcr_selection, vec![0, 10]); // sorted
        assert!(q.pcr(5).is_none());
    }

    #[test]
    fn quote_rejects_wrong_nonce() {
        let t = tpm();
        let q = t.quote(&[10], b"nonce-1");
        assert!(matches!(
            q.verify(t.attestation_key(), b"nonce-2"),
            Err(TpmError::QuoteInvalid(_))
        ));
    }

    #[test]
    fn quote_rejects_tampered_pcr() {
        let mut t = tpm();
        t.extend(10, &[7u8; 32]);
        let mut q = t.quote(&[10], b"n");
        q.pcr_values[0] = [0u8; 32]; // pretend untouched system
        assert!(q.verify(t.attestation_key(), b"n").is_err());
    }

    #[test]
    fn quote_rejects_wrong_key() {
        let t = tpm();
        let other = Tpm::new(b"other-device");
        let q = t.quote(&[10], b"n");
        assert!(q.verify(other.attestation_key(), b"n").is_err());
    }

    #[test]
    fn monotonic_counter_never_decreases() {
        let mut t = tpm();
        let id = t.create_counter();
        assert_eq!(t.read_counter(id).unwrap(), 0);
        assert_eq!(t.increment_counter(id).unwrap(), 1);
        assert_eq!(t.increment_counter(id).unwrap(), 2);
        assert_eq!(t.read_counter(id).unwrap(), 2);
        assert!(t.read_counter(99).is_err());
        assert!(t.increment_counter(99).is_err());
    }

    #[test]
    fn counters_survive_reboot_pcrs_do_not() {
        let mut t = tpm();
        let id = t.create_counter();
        t.increment_counter(id).unwrap();
        t.extend(10, &[1u8; 32]);
        t.nv_write(1, vec![42]);
        t.reboot();
        assert_eq!(t.read_pcr(10).unwrap(), [0u8; 32]);
        assert_eq!(t.read_counter(id).unwrap(), 1);
        assert_eq!(t.nv_read(1).unwrap(), &[42]);
    }

    #[test]
    fn nvram_read_unknown() {
        let t = tpm();
        assert!(matches!(t.nv_read(9), Err(TpmError::UnknownNvIndex(9))));
    }

    #[test]
    fn attestation_key_is_pinned() {
        let pem = Tpm::new(b"golden").attestation_key().to_pem();
        assert_eq!(
            tsr_crypto::hex::to_hex(&Sha256::digest(pem.as_bytes())),
            "0097831ba6de68c993a1e4401c07aa87177ed649f564ae5ab562af8a8d47396a"
        );
    }

    #[test]
    fn a_quote_made_before_the_key_is_read_verifies_under_it() {
        let mut t = Tpm::new(b"golden");
        t.extend(10, &[7u8; 32]);
        let q = t.quote(&[10], b"made first");
        q.verify(t.attestation_key(), b"made first").unwrap();
    }

    #[test]
    fn same_seed_same_ak() {
        let a = Tpm::new(b"dev");
        let b = Tpm::new(b"dev");
        assert_eq!(a.attestation_key(), b.attestation_key());
    }
}
