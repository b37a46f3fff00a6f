//! # tsr-sgx
//!
//! An Intel SGX enclave *simulator* with the properties TSR relies on
//! (paper §4.4, §6.2):
//!
//! - **measurement**: an enclave is identified by the hash of its code
//!   (MRENCLAVE analogue),
//! - **remote attestation**: the CPU signs reports binding MRENCLAVE and
//!   64 bytes of report data (e.g. a public-key hash), which a remote party
//!   verifies against the manufacturer's key,
//! - **sealing**: data encrypted+MACed with a key derived from the CPU fuse
//!   key and MRENCLAVE — only the same enclave on the same CPU can unseal,
//! - an **EPC cost model** reproducing the performance cliff beyond the
//!   128 MB enclave page cache (Figure 12).
//!
//! What is *not* simulated: actual memory isolation from the OS (the whole
//! reproduction runs in one process) and side channels (excluded by the
//! paper's threat model).

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::hmac::HmacSha256;
use tsr_crypto::{RsaPrivateKey, RsaPublicKey, Sha256};

/// Errors produced by enclave operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// Sealed blob failed authentication (wrong enclave/CPU or tampering).
    UnsealFailed,
    /// Attestation report failed verification.
    ReportInvalid(String),
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::UnsealFailed => {
                write!(f, "unsealing failed: wrong enclave/cpu or tampered blob")
            }
            SgxError::ReportInvalid(m) => write!(f, "attestation report invalid: {m}"),
        }
    }
}

impl Error for SgxError {}

/// Enclave identity: hash of the enclave code/configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Measures enclave code.
    pub fn of(code: &[u8]) -> Self {
        Measurement(Sha256::digest(code))
    }
}

/// A simulated SGX-capable CPU with fuse and attestation keys.
#[derive(Debug)]
pub struct Cpu {
    fuse_key: [u8; 32],
    /// The seed DRBG as it stands after the fuse key was drawn: the
    /// attestation key is generated from this state on first use.
    key_rng: HmacDrbg,
    attestation_key: OnceLock<RsaPrivateKey>,
    epc: EpcModel,
}

impl Cpu {
    /// Manufactures a CPU from a seed; the attestation key plays the role of
    /// the Intel-provisioned platform key checked during remote attestation.
    ///
    /// Real platform keys are provisioned, not made at boot, so this one
    /// is generated the first time a report or [`Self::attestation_key`]
    /// needs it — always the same key for the same seed.
    pub fn new(seed: &[u8]) -> Self {
        let mut key_rng = HmacDrbg::new(&[b"tsr-sgx-cpu:", seed].concat());
        let mut fuse_key = [0u8; 32];
        key_rng.fill_bytes(&mut fuse_key);
        Cpu {
            fuse_key,
            key_rng,
            attestation_key: OnceLock::new(),
            epc: EpcModel::default(),
        }
    }

    /// The private platform key, generated on first use.
    fn platform_key(&self) -> &RsaPrivateKey {
        self.attestation_key
            .get_or_init(|| RsaPrivateKey::generate(1024, &mut self.key_rng.clone()))
    }

    /// The platform verification key (what remote verifiers trust).
    pub fn attestation_key(&self) -> &RsaPublicKey {
        self.platform_key().public_key()
    }

    /// The EPC cost model of this CPU.
    pub fn epc(&self) -> &EpcModel {
        &self.epc
    }

    /// Replaces the EPC model (benchmark calibration).
    pub fn set_epc(&mut self, epc: EpcModel) {
        self.epc = epc;
    }

    /// Loads an enclave: measures `code` and binds it to this CPU.
    pub fn load_enclave(&self, code: &[u8]) -> Enclave<'_> {
        Enclave {
            cpu: self,
            measurement: Measurement::of(code),
        }
    }
}

/// A loaded enclave bound to its CPU.
#[derive(Debug)]
pub struct Enclave<'cpu> {
    cpu: &'cpu Cpu,
    measurement: Measurement,
}

/// A remote-attestation report (EPID/DCAP quote analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Enclave identity.
    pub mrenclave: Measurement,
    /// 64 bytes of enclave-chosen data (e.g. hash of a fresh public key).
    pub report_data: Vec<u8>,
    /// CPU signature over the report.
    pub signature: Vec<u8>,
}

impl Report {
    fn message(mrenclave: &Measurement, data: &[u8]) -> Vec<u8> {
        let mut m = b"SGX-REPORT".to_vec();
        m.extend_from_slice(&mrenclave.0);
        m.extend_from_slice(&(data.len() as u32).to_be_bytes());
        m.extend_from_slice(data);
        m
    }

    /// Verifies the report against the platform key and expected identity.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ReportInvalid`] on identity or signature mismatch.
    pub fn verify(
        &self,
        platform_key: &RsaPublicKey,
        expected: &Measurement,
    ) -> Result<(), SgxError> {
        if self.mrenclave != *expected {
            return Err(SgxError::ReportInvalid("mrenclave mismatch".into()));
        }
        platform_key
            .verify_pkcs1_sha256(
                &Self::message(&self.mrenclave, &self.report_data),
                &self.signature,
            )
            .map_err(|e| SgxError::ReportInvalid(e.to_string()))
    }
}

/// A sealed blob: ciphertext + MAC bound to (CPU, enclave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    ciphertext: Vec<u8>,
    mac: [u8; 32],
}

impl SealedBlob {
    /// Serializes to bytes for storage on the untrusted disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.mac.to_vec();
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses from bytes.
    ///
    /// Returns `None` when shorter than a MAC.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 32 {
            return None;
        }
        let mut mac = [0u8; 32];
        mac.copy_from_slice(&bytes[..32]);
        Some(SealedBlob {
            mac,
            ciphertext: bytes[32..].to_vec(),
        })
    }
}

impl Enclave<'_> {
    /// This enclave's identity.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Produces an attestation report carrying `report_data`
    /// (≤ 64 bytes, zero-padded).
    pub fn report(&self, report_data: &[u8]) -> Report {
        let mut data = report_data.to_vec();
        data.truncate(64);
        data.resize(64, 0);
        let msg = Report::message(&self.measurement, &data);
        Report {
            mrenclave: self.measurement,
            report_data: data,
            signature: self.cpu.platform_key().sign_pkcs1_sha256(&msg),
        }
    }

    /// Derives a deterministic secret seed bound to (CPU, enclave, label) —
    /// the EGETKEY analogue TSR uses to generate its signing key inside the
    /// enclave so the key never exists outside it.
    pub fn derive_seed(&self, label: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(&self.cpu.fuse_key);
        h.update(b"derive");
        h.update(&self.measurement.0);
        h.update(label);
        h.finalize()
    }

    /// Derives the sealing key for this (CPU, enclave) pair.
    fn sealing_key(&self) -> [u8; 32] {
        let mut h = HmacSha256::new(&self.cpu.fuse_key);
        h.update(b"seal");
        h.update(&self.measurement.0);
        h.finalize()
    }

    /// Seals `data` so only this enclave on this CPU can recover it.
    pub fn seal(&self, data: &[u8]) -> SealedBlob {
        let key = self.sealing_key();
        let mut stream = HmacDrbg::new(&[&key[..], b"stream"].concat());
        let mut ciphertext = data.to_vec();
        let pad = stream.bytes(ciphertext.len());
        for (c, p) in ciphertext.iter_mut().zip(pad) {
            *c ^= p;
        }
        let mac = {
            let mut h = HmacSha256::new(&key);
            h.update(b"mac");
            h.update(&ciphertext);
            h.finalize()
        };
        SealedBlob { ciphertext, mac }
    }

    /// Unseals a blob sealed by [`Self::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnsealFailed`] when the blob was produced by a
    /// different enclave/CPU or was modified.
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>, SgxError> {
        let key = self.sealing_key();
        let expected_mac = {
            let mut h = HmacSha256::new(&key);
            h.update(b"mac");
            h.update(&blob.ciphertext);
            h.finalize()
        };
        if expected_mac != blob.mac {
            return Err(SgxError::UnsealFailed);
        }
        let mut stream = HmacDrbg::new(&[&key[..], b"stream"].concat());
        let mut plaintext = blob.ciphertext.clone();
        let pad = stream.bytes(plaintext.len());
        for (c, p) in plaintext.iter_mut().zip(pad) {
            *c ^= p;
        }
        Ok(plaintext)
    }

    /// Runs `f` "inside" the enclave, returning its result together with the
    /// simulated in-enclave duration for a working set of `working_set`
    /// bytes (see [`EpcModel`]).
    pub fn run<R>(&self, working_set: usize, f: impl FnOnce() -> R) -> (R, EnclaveTiming) {
        let start = std::time::Instant::now();
        let out = f();
        let real = start.elapsed();
        let factor = self.cpu.epc.overhead_factor(working_set);
        let simulated = Duration::from_nanos((real.as_nanos() as f64 * factor) as u64);
        (
            out,
            EnclaveTiming {
                real,
                simulated,
                factor,
            },
        )
    }
}

/// Timing of an in-enclave execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclaveTiming {
    /// Wall-clock time of the computation outside any enclave.
    pub real: Duration,
    /// Simulated time inside the enclave (real × overhead factor).
    pub simulated: Duration,
    /// The overhead factor applied.
    pub factor: f64,
}

/// The EPC (enclave page cache) performance model.
///
/// SGXv1 reserves ~128 MB of protected memory; working sets below that pay
/// a modest overhead (memory encryption, enclave transitions), while larger
/// working sets trigger EPC paging with a much higher cost. The defaults
/// are calibrated to the paper's measurements: ≈1.18× at the median and
/// ≈1.96× for packages exceeding the EPC (§6.2, Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpcModel {
    /// Usable EPC bytes (128 MB minus metadata by default).
    pub epc_bytes: usize,
    /// Overhead factor for working sets within the EPC.
    pub base_factor: f64,
    /// Overhead factor once the working set far exceeds the EPC.
    pub paging_factor: f64,
}

impl Default for EpcModel {
    fn default() -> Self {
        EpcModel {
            epc_bytes: 128 * 1024 * 1024 - 32 * 1024 * 1024, // ~96 MB usable
            base_factor: 1.18,
            paging_factor: 1.96,
        }
    }
}

impl EpcModel {
    /// The overhead factor for a given working-set size.
    ///
    /// Within the EPC the base factor applies; beyond it the factor ramps
    /// linearly with the spill fraction and saturates at `paging_factor`
    /// once the working set is twice the EPC.
    pub fn overhead_factor(&self, working_set: usize) -> f64 {
        if working_set <= self.epc_bytes {
            self.base_factor
        } else {
            let spill = (working_set - self.epc_bytes) as f64 / self.epc_bytes as f64;
            let t = spill.min(1.0);
            self.base_factor + (self.paging_factor - self.base_factor) * t
        }
    }

    /// True when `working_set` spills out of the EPC.
    pub fn exceeds_epc(&self, working_set: usize) -> bool {
        working_set > self.epc_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        Cpu::new(b"cpu-0")
    }

    #[test]
    fn measurement_deterministic() {
        assert_eq!(Measurement::of(b"code"), Measurement::of(b"code"));
        assert_ne!(Measurement::of(b"code"), Measurement::of(b"other"));
    }

    #[test]
    fn report_verifies() {
        let c = cpu();
        let e = c.load_enclave(b"tsr-v1");
        let r = e.report(b"pubkey-hash");
        r.verify(c.attestation_key(), &Measurement::of(b"tsr-v1"))
            .unwrap();
        assert_eq!(r.report_data.len(), 64);
    }

    #[test]
    fn report_rejects_wrong_identity() {
        let c = cpu();
        let e = c.load_enclave(b"tsr-v1");
        let r = e.report(b"d");
        assert!(matches!(
            r.verify(c.attestation_key(), &Measurement::of(b"evil")),
            Err(SgxError::ReportInvalid(_))
        ));
    }

    #[test]
    fn report_rejects_tampered_data() {
        let c = cpu();
        let e = c.load_enclave(b"tsr-v1");
        let mut r = e.report(b"d");
        r.report_data[0] ^= 1;
        assert!(r.verify(c.attestation_key(), &e.measurement()).is_err());
    }

    #[test]
    fn report_rejects_wrong_platform_key() {
        let c = cpu();
        let c2 = Cpu::new(b"cpu-1");
        let e = c.load_enclave(b"tsr-v1");
        let r = e.report(b"d");
        assert!(r.verify(c2.attestation_key(), &e.measurement()).is_err());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let c = cpu();
        let e = c.load_enclave(b"tsr-v1");
        let blob = e.seal(b"metadata-index");
        assert_eq!(e.unseal(&blob).unwrap(), b"metadata-index");
    }

    #[test]
    fn unseal_fails_for_other_enclave() {
        let c = cpu();
        let e1 = c.load_enclave(b"tsr-v1");
        let e2 = c.load_enclave(b"tsr-v2");
        let blob = e1.seal(b"secret");
        assert_eq!(e2.unseal(&blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn unseal_fails_for_other_cpu() {
        let c1 = cpu();
        let c2 = Cpu::new(b"cpu-1");
        let blob = c1.load_enclave(b"tsr").seal(b"secret");
        assert_eq!(
            c2.load_enclave(b"tsr").unseal(&blob),
            Err(SgxError::UnsealFailed)
        );
    }

    #[test]
    fn unseal_detects_tampering() {
        let c = cpu();
        let e = c.load_enclave(b"tsr");
        let mut blob = e.seal(b"a longer secret payload");
        blob.ciphertext[3] ^= 0xff;
        assert_eq!(e.unseal(&blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn sealed_blob_serialization() {
        let c = cpu();
        let e = c.load_enclave(b"tsr");
        let blob = e.seal(b"disk data");
        let parsed = SealedBlob::from_bytes(&blob.to_bytes()).unwrap();
        assert_eq!(parsed, blob);
        assert!(SealedBlob::from_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let c = cpu();
        let e = c.load_enclave(b"tsr");
        let blob = e.seal(b"super secret signing key bits");
        assert_ne!(blob.ciphertext, b"super secret signing key bits");
    }

    #[test]
    fn epc_model_factors() {
        let m = EpcModel::default();
        assert!((m.overhead_factor(1024) - 1.18).abs() < 1e-9);
        // Exactly at EPC: base factor.
        assert!((m.overhead_factor(m.epc_bytes) - 1.18).abs() < 1e-9);
        // Far beyond: saturates at paging factor.
        assert!((m.overhead_factor(m.epc_bytes * 3) - 1.96).abs() < 1e-9);
        // Monotone in between.
        let mid = m.overhead_factor(m.epc_bytes + m.epc_bytes / 2);
        assert!(mid > 1.18 && mid < 1.96);
        assert!(m.exceeds_epc(m.epc_bytes + 1));
        assert!(!m.exceeds_epc(m.epc_bytes));
    }

    #[test]
    fn run_scales_duration() {
        let c = cpu();
        let e = c.load_enclave(b"tsr");
        let (out, t) = e.run(1024, || {
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(out > 0);
        assert!((t.factor - 1.18).abs() < 1e-9);
        assert!(t.simulated >= t.real);
    }

    #[test]
    fn platform_key_is_pinned() {
        let pem = Cpu::new(b"golden").attestation_key().to_pem();
        assert_eq!(
            tsr_crypto::hex::to_hex(&Sha256::digest(pem.as_bytes())),
            "dac462cce48688ec71805af361a19a65bb4003b4042c28f28921c67c582b7c37"
        );
    }

    #[test]
    fn a_report_made_before_the_key_is_read_verifies_under_it() {
        let c = Cpu::new(b"golden");
        let e = c.load_enclave(b"tsr-v1");
        let r = e.report(b"made first");
        r.verify(c.attestation_key(), &e.measurement()).unwrap();
    }

    #[test]
    fn same_seed_same_cpu_keys() {
        let a = Cpu::new(b"x");
        let b = Cpu::new(b"x");
        assert_eq!(a.attestation_key(), b.attestation_key());
        // and sealing interoperates
        let blob = a.load_enclave(b"e").seal(b"s");
        assert_eq!(b.load_enclave(b"e").unseal(&blob).unwrap(), b"s");
    }
}
