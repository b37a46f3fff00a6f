//! # tsr-monitor
//!
//! The integrity monitoring system — the remote verifier of Figure 1 and
//! Figure 6 (➏). It consumes attestation evidence (TPM quote + IMA log)
//! and decides whether a machine runs only expected software:
//!
//! 1. the quote signature and nonce are verified against the machine's
//!    attestation key,
//! 2. the IMA log is **replayed** and must reproduce the quoted PCR-10
//!    value (no truncation/reordering),
//! 3. every measurement must be *explained*: either its file-data hash is
//!    on the whitelist (base system), or — with TSR — its log entry carries
//!    a signature by a trusted signing key.
//!
//! Without TSR, a legitimate update changes file hashes and the monitor
//! reports a violation it cannot distinguish from an attack (the paper's
//! false-positive problem). With TSR, updated files carry TSR signatures
//! and verification stays green, while genuine tampering still fails.

use std::collections::BTreeSet;
use std::fmt;

use tsr_crypto::{hex, RsaPublicKey};
use tsr_ima::{AttestationEvidence, Ima, ImaEntry};
use tsr_tpm::IMA_PCR;

/// Why a machine failed attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The TPM quote did not verify (wrong key, nonce, or tampered PCRs).
    QuoteInvalid(String),
    /// Replaying the log does not reproduce the quoted PCR value.
    LogMismatch,
    /// A measured file is neither whitelisted nor signed by a trusted key.
    UnknownMeasurement {
        /// The measured path.
        path: String,
        /// Hex file-data hash.
        hash: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::QuoteInvalid(m) => write!(f, "quote invalid: {m}"),
            Violation::LogMismatch => write!(f, "ima log does not match quoted pcr"),
            Violation::UnknownMeasurement { path, hash } => {
                write!(f, "unknown measurement of {path} ({hash})")
            }
        }
    }
}

/// The verifier's verdict for one attestation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// All violations found (empty = trusted).
    pub violations: Vec<Violation>,
    /// Number of measurements explained by the whitelist.
    pub whitelisted: usize,
    /// Number of measurements explained by trusted signatures.
    pub signed: usize,
}

impl Verdict {
    /// True when the machine is in a trusted state.
    pub fn is_trusted(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total measurements explained (whitelist + trusted signatures) —
    /// the denominator-free health figure scenario harnesses record.
    pub fn explained(&self) -> usize {
        self.whitelisted + self.signed
    }
}

/// The monitoring system configuration.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Whitelisted file-data hashes (hex) — the classic approach.
    whitelist: BTreeSet<String>,
    /// Signature keys whose signed measurements are accepted — the TSR
    /// integration (Figure 7 step ➎ adds the TSR key here).
    trusted_signers: Vec<RsaPublicKey>,
}

impl Monitor {
    /// An empty monitor (accepts nothing but an empty log).
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Whitelists file contents directly.
    pub fn whitelist_content(&mut self, content: &[u8]) {
        self.whitelist
            .insert(hex::to_hex(&tsr_crypto::Sha256::digest(content)));
    }

    /// Whitelists everything currently in an IMA log (baseline snapshot of
    /// a known-good machine).
    pub fn whitelist_log(&mut self, log: &[ImaEntry]) {
        for e in log {
            self.whitelist.insert(hex::to_hex(&e.filedata_hash));
        }
    }

    /// Trusts a signing key (e.g. the TSR repository key).
    pub fn trust_signer(&mut self, key: RsaPublicKey) {
        self.trusted_signers.push(key);
    }

    /// Number of whitelist entries.
    pub fn whitelist_len(&self) -> usize {
        self.whitelist.len()
    }

    /// Verifies attestation evidence from a machine whose TPM attestation
    /// key is `ak`, for the challenge `nonce`.
    pub fn verify(
        &self,
        evidence: &AttestationEvidence,
        ak: &RsaPublicKey,
        nonce: &[u8],
    ) -> Verdict {
        let mut verdict = Verdict {
            violations: Vec::new(),
            whitelisted: 0,
            signed: 0,
        };

        // 1. Quote authenticity & freshness.
        if let Err(e) = evidence.quote.verify(ak, nonce) {
            verdict
                .violations
                .push(Violation::QuoteInvalid(e.to_string()));
            return verdict;
        }

        // 2. Log replay must reproduce the quoted PCR-10.
        let quoted = match evidence.quote.pcr(IMA_PCR) {
            Some(p) => *p,
            None => {
                verdict
                    .violations
                    .push(Violation::QuoteInvalid("pcr 10 not quoted".into()));
                return verdict;
            }
        };
        if Ima::replay(&evidence.log) != quoted {
            verdict.violations.push(Violation::LogMismatch);
            return verdict;
        }

        // 3. Every measurement must be explained.
        for entry in &evidence.log {
            if entry.path == "boot_aggregate" {
                continue;
            }
            let h = hex::to_hex(&entry.filedata_hash);
            if self.whitelist.contains(&h) {
                verdict.whitelisted += 1;
            } else if entry.signature_verifies(&self.trusted_signers) {
                verdict.signed += 1;
            } else {
                verdict.violations.push(Violation::UnknownMeasurement {
                    path: entry.path.clone(),
                    hash: h,
                });
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsr_crypto::drbg::HmacDrbg;
    use tsr_crypto::RsaPrivateKey;
    use tsr_ima::sign_file_contents;
    use tsr_simfs::SimFs;
    use tsr_tpm::Tpm;

    fn tsr_key() -> &'static RsaPrivateKey {
        static K: OnceLock<RsaPrivateKey> = OnceLock::new();
        K.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"monitor-tsr");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    struct Machine {
        fs: SimFs,
        ima: Ima,
        tpm: Tpm,
    }

    impl Machine {
        fn boot() -> Self {
            let mut tpm = Tpm::new(b"machine");
            let mut ima = Ima::new();
            ima.boot_aggregate(&mut tpm);
            Machine {
                fs: SimFs::new(),
                ima,
                tpm,
            }
        }

        fn write_and_measure(&mut self, path: &str, data: &[u8], sig: Option<Vec<u8>>) {
            self.fs.write_file(path, data.to_vec()).unwrap();
            if let Some(s) = &sig {
                self.fs.set_xattr(path, "security.ima", s.clone()).unwrap();
            }
            self.ima
                .measure_file(&mut self.tpm, &self.fs, path)
                .unwrap();
        }

        fn attest(&self, nonce: &[u8]) -> AttestationEvidence {
            AttestationEvidence {
                quote: self.tpm.quote(&[IMA_PCR], nonce),
                log: self.ima.log().to_vec(),
            }
        }
    }

    #[test]
    fn clean_machine_with_whitelist_trusted() {
        let mut m = Machine::boot();
        m.write_and_measure("/bin/sh", b"shell-v1", None);
        let mut mon = Monitor::new();
        mon.whitelist_content(b"shell-v1");
        let v = mon.verify(&m.attest(b"n1"), m.tpm.attestation_key(), b"n1");
        assert!(v.is_trusted(), "{:?}", v.violations);
        assert_eq!(v.whitelisted, 1);
    }

    #[test]
    fn figure1_false_positive_without_tsr() {
        // A legitimate update changes the hash; the whitelist-only monitor
        // reports a violation — indistinguishable from an attack.
        let mut m = Machine::boot();
        m.write_and_measure("/bin/sh", b"shell-v1", None);
        let mut mon = Monitor::new();
        mon.whitelist_content(b"shell-v1");
        // Update:
        m.write_and_measure("/bin/sh", b"shell-v2", None);
        let v = mon.verify(&m.attest(b"n"), m.tpm.attestation_key(), b"n");
        assert!(!v.is_trusted());
        assert!(matches!(
            v.violations[0],
            Violation::UnknownMeasurement { .. }
        ));
    }

    #[test]
    fn figure1_update_accepted_with_tsr_signature() {
        let mut m = Machine::boot();
        m.write_and_measure("/bin/sh", b"shell-v1", None);
        let mut mon = Monitor::new();
        mon.whitelist_content(b"shell-v1");
        mon.trust_signer(tsr_key().public_key().clone());
        // TSR-sanitized update carries a signature.
        let sig = sign_file_contents(tsr_key(), b"shell-v2");
        m.write_and_measure("/bin/sh", b"shell-v2", Some(sig));
        let v = mon.verify(&m.attest(b"n"), m.tpm.attestation_key(), b"n");
        assert!(v.is_trusted(), "{:?}", v.violations);
        assert_eq!(v.signed, 1);
        assert_eq!(v.whitelisted, 1);
        assert_eq!(v.explained(), 2);
    }

    #[test]
    fn figure1_tampering_still_detected_with_tsr() {
        let mut m = Machine::boot();
        let mut mon = Monitor::new();
        mon.trust_signer(tsr_key().public_key().clone());
        // Adversary modifies the file but keeps the old signature.
        let sig = sign_file_contents(tsr_key(), b"good");
        m.write_and_measure("/bin/su", b"evil", Some(sig));
        let v = mon.verify(&m.attest(b"n"), m.tpm.attestation_key(), b"n");
        assert!(!v.is_trusted());
    }

    #[test]
    fn forged_signature_rejected() {
        let mut m = Machine::boot();
        let mut mon = Monitor::new();
        mon.trust_signer(tsr_key().public_key().clone());
        let mut rng = HmacDrbg::new(b"mallory");
        let mallory = RsaPrivateKey::generate(1024, &mut rng);
        let sig = sign_file_contents(&mallory, b"payload");
        m.write_and_measure("/bin/x", b"payload", Some(sig));
        let v = mon.verify(&m.attest(b"n"), m.tpm.attestation_key(), b"n");
        assert!(!v.is_trusted());
    }

    #[test]
    fn replayed_nonce_rejected() {
        let m = Machine::boot();
        let ev = m.attest(b"old-nonce");
        let mon = Monitor::new();
        let v = mon.verify(&ev, m.tpm.attestation_key(), b"fresh-nonce");
        assert!(matches!(v.violations[0], Violation::QuoteInvalid(_)));
    }

    #[test]
    fn truncated_log_rejected() {
        let mut m = Machine::boot();
        m.write_and_measure("/a", b"1", None);
        m.write_and_measure("/b", b"2", None);
        let mut ev = m.attest(b"n");
        ev.log.pop(); // hide the last measurement
        let mon = Monitor::new();
        let v = mon.verify(&ev, m.tpm.attestation_key(), b"n");
        assert_eq!(v.violations, vec![Violation::LogMismatch]);
    }

    #[test]
    fn wrong_attestation_key_rejected() {
        let m = Machine::boot();
        let other = Tpm::new(b"other");
        let mon = Monitor::new();
        let v = mon.verify(&m.attest(b"n"), other.attestation_key(), b"n");
        assert!(!v.is_trusted());
    }

    #[test]
    fn whitelist_log_baseline() {
        let mut m = Machine::boot();
        m.write_and_measure("/bin/a", b"a", None);
        m.write_and_measure("/bin/b", b"b", None);
        let mut mon = Monitor::new();
        mon.whitelist_log(m.ima.log());
        assert!(mon.whitelist_len() >= 2);
        let v = mon.verify(&m.attest(b"n"), m.tpm.attestation_key(), b"n");
        assert!(v.is_trusted());
    }

    #[test]
    fn violation_display() {
        let v = Violation::UnknownMeasurement {
            path: "/x".into(),
            hash: "ab".into(),
        };
        assert!(v.to_string().contains("/x"));
    }
}
