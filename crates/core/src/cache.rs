//! The package cache with rollback protection (paper §5.5).
//!
//! TSR caches both the original (upstream) and the sanitized version of
//! every package on the *untrusted* disk. An adversary with root access
//! could revert cached files to older versions, so:
//!
//! - every read from the cache is verified against the content hash pinned
//!   by the in-enclave metadata index — the index, never the cached bytes,
//!   decides which hash is right,
//! - the metadata indexes themselves survive restarts via **SGX sealing**
//!   bound to a **TPM monotonic counter**: state is sealed together with
//!   the counter value, and on restore the unsealed value must equal the
//!   hardware counter.
//!
//! [`PackageCache`] is the one resident holder of a tenant's package
//! bytes: the serve-side `HotCache` keeps a bounded set of the same
//! `Arc`s, the blob store keeps files only.

use std::collections::BTreeMap;
use std::sync::Arc;

use tsr_crypto::{hex, Sha256};
use tsr_sgx::{Enclave, SealedBlob};
use tsr_tpm::Tpm;

use crate::error::CoreError;

/// In-memory model of TSR's on-disk package cache.
///
/// Blobs are held as `Arc<[u8]>` shared allocations: a reader derefs for
/// a slice or clones the `Arc`, which is how the HTTP layer serves them
/// zero-copy via [`tsr_http::Body::Shared`].
#[derive(Debug, Clone, Default)]
pub struct PackageCache {
    originals: BTreeMap<String, Arc<[u8]>>,
    sanitized: BTreeMap<String, Arc<[u8]>>,
}

impl PackageCache {
    /// An empty cache.
    pub fn new() -> Self {
        PackageCache::default()
    }

    /// Stores the original upstream blob for `name`.
    pub fn store_original(&mut self, name: &str, blob: impl Into<Arc<[u8]>>) {
        self.originals.insert(name.to_string(), blob.into());
    }

    /// Stores the sanitized blob for `name`.
    pub fn store_sanitized(&mut self, name: &str, blob: impl Into<Arc<[u8]>>) {
        self.sanitized.insert(name.to_string(), blob.into());
    }

    /// The original upstream blob of `name`.
    pub fn original(&self, name: &str) -> Option<&Arc<[u8]>> {
        self.originals.get(name)
    }

    /// The sanitized blob of `name`, unverified: for presence checks and
    /// for carrying bytes whose hash the receiver checks.
    pub fn sanitized(&self, name: &str) -> Option<&Arc<[u8]>> {
        self.sanitized.get(name)
    }

    /// The sanitized blob of `name`, verified against `pinned_hash` (hex
    /// SHA-256 from the in-enclave index) before it is returned — the
    /// untrusted-disk rollback check.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] when the entry is missing,
    /// [`CoreError::RollbackDetected`] when the bytes do not match.
    pub fn sanitized_verified(
        &self,
        name: &str,
        pinned_hash: &str,
    ) -> Result<&Arc<[u8]>, CoreError> {
        let blob = self
            .sanitized(name)
            .ok_or_else(|| CoreError::NotFound(format!("package {name} not cached")))?;
        if hex::to_hex(&Sha256::digest(blob)) != pinned_hash {
            return Err(CoreError::RollbackDetected(format!(
                "cached package {name} does not match the sealed index"
            )));
        }
        Ok(blob)
    }

    /// Whether the original of `name` is cached with exactly `hash`.
    pub fn original_matches(&self, name: &str, hash: &str) -> bool {
        self.originals
            .get(name)
            .map(|b| hex::to_hex(&Sha256::digest(b)) == hash)
            .unwrap_or(false)
    }

    /// Drops the sanitized entry (e.g. when the universe changed).
    pub fn invalidate_sanitized(&mut self, name: &str) {
        self.sanitized.remove(name);
    }

    /// Drops entries for packages no longer in the upstream index.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.originals.retain(|k, _| keep(k));
        self.sanitized.retain(|k, _| keep(k));
    }

    /// Number of cached originals / sanitized blobs.
    pub fn stats(&self) -> (usize, usize) {
        (self.originals.len(), self.sanitized.len())
    }
}

/// State sealed across TSR restarts: both metadata indexes plus the
/// monotonic-counter value they were sealed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedState {
    /// Upstream index text (tracks what was sanitized).
    pub upstream_index: String,
    /// Sanitized index text (what TSR serves).
    pub sanitized_index: String,
    /// TPM monotonic counter value at seal time.
    pub counter: u64,
}

impl SealedState {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.counter.to_be_bytes());
        out.extend_from_slice(&(self.upstream_index.len() as u64).to_be_bytes());
        out.extend_from_slice(self.upstream_index.as_bytes());
        out.extend_from_slice(self.sanitized_index.as_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < 16 {
            return Err(CoreError::SealedState("truncated".into()));
        }
        let counter = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        let ulen = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
        // `ulen` comes from the blob: a prefix near `usize::MAX` must not
        // wrap past the length check.
        let split = usize::try_from(ulen)
            .ok()
            .and_then(|ulen| ulen.checked_add(16))
            .filter(|&split| split <= bytes.len())
            .ok_or_else(|| CoreError::SealedState("truncated index".into()))?;
        let upstream_index = String::from_utf8(bytes[16..split].to_vec())
            .map_err(|_| CoreError::SealedState("non-utf8 index".into()))?;
        let sanitized_index = String::from_utf8(bytes[split..].to_vec())
            .map_err(|_| CoreError::SealedState("non-utf8 index".into()))?;
        Ok(SealedState {
            upstream_index,
            sanitized_index,
            counter,
        })
    }

    /// Seals this state: increments the monotonic counter, binds the new
    /// value into the blob, and encrypts it for (enclave, CPU).
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when the counter is invalid.
    pub fn seal(
        mut self,
        enclave: &Enclave<'_>,
        tpm: &mut Tpm,
        counter_id: u32,
    ) -> Result<Vec<u8>, CoreError> {
        let value = tpm
            .increment_counter(counter_id)
            .map_err(|e| CoreError::SealedState(e.to_string()))?;
        self.counter = value;
        Ok(enclave.seal(&self.encode()).to_bytes())
    }

    /// Decrypts and authenticates a sealed blob **without** the hardware
    /// counter check, returning the counter value bound inside it. Used to
    /// vet replicated seals pushed by cluster peers *before* committing
    /// anything: a forged blob fails here, so it never reaches the WAL and
    /// never advances the local TPM counter.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] for malformed or undecryptable blobs.
    pub fn peek(blob_bytes: &[u8], enclave: &Enclave<'_>) -> Result<u64, CoreError> {
        let blob = SealedBlob::from_bytes(blob_bytes)
            .ok_or_else(|| CoreError::SealedState("malformed sealed blob".into()))?;
        let plain = enclave
            .unseal(&blob)
            .map_err(|e| CoreError::SealedState(e.to_string()))?;
        Ok(Self::decode(&plain)?.counter)
    }

    /// Unseals and validates state after a restart: the sealed counter must
    /// equal the current hardware counter, otherwise an adversary replaced
    /// the sealed file with an older one.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] for undecryptable blobs,
    /// [`CoreError::RollbackDetected`] when counters do not match.
    pub fn unseal(
        blob_bytes: &[u8],
        enclave: &Enclave<'_>,
        tpm: &Tpm,
        counter_id: u32,
    ) -> Result<Self, CoreError> {
        let blob = SealedBlob::from_bytes(blob_bytes)
            .ok_or_else(|| CoreError::SealedState("malformed sealed blob".into()))?;
        let plain = enclave
            .unseal(&blob)
            .map_err(|e| CoreError::SealedState(e.to_string()))?;
        let state = Self::decode(&plain)?;
        let current = tpm
            .read_counter(counter_id)
            .map_err(|e| CoreError::SealedState(e.to_string()))?;
        if state.counter != current {
            return Err(CoreError::RollbackDetected(format!(
                "sealed counter {} != hardware counter {}",
                state.counter, current
            )));
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsr_sgx::Cpu;

    #[test]
    fn cache_store_read() {
        let mut c = PackageCache::new();
        c.store_original("a", vec![1; 100]);
        c.store_sanitized("a", vec![2; 120]);
        assert_eq!(c.original("a").unwrap()[..], [1; 100]);
        assert_eq!(c.sanitized("a").unwrap()[..], [2; 120]);
        assert!(c.original("b").is_none() && c.sanitized("b").is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn verified_read_detects_tamper() {
        let mut c = PackageCache::new();
        let blob = vec![7u8; 64];
        let h = hex::to_hex(&Sha256::digest(&blob));
        c.store_sanitized("p", blob);
        assert!(c.sanitized_verified("p", &h).is_ok());
        c.store_sanitized("p", vec![0u8; 64]);
        assert!(matches!(
            c.sanitized_verified("p", &h),
            Err(CoreError::RollbackDetected(_))
        ));
        assert!(matches!(
            c.sanitized_verified("missing", &h),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn original_match_check() {
        let mut c = PackageCache::new();
        let blob = vec![5u8; 10];
        let h = hex::to_hex(&Sha256::digest(&blob));
        c.store_original("p", blob);
        assert!(c.original_matches("p", &h));
        assert!(!c.original_matches("p", &"0".repeat(64)));
        assert!(!c.original_matches("q", &h));
    }

    #[test]
    fn retain_and_invalidate() {
        let mut c = PackageCache::new();
        c.store_original("a", vec![1]);
        c.store_sanitized("a", vec![1]);
        c.store_original("b", vec![2]);
        c.invalidate_sanitized("a");
        assert_eq!(c.stats(), (2, 0));
        c.retain(|n| n == "a");
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn sealed_state_roundtrip() {
        let cpu = Cpu::new(b"c");
        let enclave = cpu.load_enclave(b"tsr");
        let mut tpm = Tpm::new(b"t");
        let cid = tpm.create_counter();
        let state = SealedState {
            upstream_index: "X:1\n".into(),
            sanitized_index: "X:1\nP:a\n".into(),
            counter: 0,
        };
        let blob = state.clone().seal(&enclave, &mut tpm, cid).unwrap();
        let restored = SealedState::unseal(&blob, &enclave, &tpm, cid).unwrap();
        assert_eq!(restored.upstream_index, "X:1\n");
        assert_eq!(restored.counter, 1);
    }

    #[test]
    fn sealed_state_rollback_detected() {
        let cpu = Cpu::new(b"c");
        let enclave = cpu.load_enclave(b"tsr");
        let mut tpm = Tpm::new(b"t");
        let cid = tpm.create_counter();
        let old = SealedState {
            upstream_index: "old".into(),
            sanitized_index: "old".into(),
            counter: 0,
        }
        .seal(&enclave, &mut tpm, cid)
        .unwrap();
        // A newer seal bumps the counter…
        let _new = SealedState {
            upstream_index: "new".into(),
            sanitized_index: "new".into(),
            counter: 0,
        }
        .seal(&enclave, &mut tpm, cid)
        .unwrap();
        // …so replaying the old blob is detected.
        assert!(matches!(
            SealedState::unseal(&old, &enclave, &tpm, cid),
            Err(CoreError::RollbackDetected(_))
        ));
    }

    #[test]
    fn sealed_state_wrong_enclave_rejected() {
        let cpu = Cpu::new(b"c");
        let enclave = cpu.load_enclave(b"tsr");
        let evil = cpu.load_enclave(b"evil");
        let mut tpm = Tpm::new(b"t");
        let cid = tpm.create_counter();
        let blob = SealedState {
            upstream_index: String::new(),
            sanitized_index: String::new(),
            counter: 0,
        }
        .seal(&enclave, &mut tpm, cid)
        .unwrap();
        assert!(matches!(
            SealedState::unseal(&blob, &evil, &tpm, cid),
            Err(CoreError::SealedState(_))
        ));
    }

    #[test]
    fn sealed_state_with_an_oversized_length_prefix_is_rejected() {
        let cpu = Cpu::new(b"c");
        let enclave = cpu.load_enclave(b"tsr");
        // What a peer holding the platform sealing key can push: a valid
        // seal over a payload whose index length prefix wraps `16 + ulen`.
        for ulen in [u64::MAX, u64::MAX - 7, 1 << 40] {
            let mut payload = 7u64.to_be_bytes().to_vec();
            payload.extend_from_slice(&ulen.to_be_bytes());
            payload.extend_from_slice(b"X:1\n");
            let blob = enclave.seal(&payload).to_bytes();
            assert!(matches!(
                SealedState::peek(&blob, &enclave),
                Err(CoreError::SealedState(m)) if m == "truncated index"
            ));
        }
    }

    #[test]
    fn sealed_state_garbage_rejected() {
        let cpu = Cpu::new(b"c");
        let enclave = cpu.load_enclave(b"tsr");
        let tpm = Tpm::new(b"t");
        assert!(SealedState::unseal(&[1, 2], &enclave, &tpm, 0).is_err());
    }
}
