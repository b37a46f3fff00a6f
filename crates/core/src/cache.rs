//! The package cache with rollback protection (paper §5.5).
//!
//! TSR caches both the original (upstream) and the sanitized version of
//! every package on the *untrusted* disk. An adversary with root access
//! could revert cached files to older versions, so:
//!
//! - the cache is keyed by the content hashes the in-enclave metadata
//!   index pins, and bytes are re-hashed against that key whenever they
//!   are used: every serve, and every original a refresh parses or
//!   sanitizes (a refresh does not touch an original it keeps as the
//!   previous index pinned it) — the index, never the cached bytes,
//!   decides which hash is right,
//! - the metadata indexes themselves survive restarts via **SGX sealing**
//!   bound to a **TPM monotonic counter**: state is sealed together with
//!   the counter value, and on restore the unsealed value must equal the
//!   hardware counter.
//!
//! [`PackageCache`] is the one resident holder of a tenant's package
//! bytes, keyed like every other holder — the indexes, the blob store,
//! a replication push — by content hash. What it holds after a refresh
//! or an install is exactly the hashes the two indexes pin
//! (`TsrRepository::pins`). The serve-side `HotCache` aliases the `Arc`s
//! of the versions it has served, the blob store keeps files only.

use std::collections::BTreeMap;
use std::sync::Arc;

use tsr_apk::Index;
use tsr_crypto::{hex, Sha256};
use tsr_sgx::{Enclave, SealedBlob};
use tsr_tpm::Tpm;

use crate::error::CoreError;

/// In-memory model of TSR's on-disk package cache: hex SHA-256 → blob,
/// for originals and sanitized blobs alike.
///
/// Blobs are held as `Arc<[u8]>` shared allocations: a reader derefs for
/// a slice or clones the `Arc`, which is how the HTTP layer serves them
/// zero-copy via [`tsr_http::Body::Shared`].
#[derive(Debug, Clone, Default)]
pub struct PackageCache {
    blobs: BTreeMap<String, Arc<[u8]>>,
}

impl PackageCache {
    /// An empty cache.
    pub fn new() -> Self {
        PackageCache::default()
    }

    /// Stores `blob` under `hash`. The key is the caller's claim; only
    /// [`Self::verified`] checks it.
    pub fn insert(&mut self, hash: &str, blob: impl Into<Arc<[u8]>>) {
        self.blobs.insert(hash.to_string(), blob.into());
    }

    /// The blob stored under `hash`, unverified: for presence checks and
    /// for carrying bytes whose hash the receiver checks.
    pub fn get(&self, hash: &str) -> Option<&Arc<[u8]>> {
        self.blobs.get(hash)
    }

    /// The blob stored under `hash` (hex SHA-256 pinned by the in-enclave
    /// index), hashed again before it is returned — the untrusted-disk
    /// rollback check, run by every serve and by a refresh for each
    /// original it reads; it does not repair, the caller re-downloads.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] when the entry is missing,
    /// [`CoreError::RollbackDetected`] when the bytes do not match.
    pub fn verified(&self, hash: &str) -> Result<&Arc<[u8]>, CoreError> {
        let blob = self
            .get(hash)
            .ok_or_else(|| CoreError::NotFound(format!("blob {hash} not cached")))?;
        if hex::to_hex(&Sha256::digest(blob)) != hash {
            return Err(CoreError::RollbackDetected(format!(
                "cached blob {hash} does not match the sealed index"
            )));
        }
        Ok(blob)
    }

    /// Drops every entry whose hash `keep` refuses.
    pub(crate) fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.blobs.retain(|hash, _| keep(hash));
    }

    /// Number of cached blobs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.blobs.len()
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

    /// The upstream and sanitized indexes, parsed (`None` for an empty
    /// text: before the first refresh).
    ///
    /// # Errors
    ///
    /// [`CoreError::Package`] when an index does not parse.
    pub(crate) fn indexes(&self) -> Result<(Option<Index>, Option<Index>), CoreError> {
        let parse = |text: &str| (!text.is_empty()).then(|| Index::parse(text)).transpose();
        Ok((parse(&self.upstream_index)?, parse(&self.sanitized_index)?))
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
    /// counter check, returning the state bound inside it: the counter
    /// value and the indexes. Used to vet replicated seals pushed by
    /// cluster peers *before* committing anything: a forged blob fails
    /// here, so it never reaches the WAL and never advances the local TPM
    /// counter, and the indexes say which blobs the push must complete.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] for malformed or undecryptable blobs.
    pub fn peek(blob_bytes: &[u8], enclave: &Enclave<'_>) -> Result<Self, CoreError> {
        let blob = SealedBlob::from_bytes(blob_bytes)
            .ok_or_else(|| CoreError::SealedState("malformed sealed blob".into()))?;
        let plain = enclave
            .unseal(&blob)
            .map_err(|e| CoreError::SealedState(e.to_string()))?;
        Self::decode(&plain)
    }

    /// Unseals and validates state after a restart: [`Self::peek`], then
    /// the sealed counter must equal the current hardware counter,
    /// otherwise an adversary replaced the sealed file with an older one.
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
        let state = Self::peek(blob_bytes, enclave)?;
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
    fn cache_is_keyed_and_verified_by_content_hash() {
        let mut c = PackageCache::new();
        let blob = vec![7u8; 64];
        let h = hex::to_hex(&Sha256::digest(&blob));
        let other = hex::to_hex(&Sha256::digest(&[5u8; 10]));
        c.insert(&h, blob.clone());
        c.insert(&other, vec![5u8; 10]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&h).unwrap()[..], blob[..]);
        assert_eq!(c.verified(&h).unwrap()[..], blob[..]);
        // Bytes rewritten under the pinned hash are caught by the
        // verified read only.
        c.insert(&h, vec![0u8; 64]);
        assert!(c.get(&h).is_some());
        assert!(matches!(
            c.verified(&h),
            Err(CoreError::RollbackDetected(_))
        ));
        assert!(matches!(
            c.verified(&"0".repeat(64)),
            Err(CoreError::NotFound(_))
        ));
        c.retain(|hash| hash == other);
        assert_eq!(c.len(), 1);
        assert!(c.get(&h).is_none() && c.verified(&other).is_ok());
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
