//! Typed WAL records and their binary codec.
//!
//! One record per service-level state mutation; a refresh is one
//! [`WalRecord::SealUpdated`]. Records carry the policy text and the
//! sealed metadata blob only: the seal is the one durable copy of a
//! repository's indexes, and package bytes live in the content-addressed
//! blob store under the hashes those indexes pin.
//!
//! The encoding is a tag byte followed by length-prefixed fields
//! (`u32 LE` lengths, `u64 LE` integers), the same style as the sealed
//! state in `tsr-core`. The frame layer ([`crate::wal`]) adds the length
//! prefix and checksum around the whole record.

use crate::StoreError;

/// One durable state mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A repository was created under a deployed policy.
    RepoCreated {
        /// Repository id (`repo-N`; recovery re-derives the id counter
        /// from the largest `N` seen).
        id: String,
        /// The policy document as deployed.
        policy_text: String,
    },
    /// A repository was deleted.
    RepoDeleted {
        /// Repository id.
        id: String,
    },
    /// The TPM-counter-bound sealed metadata blob was rewritten.
    SealUpdated {
        /// Repository id.
        id: String,
        /// The sealed blob as written to the untrusted disk.
        sealed: Vec<u8>,
        /// The TPM monotonic-counter value bound into the blob; recovery
        /// replays the hardware counter up to this value before
        /// unsealing.
        counter: u64,
    },
}

const TAG_REPO_CREATED: u8 = 1;
const TAG_REPO_DELETED: u8 = 2;
// Tag 3 (a plaintext copy of the index texts beside the seal) is retired
// and decodes as an unknown tag.
const TAG_SEAL_UPDATED: u8 = 4;

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A cursor over encoded record bytes.
pub(crate) struct Reader<'b> {
    bytes: &'b [u8],
    off: usize,
}

impl<'b> Reader<'b> {
    pub(crate) fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], StoreError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StoreError::Corrupt("record field overruns payload".into()))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, StoreError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| StoreError::Corrupt("non-utf8 record field".into()))
    }

    pub(crate) fn done(&self) -> Result<(), StoreError> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt("trailing bytes after record".into()))
        }
    }
}

impl WalRecord {
    /// Encodes the record payload (the frame layer wraps it).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::RepoCreated { id, policy_text } => {
                out.push(TAG_REPO_CREATED);
                put_str(&mut out, id);
                put_str(&mut out, policy_text);
            }
            WalRecord::RepoDeleted { id } => {
                out.push(TAG_REPO_DELETED);
                put_str(&mut out, id);
            }
            WalRecord::SealUpdated {
                id,
                sealed,
                counter,
            } => {
                out.push(TAG_SEAL_UPDATED);
                put_str(&mut out, id);
                put_bytes(&mut out, sealed);
                out.extend_from_slice(&counter.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one record payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for unknown tags, truncated fields, or
    /// trailing garbage (the frame checksum makes these unreachable for
    /// disk corruption; decode errors indicate a version mismatch).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StoreError> {
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| StoreError::Corrupt("empty record".into()))?;
        let mut r = Reader::new(rest);
        let record = match tag {
            TAG_REPO_CREATED => WalRecord::RepoCreated {
                id: r.string()?,
                policy_text: r.string()?,
            },
            TAG_REPO_DELETED => WalRecord::RepoDeleted { id: r.string()? },
            TAG_SEAL_UPDATED => WalRecord::SealUpdated {
                id: r.string()?,
                sealed: r.bytes()?,
                counter: r.u64()?,
            },
            t => return Err(StoreError::Corrupt(format!("unknown record tag {t}"))),
        };
        r.done()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::RepoCreated {
                id: "repo-1".into(),
                policy_text: "mirrors:\n - hostname: m0\nf: 1\n".into(),
            },
            WalRecord::RepoDeleted {
                id: "repo-1".into(),
            },
            WalRecord::SealUpdated {
                id: "repo-2".into(),
                sealed: vec![0, 1, 2, 255],
                counter: 7,
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for rec in samples() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    #[test]
    fn truncated_and_trailing_rejected() {
        for rec in samples() {
            let enc = rec.encode();
            assert!(WalRecord::decode(&enc[..enc.len() - 1]).is_err());
            let mut padded = enc.clone();
            padded.push(0);
            assert!(WalRecord::decode(&padded).is_err());
        }
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
    }
}
