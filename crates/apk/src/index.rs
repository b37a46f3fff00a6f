//! The repository metadata index (APKINDEX analogue).
//!
//! The index lists every package with its size and content hash, and is
//! digitally signed. Package managers use it to learn the latest versions
//! (§2.1) and to pin the exact bytes of each package, which mitigates the
//! endless-data and extraneous-dependencies attacks (§5.4). TSR establishes
//! a quorum over this index across mirrors (§4.5).

use std::collections::BTreeMap;

use crate::error::PackageError;
use tsr_archive::{Archive, Entry};
use tsr_compress::gzip;
use tsr_crypto::{hex, RsaPrivateKey, RsaPublicKey, Sha256};

/// One package record inside the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Package name.
    pub name: String,
    /// Package version (lexicographically comparable in our workloads).
    pub version: String,
    /// Size in bytes of the package blob.
    pub size: u64,
    /// Hex SHA-256 of the package blob.
    pub content_hash: String,
    /// Dependency names.
    pub depends: Vec<String>,
}

/// The repository metadata index: package name → record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Index {
    entries: BTreeMap<String, IndexEntry>,
    /// Monotonically increasing snapshot counter set by the repository
    /// (used to detect stale mirrors / replay attacks).
    pub snapshot: u64,
}

impl Index {
    /// Creates an empty index.
    pub fn new() -> Self {
        Index::default()
    }

    /// Adds or replaces a record.
    pub fn upsert(&mut self, entry: IndexEntry) {
        self.entries.insert(entry.name.clone(), entry);
    }

    /// Removes a record, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<IndexEntry> {
        self.entries.remove(name)
    }

    /// Looks up a record by package name.
    pub fn get(&self, name: &str) -> Option<&IndexEntry> {
        self.entries.get(name)
    }

    /// Number of packages listed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no packages are listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates records in name order.
    pub fn iter(&self) -> impl Iterator<Item = &IndexEntry> {
        self.entries.values()
    }

    /// Serializes to the line-oriented APKINDEX-like text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("X:{}\n\n", self.snapshot);
        for e in self.entries.values() {
            out.push_str(&format!("P:{}\n", e.name));
            out.push_str(&format!("V:{}\n", e.version));
            out.push_str(&format!("S:{}\n", e.size));
            out.push_str(&format!("H:{}\n", e.content_hash));
            if !e.depends.is_empty() {
                out.push_str(&format!("D:{}\n", e.depends.join(" ")));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`PackageError::InvalidMeta`] on malformed records.
    pub fn parse(text: &str) -> Result<Self, PackageError> {
        let mut index = Index::new();
        let mut cur: Option<IndexEntry> = None;
        for line in text.lines() {
            if line.is_empty() {
                if let Some(e) = cur.take() {
                    index.validate_and_insert(e)?;
                }
                continue;
            }
            let (tag, value) = line.split_once(':').ok_or_else(|| {
                PackageError::InvalidMeta(format!("index line without ':': {line:?}"))
            })?;
            match tag {
                "X" => {
                    index.snapshot = value.parse().map_err(|_| {
                        PackageError::InvalidMeta(format!("bad snapshot {value:?}"))
                    })?;
                }
                "P" => {
                    if let Some(e) = cur.take() {
                        index.validate_and_insert(e)?;
                    }
                    cur = Some(IndexEntry {
                        name: value.to_string(),
                        version: String::new(),
                        size: 0,
                        content_hash: String::new(),
                        depends: Vec::new(),
                    });
                }
                "V" | "S" | "H" | "D" => {
                    let e = cur
                        .as_mut()
                        .ok_or_else(|| PackageError::InvalidMeta(format!("{tag}: before P:")))?;
                    match tag {
                        "V" => e.version = value.to_string(),
                        "H" => e.content_hash = value.to_string(),
                        "S" => {
                            e.size = value.parse().map_err(|_| {
                                PackageError::InvalidMeta(format!("bad size {value:?}"))
                            })?;
                        }
                        "D" => {
                            e.depends = value.split_whitespace().map(String::from).collect();
                        }
                        _ => unreachable!(),
                    }
                }
                _ => {} // unknown tags ignored for forward compatibility
            }
        }
        if let Some(e) = cur.take() {
            index.validate_and_insert(e)?;
        }
        Ok(index)
    }

    fn validate_and_insert(&mut self, e: IndexEntry) -> Result<(), PackageError> {
        if e.version.is_empty() {
            return Err(PackageError::InvalidMeta(format!(
                "package {} missing version",
                e.name
            )));
        }
        if hex::from_hex(&e.content_hash).is_none_or(|h| h.len() != 32) {
            return Err(PackageError::InvalidMeta(format!(
                "package {} has invalid content hash",
                e.name
            )));
        }
        self.entries.insert(e.name.clone(), e);
        Ok(())
    }

    /// Builds an [`IndexEntry`] for a package blob.
    pub fn entry_for_blob(
        name: &str,
        version: &str,
        depends: &[String],
        blob: &[u8],
    ) -> IndexEntry {
        IndexEntry {
            name: name.to_string(),
            version: version.to_string(),
            size: blob.len() as u64,
            content_hash: hex::to_hex(&Sha256::digest(blob)),
            depends: depends.to_vec(),
        }
    }

    /// Signs the index, producing a two-segment blob
    /// (signature segment ‖ index segment) like a package header.
    pub fn sign(&self, key: &RsaPrivateKey, signer: &str) -> Vec<u8> {
        let index_tar = Archive::build(vec![Entry::file("APKINDEX", self.to_text().into_bytes())]);
        let index_segment = gzip::compress(&index_tar);
        let signature = key.sign_pkcs1_sha256(&index_segment);
        let sig_tar = Archive::build(vec![Entry::file(
            format!("{}{signer}", crate::package::SIGN_PREFIX),
            signature,
        )]);
        let mut blob = gzip::compress(&sig_tar);
        blob.extend_from_slice(&index_segment);
        blob
    }

    /// Parses a signed index blob **and** verifies the signature against any
    /// of the trusted `keys`.
    ///
    /// # Errors
    ///
    /// [`PackageError::SignatureInvalid`] when no trusted key matches,
    /// plus decoding errors for malformed blobs.
    pub fn parse_signed(
        blob: &[u8],
        keys: &[(String, RsaPublicKey)],
    ) -> Result<Self, PackageError> {
        let (sig_bytes, sig_len) =
            gzip::decompress_member_capped(blob, crate::package::SIGNATURE_SEGMENT_CAP)?;
        let index_segment = &blob[sig_len..];
        if index_segment.is_empty() {
            return Err(PackageError::Malformed("missing index segment".into()));
        }
        let sig_archive = Archive::parse(&sig_bytes)?;
        let sign_entry = sig_archive
            .entries()
            .iter()
            .find(|e| e.path.starts_with(crate::package::SIGN_PREFIX))
            .ok_or_else(|| PackageError::Malformed("missing .SIGN.RSA file".into()))?;
        let signer = &sign_entry.path[crate::package::SIGN_PREFIX.len()..];

        let mut verified = false;
        for (name, key) in keys {
            if name == signer
                && key
                    .verify_pkcs1_sha256(index_segment, &sign_entry.data)
                    .is_ok()
            {
                verified = true;
                break;
            }
        }
        if !verified {
            for (_, key) in keys {
                if key
                    .verify_pkcs1_sha256(index_segment, &sign_entry.data)
                    .is_ok()
                {
                    verified = true;
                    break;
                }
            }
        }
        if !verified {
            return Err(PackageError::SignatureInvalid(
                "index signature does not match any trusted key".into(),
            ));
        }

        let index_tar = gzip::decompress(index_segment)?;
        let archive = Archive::parse(&index_tar)?;
        let apkindex = archive
            .entry("APKINDEX")
            .ok_or_else(|| PackageError::Malformed("missing APKINDEX file".into()))?;
        Index::parse(&String::from_utf8_lossy(&apkindex.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsr_crypto::drbg::HmacDrbg;

    fn key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"index-test-key");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    fn sample_index() -> Index {
        let mut idx = Index::new();
        idx.snapshot = 42;
        idx.upsert(Index::entry_for_blob("musl", "1.2.0", &[], b"musl-blob"));
        idx.upsert(Index::entry_for_blob(
            "openssl",
            "1.1.1g-r0",
            &["musl".to_string()],
            b"openssl-blob",
        ));
        idx
    }

    #[test]
    fn text_roundtrip() {
        let idx = sample_index();
        let parsed = Index::parse(&idx.to_text()).unwrap();
        assert_eq!(parsed, idx);
    }

    #[test]
    fn lookup_and_iteration() {
        let idx = sample_index();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get("musl").unwrap().version, "1.2.0");
        assert!(idx.get("nope").is_none());
        let names: Vec<&str> = idx.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["musl", "openssl"]); // BTreeMap order
    }

    #[test]
    fn upsert_replaces() {
        let mut idx = sample_index();
        idx.upsert(Index::entry_for_blob("musl", "1.3.0", &[], b"new"));
        assert_eq!(idx.get("musl").unwrap().version, "1.3.0");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn parse_rejects_missing_version() {
        let text = "P:x\nS:1\nH:aa\n\n";
        assert!(Index::parse(text).is_err());
    }

    #[test]
    fn parse_rejects_bad_hash() {
        let text = "P:x\nV:1\nS:1\nH:zz\n\n";
        assert!(Index::parse(text).is_err());
        let short = "P:x\nV:1\nS:1\nH:abcd\n\n";
        assert!(Index::parse(short).is_err());
    }

    #[test]
    fn sign_and_verify_roundtrip() {
        let idx = sample_index();
        let blob = idx.sign(key(), "tsr@example.org");
        let keys = vec![("tsr@example.org".to_string(), key().public_key().clone())];
        let parsed = Index::parse_signed(&blob, &keys).unwrap();
        assert_eq!(parsed, idx);
    }

    #[test]
    fn signed_index_rejects_wrong_key() {
        let idx = sample_index();
        let blob = idx.sign(key(), "tsr");
        let mut rng = HmacDrbg::new(b"wrong");
        let wrong = RsaPrivateKey::generate(1024, &mut rng);
        let keys = vec![("tsr".to_string(), wrong.public_key().clone())];
        assert!(matches!(
            Index::parse_signed(&blob, &keys),
            Err(PackageError::SignatureInvalid(_))
        ));
    }

    #[test]
    fn signed_index_rejects_tamper() {
        let idx = sample_index();
        let blob = idx.sign(key(), "tsr");
        let keys = vec![("tsr".to_string(), key().public_key().clone())];
        // Tamper with the tail (index segment area).
        let mut bad = blob.clone();
        let n = bad.len();
        bad[n - 20] ^= 0x40;
        assert!(Index::parse_signed(&bad, &keys).is_err());
    }

    #[test]
    fn a_signature_member_bomb_stops_at_the_cap() {
        // Each mirror reply is parsed before its signature is checked.
        let mut blob = crate::package::tests::inflation_bomb(4_000);
        blob.extend_from_slice(&gzip::compress(b"any index segment"));
        let keys = vec![("t".to_string(), key().public_key().clone())];
        crate::package::tests::assert_capped(Index::parse_signed(&blob, &keys));
    }

    #[test]
    fn snapshot_survives_signing() {
        let mut idx = sample_index();
        idx.snapshot = 777;
        let blob = idx.sign(key(), "t");
        let keys = vec![("t".to_string(), key().public_key().clone())];
        assert_eq!(Index::parse_signed(&blob, &keys).unwrap().snapshot, 777);
    }

    #[test]
    fn empty_index_roundtrip() {
        let idx = Index::new();
        assert!(idx.is_empty());
        let parsed = Index::parse(&idx.to_text()).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn entry_for_blob_hashes() {
        let e = Index::entry_for_blob("a", "1", &[], b"bytes");
        assert_eq!(e.size, 5);
        assert_eq!(e.content_hash.len(), 64);
    }
}
