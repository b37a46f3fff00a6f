//! The three-segment package format (Figure 3 of the paper).
//!
//! A package is three concatenated gzip-compressed tar archives, mirroring
//! the Alpine `.apk` layout:
//!
//! 1. **signature segment** — `.SIGN.RSA.<signer>` holding an RSA signature
//!    issued over the *compressed control segment bytes*,
//! 2. **control segment** — `.PKGINFO` metadata plus optional
//!    `.pre-install` / `.post-install` / `.pre-upgrade` / `.post-upgrade`
//!    scripts,
//! 3. **data segment** — the software-specific files, whose SHA-256 (over
//!    the compressed segment) is pinned by `datahash` in `.PKGINFO`.
//!
//! Verifying the header signature therefore authenticates the control
//! segment, which in turn pins the data segment — exactly the chain the
//! paper describes.

use crate::error::PackageError;
use crate::meta::{InstallScripts, PackageMeta};
use tsr_archive::{Archive, Entry};
use tsr_compress::gzip;
use tsr_crypto::{hex, RsaPrivateKey, RsaPublicKey, Sha256};

/// Prefix of the signature file inside the signature segment.
pub const SIGN_PREFIX: &str = ".SIGN.RSA.";

/// Most bytes a signature segment may inflate to. It holds one tar entry
/// with one signature of at most 512 bytes, about 2 KiB in all, and it is
/// inflated before anything is verified, so this bounds what unauthenticated
/// bytes can make a reader allocate.
pub(crate) const SIGNATURE_SEGMENT_CAP: usize = 64 * 1024;

/// A parsed package.
#[derive(Debug, Clone)]
pub struct Package {
    /// Name of the signer key (the suffix of the `.SIGN.RSA.<name>` file).
    pub signer: String,
    /// RSA signature over the compressed control segment.
    pub signature: Vec<u8>,
    /// Parsed `.PKGINFO`.
    pub meta: PackageMeta,
    /// Installation scripts from the control segment.
    pub scripts: InstallScripts,
    /// Files of the data segment.
    pub files: Vec<Entry>,
    /// Raw compressed control segment (signature target).
    pub control_segment: Vec<u8>,
    /// Raw compressed data segment (datahash target).
    pub data_segment: Vec<u8>,
}

/// The signature and control segments of a package, parsed: everything
/// [`Package::parse`] reads before the data segment.
struct Head {
    signer: String,
    signature: Vec<u8>,
    meta: PackageMeta,
    scripts: InstallScripts,
    /// Offset of the control segment in the blob.
    control_start: usize,
    /// Offset of the data segment in the blob (its non-empty tail).
    data_start: usize,
}

impl Head {
    /// Parses the first two segments of `blob` and checks that a data
    /// segment follows them, without decompressing it.
    fn parse(blob: &[u8]) -> Result<Self, PackageError> {
        let (sig_bytes, control_start) =
            gzip::decompress_member_capped(blob, SIGNATURE_SEGMENT_CAP)?;
        let (control_bytes, control_len) = gzip::decompress_member(&blob[control_start..])?;
        let data_start = control_start + control_len;
        if data_start == blob.len() {
            return Err(PackageError::Malformed("missing data segment".into()));
        }

        // Signature segment: exactly one .SIGN.RSA.<signer> file.
        let sig_archive = Archive::parse(&sig_bytes)?;
        let sign_entry = sig_archive
            .entries()
            .iter()
            .find(|e| e.path.starts_with(SIGN_PREFIX))
            .ok_or_else(|| PackageError::Malformed("missing .SIGN.RSA file".into()))?;
        let signer = sign_entry.path[SIGN_PREFIX.len()..].to_string();
        let signature = sign_entry.data.clone();

        // Control segment: .PKGINFO + scripts.
        let control_archive = Archive::parse(&control_bytes)?;
        let pkginfo = control_archive
            .entry(".PKGINFO")
            .ok_or_else(|| PackageError::Malformed("missing .PKGINFO".into()))?;
        let meta = PackageMeta::parse(&String::from_utf8_lossy(&pkginfo.data))?;
        let script = |name: &str| {
            control_archive
                .entry(name)
                .map(|e| String::from_utf8_lossy(&e.data).into_owned())
        };
        let scripts = InstallScripts {
            pre_install: script(".pre-install"),
            post_install: script(".post-install"),
            pre_upgrade: script(".pre-upgrade"),
            post_upgrade: script(".post-upgrade"),
        };
        Ok(Head {
            signer,
            signature,
            meta,
            scripts,
            control_start,
            data_start,
        })
    }
}

/// Reads a package's installation scripts from its control segment alone:
/// the signature and control segments are decompressed and parsed, the
/// data segment is not touched. This is what the repository-wide
/// user/group pre-pass needs, at a cost independent of the package size.
///
/// # Errors
///
/// Returns [`PackageError`] for every defect [`Package::parse`] finds
/// before the data segment, a missing data segment included. A damaged
/// data segment is not detected.
pub fn read_scripts(blob: &[u8]) -> Result<InstallScripts, PackageError> {
    Head::parse(blob).map(|head| head.scripts)
}

impl Package {
    /// Parses a three-segment package blob.
    ///
    /// # Errors
    ///
    /// Returns [`PackageError`] when segments are missing or undecodable.
    pub fn parse(blob: &[u8]) -> Result<Self, PackageError> {
        let head = Head::parse(blob)?;
        let data_segment = blob[head.data_start..].to_vec();
        let files = Archive::parse(&gzip::decompress(&data_segment)?)?.into_entries();
        Ok(Package {
            signer: head.signer,
            signature: head.signature,
            meta: head.meta,
            scripts: head.scripts,
            files,
            control_segment: blob[head.control_start..head.data_start].to_vec(),
            data_segment,
        })
    }

    /// Verifies the signature chain with `key`:
    /// header signature over the control segment, then `datahash` over the
    /// data segment.
    ///
    /// # Errors
    ///
    /// [`PackageError::SignatureInvalid`] if the RSA signature fails,
    /// [`PackageError::DataHashMismatch`] if the data segment was altered.
    pub fn verify(&self, key: &RsaPublicKey) -> Result<(), PackageError> {
        key.verify_pkcs1_sha256(&self.control_segment, &self.signature)
            .map_err(|e| PackageError::SignatureInvalid(e.to_string()))?;
        self.verify_data_hash()
    }

    /// Verifies only the `datahash` binding (used when the control segment
    /// is already trusted, e.g. after index-based verification).
    ///
    /// # Errors
    ///
    /// [`PackageError::DataHashMismatch`] if the data segment was altered.
    pub fn verify_data_hash(&self) -> Result<(), PackageError> {
        let got = hex::to_hex(&Sha256::digest(&self.data_segment));
        if got == self.meta.data_hash {
            Ok(())
        } else {
            Err(PackageError::DataHashMismatch)
        }
    }

    /// Verifies only the header signature over the control segment
    /// (constant cost, independent of package size). The data segment is
    /// pinned transitively: `datahash` in the signed `.PKGINFO` — callers
    /// that obtained the blob through an index-verified download (or that
    /// call [`Self::verify_data_hash`]) get the full chain.
    ///
    /// # Errors
    ///
    /// [`PackageError::SignatureInvalid`] if the RSA signature fails.
    pub fn verify_signature(&self, key: &RsaPublicKey) -> Result<(), PackageError> {
        key.verify_pkcs1_sha256(&self.control_segment, &self.signature)
            .map_err(|e| PackageError::SignatureInvalid(e.to_string()))
    }

    /// Like [`Self::verify_signature`] against a set of trusted keys.
    ///
    /// # Errors
    ///
    /// [`PackageError::SignatureInvalid`] when no key verifies the header.
    pub fn verify_any_signature(
        &self,
        keys: &[(String, RsaPublicKey)],
    ) -> Result<(), PackageError> {
        for (name, key) in keys {
            if *name == self.signer && self.verify_signature(key).is_ok() {
                return Ok(());
            }
        }
        for (_, key) in keys {
            if self.verify_signature(key).is_ok() {
                return Ok(());
            }
        }
        Err(PackageError::SignatureInvalid(
            "no trusted key verifies this package header".into(),
        ))
    }

    /// Verifies against a set of trusted keys, trying the one whose name
    /// matches the signer first.
    ///
    /// # Errors
    ///
    /// [`PackageError::SignatureInvalid`] when no key verifies the package.
    pub fn verify_any(&self, keys: &[(String, RsaPublicKey)]) -> Result<(), PackageError> {
        for (name, key) in keys {
            if *name == self.signer && self.verify(key).is_ok() {
                return Ok(());
            }
        }
        for (_, key) in keys {
            if self.verify(key).is_ok() {
                return Ok(());
            }
        }
        Err(PackageError::SignatureInvalid(
            "no trusted key verifies this package".into(),
        ))
    }

    /// Total uncompressed size of the data files.
    pub fn installed_size(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }
}

/// Builds packages (the role of the distribution's build server in Fig. 2).
#[derive(Debug, Clone)]
pub struct PackageBuilder {
    meta: PackageMeta,
    scripts: InstallScripts,
    files: Vec<Entry>,
}

impl PackageBuilder {
    /// Starts a package with the mandatory name and version.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        PackageBuilder {
            meta: PackageMeta {
                name: name.into(),
                version: version.into(),
                ..Default::default()
            },
            scripts: InstallScripts::default(),
            files: Vec::new(),
        }
    }

    /// Sets the description.
    pub fn description(&mut self, d: impl Into<String>) -> &mut Self {
        self.meta.description = d.into();
        self
    }

    /// Adds a dependency edge.
    pub fn depends_on(&mut self, dep: impl Into<String>) -> &mut Self {
        self.meta.depends.push(dep.into());
        self
    }

    /// Adds a file (or directory/symlink entry) to the data segment.
    pub fn file(&mut self, entry: Entry) -> &mut Self {
        self.files.push(entry);
        self
    }

    /// Sets all installation scripts at once.
    pub fn scripts(&mut self, scripts: InstallScripts) -> &mut Self {
        self.scripts = scripts;
        self
    }

    /// Sets the `.post-install` script.
    pub fn post_install(&mut self, body: impl Into<String>) -> &mut Self {
        self.scripts.post_install = Some(body.into());
        self
    }

    /// Sets the `.pre-install` script.
    pub fn pre_install(&mut self, body: impl Into<String>) -> &mut Self {
        self.scripts.pre_install = Some(body.into());
        self
    }

    /// Serializes and signs the package: returns the 3-segment blob.
    ///
    /// `signer` is the key name embedded in the `.SIGN.RSA.<signer>` path.
    pub fn build(&self, key: &RsaPrivateKey, signer: &str) -> Vec<u8> {
        build_from_parts(&self.meta, &self.scripts, &self.files, key, signer)
    }
}

/// Assembles and signs a package from already-prepared parts.
///
/// This is also the final step of TSR's sanitization pipeline: after scripts
/// are rewritten and signatures injected, the package is re-created and
/// re-signed with the TSR key.
pub fn build_from_parts(
    meta: &PackageMeta,
    scripts: &InstallScripts,
    files: &[Entry],
    key: &RsaPrivateKey,
    signer: &str,
) -> Vec<u8> {
    // Data segment first: its hash goes into .PKGINFO.
    let data_tar = Archive::build(files.to_vec());
    let data_segment = gzip::compress(&data_tar);

    let mut meta = meta.clone();
    meta.data_hash = hex::to_hex(&Sha256::digest(&data_segment));
    meta.installed_size = files.iter().map(|f| f.data.len() as u64).sum();

    // Control segment.
    let mut control_entries = vec![Entry::file(".PKGINFO", meta.to_text().into_bytes())];
    for (name, body) in scripts.iter() {
        let mut e = Entry::file(name, body.as_bytes().to_vec());
        e.mode = 0o755;
        control_entries.push(e);
    }
    let control_segment = gzip::compress(&Archive::build(control_entries));

    // Signature segment over the compressed control bytes.
    let signature = key.sign_pkcs1_sha256(&control_segment);
    let sig_entry = Entry::file(format!("{SIGN_PREFIX}{signer}"), signature);
    let sig_segment = gzip::compress(&Archive::build(vec![sig_entry]));

    let mut blob = sig_segment;
    blob.extend_from_slice(&control_segment);
    blob.extend_from_slice(&data_segment);
    blob
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsr_compress::bitio::BitWriter;
    use tsr_compress::crc32::Crc32;
    use tsr_compress::CompressError;
    use tsr_crypto::drbg::HmacDrbg;

    pub(crate) fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"apk-test-key");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    /// A gzip member of `1 + 258 · reps` zero bytes in about `13 · reps / 8`
    /// bytes: one literal 0, then `reps` matches of length 258 at distance
    /// 1, with a valid CRC and ISIZE.
    pub(crate) fn inflation_bomb(reps: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(1, 2); // fixed Huffman
        w.write_code(0x30, 8); // literal 0
        for _ in 0..reps {
            w.write_code(0xc5, 8); // length 258 (symbol 285)
            w.write_code(0, 5); // distance 1
        }
        w.write_code(0, 7); // end of block
        let len = 1 + 258 * reps;
        let mut gz = vec![0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(&w.finish());
        gz.extend_from_slice(&Crc32::checksum(&vec![0; len]).to_le_bytes());
        gz.extend_from_slice(&(len as u32).to_le_bytes());
        gz
    }

    /// Asserts `result` is the signature segment's inflation cap.
    pub(crate) fn assert_capped<T: std::fmt::Debug>(result: Result<T, PackageError>) {
        assert!(
            matches!(
                result,
                Err(PackageError::Compression(CompressError::OutputTooLarge))
            ),
            "{result:?}"
        );
    }

    fn sample_blob() -> Vec<u8> {
        let mut b = PackageBuilder::new("hello", "1.0-r0");
        b.description("sample package")
            .depends_on("musl")
            .post_install("echo configured > /dev/null")
            .file(Entry::file(
                "usr/bin/hello",
                b"#!/bin/sh\necho hello\n".to_vec(),
            ))
            .file(Entry::file("etc/hello.conf", b"greeting=hello\n".to_vec()));
        b.build(test_key(), "builder@example.org")
    }

    #[test]
    fn build_parse_roundtrip() {
        let pkg = Package::parse(&sample_blob()).unwrap();
        assert_eq!(pkg.meta.name, "hello");
        assert_eq!(pkg.meta.version, "1.0-r0");
        assert_eq!(pkg.meta.depends, vec!["musl"]);
        assert_eq!(pkg.signer, "builder@example.org");
        assert_eq!(pkg.files.len(), 2);
        assert_eq!(
            pkg.scripts.post_install.as_deref(),
            Some("echo configured > /dev/null")
        );
    }

    #[test]
    fn signature_verifies() {
        let pkg = Package::parse(&sample_blob()).unwrap();
        pkg.verify(test_key().public_key()).unwrap();
    }

    #[test]
    fn tampered_control_detected() {
        let blob = sample_blob();
        let pkg = Package::parse(&blob).unwrap();
        // Re-parse with a flipped byte inside the control segment region.
        let sig_len = blob.len() - pkg.control_segment.len() - pkg.data_segment.len();
        let mut bad = blob.clone();
        // Flip a bit in the control gzip CRC region (keeps gzip valid? no —
        // flip inside compressed payload makes gzip fail, which is also a
        // detection). Either parse or verify must fail.
        bad[sig_len + 4] ^= 1;
        if let Ok(p) = Package::parse(&bad) {
            assert!(p.verify(test_key().public_key()).is_err());
        } // else: gzip-level detection is acceptable
    }

    #[test]
    fn tampered_data_detected() {
        let blob = sample_blob();
        let pkg = Package::parse(&blob).unwrap();
        let data_start = blob.len() - pkg.data_segment.len();
        // Rebuild the blob with a modified data segment that is still valid gzip.
        let mut files = pkg.files.clone();
        files[0].data = b"evil".to_vec();
        let evil_tar = Archive::build(files);
        let evil_segment = gzip::compress(&evil_tar);
        let mut bad = blob[..data_start].to_vec();
        bad.extend_from_slice(&evil_segment);
        let parsed = Package::parse(&bad).unwrap();
        assert!(matches!(
            parsed.verify(test_key().public_key()),
            Err(PackageError::DataHashMismatch)
        ));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = HmacDrbg::new(b"other");
        let other = RsaPrivateKey::generate(1024, &mut rng);
        let pkg = Package::parse(&sample_blob()).unwrap();
        assert!(matches!(
            pkg.verify(other.public_key()),
            Err(PackageError::SignatureInvalid(_))
        ));
    }

    #[test]
    fn verify_any_picks_matching_key() {
        let mut rng = HmacDrbg::new(b"other2");
        let other = RsaPrivateKey::generate(1024, &mut rng);
        let pkg = Package::parse(&sample_blob()).unwrap();
        let keys = vec![
            ("wrong".to_string(), other.public_key().clone()),
            (
                "builder@example.org".to_string(),
                test_key().public_key().clone(),
            ),
        ];
        pkg.verify_any(&keys).unwrap();
        let only_wrong = vec![("w".to_string(), other.public_key().clone())];
        assert!(pkg.verify_any(&only_wrong).is_err());
    }

    #[test]
    fn empty_package_no_scripts() {
        let b = PackageBuilder::new("empty", "0.1");
        let pkg = Package::parse(&b.build(test_key(), "s")).unwrap();
        assert!(pkg.scripts.is_empty());
        assert!(pkg.files.is_empty());
        pkg.verify(test_key().public_key()).unwrap();
    }

    #[test]
    fn installed_size_matches() {
        let pkg = Package::parse(&sample_blob()).unwrap();
        assert_eq!(pkg.installed_size(), pkg.meta.installed_size);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Package::parse(b"not a package").is_err());
        assert!(Package::parse(&[]).is_err());
    }

    #[test]
    fn missing_data_segment_rejected() {
        let blob = sample_blob();
        let pkg = Package::parse(&blob).unwrap();
        let truncated = &blob[..blob.len() - pkg.data_segment.len()];
        assert!(matches!(
            Package::parse(truncated),
            Err(PackageError::Malformed(_))
        ));
        assert!(matches!(
            read_scripts(truncated),
            Err(PackageError::Malformed(_))
        ));
    }

    #[test]
    fn read_scripts_skips_the_data_segment() {
        let blob = sample_blob();
        let pkg = Package::parse(&blob).unwrap();
        // A data segment that is not gzip at all: only the full parse sees it.
        let mut bad = blob[..blob.len() - pkg.data_segment.len()].to_vec();
        bad.extend_from_slice(b"not gzip");
        assert!(Package::parse(&bad).is_err());
        assert_eq!(read_scripts(&bad).unwrap(), pkg.scripts);
    }

    #[test]
    fn a_signature_segment_bomb_stops_at_the_cap() {
        let bomb = inflation_bomb(4_000);
        // Valid gzip: 6.5 KB that inflates to 1 MB.
        let (zeros, _) = gzip::decompress_member(&bomb).unwrap();
        assert!(zeros.len() > 1_000 * 1_000);
        let pkg = Package::parse(&sample_blob()).unwrap();
        let mut blob = bomb;
        blob.extend_from_slice(&pkg.control_segment);
        blob.extend_from_slice(&pkg.data_segment);
        assert_capped(Package::parse(&blob));
        assert_capped(read_scripts(&blob));
    }

    #[test]
    fn deterministic_build() {
        assert_eq!(sample_blob(), sample_blob());
    }

    #[test]
    fn xattrs_survive_package_roundtrip() {
        // Sanitized packages carry signatures as xattrs in the data segment.
        let mut b = PackageBuilder::new("signed", "1.0");
        let mut f = Entry::file("usr/lib/lib.so", b"ELF".to_vec());
        f.set_xattr("security.ima", vec![0x03, 0x01, 0xaa]);
        b.file(f);
        let pkg = Package::parse(&b.build(test_key(), "tsr")).unwrap();
        assert_eq!(
            pkg.files[0].xattr("security.ima").unwrap(),
            &[0x03, 0x01, 0xaa]
        );
    }
}
