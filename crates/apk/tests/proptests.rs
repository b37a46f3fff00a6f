//! Property-based tests for the APKINDEX text format and `.apk` package
//! metadata: serialize → parse must be the identity for every generated
//! value, and mutated inputs must never round-trip silently.
//!
//! Each property is a plain function of a `u64` seed (expanded through an
//! `HmacDrbg`), called both from `proptest!` with random seeds and from
//! plain tests replaying [`REGRESSION_SEEDS`] — the checked-in seeds that
//! pin previously interesting cases so they re-run forever on every
//! machine, independent of the proptest shim's name-derived RNG.

use std::sync::OnceLock;

use proptest::prelude::*;
use tsr_apk::package::read_scripts;
use tsr_apk::{Index, IndexEntry, InstallScripts, Package, PackageBuilder, PackageMeta};
use tsr_archive::Entry;
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{hex, RsaPrivateKey};

/// Seeds that exercised interesting shapes (empty depends, single-package
/// indexes, zero-size entries, long names) — kept forever as regressions.
const REGRESSION_SEEDS: &[u64] = &[
    0,
    1,
    7,
    42,
    0xdead_beef,
    0x5eed_0001,
    0x5eed_0002,
    9_876_543_210,
];

fn signing_key() -> &'static RsaPrivateKey {
    static K: OnceLock<RsaPrivateKey> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"apk-proptest-key");
        RsaPrivateKey::generate(1024, &mut rng)
    })
}

/// A plausible package-name/version charset (what Alpine uses in practice
/// and what the line-oriented format can carry).
fn name_from(rng: &mut HmacDrbg) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    let len = 1 + rng.gen_range(24) as usize;
    (0..len)
        .map(|_| CHARS[rng.gen_range(CHARS.len() as u64) as usize] as char)
        .collect()
}

fn version_from(rng: &mut HmacDrbg) -> String {
    format!(
        "{}.{}.{}-r{}",
        rng.gen_range(10),
        rng.gen_range(30),
        rng.gen_range(30),
        rng.gen_range(9)
    )
}

fn entry_from(rng: &mut HmacDrbg, used: &mut Vec<String>) -> IndexEntry {
    let mut name = name_from(rng);
    while used.contains(&name) {
        name = name_from(rng);
    }
    used.push(name.clone());
    let n_deps = rng.gen_range(4) as usize;
    let depends: Vec<String> = used
        .iter()
        .take(n_deps.min(used.len().saturating_sub(1)))
        .cloned()
        .collect();
    IndexEntry {
        name,
        version: version_from(rng),
        size: rng.gen_range(1 << 32),
        content_hash: hex::to_hex(&rng.bytes(32)),
        depends,
    }
}

fn index_from(seed: u64) -> Index {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let mut index = Index::new();
    index.snapshot = rng.gen_range(1 << 40);
    let mut used = Vec::new();
    for _ in 0..rng.gen_range(12) {
        index.upsert(entry_from(&mut rng, &mut used));
    }
    index
}

/// Property 1: APKINDEX text serialization round-trips exactly.
fn index_text_roundtrip_case(seed: u64) {
    let index = index_from(seed);
    let text = index.to_text();
    let parsed = Index::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: parse: {e}"));
    assert_eq!(parsed, index, "seed {seed}: round-trip diverged");
    // Serialization is canonical: parse → serialize reproduces the text.
    assert_eq!(parsed.to_text(), text, "seed {seed}: non-canonical text");
}

/// Property 2: the *signed* index round-trips through sign → parse_signed
/// under the right key and is rejected after any single-byte flip.
fn signed_index_roundtrip_case(seed: u64) {
    let index = index_from(seed);
    let key = signing_key();
    let blob = index.sign(key, "prop-signer");
    let keys = vec![("prop-signer".to_string(), key.public_key().clone())];
    let parsed = Index::parse_signed(&blob, &keys).unwrap();
    assert_eq!(parsed, index, "seed {seed}");
    let mut rng = HmacDrbg::new(&seed.to_le_bytes());
    let mut tampered = blob.clone();
    let at = rng.gen_range(tampered.len() as u64) as usize;
    tampered[at] ^= 0x01;
    assert!(
        Index::parse_signed(&tampered, &keys).is_err(),
        "seed {seed}: flipped byte {at} accepted"
    );
}

/// Property 3: package metadata survives build → parse, and the package
/// verifies under the build key.
fn package_meta_roundtrip_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let mut used = Vec::new();
    let name = name_from(&mut rng);
    used.push(name.clone());
    let version = version_from(&mut rng);
    let mut builder = PackageBuilder::new(&name, &version);
    let description = format!("prop package {}", rng.gen_range(1_000_000));
    builder.description(&description);
    let mut depends = Vec::new();
    for _ in 0..rng.gen_range(4) {
        let dep = name_from(&mut rng);
        if dep != name && !depends.contains(&dep) {
            builder.depends_on(&dep);
            depends.push(dep);
        }
    }
    for f in 0..1 + rng.gen_range(3) {
        let len = 1 + rng.gen_range(512) as usize;
        builder.file(Entry::file(
            format!("usr/share/{name}/f{f}"),
            rng.bytes(len),
        ));
    }
    let blob = builder.build(signing_key(), "prop-builder");
    let pkg = Package::parse(&blob).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(pkg.meta.name, name, "seed {seed}");
    assert_eq!(pkg.meta.version, version, "seed {seed}");
    assert_eq!(pkg.meta.description, description, "seed {seed}");
    assert_eq!(pkg.meta.depends, depends, "seed {seed}");
    pkg.verify(signing_key().public_key())
        .unwrap_or_else(|e| panic!("seed {seed}: verify: {e}"));
}

/// Property 4: `PackageMeta` text round-trips exactly.
fn meta_text_roundtrip_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let meta = PackageMeta {
        name: name_from(&mut rng),
        version: version_from(&mut rng),
        description: if rng.gen_range(2) == 0 {
            String::new()
        } else {
            format!("desc {}", rng.gen_range(1000))
        },
        depends: (0..rng.gen_range(5)).map(|_| name_from(&mut rng)).collect(),
        data_hash: if rng.gen_range(2) == 0 {
            String::new()
        } else {
            hex::to_hex(&rng.bytes(32))
        },
        installed_size: rng.gen_range(1 << 40),
    };
    let parsed = PackageMeta::parse(&meta.to_text()).unwrap();
    assert_eq!(parsed, meta, "seed {seed}");
}

/// Property 5: the control-segment reader is an oracle-equal shortcut of
/// the full parse. For a package carrying any subset of the four scripts,
/// `read_scripts` returns exactly `Package::parse(..).scripts`; garbage,
/// an empty blob and a blob cut right after the control segment are
/// errors for both.
fn read_scripts_matches_parse_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let name = name_from(&mut rng);
    let mut builder = PackageBuilder::new(&name, version_from(&mut rng));
    let subset = rng.gen_range(16);
    let body = |i: u64| {
        (i & subset != 0).then(|| format!("adduser -S u{i}-{name}\nmkdir -p /var/lib/{name}"))
    };
    builder.scripts(InstallScripts {
        pre_install: body(1),
        post_install: body(2),
        pre_upgrade: body(4),
        post_upgrade: body(8),
    });
    for f in 0..rng.gen_range(3) {
        let len = 1 + rng.gen_range(256) as usize;
        builder.file(Entry::file(
            format!("usr/share/{name}/f{f}"),
            rng.bytes(len),
        ));
    }
    let blob = builder.build(signing_key(), "prop-builder");
    let pkg = Package::parse(&blob).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(pkg.scripts.iter().count(), subset.count_ones() as usize);
    assert_eq!(
        read_scripts(&blob).unwrap_or_else(|e| panic!("seed {seed}: {e}")),
        pkg.scripts,
        "seed {seed}"
    );

    let cut = &blob[..blob.len() - pkg.data_segment.len()];
    let garbage_len = 1 + rng.gen_range(64) as usize;
    let garbage = rng.bytes(garbage_len);
    for (what, bad) in [("garbage", &garbage[..]), ("empty", &[][..]), ("cut", cut)] {
        assert!(
            Package::parse(bad).is_err(),
            "seed {seed}: parse accepted {what}"
        );
        assert!(
            read_scripts(bad).is_err(),
            "seed {seed}: reader accepted {what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_text_roundtrip(seed in any::<u64>()) {
        index_text_roundtrip_case(seed);
    }

    #[test]
    fn signed_index_roundtrip_and_tamper_detection(seed in any::<u64>()) {
        signed_index_roundtrip_case(seed);
    }

    #[test]
    fn package_meta_roundtrip(seed in any::<u64>()) {
        package_meta_roundtrip_case(seed);
    }

    #[test]
    fn meta_text_roundtrip(seed in any::<u64>()) {
        meta_text_roundtrip_case(seed);
    }

    #[test]
    fn read_scripts_matches_parse(seed in any::<u64>()) {
        read_scripts_matches_parse_case(seed);
    }
}

#[test]
fn index_text_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        index_text_roundtrip_case(seed);
    }
}

#[test]
fn signed_index_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        signed_index_roundtrip_case(seed);
    }
}

#[test]
fn package_meta_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        package_meta_roundtrip_case(seed);
    }
}

#[test]
fn meta_text_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        meta_text_roundtrip_case(seed);
    }
}

#[test]
fn read_scripts_matches_parse_regressions() {
    // 16 consecutive seeds on top of the shared ones, so every script
    // subset is very likely drawn.
    for seed in REGRESSION_SEEDS.iter().copied().chain(100..116) {
        read_scripts_matches_parse_case(seed);
    }
}
