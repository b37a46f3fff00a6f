//! Property-based tests for the WAL codec layers: frame round-trips,
//! truncation at *every* byte offset recovering the longest valid frame
//! prefix, corrupted checksums rejected, and typed-record round-trips.
//!
//! Each property is a plain function of a `u64` seed (expanded through an
//! `HmacDrbg`), called both from `proptest!` with random seeds and from
//! plain tests replaying [`REGRESSION_SEEDS`] — the checked-in seeds that
//! pin previously interesting cases so they re-run forever on every
//! machine, independent of the proptest shim's name-derived RNG.

use proptest::prelude::*;
use tsr_crypto::drbg::HmacDrbg;
use tsr_store::{crc32, decode_frames, encode_frame, WalRecord, FRAME_HEADER_LEN};

/// Seeds that exercised interesting shapes (empty logs, empty payloads,
/// single-byte truncations on a frame boundary, multi-record logs)
/// — kept forever as regressions.
const REGRESSION_SEEDS: &[u64] = &[
    0,
    1,
    8,
    42,
    0xdead_beef,
    0x5eed_0008,
    0xffff_ffff,
    3_237_998_146,
];

fn string_from(rng: &mut HmacDrbg, max_len: u64) -> String {
    let n = rng.gen_range(max_len) as usize;
    (0..n)
        .map(|_| char::from(b'a' + (rng.gen_range(26) as u8)))
        .collect()
}

fn record_from(rng: &mut HmacDrbg) -> WalRecord {
    match rng.gen_range(3) {
        0 => WalRecord::RepoCreated {
            id: format!("repo-{}", rng.gen_range(1000)),
            policy_text: string_from(rng, 200),
        },
        1 => WalRecord::RepoDeleted {
            id: format!("repo-{}", rng.gen_range(1000)),
        },
        _ => {
            let sealed_len = rng.gen_range(128) as usize;
            WalRecord::SealUpdated {
                id: format!("repo-{}", rng.gen_range(1000)),
                sealed: rng.bytes(sealed_len),
                counter: rng.next_u64(),
            }
        }
    }
}

fn log_from(rng: &mut HmacDrbg, max_records: u64) -> (Vec<u8>, Vec<Vec<u8>>, Vec<usize>) {
    let n = rng.gen_range(max_records) as usize;
    let mut log = Vec::new();
    let mut payloads = Vec::with_capacity(n);
    let mut boundaries = vec![0usize];
    for _ in 0..n {
        let payload = match rng.gen_range(4) {
            // Mix raw byte payloads with real encoded records.
            0 => {
                let len = rng.gen_range(64) as usize;
                rng.bytes(len)
            }
            _ => record_from(rng).encode(),
        };
        log.extend_from_slice(&encode_frame(&payload));
        payloads.push(payload);
        boundaries.push(log.len());
    }
    (log, payloads, boundaries)
}

/// Property 1: a log of framed payloads decodes back to exactly those
/// payloads, consuming every byte, reporting no tear.
fn frame_roundtrip_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let (log, payloads, _) = log_from(&mut rng, 12);
    let scan = decode_frames(&log);
    assert_eq!(scan.payloads, payloads, "seed {seed}: payload mismatch");
    assert_eq!(scan.valid_len, log.len(), "seed {seed}: valid_len");
    assert!(!scan.torn, "seed {seed}: clean log reported torn");
}

/// Property 2 — the crash-recovery core: truncating the log at **every**
/// byte offset recovers exactly the frames that fit wholly before the
/// cut, and `valid_len` lands on the last frame boundary at or before it.
fn truncation_prefix_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    // Small raw-byte frames: the property scans every cut of the log, so
    // the work is quadratic in log length — keep it a few hundred bytes.
    let n = rng.gen_range(6) as usize;
    let mut log = Vec::new();
    let mut payloads = Vec::with_capacity(n);
    let mut boundaries = vec![0usize];
    for _ in 0..n {
        let len = rng.gen_range(48) as usize;
        let payload = rng.bytes(len);
        log.extend_from_slice(&encode_frame(&payload));
        payloads.push(payload);
        boundaries.push(log.len());
    }
    for cut in 0..=log.len() {
        let scan = decode_frames(&log[..cut]);
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(
            scan.payloads.len(),
            complete,
            "seed {seed}: cut at {cut} of {}",
            log.len()
        );
        assert_eq!(
            scan.payloads,
            payloads[..complete],
            "seed {seed}: cut {cut}"
        );
        assert_eq!(
            scan.valid_len, boundaries[complete],
            "seed {seed}: cut {cut} valid_len"
        );
        assert_eq!(
            scan.torn,
            cut != boundaries[complete],
            "seed {seed}: cut {cut} torn flag"
        );
    }
}

/// Property 3: flipping any single bit of a frame makes that frame (and
/// everything after it) unreadable without disturbing frames before it.
fn corruption_rejected_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let mut log = Vec::new();
    let mut boundaries = vec![0usize];
    let frames = 1 + rng.gen_range(4) as usize;
    for _ in 0..frames {
        // Non-empty payloads so a payload bit always exists to flip.
        let len = 1 + rng.gen_range(48) as usize;
        let payload = rng.bytes(len);
        log.extend_from_slice(&encode_frame(&payload));
        boundaries.push(log.len());
    }
    let victim = rng.gen_range(frames as u64) as usize;
    let start = boundaries[victim];
    let frame_len = boundaries[victim + 1] - start;
    let byte = start + rng.gen_range(frame_len as u64) as usize;
    let bit = 1u8 << rng.gen_range(8);

    let mut corrupted = log.clone();
    corrupted[byte] ^= bit;
    let scan = decode_frames(&corrupted);
    assert!(
        scan.payloads.len() <= victim,
        "seed {seed}: read {} frames past corrupted frame {victim}",
        scan.payloads.len()
    );
    if scan.payloads.len() == victim {
        assert_eq!(scan.valid_len, start, "seed {seed}: valid_len");
        assert!(scan.torn, "seed {seed}: corruption not flagged");
    } else {
        // A flipped length byte can make an earlier boundary look torn,
        // but never yields a frame that wasn't written.
        assert!(scan.valid_len <= start, "seed {seed}: valid_len ran ahead");
    }
    // The pristine log still decodes in full.
    let clean = decode_frames(&log);
    assert_eq!(clean.payloads.len(), frames, "seed {seed}");
}

/// Property 4: typed records round-trip through encode/decode, and any
/// strict prefix of an encoding is rejected rather than misread.
fn record_roundtrip_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    for _ in 0..8 {
        let record = record_from(&mut rng);
        let enc = record.encode();
        assert_eq!(
            WalRecord::decode(&enc).expect("roundtrip"),
            record,
            "seed {seed}"
        );
        let cut = rng.gen_range(enc.len() as u64) as usize;
        assert!(
            WalRecord::decode(&enc[..cut]).is_err(),
            "seed {seed}: accepted a {cut}-byte prefix of {} bytes",
            enc.len()
        );
    }
}

/// Property 5: the checksum actually covers the payload — two payloads
/// differing in one bit frame to different checksums (CRC-32 is linear,
/// so a single-bit flip always changes it).
fn checksum_covers_payload_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let payload_len = 1 + rng.gen_range(200) as usize;
    let mut payload = rng.bytes(payload_len);
    let before = crc32(&payload);
    let byte = rng.gen_range(payload.len() as u64) as usize;
    payload[byte] ^= 1 << rng.gen_range(8);
    assert_ne!(before, crc32(&payload), "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_roundtrip(seed in any::<u64>()) {
        frame_roundtrip_case(seed);
    }

    #[test]
    fn truncation_recovers_longest_valid_prefix(seed in any::<u64>()) {
        truncation_prefix_case(seed);
    }

    #[test]
    fn corruption_rejected(seed in any::<u64>()) {
        corruption_rejected_case(seed);
    }

    #[test]
    fn record_roundtrip(seed in any::<u64>()) {
        record_roundtrip_case(seed);
    }

    #[test]
    fn checksum_covers_payload(seed in any::<u64>()) {
        checksum_covers_payload_case(seed);
    }
}

#[test]
fn frame_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        frame_roundtrip_case(seed);
    }
}

#[test]
fn truncation_prefix_regressions() {
    for &seed in REGRESSION_SEEDS {
        truncation_prefix_case(seed);
    }
}

#[test]
fn corruption_rejected_regressions() {
    for &seed in REGRESSION_SEEDS {
        corruption_rejected_case(seed);
    }
}

#[test]
fn record_roundtrip_regressions() {
    for &seed in REGRESSION_SEEDS {
        record_roundtrip_case(seed);
    }
}

#[test]
fn checksum_covers_payload_regressions() {
    for &seed in REGRESSION_SEEDS {
        checksum_covers_payload_case(seed);
    }
}

/// An empty frame header is 8 bytes; make sure the sentinel constant and
/// the real layout agree (a drifted constant would silently skew every
/// truncation-offset computation above).
#[test]
fn header_len_matches_layout() {
    assert_eq!(encode_frame(b"").len(), FRAME_HEADER_LEN);
}
