//! Gzip streams written by a second implementation (Python's zlib, see
//! `fixtures/generate.py`). TSR's deflate emits only fixed-Huffman and
//! stored blocks, so these are what exercise the dynamic-block path that
//! mirror bytes take through the inflater.

use std::path::PathBuf;

use tsr_compress::{gzip, CompressError};

fn fixture(name: &str) -> Vec<u8> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name]
        .iter()
        .collect();
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// BTYPE of the first block of a gzip member whose header carries at most
/// an FNAME field, as every fixture's does.
fn first_block_type(member: &[u8]) -> u8 {
    let mut at = 10;
    if member[3] & 8 != 0 {
        at += member[10..].iter().position(|&b| b == 0).unwrap() + 1;
    }
    (member[at] >> 1) & 3
}

#[test]
fn zlib_members_decode_byte_for_byte() {
    for (input, name) in [("text.txt", "text"), ("binary.bin", "binary")] {
        let want = fixture(input);
        for level in [1, 6, 9] {
            let gz = fixture(&format!("{name}-{level}.gz"));
            assert_eq!(first_block_type(&gz), 2, "{name}-{level}: not dynamic");
            assert_eq!(gzip::decompress(&gz).unwrap(), want, "{name}-{level}");
        }
    }
}

#[test]
fn a_hand_built_dynamic_block_decodes() {
    assert_eq!(gzip::decompress(&fixture("handmade.gz")).unwrap(), b"aaaa");
}

#[test]
fn a_multi_member_file_decodes_member_by_member() {
    let multi = fixture("multi.gz");
    let mut rest = &multi[..];
    let mut out = Vec::new();
    let mut members = 0;
    while !rest.is_empty() {
        assert_eq!(first_block_type(rest), 2);
        let (data, used) = gzip::decompress_member(rest).unwrap();
        out.extend_from_slice(&data);
        rest = &rest[used..];
        members += 1;
    }
    assert_eq!(members, 2);
    assert_eq!(out, [fixture("text.txt"), fixture("binary.bin")].concat());
    // `decompress` reads the first member (the text, behind an FNAME
    // header) and nothing after it.
    assert_eq!(gzip::decompress(&multi).unwrap(), fixture("text.txt"));
}

#[test]
fn malformed_streams_are_typed_errors() {
    let invalid = |name: &str, why: &str| match gzip::decompress(&fixture(name)) {
        Err(CompressError::InvalidStream(m)) => assert!(m.contains(why), "{name}: {m}"),
        other => panic!("{name}: {other:?}"),
    };
    invalid("oversubscribed.gz", "over-subscribed");
    invalid("distance-too-far.gz", "distance beyond output");
    assert_eq!(
        gzip::decompress(&fixture("truncated.gz")),
        Err(CompressError::UnexpectedEof)
    );
}
