//! DEFLATE compression (RFC 1951) with LZ77 matching and fixed-Huffman
//! encoding, falling back to stored blocks when that is smaller.
//!
//! The emitted tokens are those of the original matcher: a greedy walk over
//! the 64 most recent positions whose next three bytes fall in the same
//! *bucket*, `(prefix · 0x9E3779B1) >> (64 − 15)`. That product of a 24-bit
//! prefix and a 32-bit constant stays below 2⁵⁶, so on a 64-bit target the
//! bucket takes only 80 values instead of 2¹⁵, and most positions in a
//! bucket begin with other bytes. The bucket is kept anyway: which
//! candidates the walk sees decides the tokens, and every package byte and
//! signature depends on them. The matcher reaches the same candidates
//! through chains of positions with an equal prefix, so it skips the others
//! without comparing them.

use crate::bitio::BitWriter;
use crate::inflate::{DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA};

/// LZ77 window size.
const WINDOW: usize = 32 * 1024;
/// Minimum/maximum match lengths in DEFLATE.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Width of the original bucket hash. Its formula reaches only 80 of the
/// 2¹⁵ buckets (see the module docs); it stays because the tokens depend on
/// it. The exact-prefix chains hash into as many heads.
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Depth of the original walk: a position is compared with at most the
/// `MAX_CHAIN` newest positions in its bucket. The emitted tokens reproduce
/// that walk, so this is part of the output, not a quality knob.
const MAX_CHAIN: usize = 64;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Compresses `input` into a raw DEFLATE stream.
///
/// Uses a single fixed-Huffman block with LZ77 back-references; if the
/// compressed form would exceed the stored representation, emits stored
/// blocks instead, so output is never much larger than the input.
///
/// # Examples
///
/// ```
/// let data = vec![7u8; 4096];
/// let c = tsr_compress::deflate::compress(&data);
/// assert!(c.len() < data.len() / 10);
/// assert_eq!(tsr_compress::inflate::decompress(&c).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = lz77(input);
    let fixed = encode_fixed(&tokens);
    let stored_len = stored_size(input.len());
    if fixed.len() <= stored_len {
        fixed
    } else {
        encode_stored(input)
    }
}

fn stored_size(len: usize) -> usize {
    // Each stored block holds up to 65535 bytes with a 5-byte header.
    let blocks = len.div_ceil(65_535).max(1);
    len + 5 * blocks
}

/// Encodes the input as stored (uncompressed) blocks.
pub fn encode_stored(input: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let chunks: Vec<&[u8]> = if input.is_empty() {
        vec![&[]]
    } else {
        input.chunks(65_535).collect()
    };
    for (i, chunk) in chunks.iter().enumerate() {
        let bfinal = (i + 1 == chunks.len()) as u32;
        w.write_bits(bfinal, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&(chunk.len() as u16).to_le_bytes());
        w.write_bytes(&(!(chunk.len() as u16)).to_le_bytes());
        w.write_bytes(chunk);
    }
    w.finish()
}

/// Greedy LZ77 that emits the tokens of the original walk: the
/// [`MAX_CHAIN`] most recent positions in the current prefix's [`bucket`],
/// newest first, taking the first longest match. It reaches them without
/// visiting the bucket's other prefixes.
///
/// Positions are chained by their exact three-byte prefix, and each records
/// its *rank*: how many positions had entered its bucket before it. A
/// candidate lies within the original walk exactly when its bucket has
/// gained at most `MAX_CHAIN` positions since, itself included. The walk
/// goes back from the newest position and
/// - skips a candidate whose prefix differs: it matches fewer than
///   [`MIN_MATCH`] bytes, so the original walk never took it either;
/// - stops at the window, and at the first equal-prefix candidate outside
///   the rank limit, because every older one is outside too;
/// - skips a candidate whose byte at the best length so far differs, as
///   zlib does, because it cannot be longer.
fn lz77(input: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 2 + 8);
    if input.len() < MIN_MATCH + 1 {
        tokens.extend(input.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // Only positions with a full prefix enter the chains.
    let chained = input.len() - MIN_MATCH + 1;
    let mut head = vec![usize::MAX; HASH_SIZE];
    // Distance back to the previous position on the same chain, capped just
    // past the window; 0 ends the chain.
    let mut prev = vec![0u16; chained];
    let mut rank = vec![0u32; chained];
    let mut count = vec![0u32; HASH_SIZE];
    let mut i = 0;
    while i < input.len() {
        if i >= chained {
            tokens.push(Token::Literal(input[i]));
            i += 1;
            continue;
        }
        let v = prefix(input, i);
        let bucket_len = count[bucket(v)];
        let max_len = (input.len() - i).min(MAX_MATCH);
        let (mut best_len, mut best_dist) = (0, 0);
        let mut c = head[chain_hash(v)];
        while c != usize::MAX && i - c <= WINDOW {
            if prefix(input, c) == v {
                if bucket_len.wrapping_sub(rank[c]) > MAX_CHAIN as u32 {
                    break;
                }
                if input[c + best_len] == input[i + best_len] {
                    let l = match_len(input, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == max_len {
                            break;
                        }
                    }
                }
            }
            match prev[c] {
                0 => break,
                d => c -= d as usize,
            }
        }
        let step = if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            best_len
        } else {
            tokens.push(Token::Literal(input[i]));
            1
        };
        // Chain every position the token covers.
        for j in i..(i + step).min(chained) {
            let v = prefix(input, j);
            let h = chain_hash(v);
            prev[j] = match head[h] {
                usize::MAX => 0,
                p => (j - p).min(WINDOW + 1) as u16,
            };
            head[h] = j;
            let b = bucket(v);
            rank[j] = count[b];
            count[b] = count[b].wrapping_add(1);
        }
        i += step;
    }
    tokens
}

/// The three bytes at `i`, as one 24-bit value.
fn prefix(input: &[u8], i: usize) -> u32 {
    u32::from(input[i]) << 16 | u32::from(input[i + 1]) << 8 | u32::from(input[i + 2])
}

/// The bucket the original walk counted [`MAX_CHAIN`] in (see the module
/// docs for why it has only 80 values).
fn bucket(v: u32) -> usize {
    (v as usize).wrapping_mul(0x9E3779B1) >> (usize::BITS as usize - HASH_BITS)
}

/// The exact-prefix chain of `v`: a multiplicative hash over all 24 bits.
fn chain_hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common run at `a` and `b` (`a < b`), up to `max_len`,
/// compared eight bytes at a time.
fn match_len(input: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max_len {
        let x = u64::from_le_bytes(input[a + l..a + l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(input[b + l..b + l + 8].try_into().unwrap());
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && input[a + l] == input[b + l] {
        l += 1;
    }
    l
}

/// Fixed-Huffman code for a literal/length symbol: (code, bits), MSB-first.
fn fixed_lit_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym as u32 - 144), 9),
        256..=279 => (sym as u32 - 256, 7),
        280..=287 => (0xc0 + (sym as u32 - 280), 8),
        _ => unreachable!("invalid literal symbol"),
    }
}

/// Maps a match length (3..=258) to (symbol, extra_bits, extra_value).
fn length_symbol(len: u16) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH as u16..=MAX_MATCH as u16).contains(&len));
    // Find the largest base <= len; 258 lands exactly on the last base (code 285).
    let idx = LENGTH_BASE.partition_point(|&b| b <= len) - 1;
    let base = LENGTH_BASE[idx];
    (257 + idx as u16, LENGTH_EXTRA[idx], len - base)
}

/// Maps a distance (1..=32768) to (symbol, extra_bits, extra_value).
fn distance_symbol(dist: u16) -> (u16, u8, u16) {
    debug_assert!(dist >= 1);
    let idx = DIST_BASE.partition_point(|&b| b as u32 <= dist as u32) - 1;
    let base = DIST_BASE[idx];
    (idx as u16, DIST_EXTRA[idx], dist - base)
}

fn encode_fixed(tokens: &[Token]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // fixed Huffman
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                let (code, bits) = fixed_lit_code(b as u16);
                w.write_code(code, bits);
            }
            Token::Match { len, dist } => {
                let (sym, extra, extra_val) = length_symbol(len);
                let (code, bits) = fixed_lit_code(sym);
                w.write_code(code, bits);
                if extra > 0 {
                    w.write_bits(extra_val as u32, extra as u32);
                }
                let (dsym, dextra, dextra_val) = distance_symbol(dist);
                // Fixed distance codes are 5 bits, MSB-first.
                w.write_code(dsym as u32, 5);
                if dextra > 0 {
                    w.write_bits(dextra_val as u32, dextra as u32);
                }
            }
        }
    }
    let (code, bits) = fixed_lit_code(256);
    w.write_code(code, bits);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::decompress;

    /// The original matcher: the oracle `lz77` must agree with, token for token.
    fn lz77_reference(input: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::with_capacity(input.len() / 2 + 8);
        if input.len() < MIN_MATCH + 1 {
            tokens.extend(input.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; input.len()];
        let hash = |data: &[u8], i: usize| -> usize {
            let v = (data[i] as usize) << 16 | (data[i + 1] as usize) << 8 | data[i + 2] as usize;
            (v.wrapping_mul(0x9E3779B1)) >> (usize::BITS as usize - HASH_BITS)
        };
        let mut i = 0;
        while i < input.len() {
            if i + MIN_MATCH > input.len() {
                tokens.push(Token::Literal(input[i]));
                i += 1;
                continue;
            }
            let h = hash(input, i);
            let mut candidate = head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let max_len = (input.len() - i).min(MAX_MATCH);
            let mut chain = 0;
            while candidate != usize::MAX && chain < MAX_CHAIN {
                let dist = i - candidate;
                if dist > WINDOW {
                    break;
                }
                // extend match
                let mut l = 0usize;
                while l < max_len && input[candidate + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == max_len {
                        break;
                    }
                }
                candidate = prev[candidate];
                chain += 1;
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: best_len as u16,
                    dist: best_dist as u16,
                });
                // Insert hash entries for every position inside the match.
                let end = (i + best_len).min(input.len() - MIN_MATCH + 1);
                let mut j = i;
                while j < end {
                    let hj = hash(input, j);
                    prev[j] = head[hj];
                    head[hj] = j;
                    j += 1;
                }
                i += best_len;
            } else {
                prev[i] = head[h];
                head[h] = i;
                tokens.push(Token::Literal(input[i]));
                i += 1;
            }
        }
        tokens
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
    }

    #[test]
    fn roundtrip_short() {
        for msg in [&b"a"[..], b"ab", b"abc", b"hello world"] {
            assert_eq!(decompress(&compress(msg)).unwrap(), msg);
        }
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(100);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 5,
            "got {} for {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_data_not_much_bigger() {
        // Pseudo-random bytes don't compress; stored fallback bounds growth.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 5 * 3);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_long_match_258() {
        let data = vec![b'x'; 1000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < 40);
    }

    #[test]
    fn roundtrip_text() {
        let data = include_str!("deflate.rs").as_bytes();
        let c = compress(data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(257), (284, 5, 30));
        assert_eq!(length_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_boundaries() {
        assert_eq!(distance_symbol(1), (0, 0, 0));
        assert_eq!(distance_symbol(4), (3, 0, 0));
        assert_eq!(distance_symbol(5), (4, 1, 0));
        assert_eq!(distance_symbol(24577), (29, 13, 0));
        assert_eq!(distance_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn stored_encoding_valid() {
        let data = vec![9u8; 70_000]; // spans two stored blocks
        let s = encode_stored(&data);
        assert_eq!(decompress(&s).unwrap(), data);
    }

    #[test]
    fn fixed_lit_codes_match_rfc() {
        assert_eq!(fixed_lit_code(0), (0x30, 8));
        assert_eq!(fixed_lit_code(143), (0xbf, 8));
        assert_eq!(fixed_lit_code(144), (0x190, 9));
        assert_eq!(fixed_lit_code(255), (0x1ff, 9));
        assert_eq!(fixed_lit_code(256), (0, 7));
        assert_eq!(fixed_lit_code(279), (0x17, 7));
        assert_eq!(fixed_lit_code(280), (0xc0, 8));
    }

    /// Lengths at the matcher's edges: too short to chain or just long
    /// enough, a maximal match and one past it, either side of the window,
    /// and two windows.
    const EDGE_LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 258, 259, 32_767, 32_768, 32_769, 70_000];

    const PHRASE: &[u8] = b"the quick brown fox jumps over the lazy dog \n";

    /// Input families for the oracle; `kind` picks one of them.
    const KINDS: usize = 7;

    fn sample_input(kind: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(len);
        match kind {
            // Random bytes.
            0 => out.extend((0..len).map(|_| next() as u8)),
            // A short period, with an occasional stray byte.
            1 => {
                let period: Vec<u8> = (0..1 + next() % 12).map(|_| next() as u8).collect();
                for k in 0..len {
                    let stray = next() % 400 == 0;
                    out.push(if stray {
                        next() as u8
                    } else {
                        period[k % period.len()]
                    });
                }
            }
            // Random bytes broken by runs of zeros.
            2 => {
                while out.len() < len {
                    let run = 1 + (next() % 600) as usize;
                    let zero = next() % 2 == 0;
                    out.extend((0..run).map(|_| if zero { 0 } else { next() as u8 }));
                }
            }
            // The workload's phrase text, from a random offset.
            3 => {
                let start = (next() % PHRASE.len() as u64) as usize;
                out.extend(PHRASE.iter().cycle().skip(start).take(len));
            }
            // Alternating random and text blocks.
            4 => {
                while out.len() < len {
                    let block = 1 + (next() % 2_000) as usize;
                    if next() % 2 == 0 {
                        out.extend((0..block).map(|_| next() as u8));
                    } else {
                        out.extend(PHRASE.iter().cycle().take(block));
                    }
                }
            }
            // A four-letter alphabet: every prefix recurs far more than
            // `MAX_CHAIN` times inside the window.
            5 => out.extend((0..len).map(|_| b"acgt"[(next() % 4) as usize])),
            // Three-byte words whose prefixes all share one chain, so the
            // walk keeps meeting candidates it must skip.
            _ => {
                let words: Vec<u32> = (0..1 << 24)
                    .filter(|&v| chain_hash(v) == chain_hash(0x616263))
                    .take(8)
                    .collect();
                while out.len() < len {
                    let w = words[(next() % 8) as usize];
                    out.extend_from_slice(&w.to_be_bytes()[1..]);
                }
            }
        }
        out.truncate(len);
        out
    }

    /// One random block of `period` bytes, three times over.
    fn repeated_block(period: usize, seed: u64) -> Vec<u8> {
        sample_input(0, period, seed).repeat(3)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn lz77_emits_the_reference_tokens(
            kind in 0..KINDS + 1,
            size in 0..2 * EDGE_LENS.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let input = match (kind, EDGE_LENS.get(size)) {
                (KINDS, _) => repeated_block([32_760, 32_768, 32_770][size % 3], seed),
                (_, Some(&len)) => sample_input(kind, len, seed),
                (_, None) => sample_input(kind, (seed % 70_000) as usize, seed),
            };
            proptest::prop_assert!(lz77(&input) == lz77_reference(&input), "kind {} len {}", kind, input.len());
        }
    }

    #[test]
    fn lz77_matches_the_reference_at_every_edge() {
        for kind in 0..KINDS {
            for len in EDGE_LENS {
                let input = sample_input(kind, len, 0x5eed + kind as u64);
                assert!(
                    lz77(&input) == lz77_reference(&input),
                    "kind {kind} len {len}"
                );
            }
        }
        // Periods just under, at and over the window: the walk meets
        // `dist == WINDOW` and then the window's end.
        for period in [32_760, 32_768, 32_770] {
            let input = repeated_block(period, period as u64);
            assert!(lz77(&input) == lz77_reference(&input), "period {period}");
        }
    }
}
