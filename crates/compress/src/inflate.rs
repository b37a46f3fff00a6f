//! DEFLATE decompression (RFC 1951): stored, fixed-Huffman, and
//! dynamic-Huffman blocks.

use crate::bitio::BitReader;
use crate::error::CompressError;

/// Maximum bits in a Huffman code.
const MAX_BITS: usize = 15;
/// Number of literal/length symbols.
const MAX_LCODES: usize = 286;
/// Number of distance symbols.
const MAX_DCODES: usize = 30;

/// Length code base values and extra bits (codes 257..=285).
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
pub(crate) const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distance code base values and extra bits (codes 0..=29).
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which code-length code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// A canonical Huffman decoding table (puff-style counts + symbols).
#[derive(Debug, Clone)]
struct Huffman {
    /// `count[l]` = number of codes of length `l`.
    count: [u16; MAX_BITS + 1],
    /// Symbols ordered by code.
    symbol: Vec<u16>,
}

impl Huffman {
    /// Builds a decoder from per-symbol code lengths (0 = unused).
    fn new(lengths: &[u8]) -> Result<Self, CompressError> {
        let mut count = [0u16; MAX_BITS + 1];
        for &l in lengths {
            if l as usize > MAX_BITS {
                return Err(CompressError::InvalidStream("code length > 15".into()));
            }
            count[l as usize] += 1;
        }
        if count[0] as usize == lengths.len() {
            return Err(CompressError::InvalidStream("no codes".into()));
        }
        // Check for over-subscribed or incomplete sets.
        let mut left = 1i32;
        for &c in count.iter().take(MAX_BITS + 1).skip(1) {
            left <<= 1;
            left -= c as i32;
            if left < 0 {
                return Err(CompressError::InvalidStream("over-subscribed code".into()));
            }
        }
        // offsets into symbol table for each length
        let mut offs = [0u16; MAX_BITS + 1];
        for l in 1..MAX_BITS {
            offs[l + 1] = offs[l] + count[l];
        }
        let mut symbol = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbol[offs[l as usize] as usize] = sym as u16;
                offs[l as usize] += 1;
            }
        }
        Ok(Huffman { count, symbol })
    }

    /// Decodes one symbol from the bit stream.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CompressError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= r.read_bit()? as i32;
            let count = self.count[len] as i32;
            if code - first < count {
                return Ok(self.symbol[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(CompressError::InvalidStream("invalid huffman code".into()))
    }
}

fn fixed_literal_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    l[144..256].iter_mut().for_each(|x| *x = 9);
    l[256..280].iter_mut().for_each(|x| *x = 7);
    l
}

fn fixed_distance_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns [`CompressError`] on malformed input or premature end of stream.
///
/// # Examples
///
/// ```
/// let data = b"hello hello hello hello";
/// let compressed = tsr_compress::deflate::compress(data);
/// let back = tsr_compress::inflate::decompress(&compressed)?;
/// assert_eq!(back, data);
/// # Ok::<(), tsr_compress::CompressError>(())
/// ```
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    decompress_with_consumed(input).map(|(out, _)| out)
}

/// Decompresses a raw DEFLATE stream, also returning how many input bytes
/// were consumed (useful when a trailer follows the stream).
///
/// # Errors
///
/// Returns [`CompressError`] on malformed input or premature end of stream.
pub fn decompress_with_consumed(input: &[u8]) -> Result<(Vec<u8>, usize), CompressError> {
    decompress_capped(input, usize::MAX)
}

/// [`decompress_with_consumed`], failing with
/// [`CompressError::OutputTooLarge`] as soon as the output would pass `cap`
/// bytes.
pub(crate) fn decompress_capped(
    input: &[u8],
    cap: usize,
) -> Result<(Vec<u8>, usize), CompressError> {
    let mut r = BitReader::new(input);
    let mut out = Vec::with_capacity(input.len().saturating_mul(3).min(cap));
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => inflate_stored(&mut r, &mut out, cap)?,
            1 => {
                let lit = Huffman::new(&fixed_literal_lengths())?;
                let dist = Huffman::new(&fixed_distance_lengths())?;
                inflate_block(&mut r, &mut out, cap, &lit, &dist)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, cap, &lit, &dist)?;
            }
            _ => return Err(CompressError::InvalidStream("reserved block type".into())),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok((out, r.bytes_consumed()))
}

/// Fails unless `out` can grow by `more` bytes without passing `cap`.
fn reserve(out: &[u8], more: usize, cap: usize) -> Result<(), CompressError> {
    if more > cap - out.len() {
        return Err(CompressError::OutputTooLarge);
    }
    Ok(())
}

fn inflate_stored(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    cap: usize,
) -> Result<(), CompressError> {
    r.align_byte();
    let header = r.read_bytes(4)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(CompressError::InvalidStream(
            "stored length mismatch".into(),
        ));
    }
    reserve(out, len as usize, cap)?;
    out.extend_from_slice(r.read_bytes(len as usize)?);
    Ok(())
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Huffman, Huffman), CompressError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > MAX_LCODES || hdist > MAX_DCODES {
        return Err(CompressError::InvalidStream("too many codes".into()));
    }
    let mut clen_lengths = [0u8; 19];
    for &idx in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[idx] = r.read_bits(3)? as u8;
    }
    let clen = Huffman::new(&clen_lengths)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = clen.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(CompressError::InvalidStream("repeat with no prior".into()));
                }
                let prev = lengths[i - 1];
                let rep = 3 + r.read_bits(2)? as usize;
                repeat(&mut lengths, &mut i, prev, rep)?;
            }
            17 => {
                let rep = 3 + r.read_bits(3)? as usize;
                repeat(&mut lengths, &mut i, 0, rep)?;
            }
            18 => {
                let rep = 11 + r.read_bits(7)? as usize;
                repeat(&mut lengths, &mut i, 0, rep)?;
            }
            _ => return Err(CompressError::InvalidStream("bad clen symbol".into())),
        }
    }
    if lengths[256] == 0 {
        return Err(CompressError::InvalidStream(
            "missing end-of-block code".into(),
        ));
    }
    let lit = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn repeat(lengths: &mut [u8], i: &mut usize, value: u8, rep: usize) -> Result<(), CompressError> {
    if *i + rep > lengths.len() {
        return Err(CompressError::InvalidStream("repeat overruns table".into()));
    }
    for _ in 0..rep {
        lengths[*i] = value;
        *i += 1;
    }
    Ok(())
}

fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    cap: usize,
    lit: &Huffman,
    dist: &Huffman,
) -> Result<(), CompressError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                reserve(out, 1, cap)?;
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let idx = (sym - 257) as usize;
                let len =
                    LENGTH_BASE[idx] as usize + r.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(CompressError::InvalidStream("bad distance code".into()));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(CompressError::InvalidStream(
                        "distance beyond output".into(),
                    ));
                }
                reserve(out, len, cap)?;
                let start = out.len() - d;
                // Overlapping copy: must be byte-by-byte.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(CompressError::InvalidStream("bad literal symbol".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn stored_block_roundtrip() {
        // Hand-built stored block: BFINAL=1, BTYPE=00, then LEN/NLEN + data.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        let payload = b"raw data";
        w.write_bytes(&(payload.len() as u16).to_le_bytes());
        w.write_bytes(&(!(payload.len() as u16)).to_le_bytes());
        w.write_bytes(payload);
        let stream = w.finish();
        assert_eq!(decompress(&stream).unwrap(), payload);
    }

    #[test]
    fn stored_block_bad_nlen_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&4u16.to_le_bytes());
        w.write_bytes(&4u16.to_le_bytes()); // wrong complement
        w.write_bytes(b"abcd");
        assert!(decompress(&w.finish()).is_err());
    }

    #[test]
    fn fixed_block_literal_only() {
        // BFINAL=1, BTYPE=01, literal 'A' (0x41 → code 0x30+0x41=0x71, 8 bits), EOB.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        w.write_code(0x30 + 0x41, 8); // 'A'
        w.write_code(0, 7); // end of block (symbol 256 → code 0, 7 bits)
        assert_eq!(decompress(&w.finish()).unwrap(), b"A");
    }

    #[test]
    fn fixed_block_with_backreference() {
        // "aaaa" = literal 'a' + match(len=3, dist=1).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        w.write_code(0x30 + b'a' as u32, 8);
        // length 3 → symbol 257 → fixed code 0b0000001 (7 bits), no extra
        w.write_code(1, 7);
        // distance 1 → dsym 0 → 5-bit code 0
        w.write_code(0, 5);
        w.write_code(0, 7); // EOB
        assert_eq!(decompress(&w.finish()).unwrap(), b"aaaa");
    }

    #[test]
    fn reserved_block_type_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(3, 2);
        assert!(matches!(
            decompress(&w.finish()),
            Err(CompressError::InvalidStream(_))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        assert!(matches!(decompress(&[]), Err(CompressError::UnexpectedEof)));
    }

    #[test]
    fn distance_beyond_output_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        // match with no prior output
        w.write_code(1, 7); // length 3
        w.write_code(0, 5); // distance 1
        w.write_code(0, 7);
        assert!(decompress(&w.finish()).is_err());
    }

    #[test]
    fn huffman_rejects_oversubscribed() {
        // Three codes of length 1 is over-subscribed.
        assert!(Huffman::new(&[1, 1, 1]).is_err());
    }

    #[test]
    fn huffman_single_code() {
        let h = Huffman::new(&[1]).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(h.decode(&mut r).unwrap(), 0);
    }

    #[test]
    fn multiple_blocks_concatenate() {
        let mut w = BitWriter::new();
        // First stored block, not final.
        w.write_bits(0, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&2u16.to_le_bytes());
        w.write_bytes(&(!2u16).to_le_bytes());
        w.write_bytes(b"ab");
        // Final stored block.
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&2u16.to_le_bytes());
        w.write_bytes(&(!2u16).to_le_bytes());
        w.write_bytes(b"cd");
        assert_eq!(decompress(&w.finish()).unwrap(), b"abcd");
    }
}
