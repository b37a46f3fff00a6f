//! Gzip framing (RFC 1952) around DEFLATE.

use crate::crc32::Crc32;
use crate::error::CompressError;
use crate::{deflate, inflate};

const MAGIC: [u8; 2] = [0x1f, 0x8b];
const METHOD_DEFLATE: u8 = 8;

// Header flag bits.
const FTEXT: u8 = 1;
const FHCRC: u8 = 2;
const FEXTRA: u8 = 4;
const FNAME: u8 = 8;
const FCOMMENT: u8 = 16;

/// Compresses `data` into a gzip member (deterministic: mtime = 0).
///
/// # Examples
///
/// ```
/// let gz = tsr_compress::gzip::compress(b"hello");
/// assert_eq!(tsr_compress::gzip::decompress(&gz).unwrap(), b"hello");
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let body = deflate::compress(data);
    let mut out = Vec::with_capacity(body.len() + 18);
    out.extend_from_slice(&MAGIC);
    out.push(METHOD_DEFLATE);
    out.push(0); // flags
    out.extend_from_slice(&[0, 0, 0, 0]); // mtime = 0 for reproducible output
    out.push(0); // extra flags
    out.push(255); // OS = unknown
    out.extend_from_slice(&body);
    out.extend_from_slice(&Crc32::checksum(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a single gzip member, verifying CRC32 and length.
///
/// # Errors
///
/// Returns [`CompressError::InvalidGzipHeader`] on malformed headers,
/// [`CompressError::ChecksumMismatch`] when the trailer does not match, and
/// other [`CompressError`] variants on malformed DEFLATE data.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (out, _) = decompress_member(data)?;
    Ok(out)
}

/// Decompresses one gzip member, returning the data and bytes consumed.
///
/// # Errors
///
/// Same as [`decompress`].
pub fn decompress_member(data: &[u8]) -> Result<(Vec<u8>, usize), CompressError> {
    decompress_member_capped(data, usize::MAX)
}

/// [`decompress_member`] for untrusted input whose decompressed size has a
/// known bound: inflation stops at `cap` bytes, so a small member cannot
/// expand into a large allocation before anything checks it.
///
/// # Errors
///
/// [`CompressError::OutputTooLarge`] once the output would pass `cap`
/// bytes; otherwise the same as [`decompress`].
pub fn decompress_member_capped(
    data: &[u8],
    cap: usize,
) -> Result<(Vec<u8>, usize), CompressError> {
    if data.len() < 10 {
        return Err(CompressError::InvalidGzipHeader("too short".into()));
    }
    if data[0..2] != MAGIC {
        return Err(CompressError::InvalidGzipHeader("bad magic".into()));
    }
    if data[2] != METHOD_DEFLATE {
        return Err(CompressError::InvalidGzipHeader(format!(
            "unsupported method {}",
            data[2]
        )));
    }
    let flags = data[3];
    let mut pos = 10usize;
    if flags & FEXTRA != 0 {
        if data.len() < pos + 2 {
            return Err(CompressError::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    if flags & FNAME != 0 {
        pos = skip_cstr(data, pos)?;
    }
    if flags & FCOMMENT != 0 {
        pos = skip_cstr(data, pos)?;
    }
    if flags & FHCRC != 0 {
        pos += 2;
    }
    let _ = FTEXT; // informational flag; no action required
    if pos > data.len() {
        return Err(CompressError::UnexpectedEof);
    }
    let (out, consumed) = inflate::decompress_capped(&data[pos..], cap)?;
    let trailer_at = pos + consumed;
    if data.len() < trailer_at + 8 {
        return Err(CompressError::UnexpectedEof);
    }
    let crc = u32::from_le_bytes(data[trailer_at..trailer_at + 4].try_into().unwrap());
    let isize = u32::from_le_bytes(data[trailer_at + 4..trailer_at + 8].try_into().unwrap());
    if crc != Crc32::checksum(&out) || isize != out.len() as u32 {
        return Err(CompressError::ChecksumMismatch);
    }
    Ok((out, trailer_at + 8))
}

fn skip_cstr(data: &[u8], mut pos: usize) -> Result<usize, CompressError> {
    while *data.get(pos).ok_or(CompressError::UnexpectedEof)? != 0 {
        pos += 1;
    }
    Ok(pos + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        for msg in [&b""[..], b"x", b"hello world", &[0u8; 100_000][..]] {
            assert_eq!(decompress(&compress(msg)).unwrap(), msg);
        }
    }

    #[test]
    fn deterministic_output() {
        assert_eq!(compress(b"same input"), compress(b"same input"));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut gz = compress(b"data");
        gz[0] = 0;
        assert!(matches!(
            decompress(&gz),
            Err(CompressError::InvalidGzipHeader(_))
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(10);
        let mut gz = compress(&data);
        let mid = gz.len() / 2;
        gz[mid] ^= 0xff;
        assert!(decompress(&gz).is_err());
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut gz = compress(b"payload");
        let n = gz.len();
        gz[n - 5] ^= 1; // inside CRC field
        assert!(matches!(
            decompress(&gz),
            Err(CompressError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncated_trailer_detected() {
        let gz = compress(b"payload");
        assert!(matches!(
            decompress(&gz[..gz.len() - 3]),
            Err(CompressError::UnexpectedEof)
        ));
    }

    #[test]
    fn header_with_fname_parsed() {
        // Build a header that carries a file name.
        let body = crate::deflate::compress(b"named");
        let mut gz = vec![0x1f, 0x8b, 8, FNAME, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(b"file.txt\0");
        gz.extend_from_slice(&body);
        gz.extend_from_slice(&Crc32::checksum(b"named").to_le_bytes());
        gz.extend_from_slice(&5u32.to_le_bytes());
        assert_eq!(decompress(&gz).unwrap(), b"named");
    }

    #[test]
    fn member_length_reported() {
        let gz = compress(b"abc");
        let (out, used) = decompress_member(&gz).unwrap();
        assert_eq!(out, b"abc");
        assert_eq!(used, gz.len());
    }

    #[test]
    fn capped_member_stops_just_past_the_cap() {
        let zeros = vec![0u8; 100_000];
        let mut state = 0x1234_5678u32;
        let random: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        // A fixed-Huffman block (BTYPE 1), then stored blocks (BTYPE 0).
        for (data, btype) in [(zeros, 1), (random, 0)] {
            let gz = compress(&data);
            assert_eq!((gz[10] >> 1) & 0b11, btype);
            let (out, used) = decompress_member_capped(&gz, data.len()).unwrap();
            assert_eq!((out, used), (data.clone(), gz.len()));
            assert_eq!(
                decompress_member_capped(&gz, data.len() - 1),
                Err(CompressError::OutputTooLarge)
            );
        }
    }

    #[test]
    fn too_short_input() {
        assert!(decompress(&[0x1f, 0x8b]).is_err());
    }
}
