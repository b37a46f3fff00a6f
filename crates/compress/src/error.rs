//! Error types for compression and decompression.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding DEFLATE or gzip streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The input ended before the stream was complete.
    UnexpectedEof,
    /// A block header, Huffman table, or symbol was malformed.
    InvalidStream(String),
    /// A gzip header was malformed or used unsupported features.
    InvalidGzipHeader(String),
    /// The gzip CRC32 or length trailer did not match the decompressed data.
    ChecksumMismatch,
    /// The decompressed output would pass the caller's size limit.
    OutputTooLarge,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CompressError::InvalidStream(msg) => write!(f, "invalid deflate stream: {msg}"),
            CompressError::InvalidGzipHeader(msg) => write!(f, "invalid gzip header: {msg}"),
            CompressError::ChecksumMismatch => write!(f, "gzip checksum mismatch"),
            CompressError::OutputTooLarge => write!(f, "decompressed output exceeds its limit"),
        }
    }
}

impl Error for CompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CompressError::UnexpectedEof.to_string().contains("end"));
        assert!(CompressError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
    }

    #[test]
    fn is_send_sync() {
        fn f<T: Send + Sync>() {}
        f::<CompressError>();
    }
}
