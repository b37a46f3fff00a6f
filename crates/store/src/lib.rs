//! # tsr-store
//!
//! The durable storage engine under the TSR service (ROADMAP open item 2):
//! a **content-addressed blob store** plus a **write-ahead log**, with
//! snapshot + log-replay crash recovery.
//!
//! Every state mutation of the multi-tenant service — repository
//! create/delete, and the TPM-bound seal update that is a whole refresh —
//! is appended to the log as a checksummed, length-prefixed [`WalRecord`]
//! *before* the mutation is published to clients. The seal is the only
//! durable copy of a repository's indexes. Package bytes never travel
//! through the log: they are written once into the blob store under their
//! SHA-256 content hash (deduplicated across repositories and refreshes),
//! the hash the sealed indexes pin.
//!
//! Recovery ([`StoreEngine::open`]) loads the latest snapshot, then
//! replays the log tail on top of it. A torn record at the end of the log
//! — a crash mid-append — fails its checksum and is discarded whole;
//! a record is either fully applied or never applied. Every blob read
//! verifies the content hash (the disk is untrusted, exactly like the
//! package cache in the paper's §5.5); the engine keeps no blob resident
//! and hands each load out as an `Arc<[u8]>` for its caller to hold.
//!
//! The byte storage underneath is pluggable via [`StoreBackend`]:
//! [`DirBackend`] maps onto a real directory for production and the load
//! harness; the deterministic simulation harness plugs in an in-memory
//! filesystem (`tsr_simfs::SimFsBackend`).
//!
//! # Examples
//!
//! ```
//! use tsr_store::{MemBackend, StoreEngine, WalRecord};
//!
//! let (mut engine, report) = StoreEngine::open(Box::new(MemBackend::default()))?;
//! assert_eq!(report.replayed_records, 0);
//! let hash = engine.put_blob(b"package bytes")?;
//! engine.append(&WalRecord::RepoCreated {
//!     id: "repo-1".into(),
//!     policy_text: "f: 1\n".into(),
//! })?;
//! assert_eq!(&engine.get_blob(&hash)?[..], b"package bytes");
//! # Ok::<(), tsr_store::StoreError>(())
//! ```

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

mod backend;
mod engine;
mod record;
mod wal;

pub use backend::{DirBackend, MemBackend, StoreBackend};
pub use engine::{
    RecoveryReport, RepoState, StoreCounters, StoreEngine, StoreState, BLOB_READ_CHUNK,
};
pub use record::WalRecord;
pub use wal::{crc32, decode_frames, encode_frame, FrameScan, FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The backing byte store failed (missing file, I/O error, …).
    Backend(String),
    /// A record or snapshot failed to decode (corruption that checksums
    /// cannot repair, or a format from a future version).
    Corrupt(String),
    /// A blob's bytes do not match the content hash they are stored
    /// under — the untrusted disk was tampered with or rotted.
    HashMismatch {
        /// The content hash the blob was requested under.
        expected: String,
        /// The hash of the bytes actually found.
        got: String,
    },
    /// A blob referenced by the log is missing from the blob store.
    MissingBlob(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Backend(m) => write!(f, "store backend: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store data: {m}"),
            StoreError::HashMismatch { expected, got } => {
                write!(f, "blob hash mismatch: expected {expected}, got {got}")
            }
            StoreError::MissingBlob(h) => write!(f, "missing blob {h}"),
        }
    }
}

impl Error for StoreError {}
