//! The storage engine: blob store + WAL + snapshot, and recovery.
//!
//! The engine keeps no blob resident: a put writes through to a file, a
//! get streams the file back and verifies it against the hash it is
//! stored under, every time. Who holds the bytes afterwards is the
//! caller's business (`tsr-core`'s `PackageCache`, keyed by the same
//! content hash).
//!
//! The metadata state is small: per repository, the policy text and the
//! sealed blob with its TPM counter value. The seal is the only durable
//! copy of a repository's indexes; the engine never sees them in the
//! clear.
//!
//! On-"disk" layout (relative to the backend root):
//!
//! ```text
//! wal.log          frames of WalRecords since the last snapshot
//! snapshot.bin     one frame holding the encoded StoreState
//! snapshot.tmp     snapshot being written (published by rename)
//! blobs/ab/abcd…   one file per blob, keyed by hex SHA-256
//! ```
//!
//! Appends go to `wal.log` *before* the corresponding in-memory state is
//! published; every [`SNAPSHOT_EVERY_DEFAULT`] records the engine folds
//! the log into a fresh snapshot (write `snapshot.tmp`, rename over
//! `snapshot.bin`, truncate the log). Recovery loads the snapshot and
//! replays the log on top. Replay is idempotent — records carry absolute
//! state, not deltas — so a crash between the snapshot rename and the
//! log truncation only replays records the snapshot already contains.

use std::collections::BTreeMap;
use std::sync::Arc;

use tsr_crypto::{hex, Sha256};

use crate::record::{put_bytes, put_str, Reader};
use crate::wal::{decode_frames, encode_frame};
use crate::{StoreBackend, StoreError, WalRecord};

const WAL_PATH: &str = "wal.log";
const SNAPSHOT_PATH: &str = "snapshot.bin";
const SNAPSHOT_TMP_PATH: &str = "snapshot.tmp";
const SNAPSHOT_VERSION: u8 = 2;

/// Snapshot cadence: fold the log into a snapshot after this many
/// appended records. Low enough to keep replay short, high enough that
/// steady-state refreshes almost always pay only one small append.
pub const SNAPSHOT_EVERY_DEFAULT: usize = 32;

/// Chunk size for streaming blob loads off the backend: large enough to
/// amortize per-read overhead, small enough that recovery's transient
/// buffering stays bounded regardless of blob size.
pub const BLOB_READ_CHUNK: usize = 64 * 1024;

/// Durable per-repository metadata, as reconstructed by recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoState {
    /// The deployed policy document.
    pub policy_text: String,
    /// The TPM-bound sealed metadata blob (empty before first seal).
    pub sealed: Vec<u8>,
    /// The monotonic-counter value bound into `sealed`.
    pub seal_counter: u64,
}

/// The full durable metadata state: what a snapshot captures and what
/// recovery hands back to the service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreState {
    /// The next repository id suffix (`repo-N`) to allocate.
    pub next_id: u64,
    /// Live repositories by id.
    pub repos: BTreeMap<String, RepoState>,
}

impl StoreState {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_VERSION];
        out.extend_from_slice(&self.next_id.to_le_bytes());
        out.extend_from_slice(&(self.repos.len() as u32).to_le_bytes());
        for (id, repo) in &self.repos {
            put_str(&mut out, id);
            put_str(&mut out, &repo.policy_text);
            put_bytes(&mut out, &repo.sealed);
            out.extend_from_slice(&repo.seal_counter.to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let (&version, rest) = bytes
            .split_first()
            .ok_or_else(|| StoreError::Corrupt("empty snapshot".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "snapshot version {version} unsupported"
            )));
        }
        let mut r = Reader::new(rest);
        let next_id = r.u64()?;
        let repo_count = r.u32()? as usize;
        let mut repos = BTreeMap::new();
        for _ in 0..repo_count {
            let id = r.string()?;
            let repo = RepoState {
                policy_text: r.string()?,
                sealed: r.bytes()?,
                seal_counter: r.u64()?,
            };
            repos.insert(id, repo);
        }
        r.done()?;
        Ok(StoreState { next_id, repos })
    }

    /// Applies one record. Records carry absolute state, so applying is
    /// idempotent — replaying a record the state already reflects is a
    /// no-op in effect.
    fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::RepoCreated { id, policy_text } => {
                if let Some(n) = id.strip_prefix("repo-").and_then(|s| s.parse::<u64>().ok()) {
                    self.next_id = self.next_id.max(n + 1);
                }
                self.repos.insert(
                    id.clone(),
                    RepoState {
                        policy_text: policy_text.clone(),
                        ..RepoState::default()
                    },
                );
            }
            WalRecord::RepoDeleted { id } => {
                self.repos.remove(id);
            }
            WalRecord::SealUpdated {
                id,
                sealed,
                counter,
            } => {
                if let Some(repo) = self.repos.get_mut(id) {
                    repo.sealed = sealed.clone();
                    repo.seal_counter = *counter;
                }
            }
        }
    }
}

/// Cumulative engine counters, mirrored into `/v1/metrics` by the
/// service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// WAL records appended (live appends, not replay).
    pub wal_appends: u64,
    /// Framed bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Snapshots folded and published.
    pub snapshot_writes: u64,
    /// Records replayed from the log during the last recovery.
    pub recovery_replayed_records: u64,
}

/// What [`StoreEngine::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded under the log.
    pub snapshot_loaded: bool,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn/corrupt tail bytes discarded from the log (a crash
    /// mid-append leaves at most one torn record).
    pub torn_bytes_discarded: u64,
}

/// The durable storage engine. One instance per service; the service
/// serializes access behind a leaf lock (see the lock-order notes in
/// `ARCHITECTURE.md`).
pub struct StoreEngine {
    backend: Box<dyn StoreBackend>,
    state: StoreState,
    records_since_snapshot: usize,
    snapshot_every: usize,
    counters: StoreCounters,
}

impl std::fmt::Debug for StoreEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEngine")
            .field("repos", &self.state.repos.len())
            .field("counters", &self.counters)
            .finish()
    }
}

fn blob_path(hash: &str) -> String {
    // Two-level fan-out keeps directory sizes sane on real filesystems.
    let shard = hash.get(..2).unwrap_or("xx");
    format!("blobs/{shard}/{hash}")
}

impl StoreEngine {
    /// Opens the engine over `backend`, running snapshot-then-log
    /// recovery. A torn log tail is truncated away; blob contents are
    /// verified on every [`StoreEngine::get_blob`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the snapshot or a checksum-valid
    /// record fails to decode (format damage the checksum layer cannot
    /// explain), [`StoreError::Backend`] on I/O failure.
    pub fn open(backend: Box<dyn StoreBackend>) -> Result<(Self, RecoveryReport), StoreError> {
        let mut engine = StoreEngine {
            backend,
            state: StoreState::default(),
            records_since_snapshot: 0,
            snapshot_every: SNAPSHOT_EVERY_DEFAULT,
            counters: StoreCounters::default(),
        };
        let mut report = RecoveryReport::default();

        if engine.backend.exists(SNAPSHOT_PATH) {
            let framed = engine.backend.read(SNAPSHOT_PATH)?;
            let scan = decode_frames(&framed);
            let payload = scan
                .payloads
                .first()
                .ok_or_else(|| StoreError::Corrupt("snapshot frame unreadable".into()))?;
            engine.state = StoreState::decode(payload)?;
            report.snapshot_loaded = true;
        }

        if engine.backend.exists(WAL_PATH) {
            let bytes = engine.backend.read(WAL_PATH)?;
            let scan = decode_frames(&bytes);
            for payload in &scan.payloads {
                let record = WalRecord::decode(payload)?;
                engine.state.apply(&record);
                report.replayed_records += 1;
            }
            engine.records_since_snapshot = scan.payloads.len();
            if scan.torn {
                // Truncate the torn tail so future appends extend the
                // valid prefix instead of burying garbage mid-log.
                report.torn_bytes_discarded = (bytes.len() - scan.valid_len) as u64;
                engine.backend.write(WAL_PATH, &bytes[..scan.valid_len])?;
            }
        }

        engine.counters.recovery_replayed_records = report.replayed_records;
        Ok((engine, report))
    }

    /// The recovered/live metadata state.
    pub fn state(&self) -> &StoreState {
        &self.state
    }

    /// Cumulative counters (mirrored into `/v1/metrics`).
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Appends one record to the WAL — durable before the caller
    /// publishes the corresponding in-memory state — and folds a
    /// snapshot when the cadence is reached.
    ///
    /// # Errors
    ///
    /// [`StoreError::Backend`] on I/O failure; the in-memory engine
    /// state is not advanced in that case.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        let frame = encode_frame(&record.encode());
        self.backend.append(WAL_PATH, &frame)?;
        self.counters.wal_appends += 1;
        self.counters.wal_bytes += frame.len() as u64;
        self.state.apply(record);
        self.records_since_snapshot += 1;
        if self.records_since_snapshot >= self.snapshot_every {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Folds the current state into a published snapshot and truncates
    /// the log. Publish order matters: the snapshot is durable (rename
    /// over the old one) *before* the log shrinks, so a crash in between
    /// merely replays records the snapshot already contains.
    ///
    /// # Errors
    ///
    /// [`StoreError::Backend`] on I/O failure.
    pub fn write_snapshot(&mut self) -> Result<(), StoreError> {
        let framed = encode_frame(&self.state.encode());
        self.backend.write(SNAPSHOT_TMP_PATH, &framed)?;
        self.backend.rename(SNAPSHOT_TMP_PATH, SNAPSHOT_PATH)?;
        self.backend.write(WAL_PATH, &[])?;
        self.records_since_snapshot = 0;
        self.counters.snapshot_writes += 1;
        Ok(())
    }

    /// Stores a blob under its content hash, deduplicated: bytes already
    /// on disk are not rewritten. Returns the hex SHA-256 key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Backend`] on I/O failure.
    pub fn put_blob(&mut self, bytes: &[u8]) -> Result<String, StoreError> {
        let hash = hex::to_hex(&Sha256::digest(bytes));
        let path = blob_path(&hash);
        if !self.backend.exists(&path) {
            self.backend.write(&path, bytes)?;
        }
        Ok(hash)
    }

    /// Whether a blob file for `hash` is on disk.
    pub fn has_blob(&self, hash: &str) -> bool {
        self.backend.exists(&blob_path(hash))
    }

    /// Loads a blob as a shared allocation, verifying the bytes against
    /// the content hash they are stored under — on every load: the disk
    /// is untrusted and nothing is kept resident between calls.
    ///
    /// The file is streamed from the backend in [`BLOB_READ_CHUNK`]-byte
    /// ranged reads feeding an incremental hasher, so recovery never
    /// asks the backend to materialize a blob-sized buffer on top of the
    /// final allocation.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingBlob`] when absent,
    /// [`StoreError::HashMismatch`] when the disk bytes were tampered.
    pub fn get_blob(&self, hash: &str) -> Result<Arc<[u8]>, StoreError> {
        let path = blob_path(hash);
        if !self.backend.exists(&path) {
            return Err(StoreError::MissingBlob(hash.to_string()));
        }
        let len = self.backend.file_len(&path)?;
        let mut bytes = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        let mut hasher = Sha256::new();
        let mut chunk = vec![0u8; BLOB_READ_CHUNK.min(len.max(1) as usize)];
        let mut offset = 0u64;
        while offset < len {
            let n = self.backend.read_at(&path, offset, &mut chunk)?;
            if n == 0 {
                return Err(StoreError::Backend(format!(
                    "blob {path} truncated at byte {offset} of {len}"
                )));
            }
            hasher.update(&chunk[..n]);
            bytes.extend_from_slice(&chunk[..n]);
            offset += n as u64;
        }
        let got = hex::to_hex(&hasher.finalize());
        if got != hash {
            return Err(StoreError::HashMismatch {
                expected: hash.to_string(),
                got,
            });
        }
        Ok(Arc::from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;

    fn created(n: u64) -> WalRecord {
        WalRecord::RepoCreated {
            id: format!("repo-{n}"),
            policy_text: format!("policy {n}"),
        }
    }

    fn engine() -> StoreEngine {
        StoreEngine::open(Box::new(MemBackend::default()))
            .unwrap()
            .0
    }

    fn backend_as_mem(e: &StoreEngine) -> &MemBackend {
        e.backend
            .as_any()
            .downcast_ref::<MemBackend>()
            .expect("test engines use MemBackend")
    }

    /// Reopens an engine on a copy of another engine's backend bytes —
    /// the "kill and recover on the same disk" move.
    fn reopen(e: &StoreEngine) -> (StoreEngine, RecoveryReport) {
        StoreEngine::open(Box::new(backend_as_mem(e).clone())).unwrap()
    }

    #[test]
    fn append_replay_roundtrip() {
        let mut e = engine();
        e.append(&created(1)).unwrap();
        e.append(&WalRecord::SealUpdated {
            id: "repo-1".into(),
            sealed: vec![9, 9],
            counter: 1,
        })
        .unwrap();

        let (r, report) = reopen(&e);
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed_records, 2);
        assert_eq!(r.state(), e.state());
        assert_eq!(r.state().next_id, 2);
        let repo = &r.state().repos["repo-1"];
        assert_eq!(repo.sealed, [9, 9]);
        assert_eq!(repo.seal_counter, 1);
    }

    #[test]
    fn snapshot_folds_log_and_recovery_uses_it() {
        let mut e = engine();
        e.snapshot_every = 2;
        e.append(&created(1)).unwrap(); // 1 since snapshot
        e.append(&created(2)).unwrap(); // cadence hit: snapshot + truncate
        assert_eq!(e.counters().snapshot_writes, 1);
        e.append(&created(3)).unwrap(); // 1 record in the fresh log

        let (r, report) = reopen(&e);
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 1, "only the post-snapshot tail");
        assert_eq!(r.state().repos.len(), 3);
        assert_eq!(r.state().next_id, 4);
    }

    #[test]
    fn torn_tail_truncated_on_recovery() {
        let mut e = engine();
        e.append(&created(1)).unwrap();
        e.append(&created(2)).unwrap();
        let mut mem = backend_as_mem(&e).clone();
        let wal = mem.file_mut(WAL_PATH).unwrap();
        let torn_len = wal.len();
        wal.truncate(torn_len - 5); // crash mid-append of record 2

        let (r, report) = StoreEngine::open(Box::new(mem.clone())).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert!(report.torn_bytes_discarded > 0);
        assert_eq!(r.state().repos.len(), 1);
        // The tail was truncated away on disk: reopening is clean now.
        let (_, report2) = reopen(&r);
        assert_eq!(report2.torn_bytes_discarded, 0);
        assert_eq!(report2.replayed_records, 1);
    }

    #[test]
    fn delete_removes_and_next_id_survives() {
        let mut e = engine();
        e.append(&created(1)).unwrap();
        e.append(&created(2)).unwrap();
        e.append(&WalRecord::RepoDeleted {
            id: "repo-2".into(),
        })
        .unwrap();
        let (r, _) = reopen(&e);
        assert_eq!(r.state().repos.len(), 1);
        assert_eq!(r.state().next_id, 3, "deleted ids are never reallocated");
    }

    /// Edits one file of `e`'s disk in place (the adversary's move).
    fn edit_file(e: &mut StoreEngine, path: &str, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut mem = backend_as_mem(e).clone();
        edit(mem.file_mut(path).unwrap());
        e.backend = Box::new(mem);
    }

    #[test]
    fn blobs_deduplicated_and_verified() {
        let mut e = engine();
        let h1 = e.put_blob(b"same bytes").unwrap();
        assert!(e.has_blob(&h1));

        // A fresh engine on the same disk re-reads and verifies.
        let (r, _) = reopen(&e);
        assert_eq!(&r.get_blob(&h1).unwrap()[..], b"same bytes");
        assert!(matches!(
            r.get_blob(&"0".repeat(64)),
            Err(StoreError::MissingBlob(_))
        ));

        // The second put of the same bytes performs no backend write: a
        // marker left in the file survives it.
        edit_file(&mut e, &blob_path(&h1), |f| f.push(b'!'));
        assert_eq!(e.put_blob(b"same bytes").unwrap(), h1);
        assert_eq!(e.backend.read(&blob_path(&h1)).unwrap(), b"same bytes!");
    }

    #[test]
    fn every_get_blob_verifies_the_file() {
        let mut e = engine();
        let h = e.put_blob(b"same bytes").unwrap();
        assert_eq!(&e.get_blob(&h).unwrap()[..], b"same bytes");
        // Flipped on disk after one successful load: the next load reads
        // the file again, so it is reported rather than served from memory.
        edit_file(&mut e, &blob_path(&h), |f| f[0] ^= 0xFF);
        assert!(matches!(
            e.get_blob(&h),
            Err(StoreError::HashMismatch { .. })
        ));
    }

    #[test]
    fn counters_track_appends_and_snapshots() {
        let mut e = engine();
        e.snapshot_every = 3;
        for n in 1..=4 {
            e.append(&created(n)).unwrap();
        }
        let c = e.counters();
        assert_eq!(c.wal_appends, 4);
        assert!(c.wal_bytes > 0);
        assert_eq!(c.snapshot_writes, 1);
        let (r, _) = reopen(&e);
        assert_eq!(r.counters().recovery_replayed_records, 1);
    }

    #[test]
    fn retired_refresh_record_and_v1_snapshot_are_refused() {
        let open_with = |path: &str, payload: &[u8]| {
            let mut mem = MemBackend::default();
            mem.write(path, &encode_frame(payload)).unwrap();
            StoreEngine::open(Box::new(mem)).map(|_| ())
        };
        // A checksum-valid frame of the retired tag 3 (id, two index
        // texts, zero package refs).
        let mut tag3 = vec![3];
        for field in ["repo-1", "U", "S"] {
            put_str(&mut tag3, field);
        }
        tag3.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            open_with(WAL_PATH, &tag3),
            Err(StoreError::Corrupt("unknown record tag 3".into()))
        );
        // A v1 snapshot: one repository with the index texts and package
        // refs between its policy and its seal.
        let mut v1 = vec![1];
        v1.extend_from_slice(&2u64.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        for field in ["repo-1", "policy", "U", "S"] {
            put_str(&mut v1, field);
        }
        put_bytes(&mut v1, &[9, 9]);
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            open_with(SNAPSHOT_PATH, &v1),
            Err(StoreError::Corrupt("snapshot version 1 unsupported".into()))
        );
    }
}
