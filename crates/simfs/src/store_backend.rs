//! [`tsr_store::StoreBackend`] over a shared [`SimFs`] — the durable
//! "disk" of the deterministic simulation.
//!
//! The filesystem is held behind `Arc<Mutex<…>>` so it outlives any one
//! service process: a crash-recovery scenario drops the service (and its
//! engine) while the harness keeps the disk handle, then opens a fresh
//! engine on the same bytes. Cloning the `SimFs` inside the mutex
//! snapshots the disk at a crash point.

use std::sync::{Arc, Mutex};

use tsr_store::{StoreBackend, StoreError};

use crate::SimFs;

/// A store backend writing into a shared simulated filesystem under a
/// fixed root directory.
#[derive(Debug, Clone)]
pub struct SimFsBackend {
    fs: Arc<Mutex<SimFs>>,
    root: String,
}

impl SimFsBackend {
    /// Wraps a shared filesystem, rooting all engine paths under `root`
    /// (an absolute SimFs path such as `"/store"`).
    pub fn new(fs: Arc<Mutex<SimFs>>, root: &str) -> Self {
        SimFsBackend {
            fs,
            root: root.trim_end_matches('/').to_string(),
        }
    }

    /// The shared filesystem handle (harnesses keep one to snapshot or
    /// tamper with the disk between service lifetimes).
    pub fn fs(&self) -> Arc<Mutex<SimFs>> {
        Arc::clone(&self.fs)
    }

    fn abs(&self, path: &str) -> String {
        format!("{}/{}", self.root, path)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimFs> {
        self.fs.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StoreBackend for SimFsBackend {
    fn read(&self, path: &str) -> Result<Vec<u8>, StoreError> {
        self.lock()
            .read_file(&self.abs(path))
            .map(<[u8]>::to_vec)
            .map_err(|e| StoreError::Backend(e.to_string()))
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock()
            .write_file(&self.abs(path), bytes.to_vec())
            .map_err(|e| StoreError::Backend(e.to_string()))
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock()
            .append_file(&self.abs(path), bytes)
            .map_err(|e| StoreError::Backend(e.to_string()))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.lock()
            .rename(&self.abs(from), &self.abs(to))
            .map_err(|e| StoreError::Backend(e.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.lock().exists(&self.abs(path))
    }

    fn file_len(&self, path: &str) -> Result<u64, StoreError> {
        self.lock()
            .read_file(&self.abs(path))
            .map(|b| b.len() as u64)
            .map_err(|e| StoreError::Backend(e.to_string()))
    }

    fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError> {
        let fs = self.lock();
        let bytes = fs
            .read_file(&self.abs(path))
            .map_err(|e| StoreError::Backend(e.to_string()))?;
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(bytes.len());
        let n = (bytes.len() - start).min(buf.len());
        buf[..n].copy_from_slice(&bytes[start..start + n]);
        Ok(n)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsr_store::{StoreEngine, WalRecord};

    #[test]
    fn disk_survives_the_engine() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        {
            let backend = SimFsBackend::new(Arc::clone(&fs), "/store");
            let (mut engine, _) = StoreEngine::open(Box::new(backend)).unwrap();
            engine
                .append(&WalRecord::RepoCreated {
                    id: "repo-1".into(),
                    policy_text: "f: 1\n".into(),
                })
                .unwrap();
            engine.put_blob(b"apk bytes").unwrap();
        } // service crash: engine dropped, disk handle kept

        assert!(fs.lock().unwrap().exists("/store/wal.log"));
        let backend = SimFsBackend::new(Arc::clone(&fs), "/store");
        let (mut engine, report) = StoreEngine::open(Box::new(backend)).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert!(engine.state().repos.contains_key("repo-1"));
        let hash = engine.put_blob(b"apk bytes").unwrap();
        assert_eq!(&engine.get_blob(&hash).unwrap()[..], b"apk bytes");
    }

    #[test]
    fn two_backends_share_one_disk() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let mut a = SimFsBackend::new(Arc::clone(&fs), "/store");
        let b = SimFsBackend::new(fs, "/store");
        a.write("wal.log", b"shared").unwrap();
        assert_eq!(b.read("wal.log").unwrap(), b"shared");
    }

    /// Records the largest buffer any single backend call materializes,
    /// proving blob recovery streams in bounded chunks instead of
    /// reading files whole.
    struct SpyBackend {
        inner: SimFsBackend,
        max_read: Arc<Mutex<usize>>,
    }

    impl SpyBackend {
        fn note(&self, n: usize) {
            let mut max = self.max_read.lock().unwrap();
            *max = (*max).max(n);
        }
    }

    impl StoreBackend for SpyBackend {
        fn read(&self, path: &str) -> Result<Vec<u8>, StoreError> {
            let bytes = self.inner.read(path)?;
            self.note(bytes.len());
            Ok(bytes)
        }

        fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.write(path, bytes)
        }

        fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.append(path, bytes)
        }

        fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
            self.inner.rename(from, to)
        }

        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }

        fn file_len(&self, path: &str) -> Result<u64, StoreError> {
            self.inner.file_len(path)
        }

        fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError> {
            let n = self.inner.read_at(path, offset, buf)?;
            self.note(n);
            Ok(n)
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn blob_recovery_streams_in_bounded_chunks() {
        use tsr_store::BLOB_READ_CHUNK;

        let fs = Arc::new(Mutex::new(SimFs::new()));
        let blob: Vec<u8> = (0..3 * BLOB_READ_CHUNK + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let hash = {
            let backend = SimFsBackend::new(Arc::clone(&fs), "/store");
            let (mut engine, _) = StoreEngine::open(Box::new(backend)).unwrap();
            engine.put_blob(&blob).unwrap()
        }; // crash: cache gone, blob only on the simulated disk

        let max_read = Arc::new(Mutex::new(0usize));
        let spy = SpyBackend {
            inner: SimFsBackend::new(fs, "/store"),
            max_read: Arc::clone(&max_read),
        };
        let (engine, _) = StoreEngine::open(Box::new(spy)).unwrap();
        assert_eq!(&engine.get_blob(&hash).unwrap()[..], &blob[..]);
        let peak = *max_read.lock().unwrap();
        assert!(peak > 0, "spy saw no reads");
        assert!(
            peak <= BLOB_READ_CHUNK,
            "a single backend read materialized {peak} bytes (cap {BLOB_READ_CHUNK})"
        );
    }
}
