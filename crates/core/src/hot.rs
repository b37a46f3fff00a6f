//! The serve cache: what index and package GETs answer from without
//! queueing on a repository shard lock.
//!
//! Per repository it holds what a writer *published* — the signed index
//! and its ETag, the very `Arc<[u8]>` the repository keeps — and, under
//! that version, the package blobs reads have warmed so far (aliases of
//! the package cache's own allocations). The HTTP layer writes both out
//! via [`tsr_http::Body::Shared`] without cloning, and the cache owns no
//! byte of its own, so it has no budget. The whole protocol is three
//! operations:
//!
//! - `publish` — called with the shard lock held at every point the
//!   signed index can change (refresh, restart, recovery, replicated
//!   apply, `with_repository_mut`), and by delete once the shard has
//!   left the repository map. It *replaces* the entry, so moving to a
//!   new version and invalidating the old blobs are one step, and only
//!   a writer can do either.
//! - `lookup` — the read path: one read lock, no shard lock.
//! - `warm` — a package reader that had to take the shard lock (the
//!   first serve of a version is the one that verifies the cached bytes)
//!   offers the blob it served, tagged with the index ETag it read. It
//!   is kept only if that ETag is still the published one: a reader can
//!   fill packages but never move, resurrect or create a version.
//!
//! One leaf lock in the hierarchy: never held while acquiring another.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// One repository's published signed index and the package blobs warmed
/// under it.
pub(crate) struct HotEntry {
    index_etag: String,
    index: Arc<[u8]>,
    /// Package name → (package ETag, sanitized blob).
    packages: BTreeMap<String, (String, Arc<[u8]>)>,
}

impl HotEntry {
    /// The published signed-index ETag.
    pub(crate) fn index_etag(&self) -> &str {
        &self.index_etag
    }

    /// The published signed index bytes.
    pub(crate) fn index(&self) -> &Arc<[u8]> {
        &self.index
    }

    /// One package's `(ETag, blob)`, once warmed.
    pub(crate) fn package(&self, name: &str) -> Option<(&str, &Arc<[u8]>)> {
        self.packages.get(name).map(|(etag, blob)| (&**etag, blob))
    }
}

/// The serve cache of one service (see the module docs).
#[derive(Default)]
pub(crate) struct HotCache {
    entries: RwLock<BTreeMap<String, HotEntry>>,
}

impl HotCache {
    /// Publishes `index` — the signed index's `(ETag, bytes)`, `None`
    /// when the repository is gone or has no signed index — as
    /// repository `id`'s version, dropping whatever was cached for it.
    /// Writers only (see the module docs).
    pub(crate) fn publish(&self, id: &str, index: Option<(&str, &Arc<[u8]>)>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        match index {
            Some((etag, index)) => {
                let entry = HotEntry {
                    index_etag: etag.to_string(),
                    index: Arc::clone(index),
                    packages: BTreeMap::new(),
                };
                entries.insert(id.to_string(), entry);
            }
            None => {
                entries.remove(id);
            }
        }
    }

    /// Runs `f` on repository `id`'s entry under the read lock; `None`
    /// when nothing is published for it.
    pub(crate) fn lookup<R>(&self, id: &str, f: impl FnOnce(&HotEntry) -> R) -> Option<R> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .map(f)
    }

    /// Offers package `name`'s blob (with its own ETag `etag`) that was
    /// read under the shard lock when the index ETag was `etag_read`.
    /// Ignored unless that is still the published version.
    pub(crate) fn warm(&self, id: &str, etag_read: &str, name: &str, etag: &str, blob: Arc<[u8]>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = entries.get_mut(id).filter(|e| e.index_etag == etag_read) {
            entry
                .packages
                .insert(name.to_string(), (etag.to_string(), blob));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(byte: u8, len: usize) -> Arc<[u8]> {
        Arc::from(vec![byte; len].into_boxed_slice())
    }

    fn package_of(cache: &HotCache, id: &str) -> Option<(String, Option<Arc<[u8]>>)> {
        cache.lookup(id, |e| {
            let pkg = e.package("tool").map(|(_, blob)| Arc::clone(blob));
            (e.index_etag().to_string(), pkg)
        })
    }

    #[test]
    fn a_reader_can_fill_blobs_but_never_move_or_create_a_version() {
        let cache = HotCache::default();
        let index = blob(0, 8);
        // Reader read E1 under the shard lock and let go of it; a
        // refresh published E2; the reader's warm arrives last.
        cache.publish("r", Some(("E1", &index)));
        cache.publish("r", Some(("E2", &index)));
        cache.warm("r", "E1", "tool", "P1", blob(1, 8));
        assert_eq!(package_of(&cache, "r"), Some(("E2".to_string(), None)));

        // Same interleaving with a delete: nothing comes back.
        cache.publish("r", None);
        cache.warm("r", "E2", "tool", "P1", blob(1, 8));
        assert!(package_of(&cache, "r").is_none());
        // Nor does a warm create an entry for an id never published.
        cache.warm("ghost", "E1", "tool", "P1", blob(1, 8));
        assert!(package_of(&cache, "ghost").is_none());
    }

    #[test]
    fn publish_replaces_the_entry_and_warm_fills_it() {
        let cache = HotCache::default();
        let index = blob(1, 8);
        cache.publish("r", Some(("E1", &index)));
        let pkg = blob(2, 8);
        cache.warm("r", "E1", "tool", "P1", Arc::clone(&pkg));
        cache
            .lookup("r", |e| {
                assert!(Arc::ptr_eq(e.index(), &index), "publish aliases the index");
                let (etag, served) = e.package("tool").unwrap();
                assert_eq!(etag, "P1");
                assert!(Arc::ptr_eq(served, &pkg));
                assert!(e.package("other").is_none());
            })
            .unwrap();
        // Re-publishing — even the same version — starts from no packages.
        cache.publish("r", Some(("E1", &index)));
        cache
            .lookup("r", |e| assert!(e.package("tool").is_none()))
            .unwrap();
    }
}
