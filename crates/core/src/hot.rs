//! The serve cache: what index and package GETs answer from without
//! queueing on a repository shard lock.
//!
//! Per repository it holds the *published* signed-index ETag and,
//! under that version, the zero-copy blobs reads have warmed so far
//! (the signed index and served packages as `Arc<[u8]>`, which the HTTP
//! layer writes out via [`tsr_http::Body::Shared`] without cloning).
//! The whole protocol is three operations:
//!
//! - `publish` — called with the shard lock held at every point the
//!   signed index can change (refresh, restart, recovery, replicated
//!   apply, `with_repository_mut`), and by delete once the shard has
//!   left the repository map. It *replaces* the entry, so moving to a
//!   new version and invalidating the old blobs are one step, and only
//!   a writer can do either.
//! - `lookup` — the read path: one read lock, no shard lock.
//! - `warm` — a reader that had to take the shard lock offers the blob
//!   it served, tagged with the ETag it read. It is kept only if that
//!   ETag is still the published one: a reader can fill blobs but never
//!   move, resurrect or create a version.
//!
//! One leaf lock in the hierarchy: never held while acquiring another.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use tsr_obs::Counter;

/// Default [`crate::TsrService::set_hot_blob_budget`] cap: generous for
/// the single-digit-tenant test worlds, small enough that a many-tenant
/// deployment cannot pin every tenant's index and packages forever.
pub const DEFAULT_HOT_BLOB_BUDGET: usize = 64 << 20;

/// One repository's published index version and the blobs warmed under
/// it.
pub(crate) struct HotEntry {
    index_etag: String,
    index: Option<Arc<[u8]>>,
    /// Package name → (package ETag, sanitized blob).
    packages: BTreeMap<String, (String, Arc<[u8]>)>,
    /// Summed payload bytes of `index` + `packages` (budget accounting).
    bytes: usize,
    /// Clock value of the last warm (eviction order: oldest goes first).
    stamp: u64,
}

impl HotEntry {
    /// The published signed-index ETag.
    pub(crate) fn index_etag(&self) -> &str {
        &self.index_etag
    }

    /// The signed index bytes, once warmed.
    pub(crate) fn index(&self) -> Option<&Arc<[u8]>> {
        self.index.as_ref()
    }

    /// One package's `(ETag, blob)`, once warmed.
    pub(crate) fn package(&self, name: &str) -> Option<(&str, &Arc<[u8]>)> {
        self.packages.get(name).map(|(etag, blob)| (&**etag, blob))
    }
}

/// Which blob of an entry [`HotCache::warm`] fills.
pub(crate) enum Slot<'a> {
    /// The signed index.
    Index,
    /// One package, with its own ETag.
    Package {
        /// Package name.
        name: &'a str,
        /// The package's quoted ETag.
        etag: &'a str,
    },
}

/// The serve cache of one service (see the module docs).
pub(crate) struct HotCache {
    entries: RwLock<BTreeMap<String, HotEntry>>,
    /// Byte cap for the summed blob payloads.
    budget: AtomicUsize,
    /// Monotonic warm clock stamping entries for eviction ordering.
    clock: AtomicU64,
    /// Entries whose blobs were dropped to fit the budget.
    evictions: Counter,
}

impl HotCache {
    /// An empty cache counting budget evictions into `evictions`.
    pub(crate) fn new(evictions: Counter) -> Self {
        HotCache {
            entries: RwLock::new(BTreeMap::new()),
            budget: AtomicUsize::new(DEFAULT_HOT_BLOB_BUDGET),
            clock: AtomicU64::new(0),
            evictions,
        }
    }

    /// Sets the byte budget; it takes effect at the next warm.
    pub(crate) fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Publishes `etag` as repository `id`'s index version (`None`:
    /// the repository is gone or has no signed index), dropping
    /// whatever was cached for it. Writers only (see the module docs).
    pub(crate) fn publish(&self, id: &str, etag: Option<&str>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        match etag {
            Some(etag) => {
                let entry = HotEntry {
                    index_etag: etag.to_string(),
                    index: None,
                    packages: BTreeMap::new(),
                    bytes: 0,
                    stamp: 0,
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

    /// Offers a blob that was read under the shard lock when the index
    /// ETag was `etag_read`. Ignored unless that is still the published
    /// version. When the summed payload then exceeds the budget, other
    /// entries lose their blobs — least recently warmed first — but
    /// keep their published version; the entry just warmed is spared,
    /// so a single oversized tenant still serves zero-copy.
    pub(crate) fn warm(&self, id: &str, etag_read: &str, slot: Slot<'_>, blob: Arc<[u8]>) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        let Some(entry) = entries.get_mut(id).filter(|e| e.index_etag == etag_read) else {
            return;
        };
        let added = blob.len();
        let replaced = match slot {
            Slot::Index => entry.index.replace(blob),
            Slot::Package { name, etag } => entry
                .packages
                .insert(name.to_string(), (etag.to_string(), blob))
                .map(|(_, old)| old),
        };
        entry.bytes = entry.bytes - replaced.map_or(0, |old| old.len()) + added;
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);

        let budget = self.budget.load(Ordering::Relaxed);
        let mut total: usize = entries.values().map(|e| e.bytes).sum();
        while total > budget {
            let Some((_, oldest)) = entries
                .iter_mut()
                .filter(|(other, e)| other.as_str() != id && e.bytes > 0)
                .min_by_key(|(_, e)| e.stamp)
            else {
                break;
            };
            total -= oldest.bytes;
            oldest.index = None;
            oldest.packages.clear();
            oldest.bytes = 0;
            self.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(byte: u8, len: usize) -> Arc<[u8]> {
        Arc::from(vec![byte; len].into_boxed_slice())
    }

    fn index_of(cache: &HotCache, id: &str) -> Option<(String, Option<Arc<[u8]>>)> {
        cache.lookup(id, |e| (e.index_etag().to_string(), e.index().cloned()))
    }

    #[test]
    fn a_reader_can_fill_blobs_but_never_move_or_create_a_version() {
        let cache = HotCache::new(Counter::default());
        // Reader read E1 under the shard lock and let go of it; a
        // refresh published E2; the reader's warm arrives last.
        cache.publish("r", Some("E1"));
        cache.publish("r", Some("E2"));
        cache.warm("r", "E1", Slot::Index, blob(1, 8));
        assert_eq!(index_of(&cache, "r"), Some(("E2".to_string(), None)));

        // Same interleaving with a delete: nothing comes back.
        cache.publish("r", None);
        cache.warm("r", "E2", Slot::Index, blob(1, 8));
        assert!(index_of(&cache, "r").is_none());
        // Nor does a warm create an entry for an id never published.
        cache.warm("ghost", "E1", Slot::Index, blob(1, 8));
        assert!(index_of(&cache, "ghost").is_none());
    }

    #[test]
    fn publish_replaces_the_entry_and_warm_fills_it() {
        let cache = HotCache::new(Counter::default());
        cache.publish("r", Some("E1"));
        let index = blob(1, 8);
        let pkg = blob(2, 8);
        cache.warm("r", "E1", Slot::Index, Arc::clone(&index));
        let slot = Slot::Package {
            name: "tool",
            etag: "P1",
        };
        cache.warm("r", "E1", slot, Arc::clone(&pkg));
        cache
            .lookup("r", |e| {
                assert!(Arc::ptr_eq(e.index().unwrap(), &index));
                let (etag, served) = e.package("tool").unwrap();
                assert_eq!(etag, "P1");
                assert!(Arc::ptr_eq(served, &pkg));
                assert!(e.package("other").is_none());
            })
            .unwrap();
        // Re-publishing — even the same version — starts from no blobs.
        cache.publish("r", Some("E1"));
        cache
            .lookup("r", |e| {
                assert!(e.index().is_none() && e.package("tool").is_none());
            })
            .unwrap();
    }

    #[test]
    fn budget_eviction_drops_the_oldest_blobs_and_keeps_the_version() {
        let evictions = Counter::default();
        let cache = HotCache::new(evictions.clone());
        cache.set_budget(64);
        cache.publish("a", Some("A1"));
        cache.publish("b", Some("B1"));
        cache.warm("a", "A1", Slot::Index, blob(1, 48));
        assert_eq!(evictions.get(), 0);
        // 96 bytes > 64: the least recently warmed entry loses its
        // blobs, never the one just warmed — and it stays published.
        cache.warm("b", "B1", Slot::Index, blob(2, 48));
        assert_eq!(index_of(&cache, "a"), Some(("A1".to_string(), None)));
        assert!(index_of(&cache, "b").unwrap().1.is_some());
        assert_eq!(evictions.get(), 1);
        // An oversized single tenant still serves zero-copy, and an
        // already-empty entry is not evicted (or counted) again.
        cache.warm("b", "B1", Slot::Index, blob(3, 4096));
        assert_eq!(index_of(&cache, "b").unwrap().1.unwrap().len(), 4096);
        assert_eq!(evictions.get(), 1);
    }
}
