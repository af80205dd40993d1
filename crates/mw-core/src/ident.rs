//! Identity interning: dense `u32` handles for object and sensor ids.
//!
//! At city scale (DESIGN.md §14) every per-object map keyed by a string
//! id pays a string hash per lookup and keeps its own copy of the name.
//! The [`Interner`] maps each distinct id string to a dense `u32`
//! handle exactly once; hot-path state (the per-object slab, the
//! trigger-DAG edge state) is keyed by handle, and the canonical
//! `Arc<str>` is shared by every reading, fix and notification that
//! mentions the id, so "cloning an id" downstream of ingest is a
//! reference-count bump instead of an allocation.
//!
//! The table is append-only: handles are allocated in first-seen order
//! and never recycled. That matches the service's own lifetime rules —
//! a tracked object's epoch slot is never forgotten either — and it
//! keeps `resolve` a plain bounds-checked index.

use std::mem::size_of;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::rules::FastMap;

#[derive(Debug, Default)]
struct Inner {
    /// Handle → canonical name, densely indexed.
    names: Vec<Arc<str>>,
    /// Name → handle. Keys share the allocation held in `names`; the
    /// fast hasher, because every ingest and query probes it.
    by_name: FastMap<Arc<str>, u32>,
    /// Running total of the canonical strings' allocations, kept by
    /// `intern_slow` so [`Interner::heap_bytes`] never scans `names`.
    string_bytes: usize,
}

/// One `Arc<str>` payload allocation: two `usize` refcounts + the bytes.
fn arc_str_bytes(name: &str) -> usize {
    name.len() + 2 * size_of::<usize>()
}

/// A concurrent append-only symbol table: string id → dense `u32`.
///
/// Lookups of already-interned ids take a read lock only; the write
/// lock is held just long enough to append a new entry. Cloning the
/// returned `Arc<str>` never allocates.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle for `name`, allocating one on first sight.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(handle) = self.get(name) {
            return handle;
        }
        self.intern_slow(name).0
    }

    /// The handle plus the canonical shared allocation for `name`.
    ///
    /// Ingest boundaries use this to replace a freshly parsed id string
    /// with the shared one, so every downstream clone of the id is a
    /// refcount bump on a single allocation per distinct identity.
    pub fn canonical(&self, name: &str) -> (u32, Arc<str>) {
        {
            let inner = self.inner.read();
            if let Some(&handle) = inner.by_name.get(name) {
                return (handle, Arc::clone(&inner.names[handle as usize]));
            }
        }
        self.intern_slow(name)
    }

    fn intern_slow(&self, name: &str) -> (u32, Arc<str>) {
        let mut inner = self.inner.write();
        if let Some(&handle) = inner.by_name.get(name) {
            return (handle, Arc::clone(&inner.names[handle as usize]));
        }
        let canonical: Arc<str> = Arc::from(name);
        let handle = u32::try_from(inner.names.len()).expect("interner overflow: 2^32 identities");
        inner.names.push(Arc::clone(&canonical));
        inner.by_name.insert(Arc::clone(&canonical), handle);
        inner.string_bytes += arc_str_bytes(name);
        (handle, canonical)
    }

    /// The handle for `name`, if it has been interned before.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u32> {
        self.inner.read().by_name.get(name).copied()
    }

    /// The canonical string for `handle`.
    #[must_use]
    pub fn resolve(&self, handle: u32) -> Option<Arc<str>> {
        self.inner.read().names.get(handle as usize).map(Arc::clone)
    }

    /// Number of distinct identities interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by the table: the canonical strings
    /// (payload + `Arc` header) plus both indexes at their current
    /// capacity. Feeds the `core.mem.bytes_per_object` estimate on
    /// every ingest, so it is O(1): the string total is kept running.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let inner = self.inner.read();
        let names_index = inner.names.capacity() * size_of::<Arc<str>>();
        // Hash-map bucket: key + value + one byte of control metadata,
        // rounded up to the capacity actually reserved.
        let by_name_index =
            inner.by_name.capacity() * (size_of::<Arc<str>>() + size_of::<u32>() + 1);
        inner.string_bytes + names_index + by_name_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running string total must equal a scan of the table.
    fn assert_string_bytes_match_scan(interner: &Interner) {
        let inner = interner.inner.read();
        let scanned: usize = inner.names.iter().map(|n| arc_str_bytes(n)).sum();
        assert_eq!(inner.string_bytes, scanned);
    }

    #[test]
    fn handles_are_dense_and_stable() {
        let interner = Interner::new();
        let a = interner.intern("alice");
        let b = interner.intern("bob");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(interner.intern("alice"), a);
        assert_eq!(interner.len(), 2);
        assert_string_bytes_match_scan(&interner);
    }

    #[test]
    fn canonical_shares_one_allocation() {
        let interner = Interner::new();
        let (h1, s1) = interner.canonical("carol");
        let (h2, s2) = interner.canonical("carol");
        assert_eq!(h1, h2);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(interner.resolve(h1).as_deref(), Some("carol"));
    }

    #[test]
    fn get_does_not_allocate_handles() {
        let interner = Interner::new();
        assert_eq!(interner.get("nobody"), None);
        assert!(interner.is_empty());
        interner.intern("dave");
        assert_eq!(interner.get("dave"), Some(0));
    }

    #[test]
    fn concurrent_intern_agrees() {
        let interner = Arc::new(Interner::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let interner = Arc::clone(&interner);
                std::thread::spawn(move || {
                    (0..256)
                        .map(|i| interner.intern(&format!("obj-{}", (i * (t + 1)) % 64)))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        for h in handles {
            h.join().expect("interner thread");
        }
        assert_eq!(interner.len(), 64);
        for i in 0..64 {
            let name = format!("obj-{i}");
            let handle = interner.get(&name).expect("interned");
            assert_eq!(interner.resolve(handle).as_deref(), Some(name.as_str()));
        }
        assert_string_bytes_match_scan(&interner);
    }

    #[test]
    fn heap_bytes_grows_with_entries() {
        let interner = Interner::new();
        let empty = interner.heap_bytes();
        for i in 0..128 {
            interner.intern(&format!("object-number-{i}"));
        }
        assert!(interner.heap_bytes() > empty);
        assert_string_bytes_match_scan(&interner);
    }
}
