//! Injectable durable storage: the I/O seam the WAL and snapshots go
//! through.
//!
//! Every byte [`wal::DurableFleet`](crate::wal::DurableFleet) persists
//! flows through a [`Storage`] implementation, never `std::fs` directly.
//! That indirection is what makes crash recovery *property-testable*
//! instead of hoped-for: [`FaultyStorage`] wraps any implementation and
//! deterministically kills the Nth mutating operation — cleanly, as a
//! torn partial write, or after the bytes landed but before the caller
//! heard back — so a test can sweep a seeded "crash" across **every**
//! storage operation a workload performs and assert recovery converges to
//! the uncrashed state each time (`xt-fleet/tests/durability.rs`).
//!
//! The object model is deliberately tiny — named byte objects with whole-
//! object atomic replace, append, and truncate — because that is all a
//! WAL-plus-snapshot design needs, and every operation has an obvious
//! faithful in-memory model ([`MemStorage`]) for deterministic tests and
//! an obvious filesystem mapping ([`DirStorage`]) for real deployments.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Named-object durable storage. All methods take `&self`: one storage
/// may be shared across threads, and implementations synchronize
/// internally.
///
/// Semantics the durability layer depends on:
///
/// * [`Storage::put`] replaces the whole object **atomically** — after a
///   crash the object holds either the old bytes or the new bytes, never
///   a mixture. (Filesystems provide this via write-to-temp + rename.)
/// * [`Storage::append`] may tear on crash: a *prefix* of the appended
///   bytes may land. The WAL's per-record checksums exist exactly to
///   detect and truncate such tails.
/// * [`Storage::truncate`] cuts an object to a length (creating it empty
///   if absent).
pub trait Storage: Send + Sync {
    /// The object's full contents, or `None` if it was never written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Appends `bytes` to the object, creating it if absent.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Atomically replaces the object's contents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Truncates the object to `len` bytes (no-op if already shorter;
    /// creates the object empty if absent).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
}

impl<S: Storage + ?Sized> Storage for &S {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        (**self).read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).append(name, bytes)
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).put(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        (**self).truncate(name, len)
    }
}

impl<S: Storage + ?Sized> Storage for Arc<S> {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        (**self).read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).append(name, bytes)
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).put(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        (**self).truncate(name, len)
    }
}

impl<S: Storage + ?Sized> Storage for Box<S> {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        (**self).read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).append(name, bytes)
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).put(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        (**self).truncate(name, len)
    }
}

/// In-memory storage: a mutex-guarded object map behind an `Arc`, so a
/// clone is a second handle onto the *same* disk — which is exactly what
/// a crash test needs: the "process" (a
/// [`DurableFleet`](crate::wal::DurableFleet)) dies, the "disk" (this
/// map) survives, and recovery reopens it.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    objects: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Current size of the named object in bytes (0 if absent) —
    /// test introspection.
    #[must_use]
    pub fn object_len(&self, name: &str) -> usize {
        self.objects
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map_or(0, Vec::len)
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .objects
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.objects
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.objects
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut objects = self.objects.lock().unwrap_or_else(PoisonError::into_inner);
        let object = objects.entry(name.to_string()).or_default();
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if object.len() > len {
            object.truncate(len);
        }
        Ok(())
    }
}

/// Filesystem storage: each object is a file under one root directory.
/// [`DirStorage::put`] writes `name.tmp` then renames over `name`, the
/// standard atomic-replace idiom, so a crash mid-snapshot leaves the old
/// snapshot intact.
#[derive(Clone, Debug)]
pub struct DirStorage {
    root: PathBuf,
}

impl DirStorage {
    /// Opens (creating if needed) a storage rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DirStorage { root })
    }

    /// The backing directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for DirStorage {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)?;
        // Durability before visibility: the rename must not land before
        // the temp file's contents do.
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, self.path(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.path(name))?;
        if file.metadata()?.len() > len {
            file.set_len(len)?;
            file.sync_data()?;
        }
        Ok(())
    }
}

/// How an injected fault manifests at the doomed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails without touching storage (power lost before
    /// any byte landed).
    Fail,
    /// An append lands only its first `keep` bytes before failing — the
    /// torn-write case the WAL checksums must catch. Non-append
    /// operations treat this as [`FaultMode::Fail`] (`put` is atomic by
    /// contract, truncate has no partial state worth modeling).
    Tear {
        /// Bytes of the append that survive.
        keep: usize,
    },
    /// The operation fully lands, then the failure is reported — the
    /// at-least-once case: the caller thinks it failed, retries after
    /// recovery, and the retry must deduplicate.
    ApplyThenFail,
}

/// Deterministic crash injection around any [`Storage`]: mutating
/// operations (`append`/`put`/`truncate`) are numbered from 0, and the
/// operation numbered `fail_at` suffers `mode`. Reads never fault — the
/// model is a process killed mid-write, not a corrupt medium (corrupt
/// *contents* are what [`FaultMode::Tear`] plus the WAL checksums cover).
///
/// [`FaultyStorage::with_seed`] derives the mode (and tear point) from a
/// seed, so a sweep over `fail_at` × seeds explores the full crash
/// surface reproducibly.
pub struct FaultyStorage<S> {
    inner: S,
    fail_at: u64,
    mode: FaultMode,
    ops: AtomicU64,
}

/// The error kind injected faults surface as.
fn injected(op: &str) -> io::Error {
    io::Error::other(format!("injected crash at {op}"))
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner`, failing mutating operation number `fail_at` with
    /// `mode`.
    #[must_use]
    pub fn new(inner: S, fail_at: u64, mode: FaultMode) -> Self {
        FaultyStorage {
            inner,
            fail_at,
            mode,
            ops: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with a fault at operation `fail_at` whose mode and
    /// tear point derive deterministically from `seed` (SplitMix64 over
    /// `seed ^ fail_at`).
    #[must_use]
    pub fn with_seed(inner: S, seed: u64, fail_at: u64) -> Self {
        let z = xt_arena::splitmix_finalize(seed ^ fail_at.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mode = match z % 3 {
            0 => FaultMode::Fail,
            1 => FaultMode::Tear {
                // Tear somewhere in the first 64 bytes: WAL headers and
                // small records live there, so this exercises torn
                // headers, torn checksums, and torn payloads alike.
                keep: usize::try_from((z >> 8) % 64).expect("bounded"),
            },
            _ => FaultMode::ApplyThenFail,
        };
        FaultyStorage::new(inner, fail_at, mode)
    }

    /// A pass-through wrapper that never faults — used to *count* the
    /// mutating operations a reference workload performs, which bounds
    /// the sweep.
    #[must_use]
    pub fn counting(inner: S) -> Self {
        FaultyStorage::new(inner, u64::MAX, FaultMode::Fail)
    }

    /// Mutating operations performed so far (including the faulted one).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The configured fault mode.
    #[must_use]
    pub fn mode(&self) -> FaultMode {
        self.mode
    }

    /// `true` if this operation number is the doomed one.
    fn doomed(&self) -> bool {
        self.ops.fetch_add(1, Ordering::Relaxed) == self.fail_at
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.doomed() {
            return match self.mode {
                FaultMode::Fail => Err(injected("append")),
                FaultMode::Tear { keep } => {
                    let keep = keep.min(bytes.len());
                    self.inner.append(name, &bytes[..keep])?;
                    Err(injected("append (torn)"))
                }
                FaultMode::ApplyThenFail => {
                    self.inner.append(name, bytes)?;
                    Err(injected("append (after apply)"))
                }
            };
        }
        self.inner.append(name, bytes)
    }

    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.doomed() {
            return match self.mode {
                // An atomic put cannot tear: either the rename happened
                // or it did not.
                FaultMode::Fail | FaultMode::Tear { .. } => Err(injected("put")),
                FaultMode::ApplyThenFail => {
                    self.inner.put(name, bytes)?;
                    Err(injected("put (after apply)"))
                }
            };
        }
        self.inner.put(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        if self.doomed() {
            return match self.mode {
                FaultMode::Fail | FaultMode::Tear { .. } => Err(injected("truncate")),
                FaultMode::ApplyThenFail => {
                    self.inner.truncate(name, len)?;
                    Err(injected("truncate (after apply)"))
                }
            };
        }
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_recovers_from_poisoned_lock() {
        let storage = MemStorage::new();
        let poisoner = storage.clone();
        let _ = std::thread::spawn(move || {
            let _objects = poisoner.objects.lock().unwrap();
            panic!("poison the storage lock");
        })
        .join();
        assert!(storage.objects.lock().is_err(), "lock should be poisoned");
        // Every storage operation recovers instead of cascading the
        // panic into WAL replay or snapshot capture.
        storage.put("snapshot", b"state").unwrap();
        storage.append("wal", b"rec").unwrap();
        storage.truncate("wal", 2).unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"re");
        assert_eq!(storage.object_len("snapshot"), 5);
    }

    fn exercise(storage: &impl Storage) {
        assert_eq!(storage.read("wal").unwrap(), None);
        storage.append("wal", b"one").unwrap();
        storage.append("wal", b"two").unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"onetwo");
        storage.truncate("wal", 4).unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"onet");
        // Truncate never extends.
        storage.truncate("wal", 100).unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"onet");
        storage.put("snapshot", b"v1").unwrap();
        storage.put("snapshot", b"v2-longer").unwrap();
        assert_eq!(storage.read("snapshot").unwrap().unwrap(), b"v2-longer");
        storage.truncate("wal", 0).unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"");
        // Truncating an absent object creates it empty.
        storage.truncate("fresh", 0).unwrap();
        assert_eq!(storage.read("fresh").unwrap().unwrap(), b"");
    }

    #[test]
    fn mem_storage_semantics() {
        let storage = MemStorage::new();
        exercise(&storage);
        // Clones share the disk.
        let other = storage.clone();
        other.append("wal", b"x").unwrap();
        assert_eq!(storage.read("wal").unwrap().unwrap(), b"x");
    }

    #[test]
    fn dir_storage_semantics() {
        let root = std::env::temp_dir().join(format!("xt-storage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let storage = DirStorage::open(&root).unwrap();
        exercise(&storage);
        // A second handle on the same root sees the same objects —
        // reopening after a "crash".
        let reopened = DirStorage::open(&root).unwrap();
        assert_eq!(reopened.read("snapshot").unwrap().unwrap(), b"v2-longer");
        // No leftover temp files from atomic puts.
        assert!(!root.join("snapshot.tmp").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn faulty_fail_leaves_storage_untouched() {
        let disk = MemStorage::new();
        let faulty = FaultyStorage::new(disk.clone(), 1, FaultMode::Fail);
        faulty.append("wal", b"first").unwrap();
        assert!(faulty.append("wal", b"second").is_err());
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"first");
        // Operations after the doomed one succeed again (the "process"
        // would be dead, but the wrapper must stay well-defined).
        faulty.append("wal", b"third").unwrap();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"firstthird");
    }

    #[test]
    fn faulty_tear_applies_a_prefix() {
        let disk = MemStorage::new();
        let faulty = FaultyStorage::new(disk.clone(), 0, FaultMode::Tear { keep: 3 });
        assert!(faulty.append("wal", b"abcdef").is_err());
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"abc");
        // Tear on an atomic put degrades to a clean fail.
        let faulty = FaultyStorage::new(disk.clone(), 0, FaultMode::Tear { keep: 3 });
        assert!(faulty.put("snapshot", b"abcdef").is_err());
        assert_eq!(disk.read("snapshot").unwrap(), None);
    }

    #[test]
    fn faulty_apply_then_fail_lands_the_bytes() {
        let disk = MemStorage::new();
        let faulty = FaultyStorage::new(disk.clone(), 0, FaultMode::ApplyThenFail);
        assert!(faulty.append("wal", b"landed").is_err());
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"landed");
    }

    #[test]
    fn seeded_faults_are_deterministic_and_cover_all_modes() {
        let mut modes = std::collections::BTreeSet::new();
        for fail_at in 0..64u64 {
            let a = FaultyStorage::with_seed(MemStorage::new(), 42, fail_at);
            let b = FaultyStorage::with_seed(MemStorage::new(), 42, fail_at);
            assert_eq!(a.mode(), b.mode(), "seeded mode not deterministic");
            modes.insert(match a.mode() {
                FaultMode::Fail => 0,
                FaultMode::Tear { .. } => 1,
                FaultMode::ApplyThenFail => 2,
            });
        }
        assert_eq!(modes.len(), 3, "a 64-point sweep should hit every mode");
    }
}
