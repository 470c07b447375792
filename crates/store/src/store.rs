//! Content-addressed on-disk snapshot store.
//!
//! Snapshots live under one directory (by default `results/store/` at the
//! workspace root), one file per grid, named by the grid fingerprint:
//! `<fingerprint:016x>.snap`. The fingerprint covers the workload name, the
//! dims, every grid setting and every measurement row, so the file name *is*
//! the content address — two identical characterizations always land on the
//! same file, and a changed trace or grid always lands on a different one.
//!
//! Three disciplines keep the store safe to share between concurrent
//! processes:
//!
//! * **Atomic persist** — writes go to a `.tmp` sibling first and are
//!   `rename`d into place, so readers only ever observe complete files.
//! * **Typed rejection** — [`SnapshotStore::load`] re-validates checksum and
//!   fingerprint on every read; a corrupt file is an error, never data.
//! * **Deterministic GC** — [`SnapshotStore::gc`] evicts by last-used mtime
//!   with the fingerprint as tiebreak (the same `(last_used, key)` ordering
//!   the serve reply cache uses), skipping fingerprints pinned by a live
//!   manifest entry.
//!
//! A small JSON sidecar (`INDEX.json`) maps *specification keys* — a hash of
//! the tenant spec that produces a grid — to fingerprints, so a serving
//! process can find a snapshot before it has paid for the characterization
//! that would reveal the fingerprint. Stale or missing index entries simply
//! degrade to a miss.

use crate::error::SnapshotError;
use crate::format::Snapshot;
use mcdvfs_types::{results_dir, Json};
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// File extension for snapshot files.
const SNAP_EXT: &str = "snap";

/// Name of the spec-key index sidecar inside the store directory.
const INDEX_NAME: &str = "INDEX.json";

/// A successfully loaded snapshot plus how many bytes came off disk,
/// for the serve-side `store.bytes_read` counter.
#[derive(Debug)]
pub struct Loaded {
    /// The decoded, fully validated snapshot.
    pub snapshot: Snapshot,
    /// Size of the snapshot file in bytes.
    pub bytes_read: u64,
}

/// What a garbage-collection pass did.
#[derive(Debug, Default)]
pub struct GcReport {
    /// Fingerprints whose files were deleted, in eviction order.
    pub evicted: Vec<u64>,
    /// Total bytes freed.
    pub bytes_freed: u64,
    /// Bytes still held by snapshots after the pass.
    pub bytes_remaining: u64,
}

/// A content-addressed snapshot directory.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Opens the workspace-default store at `results/store/`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open_default() -> io::Result<Self> {
        Self::open(Self::default_dir())
    }

    /// The default store directory: `store/` under the run-time
    /// [`results_dir`] (`MCDVFS_RESULTS`, else the workspace root's
    /// `results/` found by walking up from the current directory).
    #[must_use]
    pub fn default_dir() -> PathBuf {
        results_dir().join("store")
    }

    /// The directory this store reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the snapshot file for `fingerprint` (whether or not it exists).
    #[must_use]
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.{SNAP_EXT}"))
    }

    /// Returns `true` when a snapshot file for `fingerprint` exists.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.path_for(fingerprint).is_file()
    }

    /// Persists `snapshot` under its fingerprint, atomically: the encoding
    /// is written to a `.tmp` sibling and renamed into place, so concurrent
    /// readers never observe a partial file. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the write or rename fails.
    pub fn persist(&self, snapshot: &Snapshot) -> Result<u64, SnapshotError> {
        let bytes = snapshot.encode();
        let finalp = self.path_for(snapshot.fingerprint);
        let tmp = self.temp_path(&format!("{:016x}.{SNAP_EXT}", snapshot.fingerprint));
        fs::write(&tmp, &bytes)?;
        if let Err(e) = fs::rename(&tmp, &finalp) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(bytes.len() as u64)
    }

    /// Loads and fully validates the snapshot for `fingerprint`.
    ///
    /// Returns `Ok(None)` when no file exists (a plain miss). A successful
    /// load refreshes the file's modification time so GC sees it as
    /// recently used (best-effort; a failed touch is ignored).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] when the file exists but is
    /// corrupt, truncated, from an unsupported version, or stored under a
    /// fingerprint its contents do not hash to.
    pub fn load(&self, fingerprint: u64) -> Result<Option<Loaded>, SnapshotError> {
        let path = self.path_for(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let snapshot = Snapshot::decode(&bytes)?;
        if snapshot.fingerprint != fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                stored: fingerprint,
                computed: snapshot.fingerprint,
            });
        }
        if let Ok(f) = fs::File::open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Ok(Some(Loaded {
            bytes_read: bytes.len() as u64,
            snapshot,
        }))
    }

    /// Every fingerprint with a snapshot file, ascending.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read.
    pub fn fingerprints(&self) -> io::Result<Vec<u64>> {
        let mut out: Vec<u64> = self.entries()?.into_iter().map(|e| e.fingerprint).collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Total bytes held by snapshot files (index sidecar excluded).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read.
    pub fn total_bytes(&self) -> io::Result<u64> {
        Ok(self.entries()?.iter().map(|e| e.bytes).sum())
    }

    /// Evicts snapshots until the store holds at most `max_bytes`, oldest
    /// last-used mtime first with the fingerprint as deterministic tiebreak
    /// — the same `(last_used, key)` discipline as the serve reply cache.
    /// Fingerprints in `pinned` are never deleted, even when the store stays
    /// over budget because of them.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read or
    /// a file cannot be removed.
    pub fn gc(&self, max_bytes: u64, pinned: &HashSet<u64>) -> io::Result<GcReport> {
        let mut entries = self.entries()?;
        entries.sort_by_key(|e| (e.mtime, e.fingerprint));
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport::default();
        for e in &entries {
            if total <= max_bytes {
                break;
            }
            if pinned.contains(&e.fingerprint) {
                continue;
            }
            fs::remove_file(self.path_for(e.fingerprint))?;
            total -= e.bytes;
            report.bytes_freed += e.bytes;
            report.evicted.push(e.fingerprint);
        }
        report.bytes_remaining = total;
        Ok(report)
    }

    /// Looks up the fingerprint the spec-key index maps `spec_key` to, if
    /// any. A missing or unparsable index is a plain miss.
    #[must_use]
    pub fn lookup_spec(&self, spec_key: u64) -> Option<u64> {
        let index = self.read_index()?;
        index.get(&format!("{spec_key:016x}")).copied()
    }

    /// Records `spec_key -> fingerprint` in the index sidecar, atomically
    /// (read-modify-write to a temp file, then rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the sidecar cannot be written.
    pub fn record_spec(&self, spec_key: u64, fingerprint: u64) -> io::Result<()> {
        let mut index = self.read_index().unwrap_or_default();
        index.insert(format!("{spec_key:016x}"), fingerprint);
        let members = index
            .into_iter()
            .map(|(k, v)| (k, Json::Str(format!("{v:016x}"))))
            .collect();
        let text = Json::Obj(members).render();
        let path = self.dir.join(INDEX_NAME);
        let tmp = self.temp_path(INDEX_NAME);
        fs::write(&tmp, text.as_bytes())?;
        fs::rename(&tmp, &path)
    }

    /// A fresh temp sibling for `name`: `<name>.tmp.<pid>.<n>`, where `n`
    /// comes from a process-wide counter, so two threads writing the same
    /// target never share a temp file (and truncate each other's write).
    fn temp_path(&self, name: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.dir
            .join(format!("{name}.tmp.{}.{n}", std::process::id()))
    }

    fn read_index(&self) -> Option<BTreeMap<String, u64>> {
        let text = fs::read_to_string(self.dir.join(INDEX_NAME)).ok()?;
        let doc = Json::parse(&text).ok()?;
        let Json::Obj(members) = doc else { return None };
        let mut out = BTreeMap::new();
        for (k, v) in members {
            let fp = v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())?;
            out.insert(k, fp);
        }
        Some(out)
    }

    fn entries(&self) -> io::Result<Vec<DirEntry>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(fingerprint) = fingerprint_of(&path) else {
                continue;
            };
            let meta = entry.metadata()?;
            out.push(DirEntry {
                fingerprint,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(out)
    }
}

#[derive(Debug)]
struct DirEntry {
    fingerprint: u64,
    bytes: u64,
    mtime: SystemTime,
}

/// Parses the fingerprint out of a `<fingerprint:016x>.snap` file name.
fn fingerprint_of(path: &Path) -> Option<u64> {
    if path.extension()?.to_str()? != SNAP_EXT {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// Extracts the fingerprints pinned by a provenance manifest.
///
/// Bake runs record their snapshots in `results/MANIFEST.json` with config
/// keys of the form `pin.<tenant> = <fingerprint:016x>`. This walks every
/// artifact's config generically, so GC can honor pins without depending on
/// the bench crate (which depends on everything else).
#[must_use]
pub fn manifest_pins(manifest_text: &str) -> HashSet<u64> {
    let mut pins = HashSet::new();
    let Ok(doc) = Json::parse(manifest_text) else {
        return pins;
    };
    let Some(artifacts) = doc.get("artifacts").and_then(Json::as_arr) else {
        return pins;
    };
    for artifact in artifacts {
        let Some(Json::Obj(config)) = artifact.get("config") else {
            continue;
        };
        for (key, value) in config {
            if !key.starts_with("pin.") {
                continue;
            }
            if let Some(fp) = value.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()) {
                pins.insert(fp);
            }
        }
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_types::{FrequencyGrid, Joules, SampleMeasurement, Seconds};

    fn snapshot_named(name: &str, scale: f64) -> Snapshot {
        let grid = FrequencyGrid::new(100, 200, 100, 200, 400, 200).unwrap();
        let n_settings = grid.len();
        let arena = (0..2 * n_settings)
            .map(|i| SampleMeasurement {
                time: Seconds::new(1e-3 * scale + i as f64 * 1e-6),
                cpu_energy: Joules::new(1e-3 * scale),
                mem_energy: Joules::new(2e-4 * scale),
                cpi: 1.0 + i as f64 * 0.1,
            })
            .collect();
        let mut snap = Snapshot {
            name: name.to_string(),
            grid,
            n_settings,
            fingerprint: 0,
            arena,
        };
        snap.fingerprint = snap.compute_fingerprint();
        snap
    }

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("mcdvfs-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    #[test]
    fn concurrent_persists_of_one_snapshot_never_fail_or_tear() {
        let store = temp_store("race");
        let snap = snapshot_named("gobmk", 1.0);
        let bytes = snap.encode();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.persist(&snap).expect("persist");
                        let loaded = store
                            .load(snap.fingerprint)
                            .expect("load")
                            .expect("present");
                        assert_eq!(loaded.snapshot.encode(), bytes, "bit-identical");
                    }
                });
            }
        });
        assert_eq!(store.fingerprints().unwrap(), vec![snap.fingerprint]);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn persist_then_load_round_trips() {
        let store = temp_store("roundtrip");
        let snap = snapshot_named("gobmk", 1.0);
        let written = store.persist(&snap).unwrap();
        assert!(store.contains(snap.fingerprint));
        let loaded = store.load(snap.fingerprint).unwrap().unwrap();
        assert_eq!(loaded.snapshot, snap);
        assert_eq!(loaded.bytes_read, written);
        assert_eq!(store.load(snap.fingerprint ^ 1).unwrap().map(|_| ()), None);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_typed_error_not_data() {
        let store = temp_store("corrupt");
        let snap = snapshot_named("gobmk", 1.0);
        store.persist(&snap).unwrap();
        let path = store.path_for(snap.fingerprint);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(snap.fingerprint),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn file_stored_under_wrong_name_is_rejected() {
        let store = temp_store("wrongname");
        let snap = snapshot_named("gobmk", 1.0);
        let other = snap.fingerprint ^ 0xabcd;
        fs::write(store.path_for(other), snap.encode()).unwrap();
        assert!(matches!(
            store.load(other),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_evicts_oldest_first_and_honors_pins() {
        let store = temp_store("gc");
        let a = snapshot_named("alpha", 1.0);
        let b = snapshot_named("bravo", 2.0);
        let c = snapshot_named("charlie", 3.0);
        let size = store.persist(&a).unwrap();
        store.persist(&b).unwrap();
        store.persist(&c).unwrap();
        // Make ages unambiguous: a oldest, then b, then c.
        for (i, s) in [&a, &b, &c].into_iter().enumerate() {
            let f = fs::File::open(store.path_for(s.fingerprint)).unwrap();
            f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(i as u64 + 1))
                .unwrap();
        }
        // Pin the oldest; budget for exactly one snapshot.
        let pinned: HashSet<u64> = [a.fingerprint].into_iter().collect();
        let report = store.gc(size, &pinned).unwrap();
        assert_eq!(report.evicted, vec![b.fingerprint, c.fingerprint]);
        assert!(store.contains(a.fingerprint), "pinned snapshot survives");
        assert!(!store.contains(b.fingerprint));
        assert!(!store.contains(c.fingerprint));
        assert_eq!(report.bytes_remaining, size);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_breaks_mtime_ties_by_fingerprint() {
        let store = temp_store("gc-ties");
        let a = snapshot_named("alpha", 1.0);
        let b = snapshot_named("bravo", 2.0);
        store.persist(&a).unwrap();
        let size = store.persist(&b).unwrap();
        for s in [&a, &b] {
            let f = fs::File::open(store.path_for(s.fingerprint)).unwrap();
            f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(7))
                .unwrap();
        }
        let report = store.gc(size, &HashSet::new()).unwrap();
        let lo = a.fingerprint.min(b.fingerprint);
        assert_eq!(
            report.evicted,
            vec![lo],
            "tie evicts the smaller fingerprint"
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn load_refreshes_mtime_for_gc() {
        let store = temp_store("touch");
        let snap = snapshot_named("gobmk", 1.0);
        store.persist(&snap).unwrap();
        let f = fs::File::open(store.path_for(snap.fingerprint)).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH).unwrap();
        drop(f);
        store.load(snap.fingerprint).unwrap().unwrap();
        let mtime = fs::metadata(store.path_for(snap.fingerprint))
            .unwrap()
            .modified()
            .unwrap();
        assert!(mtime > SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn spec_index_round_trips_and_tolerates_absence() {
        let store = temp_store("index");
        assert_eq!(store.lookup_spec(42), None);
        store.record_spec(42, 0xfeed).unwrap();
        store.record_spec(43, 0xf00d).unwrap();
        assert_eq!(store.lookup_spec(42), Some(0xfeed));
        assert_eq!(store.lookup_spec(43), Some(0xf00d));
        assert_eq!(store.lookup_spec(44), None);
        // A garbage index degrades to a miss, not an error.
        fs::write(store.dir().join("INDEX.json"), b"not json").unwrap();
        assert_eq!(store.lookup_spec(42), None);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn manifest_pins_parses_pin_config_keys() {
        let text = r#"{
            "schema": "mcdvfs/manifest-v1",
            "artifacts": [
                {"path": "STORE_bake.json", "config": {
                    "pin.gobmk": "00000000deadbeef",
                    "pin.bzip2": "00000000cafef00d",
                    "threads": "4"
                }},
                {"path": "other.csv", "config": {"rows": "10"}}
            ]
        }"#;
        let pins = manifest_pins(text);
        assert_eq!(pins.len(), 2);
        assert!(pins.contains(&0xdead_beef));
        assert!(pins.contains(&0xcafe_f00d));
        assert!(manifest_pins("not json").is_empty());
        assert!(manifest_pins("{}").is_empty());
    }

    #[test]
    fn default_dir_is_workspace_anchored() {
        let dir = SnapshotStore::default_dir();
        assert!(dir.ends_with("results/store"), "{}", dir.display());
    }

    #[test]
    fn non_snapshot_files_are_ignored_by_listing() {
        let store = temp_store("listing");
        let snap = snapshot_named("gobmk", 1.0);
        store.persist(&snap).unwrap();
        store.record_spec(1, snap.fingerprint).unwrap();
        fs::write(store.dir().join("README.txt"), b"hello").unwrap();
        assert_eq!(store.fingerprints().unwrap(), vec![snap.fingerprint]);
        let total = store.total_bytes().unwrap();
        assert_eq!(
            total,
            fs::metadata(store.path_for(snap.fingerprint))
                .unwrap()
                .len()
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }
}
