//! `mcdvfs-store` — versioned grid snapshots and the content-addressed store.
//!
//! Characterizing a workload over a frequency grid is the expensive step of
//! the whole pipeline: every serving process used to pay it again on every
//! cold start. This crate turns the characterization measurement arena into
//! a bake-once / ship-many artifact:
//!
//! * [`Snapshot`] + the binary format in [`format`](mod@format) — a versioned,
//!   checksummed, bit-exact encoding of one `CharacterizationGrid`'s arena
//!   (see the layout diagram on the module).
//! * [`SnapshotStore`] — a content-addressed directory of snapshots keyed by
//!   `CharacterizationGrid::fingerprint`, with atomic persist, validated
//!   loads, a spec-key index for first-touch lookups, and deterministic
//!   size-bounded GC that honors manifest pins.
//! * [`SnapshotError`] — every decode/I/O failure as a typed variant;
//!   nothing here panics on untrusted bytes.
//!
//! The crate deliberately depends only on `mcdvfs-types`, so the simulator,
//! the sweep engine, the serve stack and the bench harness can all speak the
//! same snapshot language without dependency cycles.
//!
//! # Examples
//!
//! ```
//! use mcdvfs_store::{Snapshot, SnapshotStore};
//! use mcdvfs_types::{FrequencyGrid, Joules, SampleMeasurement, Seconds};
//!
//! let grid = FrequencyGrid::new(100, 200, 100, 200, 300, 100).unwrap();
//! let arena: Vec<_> = (0..grid.len())
//!     .map(|i| SampleMeasurement {
//!         time: Seconds::new(1e-3 + i as f64 * 1e-5),
//!         cpu_energy: Joules::new(2e-3),
//!         mem_energy: Joules::new(4e-4),
//!         cpi: 1.5,
//!     })
//!     .collect();
//! let mut snap = Snapshot {
//!     name: "demo".into(),
//!     grid,
//!     n_settings: grid.len(),
//!     fingerprint: 0,
//!     arena,
//! };
//! snap.fingerprint = snap.compute_fingerprint();
//!
//! let dir = std::env::temp_dir().join("mcdvfs-store-doc");
//! let store = SnapshotStore::open(&dir).unwrap();
//! store.persist(&snap).unwrap();
//! let back = store.load(snap.fingerprint).unwrap().unwrap();
//! assert_eq!(back.snapshot, snap);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod format;
mod store;

pub use error::SnapshotError;
pub use format::{Snapshot, FORMAT_VERSION, MAGIC};
pub use store::{manifest_pins, GcReport, Loaded, SnapshotStore};
