//! Dependency-free FNV-1a hashing.
//!
//! The workspace's stable content checksum: used by the provenance
//! manifest in `mcdvfs-bench` and by the characterization fingerprint the
//! `mcdvfs-serve` response cache keys on. FNV-1a is deterministic across
//! platforms, needs no tables, and folds one byte at a time — the
//! streaming [`Fnv1a64`] form hashes a measurement arena without
//! materializing its bytes.

/// 64-bit FNV-1a hash of `bytes`.
///
/// # Examples
///
/// ```
/// use mcdvfs_types::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use mcdvfs_types::{fnv1a64, Fnv1a64};
///
/// let mut h = Fnv1a64::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a64(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(Self::BASIS)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one `u64` (little-endian bytes) into the running hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds one `f64`'s IEEE-754 bits into the running hash — the exact
    /// value, not a rounded rendering.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content hash of a run of
/// [`SampleMeasurement`](crate::SampleMeasurement)s: every field's exact
/// IEEE-754 bits, in storage order.
///
/// This is the per-row unit of the characterization fingerprint. Hashing
/// rows independently lets an incremental update (a few dirty rows of a
/// large arena) refresh only the affected row hashes and re-fold the
/// cached values, instead of re-reading every measurement.
///
/// # Examples
///
/// ```
/// use mcdvfs_types::{hash_measurements, Joules, SampleMeasurement, Seconds};
///
/// let row = [SampleMeasurement {
///     time: Seconds::from_millis(12.0),
///     cpu_energy: Joules::from_millis(8.0),
///     mem_energy: Joules::from_millis(2.0),
///     cpi: 1.2,
/// }];
/// assert_eq!(hash_measurements(&row), hash_measurements(&row));
/// assert_ne!(hash_measurements(&row), hash_measurements(&[]));
/// ```
#[must_use]
pub fn hash_measurements(measurements: &[crate::SampleMeasurement]) -> u64 {
    let mut h = Fnv1a64::new();
    for m in measurements {
        h.write_f64(m.time.value());
        h.write_f64(m.cpu_energy.value());
        h.write_f64(m.mem_energy.value());
        h.write_f64(m.cpi);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a64::new();
        h.write(b"split");
        h.write(b"");
        h.write(b"mix");
        assert_eq!(h.finish(), fnv1a64(b"splitmix"));
    }

    #[test]
    fn typed_writes_fold_exact_bits() {
        let mut a = Fnv1a64::new();
        a.write_u64(0x0102_0304_0506_0708);
        a.write_f64(1.5);
        let mut b = Fnv1a64::new();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        b.write(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(a.finish(), b.finish());
        // Distinguishes values that render identically when rounded.
        let mut c = Fnv1a64::new();
        c.write_f64(0.1 + 0.2);
        let mut d = Fnv1a64::new();
        d.write_f64(0.3);
        assert_ne!(c.finish(), d.finish());
    }
}
