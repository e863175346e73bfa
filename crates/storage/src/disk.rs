//! Disk bandwidth emulation.
//!
//! The paper's single-node experiments ran against a 2 TB HDD with
//! "170MB/s as both the read and write speeds" (§6.3), and the entire
//! OEP/OMP trade-off hinges on load times being *comparable* to compute
//! times. Modern NVMe laptops would hide that trade-off, so the catalog
//! pipes all I/O through a [`DiskProfile`] that enforces a target bandwidth
//! by sleeping for the residual time after the real I/O completes. The real
//! bytes still hit the filesystem — throttling only shapes latency.
//!
//! `DiskProfile::unthrottled()` turns this off for unit tests.

use helix_common::timing::Nanos;
use std::time::{Duration, Instant};

/// Emulated storage hardware characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskProfile {
    /// Sequential read bandwidth in bytes/second (`None` = unthrottled).
    pub read_bytes_per_sec: Option<u64>,
    /// Sequential write bandwidth in bytes/second (`None` = unthrottled).
    pub write_bytes_per_sec: Option<u64>,
    /// Fixed per-operation latency (seek + open) in nanoseconds.
    pub seek_nanos: Nanos,
}

impl DiskProfile {
    /// No throttling at all (unit tests, CI).
    pub fn unthrottled() -> DiskProfile {
        DiskProfile { read_bytes_per_sec: None, write_bytes_per_sec: None, seek_nanos: 0 }
    }

    /// The paper's evaluation hardware: 170 MB/s reads and writes
    /// (§6.3), with a token 2 ms HDD seek.
    pub fn paper_hdd() -> DiskProfile {
        DiskProfile {
            read_bytes_per_sec: Some(170 * 1_000_000),
            write_bytes_per_sec: Some(170 * 1_000_000),
            seek_nanos: 2_000_000,
        }
    }

    /// A scaled profile for fast experiment runs: same *ratio* of bandwidth
    /// to our scaled-down datasets as the paper's HDD had to theirs.
    pub fn scaled(bytes_per_sec: u64, seek_nanos: Nanos) -> DiskProfile {
        DiskProfile {
            read_bytes_per_sec: Some(bytes_per_sec),
            write_bytes_per_sec: Some(bytes_per_sec),
            seek_nanos,
        }
    }

    /// Target duration for reading `bytes` bytes.
    fn read_target(&self, bytes: u64) -> Nanos {
        Self::target(self.read_bytes_per_sec, self.seek_nanos, bytes)
    }

    /// Target duration for writing `bytes` bytes.
    pub fn write_target(&self, bytes: u64) -> Nanos {
        Self::target(self.write_bytes_per_sec, self.seek_nanos, bytes)
    }

    fn target(bw: Option<u64>, seek: Nanos, bytes: u64) -> Nanos {
        match bw {
            None => 0,
            Some(bps) => {
                let transfer = (bytes as u128 * 1_000_000_000u128 / bps.max(1) as u128)
                    .min(u64::MAX as u128) as u64;
                seek.saturating_add(transfer)
            }
        }
    }

    /// Estimated load time for an artifact of `bytes` bytes — the `l_i`
    /// OEP/OMP use *before* a measurement exists (paper §5.3:
    /// `l_i = s_i / (disk read speed)`).
    pub fn estimate_load_nanos(&self, bytes: u64) -> Nanos {
        match self.read_bytes_per_sec {
            Some(_) => self.read_target(bytes),
            // Unthrottled: assume a fast local disk (2 GB/s) so estimates
            // stay finite and ordering-correct.
            None => 1_000 + bytes / 2,
        }
    }

    /// Run `op`, then sleep until at least `target(bytes)` has elapsed.
    /// Returns `(result, total_nanos)`.
    pub fn run_read<T>(&self, bytes: u64, op: impl FnOnce() -> T) -> (T, Nanos) {
        Self::run_throttled(self.read_target(bytes), op)
    }

    /// Write-side twin of [`run_read`](Self::run_read).
    pub fn run_write<T>(&self, bytes: u64, op: impl FnOnce() -> T) -> (T, Nanos) {
        Self::run_throttled(self.write_target(bytes), op)
    }

    fn run_throttled<T>(target: Nanos, op: impl FnOnce() -> T) -> (T, Nanos) {
        let start = Instant::now();
        let out = op();
        let elapsed = start.elapsed();
        let elapsed_nanos = helix_common::timing::duration_to_nanos(elapsed);
        if elapsed_nanos < target {
            std::thread::sleep(Duration::from_nanos(target - elapsed_nanos));
        }
        (out, helix_common::timing::duration_to_nanos(start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_targets_are_zero() {
        let d = DiskProfile::unthrottled();
        assert_eq!(d.read_target(1 << 30), 0);
        assert_eq!(d.write_target(1 << 30), 0);
    }

    #[test]
    fn targets_scale_with_bytes() {
        let d = DiskProfile::scaled(100_000_000, 1_000_000); // 100 MB/s, 1ms seek
        assert_eq!(d.read_target(100_000_000), 1_000_000 + 1_000_000_000);
        assert_eq!(d.read_target(0), 1_000_000);
        assert!(d.read_target(10) < d.read_target(10_000_000));
    }

    #[test]
    fn paper_profile_matches_spec() {
        let d = DiskProfile::paper_hdd();
        // 170 MB at 170 MB/s = 1 s + seek.
        let t = d.read_target(170 * 1_000_000);
        assert!((t as i64 - 1_002_000_000).abs() < 1_000, "t={t}");
    }

    #[test]
    fn estimate_is_finite_and_monotonic() {
        for d in [DiskProfile::unthrottled(), DiskProfile::paper_hdd()] {
            let small = d.estimate_load_nanos(1_000);
            let big = d.estimate_load_nanos(10_000_000);
            assert!(small < big);
        }
    }

    #[test]
    fn throttle_enforces_floor() {
        let d = DiskProfile::scaled(1_000_000_000, 0); // 1 GB/s
                                                       // 5 MB at 1 GB/s = 5 ms floor even though the op is instant.
        let ((), nanos) = d.run_read(5_000_000, || ());
        assert!(nanos >= 5_000_000, "nanos={nanos}");
        assert!(nanos < 80_000_000, "sleep should be close to target, got {nanos}");
    }

    #[test]
    fn fast_target_does_not_slow_slow_ops() {
        let d = DiskProfile::scaled(u64::MAX, 0);
        let ((), nanos) = d.run_write(1, || std::thread::sleep(Duration::from_millis(2)));
        assert!(nanos >= 2_000_000);
    }
}
