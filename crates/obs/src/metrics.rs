//! Named counters, gauges, and log-bucketed histograms.
//!
//! The histogram uses an HDR-style log-linear bucket layout: values
//! below 32 get one bucket each (exact); above that, each power-of-two
//! range is split into 32 linear sub-buckets, so a recorded value is
//! recoverable to within 1/32 (≈ 3.1 %) of its magnitude. Quantile
//! extraction walks the buckets to the requested rank and returns the
//! bucket's lower bound clamped into the exact observed `[min, max]`,
//! which makes single-sample and all-equal distributions exact.
//!
//! All types are cheap to share: counters and gauges are single atomics;
//! a histogram is one short mutex around a flat bucket array.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::Serialize;

/// Linear sub-buckets per power-of-two range (a power of two itself).
const SUB: u64 = 32;
const SUB_BITS: u32 = 5;
/// Total bucket count covering the full `u64` range.
const NBUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * SUB as usize;

/// Bucket index for `v`. Monotonic in `v`; exact below [`SUB`].
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let mantissa = v >> (e - SUB_BITS); // in [SUB, 2*SUB)
        ((e - SUB_BITS) as u64 * SUB + mantissa) as usize
    }
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let block = idx / SUB - 1;
        let mantissa = SUB + idx % SUB;
        mantissa << block
    }
}

struct HistInner {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
pub struct Histogram {
    inner: Mutex<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Mutex::new(HistInner {
                buckets: Vec::new(), // allocated on first record
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let mut h = self.inner.lock();
        if h.buckets.is_empty() {
            h.buckets = vec![0; NBUCKETS];
        }
        h.buckets[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += v as u128;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Quantile `q` in `[0, 1]`: the smallest bucket floor at or above
    /// the rank-`⌈q·count⌉` sample, clamped into the observed
    /// `[min, max]`. `None` when empty. Exact within bucket resolution
    /// (≤ 1/32 relative above 32, exact below).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let h = self.inner.lock();
        if h.count == 0 {
            return None;
        }
        let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
        let mut seen = 0u64;
        for (idx, &n) in h.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_floor(idx).clamp(h.min, h.max));
            }
        }
        Some(h.max)
    }

    /// Snapshot the headline statistics.
    pub fn summary(&self) -> HistogramSummary {
        let (count, min, max, mean) = {
            let h = self.inner.lock();
            if h.count == 0 {
                return HistogramSummary::default();
            }
            (h.count, h.min, h.max, (h.sum / h.count as u128) as u64)
        };
        HistogramSummary {
            count,
            min,
            max,
            mean,
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Serializable headline statistics of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact smallest sample.
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Exact arithmetic mean (integer-truncated).
    pub mean: u64,
    /// Median, exact within bucket resolution.
    pub p50: u64,
    /// 95th percentile, exact within bucket resolution.
    pub p95: u64,
    /// 99th percentile, exact within bucket resolution.
    pub p99: u64,
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge. Cloning shares the underlying atomic.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named instruments. Lookup is by string name; the
/// returned handles are cheap clones sharing the registered instrument,
/// so hot paths should look up once and keep the handle.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Create an empty registry (a private instance is isolated from the
    /// process-wide one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.lock().entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Snapshot every instrument into a serializable tree (maps are
    /// name-sorted, so the snapshot serializes deterministically).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// Serializable point-in-time view of a [`Registry`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// The process-wide registry the instrumented layers write to.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_is_monotonic_and_tight() {
        let mut prev = 0usize;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotonic (v={v})");
            prev = idx;
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} must not exceed {v}");
            // Bucket width is at most 1/32 of the floor (exact below 32).
            if v >= SUB {
                assert!(v - floor <= floor / SUB, "bucket too wide at {v}");
            } else {
                assert_eq!(floor, v);
            }
        }
        assert!(bucket_index(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn quantiles_exact_for_small_values() {
        let h = Histogram::new();
        for v in 0..20 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(9));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(19));
    }

    #[test]
    fn empty_and_single_sample() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), HistogramSummary::default());
        h.record(777_777);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(777_777), "q={q}");
        }
    }

    #[test]
    fn registry_snapshot_is_sorted_and_shared() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.counter("a.count").add(1);
        r.gauge("depth").set(-3);
        r.histogram("lat").record(100);
        r.histogram("lat").record(300); // same instrument via name
        let snap = r.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), vec!["a.count", "b.count"]);
        assert_eq!(snap.counters["b.count"], 2);
        assert_eq!(snap.gauges["depth"], -3);
        assert_eq!(snap.histograms["lat"].count, 2);
    }
}
