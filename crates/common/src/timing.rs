//! Time conventions and measurement helpers.
//!
//! The OEP/OMP optimizers (paper §5) compare *compute time* `c_i` against
//! *load time* `l_i`. We represent all such costs as integer **nanoseconds**
//! ([`Nanos`]) so the max-flow reduction works on exact integers (see
//! `helix-flow::oep` for why floats would be hazardous there).

use std::time::Instant;

/// Integer nanoseconds — the cost unit used throughout the optimizers.
pub type Nanos = u64;

/// Convert a `std::time::Duration` to [`Nanos`], saturating.
pub fn duration_to_nanos(d: std::time::Duration) -> Nanos {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A simple monotonic stopwatch.
///
/// ```
/// use helix_common::Stopwatch;
/// let sw = Stopwatch::start();
/// let elapsed = sw.elapsed_nanos();
/// assert!(elapsed < 1_000_000_000, "reading a stopwatch is fast");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Nanoseconds since `start()`.
    pub fn elapsed_nanos(&self) -> Nanos {
        duration_to_nanos(self.started.elapsed())
    }
}

/// Time a closure, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Nanos) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (value, nanos) = timed(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(value, (0..10_000u64).map(|i| i.wrapping_mul(i)).fold(0u64, u64::wrapping_add));
        assert!(nanos > 0);
    }

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
