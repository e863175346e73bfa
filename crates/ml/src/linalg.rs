//! Shared numeric kernels.

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Index of the maximum element (first on ties); `None` when empty.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, x) in xs.iter().enumerate().skip(1) {
        if *x > xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// Cosine similarity between two equal-length vectors; 0 when either is 0.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Dot product of equal-length dense slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `out[i] = x · row(i)` for every `i` in `0..out.len()`, each summed over
/// `k` in order from `zero`, exactly as a one-row loop sums it. Up to four
/// of these independent sums advance together, so their add chains
/// overlap instead of each waiting on the last add's latency. Every row
/// must be at least as long as `x`; terms past `x.len()` are not read.
///
/// Interleaving *independent* sums keeps every bit, so its callers, RFF's
/// `transform` and LR's `scores`, compute exactly their one-accumulator
/// sums. Reordering the terms of *one* sum (several accumulators per dot)
/// changes bits: a kernel that does so bumps its kernel version, as the
/// eight-lane dots of word2vec and LR training did (`lane_sum`).
#[inline]
pub fn dots<'a>(x: &[f64], row: impl Fn(usize) -> &'a [f64], zero: f64, out: &mut [f64]) {
    for (c, out) in out.chunks_mut(4).enumerate() {
        let r = |j: usize| row(4 * c + j);
        match out.len() {
            4 => out.copy_from_slice(&dot_n(x, [r(0), r(1), r(2), r(3)], zero)),
            3 => out.copy_from_slice(&dot_n(x, [r(0), r(1), r(2)], zero)),
            2 => out.copy_from_slice(&dot_n(x, [r(0), r(1)], zero)),
            _ => out.copy_from_slice(&dot_n(x, [r(0)], zero)),
        }
    }
}

/// `N` dot products of `x` with rows at least its length, interleaved
/// term by term; each sum runs over `k` in order from `zero`.
#[inline]
fn dot_n<const N: usize>(x: &[f64], rows: [&[f64]; N], zero: f64) -> [f64; N] {
    let rows = rows.map(|row| &row[..x.len()]);
    let mut acc = [zero; N];
    for (k, &xk) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            *a += xk * row[k];
        }
    }
    acc
}

/// The eight lane sums of an `f32` dot product, where lane `l` holds the
/// terms `k ≡ l (mod 8)`, reduced as `((a0 + a4) + (a2 + a6)) + ((a1 +
/// a5) + (a3 + a7))`. word2vec's and LR's training kernels specify their
/// dot products by this tree.
#[inline]
pub(crate) fn lane_sum(a: [f32; 8]) -> f32 {
    ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-10);
    }

    #[test]
    fn argmax_ties_and_empty() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[-5.0]), Some(0));
    }

    #[test]
    fn cosine_bounds() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn dot_sums_products() {
        assert_eq!(dot(&[6.0, 12.0], &[1.0, 1.0]), 18.0);
        assert_eq!(dot(&[1.0, 2.0], &[10.0, 20.0]), 50.0);
    }
}
