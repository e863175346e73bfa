//! K-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! The Genomics workflow clusters learned gene embeddings "using K-Means to
//! identify functional similarity" (paper §6.2). Deterministic given the
//! seed.

use helix_common::{HelixError, Result, SplitMix64};
use helix_data::{CentroidModel, FeatureVector};

/// K-means trainer configuration.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement.
    pub tolerance: f64,
    /// Seeding RNG.
    pub seed: u64,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans { k: 8, max_iters: 50, tolerance: 1e-6, seed: 42 }
    }
}

impl KMeans {
    /// Fit centroids to `points`.
    pub fn fit(&self, points: &[FeatureVector]) -> Result<CentroidModel> {
        if self.k == 0 {
            return Err(HelixError::ml("k-means requires k >= 1"));
        }
        if points.len() < self.k {
            return Err(HelixError::ml(format!(
                "k-means: {} points for k={}",
                points.len(),
                self.k
            )));
        }
        let dim = points[0].dim();
        if points.iter().any(|p| p.dim() != dim) {
            return Err(HelixError::ml("k-means: inconsistent dimensions"));
        }

        let mut rng = SplitMix64::new(self.seed);
        let mut centroids = self.plus_plus_init(points, dim, &mut rng);
        let mut assignment = vec![0usize; points.len()];

        for _ in 0..self.max_iters {
            // Assign.
            for (i, p) in points.iter().enumerate() {
                assignment[i] = Self::nearest(&centroids, p).0;
            }
            // Update.
            let mut sums = vec![vec![0.0f64; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, p) in points.iter().enumerate() {
                let c = assignment[i];
                counts[c] += 1;
                p.add_scaled_to(&mut sums[c], 1.0);
            }
            let mut movement = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random point.
                    let p = &points[rng.index(points.len())];
                    sums[c] = p.to_dense();
                    counts[c] = 1;
                }
                for v in sums[c].iter_mut() {
                    *v /= counts[c] as f64;
                }
                movement +=
                    sums[c].iter().zip(&centroids[c]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            if movement < self.tolerance {
                break;
            }
        }

        let inertia: f64 = points.iter().map(|p| Self::nearest(&centroids, p).1).sum();
        Ok(CentroidModel { centroids, dim: dim as u32, inertia })
    }

    /// Cluster index for one point.
    pub fn assign(model: &CentroidModel, point: &FeatureVector) -> usize {
        Self::nearest(&model.centroids, point).0
    }

    fn nearest(centroids: &[Vec<f64>], p: &FeatureVector) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d = p.sq_dist_dense(centroid);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// k-means++ seeding: first centroid uniform, the rest proportional to
    /// squared distance from the nearest chosen centroid.
    fn plus_plus_init(
        &self,
        points: &[FeatureVector],
        dim: usize,
        rng: &mut SplitMix64,
    ) -> Vec<Vec<f64>> {
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(self.k);
        centroids.push(points[rng.index(points.len())].to_dense());
        let mut dists: Vec<f64> = points.iter().map(|p| p.sq_dist_dense(&centroids[0])).collect();
        while centroids.len() < self.k {
            let next = match rng.choose_weighted(&dists) {
                Some(i) => i,
                // All-zero distances (duplicate points): fall back uniform.
                None => rng.index(points.len()),
            };
            centroids.push(points[next].to_dense());
            let _ = dim;
            let newest = centroids.last().unwrap();
            for (d, p) in dists.iter_mut().zip(points) {
                let nd = p.sq_dist_dense(newest);
                if nd < *d {
                    *d = nd;
                }
            }
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_blobs(per_cluster: usize, centers: &[(f64, f64)], seed: u64) -> Vec<FeatureVector> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_cluster {
                out.push(FeatureVector::Dense(vec![
                    cx + rng.next_gaussian() * 0.2,
                    cy + rng.next_gaussian() * 0.2,
                ]));
            }
        }
        out
    }

    #[test]
    fn recovers_planted_clusters() {
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let points = planted_blobs(60, &centers, 5);
        let model = KMeans { k: 3, ..Default::default() }.fit(&points).unwrap();
        // Each planted blob should map to a single distinct centroid.
        let mut blob_to_cluster = Vec::new();
        for b in 0..3 {
            let counts = (0..60).fold([0usize; 3], |mut acc, i| {
                acc[KMeans::assign(&model, &points[b * 60 + i])] += 1;
                acc
            });
            let majority = counts.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
            assert!(*majority.1 > 55, "blob {b} split across clusters: {counts:?}");
            blob_to_cluster.push(majority.0);
        }
        blob_to_cluster.sort_unstable();
        blob_to_cluster.dedup();
        assert_eq!(blob_to_cluster.len(), 3, "each blob has its own cluster");
        assert!(model.inertia < 60.0, "inertia {0} too high", model.inertia);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let points = planted_blobs(40, &[(0.0, 0.0), (8.0, 8.0), (0.0, 8.0), (8.0, 0.0)], 9);
        let i2 = KMeans { k: 2, ..Default::default() }.fit(&points).unwrap().inertia;
        let i4 = KMeans { k: 4, ..Default::default() }.fit(&points).unwrap().inertia;
        assert!(i4 < i2, "k=4 inertia {i4} should beat k=2 {i2}");
    }

    #[test]
    fn works_on_sparse_points() {
        let points: Vec<FeatureVector> = (0..20)
            .map(|i| {
                let idx = if i % 2 == 0 { 0 } else { 5 };
                FeatureVector::sparse_from_pairs(8, vec![(idx, 10.0)])
            })
            .collect();
        let model = KMeans { k: 2, ..Default::default() }.fit(&points).unwrap();
        let a = KMeans::assign(&model, &points[0]);
        let b = KMeans::assign(&model, &points[1]);
        assert_ne!(a, b);
        assert_eq!(KMeans::assign(&model, &points[2]), a);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let points = planted_blobs(2, &[(0.0, 0.0)], 1);
        assert!(KMeans { k: 0, ..Default::default() }.fit(&points).is_err());
        assert!(KMeans { k: 10, ..Default::default() }.fit(&points).is_err());
        let mixed = vec![FeatureVector::zeros(2), FeatureVector::zeros(3)];
        assert!(KMeans { k: 1, ..Default::default() }.fit(&mixed).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let points = planted_blobs(30, &[(0.0, 0.0), (5.0, 5.0)], 3);
        let a = KMeans { k: 2, ..Default::default() }.fit(&points).unwrap();
        let b = KMeans { k: 2, ..Default::default() }.fit(&points).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_handled() {
        let points: Vec<FeatureVector> =
            (0..10).map(|_| FeatureVector::Dense(vec![1.0, 1.0])).collect();
        let model = KMeans { k: 3, ..Default::default() }.fit(&points).unwrap();
        assert_eq!(model.centroids.len(), 3);
        assert!(model.inertia < 1e-9);
    }
}
