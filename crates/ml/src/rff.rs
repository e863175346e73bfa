//! Random Fourier features (Rahimi–Recht) — the MNIST workload's DPR.
//!
//! The paper's MNIST pipeline comes from KeystoneML's `MnistRandomFFT`
//! example: images are lifted through a *randomized* feature map before a
//! linear classifier. The randomization is why the paper calls this
//! workload's preprocessing "nondeterministic (and hence not reusable)"
//! (§6.2): re-executing the operator draws a fresh projection, deprecating
//! every downstream result. In our reproduction the projection is seeded
//! explicitly; the workflow layer feeds a fresh nonce whenever the operator
//! re-executes, reproducing the paper's semantics while keeping whole runs
//! replayable.
//!
//! The map is `x ↦ sqrt(2/D) · cos(Wx + b)` with `W ~ N(0, γ)` rows and
//! `b ~ U[0, 2π)`, approximating an RBF kernel.
//!
//! [`RandomFourierFeatures::transform`] takes the `D` projections `w·x`
//! four at a time ([`crate::linalg::dots`]), so their add chains overlap
//! instead of each waiting on FP add latency. The projections are
//! independent sums and each keeps its own term order, so the features
//! are those of a one-row-at-a-time loop, bit for bit. That is the rule:
//! independent sums may be interleaved; one sum's order may not change.

use helix_common::{HelixError, Result, SplitMix64};
use helix_data::{FeatureVector, TransformModel};

/// Random Fourier feature generator configuration.
#[derive(Clone, Debug)]
pub struct RandomFourierFeatures {
    /// Output dimensionality `D`.
    pub dim_out: usize,
    /// Kernel bandwidth multiplier for the Gaussian projection.
    pub gamma: f64,
    /// Projection seed (the workflow layer mixes in an execution nonce).
    pub seed: u64,
}

impl Default for RandomFourierFeatures {
    fn default() -> Self {
        RandomFourierFeatures { dim_out: 128, gamma: 0.05, seed: 42 }
    }
}

impl RandomFourierFeatures {
    /// Draw the projection for inputs of dimension `dim_in`.
    pub fn fit(&self, dim_in: usize) -> Result<TransformModel> {
        if self.dim_out == 0 || dim_in == 0 {
            return Err(HelixError::ml("rff: dimensions must be positive"));
        }
        let mut rng = SplitMix64::new(self.seed);
        let mut projection = Vec::with_capacity(self.dim_out * dim_in);
        for _ in 0..self.dim_out * dim_in {
            projection.push(rng.next_gaussian() * self.gamma.sqrt());
        }
        let offsets: Vec<f64> =
            (0..self.dim_out).map(|_| rng.next_f64() * std::f64::consts::TAU).collect();
        Ok(TransformModel::RandomFourier {
            projection,
            offsets,
            dim_in: dim_in as u32,
            dim_out: self.dim_out as u32,
        })
    }

    /// Apply a fitted projection to one input vector.
    pub fn transform(model: &TransformModel, x: &FeatureVector) -> Result<FeatureVector> {
        let TransformModel::RandomFourier { projection, offsets, dim_in, dim_out } = model else {
            return Err(HelixError::ml("rff: wrong transform model"));
        };
        let (din, dout) = (*dim_in as usize, *dim_out as usize);
        if x.dim() != din {
            return Err(HelixError::ml(format!("rff: input dim {} != fitted dim {din}", x.dim())));
        }
        let dense = x.to_dense();
        let scale = (2.0 / dout as f64).sqrt();
        // Each projection is `linalg::dot`'s sum: from `Iterator::sum`'s
        // start value, over `k` in order. `dots` runs several at once.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut out = vec![0.0; dout];
        crate::linalg::dots(&dense, |row| &projection[row * din..(row + 1) * din], zero, &mut out);
        for (y, offset) in out.iter_mut().zip(offsets) {
            *y = scale * (*y + offset).cos();
        }
        Ok(FeatureVector::Dense(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dimension_and_bounds() {
        let rff = RandomFourierFeatures { dim_out: 64, ..Default::default() };
        let model = rff.fit(10).unwrap();
        let y = RandomFourierFeatures::transform(&model, &FeatureVector::zeros(10)).unwrap();
        assert_eq!(y.dim(), 64);
        let bound = (2.0 / 64.0f64).sqrt() + 1e-12;
        for k in 0..64 {
            assert!(y.get(k).abs() <= bound);
        }
    }

    #[test]
    fn kernel_approximation_close_points_more_similar() {
        let rff = RandomFourierFeatures { dim_out: 512, gamma: 0.5, seed: 9 };
        let model = rff.fit(4).unwrap();
        let x = FeatureVector::Dense(vec![1.0, 0.0, -1.0, 0.5]);
        let near = FeatureVector::Dense(vec![1.05, 0.0, -1.0, 0.55]);
        let far = FeatureVector::Dense(vec![-3.0, 2.0, 4.0, -1.0]);
        let phi = |v: &FeatureVector| RandomFourierFeatures::transform(&model, v).unwrap();
        let sim_near = crate::linalg::dot(&phi(&x).to_dense(), &phi(&near).to_dense());
        let sim_far = crate::linalg::dot(&phi(&x).to_dense(), &phi(&far).to_dense());
        assert!(sim_near > sim_far + 0.2, "near {sim_near} vs far {sim_far}");
    }

    #[test]
    fn different_seeds_different_projections() {
        let a = RandomFourierFeatures { seed: 1, ..Default::default() }.fit(5).unwrap();
        let b = RandomFourierFeatures { seed: 2, ..Default::default() }.fit(5).unwrap();
        assert_ne!(a, b, "fresh nonce must deprecate the projection");
        let a2 = RandomFourierFeatures { seed: 1, ..Default::default() }.fit(5).unwrap();
        assert_eq!(a, a2, "same seed must replay exactly");
    }

    /// The specification of [`RandomFourierFeatures::transform`]: one
    /// output row at a time, each a `linalg::dot` over the dense input.
    fn reference_transform(model: &TransformModel, x: &FeatureVector) -> Vec<f64> {
        let TransformModel::RandomFourier { projection, offsets, dim_in, dim_out } = model else {
            unreachable!("fitted by RandomFourierFeatures")
        };
        let (din, dout) = (*dim_in as usize, *dim_out as usize);
        let dense = x.to_dense();
        let scale = (2.0 / dout as f64).sqrt();
        let row = |r: usize| &projection[r * din..(r + 1) * din];
        (0..dout).map(|r| scale * (crate::linalg::dot(row(r), &dense) + offsets[r]).cos()).collect()
    }

    #[test]
    fn transform_is_bit_identical_to_the_serial_reference() {
        // Output widths cover every remainder of the four-row interleave.
        for dim_out in [1, 2, 3, 4, 5, 7, 96, 129] {
            for dim_in in [1, 3, 256] {
                let rff = RandomFourierFeatures { dim_out, gamma: 0.3, seed: dim_out as u64 };
                let model = rff.fit(dim_in).unwrap();
                let mut rng = SplitMix64::new(dim_in as u64);
                let dense =
                    FeatureVector::Dense((0..dim_in).map(|_| rng.next_gaussian()).collect());
                // Every third coordinate set, and a zero vector whose sums
                // are all signed zeros.
                let pairs = (0..dim_in as u32).step_by(3).map(|j| (j, rng.next_gaussian()));
                let sparse = FeatureVector::sparse_from_pairs(dim_in as u32, pairs.collect());
                let empty = FeatureVector::sparse_from_pairs(dim_in as u32, Vec::new());
                for (input, x) in [("dense", &dense), ("sparse", &sparse), ("zero", &empty)] {
                    let got = RandomFourierFeatures::transform(&model, x).unwrap().to_dense();
                    let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                    let want = reference_transform(&model, x);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{input} input, dim_out {dim_out}, dim_in {dim_in}"
                    );
                }
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let model = RandomFourierFeatures::default().fit(8).unwrap();
        assert!(RandomFourierFeatures::transform(&model, &FeatureVector::zeros(9)).is_err());
        assert!(RandomFourierFeatures { dim_out: 0, ..Default::default() }.fit(3).is_err());
    }
}
