//! Sparse Gaussian-process regression: the subset-of-regressors (SoR)
//! approximation with `m` inducing points.
//!
//! The exact GP in [`super::gp`] is O(n³) to fit and O(n) per predictive
//! mean; at the observation volumes a served multi-tenant daemon
//! accumulates it hits a wall. SoR projects the posterior onto `m ≪ n`
//! inducing points `Z` (a deterministic stride subsample of the training
//! set): with `A = σ²·K_mm + K_mn·K_nm` and `b = K_mn·y`,
//!
//! ```text
//! mean(q)  = k_m(q)ᵀ · A⁻¹ · b
//! var(q)   = σ² · k_m(q)ᵀ · A⁻¹ · k_m(q)
//! ```
//!
//! Fit costs O(n·m²) and prediction O(m) per query, with no cap on the
//! training set. The price is the usual SoR caveat: predictive
//! variance *decays* away from the inducing set instead of reverting to
//! the prior, so this model is for mean prediction at scale, not for
//! exploration bonuses far outside the data.
//!
//! Hyper-parameters are selected exactly like the exact GP (log marginal
//! likelihood grid on a small subsample), so the two models agree on
//! kernel geometry and the sparse-vs-exact regression harness compares
//! approximation error only.

use super::gp::{stride_subsample, GaussianProcess};
use super::{validate, FitError, Regressor};
use crate::linalg::{sq_dist, Matrix};
use crate::standardize::{ScalarStandardizer, Standardizer};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// Diagonal jitter added to `K_mm` before forming `A`, keeping the
/// factorization SPD when inducing points nearly coincide.
const JITTER: f64 = 1e-8;

/// Subset-of-regressors sparse GP with an RBF kernel.
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    lengthscale_factors: Vec<f64>,
    noise_grid: Vec<f64>,
    /// Number of inducing points (the `m` in O(n·m²)).
    max_inducing: usize,
    /// Cap on subsample size used for hyper-parameter selection.
    max_hyper: usize,
    // Fitted state.
    std: Standardizer,
    ystd: Option<ScalarStandardizer>,
    /// Inducing points in standardized feature space, frozen at fit.
    inducing: Vec<Vec<f64>>,
    /// Cholesky factor of `A = σ²·(K_mm + jitter·I) + K_mn·K_nm`.
    chol_a: Option<Matrix>,
    /// `b = K_mn · y_z`.
    b: Vec<f64>,
    /// `w = A⁻¹ · b`.
    w: Vec<f64>,
    /// Observations fitted (unbounded — nothing is dropped).
    n_train: usize,
    lengthscale: f64,
    noise: f64,
}

impl SparseGaussianProcess {
    /// The default configuration: 256 inducing points, the exact GP's
    /// hyper-parameter grids.
    pub fn default_rbf() -> Self {
        SparseGaussianProcess {
            lengthscale_factors: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            noise_grid: vec![1e-4, 1e-3, 1e-2, 1e-1],
            max_inducing: 256,
            max_hyper: 300,
            std: Standardizer::default(),
            ystd: None,
            inducing: Vec::new(),
            chol_a: None,
            b: Vec::new(),
            w: Vec::new(),
            n_train: 0,
            lengthscale: 1.0,
            noise: 1e-2,
        }
    }

    /// Builds a sparse GP with fixed lengthscale/noise (no grid search).
    pub fn with_hyperparams(lengthscale: f64, noise: f64) -> Self {
        SparseGaussianProcess {
            lengthscale_factors: vec![],
            noise_grid: vec![],
            lengthscale,
            noise,
            ..Self::default_rbf()
        }
    }

    /// Overrides the inducing-point budget (larger = slower, closer to
    /// exact).
    pub fn with_max_inducing(mut self, m: usize) -> Self {
        self.max_inducing = m.max(2);
        self
    }

    /// Fitted lengthscale.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Fitted noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Observations fitted (nothing is dropped).
    pub fn train_len(&self) -> usize {
        self.n_train
    }

    /// Number of inducing points in the fitted model.
    pub fn inducing_len(&self) -> usize {
        self.inducing.len()
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        (-sq_dist(a, b) / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    /// Cross-kernel vector `k_m(x)` of a standardized point against the
    /// inducing set.
    fn k_inducing(&self, xz: &[f64]) -> Vec<f64> {
        self.inducing.iter().map(|z| self.kernel(xz, z)).collect()
    }

    /// Standardized-space mean and variance for one standardized query.
    /// The single code path both variance APIs share.
    fn mean_var_z(&self, kv: &[f64]) -> (f64, f64) {
        let mean_z: f64 = kv.iter().zip(&self.w).map(|(k, w)| k * w).sum();
        let var_z = match &self.chol_a {
            Some(l) => {
                let v = l.solve_lower(kv);
                (self.noise.max(1e-6) * v.iter().map(|x| x * x).sum::<f64>()).max(1e-12)
            }
            None => 1.0,
        };
        (mean_z, var_z)
    }

    /// Predictive mean and variance for one point (raw target space).
    pub fn predict_with_variance(&self, x: &[f64]) -> (f64, f64) {
        let Some(ystd) = self.ystd else {
            return (0.0, 1.0);
        };
        let q = self.std.transform(x);
        let (mean_z, var_z) = self.mean_var_z(&self.k_inducing(&q));
        let scale = ystd.inverse(1.0) - ystd.inverse(0.0);
        if yoso_chaos::armed() && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan) {
            return (f64::NAN, f64::NAN);
        }
        (ystd.inverse(mean_z), var_z * scale * scale)
    }

    /// Predictive means and variances for a batch of points (raw target
    /// space); bit-identical to the per-point path.
    pub fn predict_batch_with_variance(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let Some(ystd) = self.ystd else {
            return vec![(0.0, 1.0); xs.len()];
        };
        let _span = yoso_trace::span("sparse_gp.predict_batch_with_variance");
        if yoso_trace::enabled() {
            yoso_trace::counter_add("sparse_gp.variance_batches", 1);
            yoso_trace::counter_add("sparse_gp.variance_points", xs.len() as u64);
        }
        let scale = ystd.inverse(1.0) - ystd.inverse(0.0);
        xs.iter()
            .map(|x| {
                let q = self.std.transform(x);
                let (mean_z, var_z) = self.mean_var_z(&self.k_inducing(&q));
                if yoso_chaos::armed()
                    && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan)
                {
                    return (f64::NAN, f64::NAN);
                }
                (ystd.inverse(mean_z), var_z * scale * scale)
            })
            .collect()
    }

    /// Predictive means for a batch of points (raw target space) — O(m)
    /// per query, independent of how many observations were absorbed.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let Some(ystd) = self.ystd else {
            return vec![0.0; xs.len()];
        };
        let _span = yoso_trace::span("sparse_gp.predict_batch");
        if yoso_trace::enabled() {
            yoso_trace::counter_add("sparse_gp.batches", 1);
            yoso_trace::counter_add("sparse_gp.points", xs.len() as u64);
        }
        xs.iter()
            .map(|x| {
                let q = self.std.transform(x);
                let mean_z: f64 = self
                    .inducing
                    .iter()
                    .zip(&self.w)
                    .map(|(z, w)| self.kernel(&q, z) * w)
                    .sum();
                if yoso_chaos::armed()
                    && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan)
                {
                    return f64::NAN;
                }
                ystd.inverse(mean_z)
            })
            .collect()
    }

    /// Forms `A = σ²·(K_mm + jitter·I) + K_mn·K_nm` and `b = K_mn·y`
    /// from standardized data, streaming one training column at a time
    /// (the n×m cross-kernel matrix is never materialized).
    fn build_normal_equations(&self, xs_z: &[Vec<f64>], ys_z: &[f64]) -> (Matrix, Vec<f64>) {
        let m = self.inducing.len();
        let noise_eff = self.noise.max(1e-6);
        let kmm = GaussianProcess::kernel_matrix(&self.inducing, self.lengthscale, JITTER);
        let mut a = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                a[(i, j)] = noise_eff * kmm[(i, j)];
            }
        }
        let mut b = vec![0.0; m];
        for (xz, &yz) in xs_z.iter().zip(ys_z) {
            let k = self.k_inducing(xz);
            for i in 0..m {
                b[i] += k[i] * yz;
                for j in 0..=i {
                    let v = k[i] * k[j];
                    a[(i, j)] += v;
                    if i != j {
                        a[(j, i)] += v;
                    }
                }
            }
        }
        // `K_mn·K_nm` is numerically rank-deficient when inducing points
        // sit within a lengthscale of each other, and its entries dwarf
        // the σ²·K_mm term — so the ridge must scale with A's own
        // magnitude to keep the factorization SPD. The relative size
        // (1e-10 of the mean diagonal) is far below the model's
        // approximation error.
        let trace: f64 = (0..m).map(|i| a[(i, i)]).sum();
        let ridge = 1e-10 * (trace / m as f64).max(1.0);
        for i in 0..m {
            a[(i, i)] += ridge;
        }
        (a, b)
    }
}

impl Default for SparseGaussianProcess {
    fn default() -> Self {
        Self::default_rbf()
    }
}

// The full fitted state is persisted so a restored model predicts
// bit-identically.
impl Snapshot for SparseGaussianProcess {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.lengthscale_factors);
        w.put_f64s(&self.noise_grid);
        w.put_usize(self.max_inducing);
        w.put_usize(self.max_hyper);
        self.std.snapshot(w);
        match self.ystd {
            Some(y) => {
                w.put_bool(true);
                y.snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.inducing.len());
        for z in &self.inducing {
            w.put_f64s(z);
        }
        match &self.chol_a {
            Some(l) => {
                w.put_bool(true);
                l.snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_f64s(&self.b);
        w.put_f64s(&self.w);
        w.put_usize(self.n_train);
        w.put_f64(self.lengthscale);
        w.put_f64(self.noise);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let lengthscale_factors = r.take_f64s()?;
        let noise_grid = r.take_f64s()?;
        let max_inducing = r.take_usize()?;
        let max_hyper = r.take_usize()?;
        let std = Standardizer::restore(r)?;
        let ystd = if r.take_bool()? {
            Some(ScalarStandardizer::restore(r)?)
        } else {
            None
        };
        let m = r.take_usize()?;
        let inducing = (0..m)
            .map(|_| r.take_f64s())
            .collect::<Result<Vec<_>, _>>()?;
        let chol_a = if r.take_bool()? {
            Some(Matrix::restore(r)?)
        } else {
            None
        };
        let b = r.take_f64s()?;
        let w = r.take_f64s()?;
        if b.len() != inducing.len() || w.len() != inducing.len() {
            return Err(PersistError::Malformed(format!(
                "sparse gp: {} inducing points vs {} b vs {} w entries",
                inducing.len(),
                b.len(),
                w.len()
            )));
        }
        Ok(SparseGaussianProcess {
            lengthscale_factors,
            noise_grid,
            max_inducing,
            max_hyper,
            std,
            ystd,
            inducing,
            chol_a,
            b,
            w,
            n_train: r.take_usize()?,
            lengthscale: r.take_f64()?,
            noise: r.take_f64()?,
        })
    }
}

impl Regressor for SparseGaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        if yoso_chaos::armed() && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpFitFail) {
            return Err(FitError::Numerical(
                "chaos: injected sparse GP fit failure".into(),
            ));
        }
        let d = validate(x, y)?;
        self.std = Standardizer::fit(x);
        let xs_z = self.std.transform_all(x);
        let ystd = ScalarStandardizer::fit(y);
        let ys_z: Vec<f64> = y.iter().map(|&v| ystd.transform(v)).collect();
        self.ystd = Some(ystd);

        // Same hyper-parameter selection as the exact GP: log marginal
        // likelihood grid on a small subsample, base lengthscale sqrt(d).
        if !self.lengthscale_factors.is_empty() {
            let xs_h = stride_subsample(&xs_z, self.max_hyper);
            let ys_h = stride_subsample(&ys_z, self.max_hyper);
            let base = (d as f64).sqrt();
            let mut best = f64::NEG_INFINITY;
            for &lf in &self.lengthscale_factors {
                for &nv in &self.noise_grid {
                    let lml = GaussianProcess::log_marginal(&xs_h, &ys_h, lf * base, nv);
                    if lml > best {
                        best = lml;
                        self.lengthscale = lf * base;
                        self.noise = nv;
                    }
                }
            }
            if best == f64::NEG_INFINITY {
                return Err(FitError::Numerical(
                    "no hyper-parameter candidate yielded an SPD kernel".into(),
                ));
            }
        }

        self.inducing = stride_subsample(&xs_z, self.max_inducing);
        let (a, b) = self.build_normal_equations(&xs_z, &ys_z);
        let l = a
            .cholesky()
            .map_err(|e| FitError::Numerical(e.to_string()))?;
        // `w = A⁻¹ b`: two O(m²) triangular solves.
        self.w = l.solve_lower_transpose(&l.solve_lower(&b));
        self.chol_a = Some(l);
        self.b = b;
        self.n_train = x.len();
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_with_variance(x).0
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.predict_batch(xs)
    }

    fn name(&self) -> &'static str {
        "SparseGaussianProcess"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mse, r2, spearman};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn smooth_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0]).sin() + 0.5 * (x[1] * 0.8).cos() + 0.3 * x[0])
            .collect();
        (xs, ys)
    }

    /// Shared harness for the sparse-vs-exact agreement gates: fits both
    /// models on identical data, then asserts that on held-out queries
    /// the two models (a) rank candidates near-identically and (b) differ
    /// by at most `max_gap_frac` of the target's standard deviation —
    /// a direct "within tolerance of exact" criterion that does not
    /// depend on how close to perfect the exact model happens to be.
    fn assert_agreement(n_train: usize, seed: u64, min_spearman: f64, max_gap_frac: f64) {
        let (xs, ys) = smooth_data(n_train, seed);
        let (tx, ty) = smooth_data(200, seed + 1);
        let mut exact = GaussianProcess::default_rbf();
        exact.fit(&xs, &ys).unwrap();
        let mut sparse = SparseGaussianProcess::default_rbf();
        sparse.fit(&xs, &ys).unwrap();
        let pe = exact.predict(&tx);
        let ps = sparse.predict(&tx);
        let rho = spearman(&pe, &ps);
        assert!(
            rho >= min_spearman,
            "sparse-vs-exact rank correlation {rho} < {min_spearman} at n={n_train}"
        );
        let mean_y = ty.iter().sum::<f64>() / ty.len() as f64;
        let std_y = (ty.iter().map(|y| (y - mean_y).powi(2)).sum::<f64>() / ty.len() as f64).sqrt();
        let gap = mse(&ps, &pe).sqrt();
        assert!(
            gap <= max_gap_frac * std_y,
            "sparse-vs-exact prediction gap rmse {gap} > {max_gap_frac} of target std {std_y} at n={n_train}"
        );
    }

    #[test]
    fn sparse_interpolates_smooth_function() {
        let (xs, ys) = smooth_data(400, 0);
        let mut gp = SparseGaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.train_len(), 400);
        assert_eq!(gp.inducing_len(), 256);
        let (tx, ty) = smooth_data(80, 1);
        let preds = gp.predict(&tx);
        assert!(r2(&preds, &ty) > 0.95, "r2 {}", r2(&preds, &ty));
    }

    #[test]
    fn sparse_agrees_with_exact_small() {
        // Fast tier-1 gate; the n=2k CI gate below is `#[ignore]`d.
        assert_agreement(400, 2, 0.95, 0.05);
    }

    /// The CI-gated agreement criterion from the issue: at n=2k the
    /// sparse model must stay within tolerance of the exact GP. Too slow
    /// for debug-mode tier-1 (`cargo test -q`); the CI surrogate job runs
    /// it with `--release -- --ignored`.
    #[test]
    #[ignore = "n=2k agreement gate: run in release via the CI surrogate job"]
    fn sparse_agrees_with_exact_at_2k() {
        assert_agreement(2000, 3, 0.95, 0.05);
    }

    #[test]
    fn unfitted_predicts_zero() {
        let gp = SparseGaussianProcess::default_rbf();
        assert_eq!(gp.predict_one(&[1.0, 2.0]), 0.0);
        assert_eq!(gp.predict_batch(&[vec![1.0, 2.0]]), vec![0.0]);
        assert_eq!(
            gp.predict_batch_with_variance(&[vec![0.0, 0.0]]),
            vec![(0.0, 1.0)]
        );
    }

    #[test]
    fn fixed_hyperparams_skip_grid() {
        let (xs, ys) = smooth_data(50, 5);
        let mut gp = SparseGaussianProcess::with_hyperparams(1.5, 1e-3);
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.lengthscale(), 1.5);
        assert_eq!(gp.noise(), 1e-3);
    }

    #[test]
    fn batch_paths_match_per_point() {
        let (xs, ys) = smooth_data(150, 25);
        let mut gp = SparseGaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (tx, _) = smooth_data(33, 26);
        let means = gp.predict_batch(&tx);
        let both = gp.predict_batch_with_variance(&tx);
        for ((x, &m), &(bm, bv)) in tx.iter().zip(&means).zip(&both) {
            let (m1, v1) = gp.predict_with_variance(x);
            assert_eq!(m1.to_bits(), bm.to_bits());
            assert_eq!(v1.to_bits(), bv.to_bits());
            assert!((m - m1).abs() < 1e-12, "batch mean {m} vs {m1}");
        }
    }

    #[test]
    fn snapshot_roundtrips_fitted_state() {
        use yoso_persist::{ByteReader, ByteWriter};
        let (xs, ys) = smooth_data(120, 27);
        let mut gp = SparseGaussianProcess::default_rbf().with_max_inducing(48);
        gp.fit(&xs, &ys).unwrap();
        let mut w = ByteWriter::new();
        gp.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = SparseGaussianProcess::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.train_len(), gp.train_len());
        assert_eq!(back.b, gp.b);
        let (tx, _) = smooth_data(20, 28);
        for x in &tx {
            let (m0, v0) = gp.predict_with_variance(x);
            let (m1, v1) = back.predict_with_variance(x);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }
}
