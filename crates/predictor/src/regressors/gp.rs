//! Gaussian-process regression with an RBF kernel (Eq. 7–8 of the paper).
//!
//! This is the model the paper selects as its hardware performance
//! predictor: `y = f(λ) + ε`, `f ~ GP(µ, K)` with the radial basis
//! function kernel `K(λ, λ') = exp(-||λ - λ'||² / (2ℓ²))` and Gaussian
//! observation noise. Hyper-parameters (lengthscale `ℓ`, noise variance)
//! are chosen by maximizing the log marginal likelihood over a small grid
//! on a training subsample.

use super::{validate, FitError, Regressor};
use crate::linalg::{sq_dist, Matrix};
use crate::standardize::{ScalarStandardizer, Standardizer};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// RBF-kernel Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    lengthscale_factors: Vec<f64>,
    noise_grid: Vec<f64>,
    /// Cap on training points actually factorized (subsampled by stride).
    max_train: usize,
    /// Cap on subsample size used for hyper-parameter selection.
    max_hyper: usize,
    // Fitted state.
    std: Standardizer,
    ystd: Option<ScalarStandardizer>,
    xs: Vec<Vec<f64>>,
    /// Standardized targets of the factorized points.
    ys_z: Vec<f64>,
    alpha: Vec<f64>,
    chol: Option<Matrix>,
    lengthscale: f64,
    noise: f64,
}

impl GaussianProcess {
    /// The default configuration used by the experiments.
    pub fn default_rbf() -> Self {
        GaussianProcess {
            lengthscale_factors: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            noise_grid: vec![1e-4, 1e-3, 1e-2, 1e-1],
            max_train: 2000,
            max_hyper: 300,
            std: Standardizer::default(),
            ystd: None,
            xs: Vec::new(),
            ys_z: Vec::new(),
            alpha: Vec::new(),
            chol: None,
            lengthscale: 1.0,
            noise: 1e-2,
        }
    }

    /// Builds a GP with a fixed lengthscale/noise (no grid search).
    pub fn with_hyperparams(lengthscale: f64, noise: f64) -> Self {
        GaussianProcess {
            lengthscale_factors: vec![],
            noise_grid: vec![],
            lengthscale,
            noise,
            ..Self::default_rbf()
        }
    }

    /// Overrides the training-set cap (larger = slower, more accurate).
    pub fn with_max_train(mut self, cap: usize) -> Self {
        self.max_train = cap.max(2);
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

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        (-sq_dist(a, b) / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    pub(crate) fn kernel_matrix(xs: &[Vec<f64>], ell: f64, noise: f64) -> Matrix {
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        let inv = 1.0 / (2.0 * ell * ell);
        for i in 0..n {
            k[(i, i)] = 1.0 + noise;
            for j in 0..i {
                let v = (-sq_dist(&xs[i], &xs[j]) * inv).exp();
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// Log marginal likelihood of `(xs, ys)` under `(ell, noise)`.
    pub(crate) fn log_marginal(xs: &[Vec<f64>], ys: &[f64], ell: f64, noise: f64) -> f64 {
        let k = Self::kernel_matrix(xs, ell, noise);
        let Ok(l) = k.cholesky() else {
            return f64::NEG_INFINITY;
        };
        let alpha = l.solve_lower_transpose(&l.solve_lower(ys));
        let n = xs.len();
        let data_fit: f64 = ys.iter().zip(&alpha).map(|(y, a)| y * a).sum::<f64>() * -0.5;
        let log_det: f64 = (0..n).map(|i| l[(i, i)].ln()).sum();
        data_fit - log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Standardized-space mean and variance for one standardized query.
    /// `kv` is a reusable scratch vector for the cross-kernel row.
    ///
    /// This is THE mean/variance code path: both
    /// [`predict_with_variance`](Self::predict_with_variance) and
    /// [`predict_batch_with_variance`](Self::predict_batch_with_variance)
    /// call it, so the two APIs cannot drift apart.
    fn mean_var_z(&self, q: &[f64], kv: &mut Vec<f64>) -> (f64, f64) {
        kv.clear();
        kv.extend(self.xs.iter().map(|xi| self.kernel(q, xi)));
        let mean_z: f64 = kv.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        let var_z = match &self.chol {
            Some(l) => {
                let v = l.solve_lower(kv);
                (1.0 + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12)
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
        let mut kv = Vec::with_capacity(self.xs.len());
        let (mean_z, var_z) = self.mean_var_z(&q, &mut kv);
        // Variance scales by the square of the target std.
        let scale = ystd.inverse(1.0) - ystd.inverse(0.0);
        if yoso_chaos::armed() && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan) {
            return (f64::NAN, f64::NAN);
        }
        (ystd.inverse(mean_z), var_z * scale * scale)
    }

    /// Predictive means and variances for a batch of points (raw target
    /// space) — the acquisition-function entry point.
    ///
    /// Shares the per-query code path with
    /// [`predict_with_variance`](Self::predict_with_variance) (results
    /// are bit-identical) but hoists the query standardization and the
    /// cross-kernel scratch allocation out of the loop, so scoring `q`
    /// candidates costs one allocation instead of `q`.
    pub fn predict_batch_with_variance(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let Some(ystd) = self.ystd else {
            return vec![(0.0, 1.0); xs.len()];
        };
        let _span = yoso_trace::span("gp.predict_batch_with_variance");
        if yoso_trace::enabled() {
            yoso_trace::counter_add("gp.variance_batches", 1);
            yoso_trace::counter_add("gp.variance_points", xs.len() as u64);
        }
        let scale = ystd.inverse(1.0) - ystd.inverse(0.0);
        let mut kv = Vec::with_capacity(self.xs.len());
        xs.iter()
            .map(|x| {
                let q = self.std.transform(x);
                let (mean_z, var_z) = self.mean_var_z(&q, &mut kv);
                if yoso_chaos::armed()
                    && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan)
                {
                    return (f64::NAN, f64::NAN);
                }
                (ystd.inverse(mean_z), var_z * scale * scale)
            })
            .collect()
    }

    /// Predictive means for a batch of points (raw target space).
    ///
    /// Computes the cross-kernel matrix `K(Q, X)` in one blocked
    /// GEMM-style pass — a tile of training rows stays cache-resident
    /// while every query in the current block visits it — and skips the
    /// per-query `O(n²)` triangular solve that
    /// [`predict_with_variance`](Self::predict_with_variance) pays for
    /// the variance, since only means are needed. Each query's mean
    /// accumulates kernel terms in training order into a single `f64`,
    /// so the result is bit-identical to the one-at-a-time path.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        const Q_BLOCK: usize = 32;
        const T_BLOCK: usize = 256;
        let Some(ystd) = self.ystd else {
            return vec![0.0; xs.len()];
        };
        // Batch-size and latency telemetry (`gp.points / gp.batches` is
        // the mean batch size); one atomic load when tracing is off.
        let _span = yoso_trace::span("gp.predict_batch");
        if yoso_trace::enabled() {
            yoso_trace::counter_add("gp.batches", 1);
            yoso_trace::counter_add("gp.points", xs.len() as u64);
        }
        let qs: Vec<Vec<f64>> = xs.iter().map(|x| self.std.transform(x)).collect();
        let mut mean_z = vec![0.0f64; xs.len()];
        for (qb, mb) in qs.chunks(Q_BLOCK).zip(mean_z.chunks_mut(Q_BLOCK)) {
            for t0 in (0..self.xs.len()).step_by(T_BLOCK) {
                let t1 = (t0 + T_BLOCK).min(self.xs.len());
                for (q, m) in qb.iter().zip(mb.iter_mut()) {
                    for (xi, a) in self.xs[t0..t1].iter().zip(&self.alpha[t0..t1]) {
                        *m += self.kernel(q, xi) * a;
                    }
                }
            }
        }
        mean_z
            .into_iter()
            .map(|z| {
                if yoso_chaos::armed()
                    && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan)
                {
                    return f64::NAN;
                }
                ystd.inverse(z)
            })
            .collect()
    }

    /// Number of training points currently factorized.
    pub fn train_len(&self) -> usize {
        self.xs.len()
    }
}

impl Default for GaussianProcess {
    fn default() -> Self {
        Self::default_rbf()
    }
}

pub(crate) fn stride_subsample<T: Clone>(v: &[T], cap: usize) -> Vec<T> {
    if v.len() <= cap {
        return v.to_vec();
    }
    let stride = v.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| v[(i as f64 * stride) as usize].clone())
        .collect()
}

// The full fitted state (training subsample, Cholesky factor, alpha
// weights, standardizers, selected hyper-parameters) is persisted, so a
// restored GP predicts bit-identically without re-running the O(n^3)
// fit or the hyper-parameter grid search.
impl Snapshot for GaussianProcess {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.lengthscale_factors);
        w.put_f64s(&self.noise_grid);
        w.put_usize(self.max_train);
        w.put_usize(self.max_hyper);
        self.std.snapshot(w);
        match self.ystd {
            Some(y) => {
                w.put_bool(true);
                y.snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.xs.len());
        for x in &self.xs {
            w.put_f64s(x);
        }
        w.put_f64s(&self.ys_z);
        w.put_f64s(&self.alpha);
        match &self.chol {
            Some(l) => {
                w.put_bool(true);
                l.snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_f64(self.lengthscale);
        w.put_f64(self.noise);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let lengthscale_factors = r.take_f64s()?;
        let noise_grid = r.take_f64s()?;
        let max_train = r.take_usize()?;
        let max_hyper = r.take_usize()?;
        let std = Standardizer::restore(r)?;
        let ystd = if r.take_bool()? {
            Some(ScalarStandardizer::restore(r)?)
        } else {
            None
        };
        let n = r.take_usize()?;
        let xs = (0..n)
            .map(|_| r.take_f64s())
            .collect::<Result<Vec<_>, _>>()?;
        let ys_z = r.take_f64s()?;
        let alpha = r.take_f64s()?;
        if alpha.len() != xs.len() || ys_z.len() != xs.len() {
            return Err(PersistError::Malformed(format!(
                "gp: {} training points vs {} targets vs {} alpha weights",
                xs.len(),
                ys_z.len(),
                alpha.len()
            )));
        }
        let chol = if r.take_bool()? {
            Some(Matrix::restore(r)?)
        } else {
            None
        };
        Ok(GaussianProcess {
            lengthscale_factors,
            noise_grid,
            max_train,
            max_hyper,
            std,
            ystd,
            xs,
            ys_z,
            alpha,
            chol,
            lengthscale: r.take_f64()?,
            noise: r.take_f64()?,
        })
    }
}

impl Regressor for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        // Chaos hook: a deterministic stand-in for the real-world failure
        // mode (ill-conditioned kernel matrix → Cholesky breakdown).
        if yoso_chaos::armed() && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpFitFail) {
            return Err(FitError::Numerical("chaos: injected GP fit failure".into()));
        }
        let d = validate(x, y)?;
        self.std = Standardizer::fit(x);
        let xs_full = self.std.transform_all(x);
        let ystd = ScalarStandardizer::fit(y);
        let ys_full: Vec<f64> = y.iter().map(|&v| ystd.transform(v)).collect();
        self.ystd = Some(ystd);

        // Hyper-parameter selection by log marginal likelihood on a
        // subsample; the base lengthscale is sqrt(d) (typical pairwise
        // distance after standardization).
        if !self.lengthscale_factors.is_empty() {
            let xs_h = stride_subsample(&xs_full, self.max_hyper);
            let ys_h = stride_subsample(&ys_full, self.max_hyper);
            let base = (d as f64).sqrt();
            let mut best = f64::NEG_INFINITY;
            for &lf in &self.lengthscale_factors {
                for &nv in &self.noise_grid {
                    let lml = Self::log_marginal(&xs_h, &ys_h, lf * base, nv);
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

        // Final factorization on (up to max_train) points.
        let xs = stride_subsample(&xs_full, self.max_train);
        let ys = stride_subsample(&ys_full, self.max_train);
        let k = Self::kernel_matrix(&xs, self.lengthscale, self.noise.max(1e-6));
        let l = k
            .cholesky()
            .map_err(|e| FitError::Numerical(e.to_string()))?;
        self.alpha = l.solve_lower_transpose(&l.solve_lower(&ys));
        self.chol = Some(l);
        self.xs = xs;
        self.ys_z = ys;
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_with_variance(x).0
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.predict_batch(xs)
    }

    fn name(&self) -> &'static str {
        "GaussianProcess"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mse, r2};
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

    #[test]
    fn gp_interpolates_smooth_function() {
        let (xs, ys) = smooth_data(200, 0);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (tx, ty) = smooth_data(50, 1);
        let preds = gp.predict(&tx);
        assert!(r2(&preds, &ty) > 0.95, "r2 {}", r2(&preds, &ty));
    }

    #[test]
    fn gp_beats_linear_on_nonlinear_target() {
        let (xs, ys) = smooth_data(200, 2);
        let (tx, ty) = smooth_data(80, 3);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let mut lin = super::super::linear::LinearRegression::new();
        lin.fit(&xs, &ys).unwrap();
        assert!(mse(&gp.predict(&tx), &ty) < mse(&lin.predict(&tx), &ty));
    }

    #[test]
    fn variance_small_at_training_points_larger_far_away() {
        let (xs, ys) = smooth_data(100, 4);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (_, var_near) = gp.predict_with_variance(&xs[0]);
        let (_, var_far) = gp.predict_with_variance(&[100.0, -100.0]);
        assert!(var_far > var_near, "{var_far} !> {var_near}");
    }

    #[test]
    fn fixed_hyperparams_skip_grid() {
        let (xs, ys) = smooth_data(50, 5);
        let mut gp = GaussianProcess::with_hyperparams(1.5, 1e-3);
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.lengthscale(), 1.5);
        assert_eq!(gp.noise(), 1e-3);
    }

    #[test]
    fn subsampling_caps_training_size() {
        let (xs, ys) = smooth_data(300, 6);
        let mut gp = GaussianProcess::default_rbf().with_max_train(64);
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.xs.len(), 64);
        // Still a sensible predictor.
        let preds = gp.predict(&xs);
        assert!(r2(&preds, &ys) > 0.8);
    }

    #[test]
    fn unfitted_predicts_zero() {
        let gp = GaussianProcess::default_rbf();
        assert_eq!(gp.predict_one(&[1.0, 2.0]), 0.0);
        assert_eq!(gp.predict_batch(&[vec![1.0, 2.0]]), vec![0.0]);
    }

    /// Batch-variance API must agree exactly with the per-point path —
    /// they share one code path by construction.
    #[test]
    fn batch_variance_matches_per_point() {
        let (xs, ys) = smooth_data(150, 25);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (tx, _) = smooth_data(33, 26);
        let batch = gp.predict_batch_with_variance(&tx);
        assert_eq!(batch.len(), tx.len());
        for (x, &(bm, bv)) in tx.iter().zip(&batch) {
            let (m, v) = gp.predict_with_variance(x);
            assert_eq!(m.to_bits(), bm.to_bits(), "mean {m} vs {bm}");
            assert_eq!(v.to_bits(), bv.to_bits(), "var {v} vs {bv}");
        }
    }

    #[test]
    fn unfitted_batch_variance_is_prior() {
        let gp = GaussianProcess::default_rbf();
        assert_eq!(
            gp.predict_batch_with_variance(&[vec![0.0, 0.0]]),
            vec![(0.0, 1.0)]
        );
    }

    #[test]
    fn snapshot_roundtrips_fitted_state() {
        use yoso_persist::{ByteReader, ByteWriter};
        let (xs, ys) = smooth_data(120, 27);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let mut w = ByteWriter::new();
        gp.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = GaussianProcess::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.train_len(), gp.train_len());
        assert_eq!(back.ys_z, gp.ys_z);
        let (tx, _) = smooth_data(20, 28);
        for x in &tx {
            let (m0, v0) = gp.predict_with_variance(x);
            let (m1, v1) = back.predict_with_variance(x);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }

    #[test]
    fn predict_batch_matches_predict_one() {
        let (xs, ys) = smooth_data(200, 7);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        // 97 queries: not a multiple of either block edge, so partial
        // query and training tiles are both exercised.
        let (tx, _) = smooth_data(97, 8);
        let batch = gp.predict_batch(&tx);
        assert_eq!(batch.len(), tx.len());
        for (x, &b) in tx.iter().zip(&batch) {
            let one = gp.predict_one(x);
            assert!((one - b).abs() <= 1e-9, "batch {b} vs one-at-a-time {one}");
        }
    }
}
