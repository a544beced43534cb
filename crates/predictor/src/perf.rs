//! The hardware performance predictor: two Gaussian processes (latency,
//! energy) trained on simulator samples — paper §III-E.

use crate::features::design_features;
use crate::metrics::mape;
use crate::regressors::gp::GaussianProcess;
use crate::regressors::sparse_gp::SparseGaussianProcess;
use crate::regressors::{FitError, Regressor};
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// Which GP family backs the performance predictor.
///
/// [`Exact`](SurrogateKind::Exact) is the paper's O(n³) GP —
/// most accurate, capped at `max_train` points.
/// [`Sparse`](SurrogateKind::Sparse) is the subset-of-regressors
/// approximation ([`SparseGaussianProcess`]) — O(n·m²) fit with no
/// cap on the training set, built for the observation volumes a served
/// deployment accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateKind {
    /// Exact GP (paper default).
    #[default]
    Exact,
    /// Subset-of-regressors sparse GP.
    Sparse,
}

impl std::fmt::Display for SurrogateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SurrogateKind::Exact => "exact",
            SurrogateKind::Sparse => "sparse",
        })
    }
}

/// Either GP family behind one dispatching surface.
#[derive(Debug, Clone)]
enum SurrogateGp {
    Exact(GaussianProcess),
    Sparse(SparseGaussianProcess),
}

impl SurrogateGp {
    fn new(kind: SurrogateKind) -> Self {
        match kind {
            SurrogateKind::Exact => SurrogateGp::Exact(GaussianProcess::default_rbf()),
            SurrogateKind::Sparse => SurrogateGp::Sparse(SparseGaussianProcess::default_rbf()),
        }
    }

    fn kind(&self) -> SurrogateKind {
        match self {
            SurrogateGp::Exact(_) => SurrogateKind::Exact,
            SurrogateGp::Sparse(_) => SurrogateKind::Sparse,
        }
    }

    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), FitError> {
        match self {
            SurrogateGp::Exact(gp) => gp.fit(xs, ys),
            SurrogateGp::Sparse(gp) => gp.fit(xs, ys),
        }
    }

    fn predict_one(&self, f: &[f64]) -> f64 {
        match self {
            SurrogateGp::Exact(gp) => gp.predict_one(f),
            SurrogateGp::Sparse(gp) => gp.predict_one(f),
        }
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        match self {
            SurrogateGp::Exact(gp) => gp.predict_batch(xs),
            SurrogateGp::Sparse(gp) => gp.predict_batch(xs),
        }
    }
}

impl Snapshot for SurrogateGp {
    fn snapshot(&self, w: &mut ByteWriter) {
        match self {
            SurrogateGp::Exact(gp) => {
                w.put_u8(0);
                gp.snapshot(w);
            }
            SurrogateGp::Sparse(gp) => {
                w.put_u8(1);
                gp.snapshot(w);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(SurrogateGp::Exact(GaussianProcess::restore(r)?)),
            1 => Ok(SurrogateGp::Sparse(SparseGaussianProcess::restore(r)?)),
            tag => Err(PersistError::Malformed(format!(
                "surrogate gp: unknown kind tag {tag}"
            ))),
        }
    }
}

/// One ground-truth sample: a design point and its simulated performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// The sampled design point.
    pub point: DesignPoint,
    /// Simulated end-to-end latency (ms).
    pub latency_ms: f64,
    /// Simulated end-to-end energy (mJ).
    pub energy_mj: f64,
}

/// Draws `n` random design points and simulates each one — the paper's
/// "performance samples taken from the accelerator simulator".
///
/// Simulation fans out over the global worker pool. Each sample's design
/// point comes from an RNG derived from `(seed, index)`, so the result
/// is deterministic and identical at any thread count.
pub fn collect_samples(
    skeleton: &NetworkSkeleton,
    sim: &Simulator,
    n: usize,
    seed: u64,
) -> Vec<PerfSample> {
    yoso_pool::parallel_map_seeded(n, 0, seed, |_, rng| {
        let point = DesignPoint::random(rng);
        let plan = skeleton.compile(&point.genotype);
        let rep = sim.simulate_plan(&plan, &point.hw);
        PerfSample {
            point,
            latency_ms: rep.latency_ms,
            energy_mj: rep.energy_mj,
        }
    })
}

/// Latency + energy predictor bundle (GP regressors over log targets).
#[derive(Debug, Clone)]
pub struct PerfPredictor {
    skeleton: NetworkSkeleton,
    latency_gp: SurrogateGp,
    energy_gp: SurrogateGp,
}

impl PerfPredictor {
    /// Trains both GPs from simulator samples with the paper-default
    /// [`SurrogateKind::Exact`] backend.
    ///
    /// Targets are modeled in log space (latency and energy are positive
    /// and multiplicative in the design factors), then exponentiated at
    /// prediction time.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if `samples` is empty or a fit fails.
    pub fn train(skeleton: &NetworkSkeleton, samples: &[PerfSample]) -> Result<Self, FitError> {
        Self::train_with(skeleton, samples, SurrogateKind::Exact)
    }

    /// Trains both regressors from simulator samples with an explicit
    /// surrogate backend.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if `samples` is empty or a fit fails.
    pub fn train_with(
        skeleton: &NetworkSkeleton,
        samples: &[PerfSample],
        kind: SurrogateKind,
    ) -> Result<Self, FitError> {
        if samples.is_empty() {
            return Err(FitError::EmptyTrainingSet);
        }
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| design_features(&s.point, skeleton))
            .collect();
        let y_lat: Vec<f64> = samples
            .iter()
            .map(|s| s.latency_ms.max(1e-12).ln())
            .collect();
        let y_eer: Vec<f64> = samples
            .iter()
            .map(|s| s.energy_mj.max(1e-12).ln())
            .collect();
        let mut latency_gp = SurrogateGp::new(kind);
        latency_gp.fit(&xs, &y_lat)?;
        let mut energy_gp = SurrogateGp::new(kind);
        energy_gp.fit(&xs, &y_eer)?;
        Ok(PerfPredictor {
            skeleton: skeleton.clone(),
            latency_gp,
            energy_gp,
        })
    }

    /// The surrogate backend this predictor was trained with.
    pub fn kind(&self) -> SurrogateKind {
        self.latency_gp.kind()
    }

    /// Predicts `(latency_ms, energy_mj)` for a design point.
    pub fn predict(&self, point: &DesignPoint) -> (f64, f64) {
        let f = design_features(point, &self.skeleton);
        self.predict_from_features(&f)
    }

    /// Prediction from precomputed network statistics — lets callers cache
    /// the genotype compilation when sweeping hardware configurations.
    pub fn predict_from_stats(
        &self,
        stats: &yoso_arch::NetworkStats,
        hw: &yoso_arch::HwConfig,
        out_arities: (usize, usize),
    ) -> (f64, f64) {
        let f = crate::features::stats_features(stats, hw, out_arities);
        self.predict_from_features(&f)
    }

    fn predict_from_features(&self, f: &[f64]) -> (f64, f64) {
        (
            self.latency_gp.predict_one(f).exp(),
            self.energy_gp.predict_one(f).exp(),
        )
    }

    /// Predicts `(latency_ms, energy_mj)` for a whole batch of points.
    ///
    /// Feature extraction (which compiles each genotype) fans out over
    /// the worker pool, and both GPs score the batch through
    /// [`GaussianProcess::predict_batch`] — one blocked cross-kernel
    /// pass each instead of a per-point variance solve. Results match
    /// [`predict`](Self::predict) bit-for-bit.
    pub fn predict_batch(&self, points: &[DesignPoint]) -> Vec<(f64, f64)> {
        let xs: Vec<Vec<f64>> = yoso_pool::parallel_map(points.len(), 0, |i| {
            design_features(&points[i], &self.skeleton)
        });
        self.predict_batch_from_features(&xs)
    }

    /// Batched prediction from precomputed feature rows.
    pub fn predict_batch_from_features(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let lat = self.latency_gp.predict_batch(xs);
        let eer = self.energy_gp.predict_batch(xs);
        lat.into_iter()
            .zip(eer)
            .map(|(l, e)| (l.exp(), e.exp()))
            .collect()
    }

    /// Mean absolute percentage errors `(latency, energy)` on a held-out
    /// sample set — the paper claims < 4% accuracy loss.
    pub fn evaluate(&self, samples: &[PerfSample]) -> (f64, f64) {
        let mut pl = Vec::with_capacity(samples.len());
        let mut pe = Vec::with_capacity(samples.len());
        let mut tl = Vec::with_capacity(samples.len());
        let mut te = Vec::with_capacity(samples.len());
        for s in samples {
            let (l, e) = self.predict(&s.point);
            pl.push(l);
            pe.push(e);
            tl.push(s.latency_ms);
            te.push(s.energy_mj);
        }
        (mape(&pl, &tl), mape(&pe, &te))
    }
}

impl Snapshot for PerfSample {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.point.snapshot(w);
        w.put_f64(self.latency_ms);
        w.put_f64(self.energy_mj);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(PerfSample {
            point: DesignPoint::restore(r)?,
            latency_ms: r.take_f64()?,
            energy_mj: r.take_f64()?,
        })
    }
}

impl Snapshot for PerfPredictor {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.skeleton.snapshot(w);
        self.latency_gp.snapshot(w);
        self.energy_gp.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(PerfPredictor {
            skeleton: NetworkSkeleton::restore(r)?,
            latency_gp: SurrogateGp::restore(r)?,
            energy_gp: SurrogateGp::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn predictor_is_accurate_on_held_out_points() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 300, 0);
        let test = collect_samples(&skeleton, &sim, 60, 1);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let (lat_err, eer_err) = pred.evaluate(&test);
        // The paper reports < 4% loss at 3000 samples; at this reduced
        // scale we accept < 15%.
        assert!(lat_err < 0.15, "latency MAPE {lat_err}");
        assert!(eer_err < 0.15, "energy MAPE {eer_err}");
    }

    #[test]
    fn predictions_positive() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 100, 2);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = DesignPoint::random(&mut rng);
            let (l, e) = pred.predict(&p);
            assert!(l > 0.0 && e > 0.0);
        }
    }

    #[test]
    fn empty_training_rejected() {
        assert!(matches!(
            PerfPredictor::train(&NetworkSkeleton::tiny(), &[]),
            Err(FitError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn predict_batch_matches_per_point_predict() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 100, 4);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let points: Vec<DesignPoint> = (0..37).map(|_| DesignPoint::random(&mut rng)).collect();
        let batch = pred.predict_batch(&points);
        assert_eq!(batch.len(), points.len());
        for (p, &(bl, be)) in points.iter().zip(&batch) {
            let (l, e) = pred.predict(p);
            assert!((l - bl).abs() <= 1e-9 * l.abs().max(1.0), "{l} vs {bl}");
            assert!((e - be).abs() <= 1e-9 * e.abs().max(1.0), "{e} vs {be}");
        }
    }

    #[test]
    fn restored_predictor_predicts_bit_identically() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 120, 11);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut w = ByteWriter::new();
        pred.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = PerfPredictor::restore(&mut ByteReader::new(&bytes)).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..25 {
            let p = DesignPoint::random(&mut rng);
            let (l0, e0) = pred.predict(&p);
            let (l1, e1) = back.predict(&p);
            assert_eq!(l0.to_bits(), l1.to_bits());
            assert_eq!(e0.to_bits(), e1.to_bits());
        }
    }

    #[test]
    fn sparse_backend_is_accurate() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 200, 30);
        let test = collect_samples(&skeleton, &sim, 60, 31);
        let pred = PerfPredictor::train_with(&skeleton, &train, SurrogateKind::Sparse).unwrap();
        assert_eq!(pred.kind(), SurrogateKind::Sparse);
        let (lat_err, eer_err) = pred.evaluate(&test);
        assert!(lat_err < 0.2, "sparse latency MAPE {lat_err}");
        assert!(eer_err < 0.2, "sparse energy MAPE {eer_err}");
    }

    #[test]
    fn sparse_predictor_roundtrips_with_kind_tag() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 100, 32);
        let pred = PerfPredictor::train_with(&skeleton, &train, SurrogateKind::Sparse).unwrap();
        let mut w = ByteWriter::new();
        pred.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = PerfPredictor::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.kind(), SurrogateKind::Sparse);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let p = DesignPoint::random(&mut rng);
            let (l0, e0) = pred.predict(&p);
            let (l1, e1) = back.predict(&p);
            assert_eq!(l0.to_bits(), l1.to_bits());
            assert_eq!(e0.to_bits(), e1.to_bits());
        }
    }

    #[test]
    fn samples_deterministic_by_seed() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let a = collect_samples(&skeleton, &sim, 10, 7);
        let b = collect_samples(&skeleton, &sim, 10, 7);
        assert_eq!(a, b);
    }
}
