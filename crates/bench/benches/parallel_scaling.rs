//! Scaling of the evaluation pipeline's parallel and memoized paths:
//! worker-pool sample collection (cold vs warm simulator cache), batched
//! vs per-point GP prediction.
//!
//! `cargo bench -p yoso-bench --bench parallel_scaling`. The checked-in
//! `BENCH_parallel.json` snapshot comes from the `bench_parallel` bin,
//! which measures the same paths at a larger sample count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_predictor::perf::{collect_samples, PerfPredictor};

fn bench_parallel_scaling(c: &mut Criterion) {
    let skeleton = NetworkSkeleton::paper_default();
    let exact = Simulator::exact();
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);

    // Worker-pool fan-out of sample collection; a fresh seed per
    // iteration keeps the simulator cache cold.
    for threads in [1usize, 0] {
        group.bench_with_input(
            BenchmarkId::new("collect_samples_cold", threads),
            &threads,
            |b, &t| {
                yoso_pool::set_num_threads(t);
                let mut seed = 1u64;
                b.iter(|| {
                    yoso_accel::cache::clear();
                    seed += 1;
                    black_box(collect_samples(&skeleton, &exact, 100, seed))
                })
            },
        );
    }
    // Same seed every iteration: every layer simulation is a cache hit.
    group.bench_function("collect_samples_warm", |b| {
        yoso_pool::set_num_threads(0);
        let _ = collect_samples(&skeleton, &exact, 100, 999);
        b.iter(|| black_box(collect_samples(&skeleton, &exact, 100, 999)))
    });
    yoso_pool::set_num_threads(0);

    // Batched vs per-point GP prediction over one rollout-sized batch.
    let train = collect_samples(&skeleton, &Simulator::fast(), 400, 0);
    let predictor = PerfPredictor::train(&skeleton, &train).expect("fit");
    let mut rng = StdRng::seed_from_u64(2);
    let points: Vec<DesignPoint> = (0..64).map(|_| DesignPoint::random(&mut rng)).collect();
    group.bench_function("gp_predict_per_point_x64", |b| {
        b.iter(|| {
            black_box(
                points
                    .iter()
                    .map(|p| predictor.predict(p))
                    .collect::<Vec<_>>(),
            )
        })
    });
    group.bench_function("gp_predict_batch_x64", |b| {
        b.iter(|| black_box(predictor.predict_batch(&points)))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
