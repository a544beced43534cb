//! Compute-kernel microbenchmarks: packed vs reference SGEMM on real
//! im2col panel shapes, conv2d forward/backward layers, and GP
//! fit/append/predict at search-realistic training-set sizes.
//!
//! The checked-in speedup snapshot comes from the `bench_kernels` binary
//! (`BENCH_kernels.json`); this harness is for profiling regressions on
//! individual kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use yoso_predictor::{GaussianProcess, Regressor};
use yoso_tensor::conv::{conv2d_backward_scratch, conv2d_forward_scratch};
use yoso_tensor::matmul::sgemm;
use yoso_tensor::{set_kernel, ConvGeom, KernelKind, Scratch, Tensor};

/// im2col panel shapes from a HyperNet training step on the paper
/// skeleton: `cout x (cin*k*k) x (hout*wout)` per sample.
const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("cell_conv3x3_16c", 16, 144, 256),
    ("reduction_conv3x3_32c", 32, 288, 64),
    ("wide_conv3x3_64c", 64, 576, 64),
];

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("gemm");
    for &(name, m, k, n) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut out = vec![0.0f32; m * n];
        for kind in [KernelKind::Packed, KernelKind::Reference] {
            let label = match kind {
                KernelKind::Packed => format!("{name}/packed"),
                KernelKind::Reference => format!("{name}/reference"),
            };
            group.bench_function(&label, |bch| {
                set_kernel(kind);
                bch.iter(|| {
                    sgemm(m, k, n, &a, &b, &mut out);
                    black_box(&out);
                })
            });
        }
    }
    set_kernel(KernelKind::Packed);
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn(&[8, 16, 16, 16], 1.0, &mut rng);
    let w = Tensor::he_normal(&[16, 16, 3, 3], 16 * 9, &mut rng);
    let geom = ConvGeom::same(3, 1);
    let dout = Tensor::randn(&[8, 16, 16, 16], 1.0, &mut rng);
    let mut group = c.benchmark_group("conv2d");
    group.bench_function("forward_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let (y, cols) = conv2d_forward_scratch(&x, &w, geom, false, &mut scratch);
            scratch.give(cols);
            black_box(y)
        })
    });
    group.bench_function("forward_backward_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let (y, cols) = conv2d_forward_scratch(&x, &w, geom, false, &mut scratch);
            let (dx, dw) = conv2d_backward_scratch(&x, &w, geom, &cols, &dout, &mut scratch);
            scratch.give(cols);
            black_box((y, dx, dw))
        })
    });
    group.finish();
}

fn gp_data(n: usize, dims: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dims).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| v.sin()).sum::<f64>())
        .collect();
    (xs, ys)
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let (xs, ys) = gp_data(n, 16, 2);
        group.bench_function(format!("fit/n{n}"), |b| {
            b.iter(|| {
                let mut gp = GaussianProcess::with_hyperparams(2.0, 1e-2).with_max_train(n);
                gp.fit(&xs, &ys).expect("fit");
                black_box(gp.train_len())
            })
        });
        // One chunk-of-50 append onto an (n-50)-point factor.
        let mut base = GaussianProcess::with_hyperparams(2.0, 1e-2).with_max_train(n);
        base.fit(&xs[..n - 50], &ys[..n - 50]).expect("fit");
        group.bench_function(format!("append50/n{n}"), |b| {
            b.iter(|| {
                let mut gp = base.clone();
                gp.append(&xs[n - 50..], &ys[n - 50..]).expect("append");
                black_box(gp.train_len())
            })
        });
        let mut fitted = GaussianProcess::with_hyperparams(2.0, 1e-2).with_max_train(n);
        fitted.fit(&xs, &ys).expect("fit");
        let (queries, _) = gp_data(64, 16, 3);
        group.bench_function(format!("predict_batch64/n{n}"), |b| {
            b.iter(|| black_box(fitted.predict_batch(&queries)))
        });
        group.bench_function(format!("predict_batch64_variance/n{n}"), |b| {
            b.iter(|| black_box(fitted.predict_batch_with_variance(&queries)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_gemm, bench_conv, bench_gp
}
criterion_main!(benches);
