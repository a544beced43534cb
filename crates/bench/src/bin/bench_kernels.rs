//! Measures the compute-kernel speedups this repo claims and writes the
//! `BENCH_kernels.json` snapshot checked in at the workspace root:
//!
//! * packed register-tiled SGEMM vs the reference blocked kernel on the
//!   im2col panel shapes a HyperNet training step actually produces
//!   (both serial — the win is per-core);
//! * a full conv2d forward+backward training step under both kernels;
//! * the u8xi8 integer GEMM vs f32 SGEMM on the same shapes;
//! * end-to-end HyperNet candidate scoring, f32 vs int8;
//! * the inducing-point sparse GP vs the exact GP, fit + batch predict
//!   at n = 4000 (past the exact model's usual training cap).
//!
//! Targets: >= 2x on the GEMM/conv shapes, >= 1.5x int8 scoring, >= 5x
//! on the sparse-vs-exact fit+predict.
//!
//! Usage: `cargo run --release -p yoso-bench --bin bench_kernels --
//!   [--iters 40] [--seed 0] [--out BENCH_kernels.json]`

use std::time::Instant;
use yoso_bench::{bench_meta_json, run_main, Args};
use yoso_core::error::Error;
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::HyperNet;
use yoso_predictor::metrics::spearman;
use yoso_predictor::{GaussianProcess, Regressor, SparseGaussianProcess};
use yoso_tensor::conv::{conv2d_backward_scratch, conv2d_forward_scratch};
use yoso_tensor::matmul::sgemm;
use yoso_tensor::quant::{gemm_q, quantize_activations};
use yoso_tensor::{set_kernel, ConvGeom, KernelKind, QuantWeights, Scratch, Tensor};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-three timing of `iters` repetitions of `f` — the minimum is
/// the least noise-contaminated estimate on a shared machine.
fn bench_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    (0..3)
        .map(|_| time_ms(|| (0..iters).for_each(|_| f())))
        .fold(f64::INFINITY, f64::min)
}

/// im2col panel shapes from one HyperNet training step on the paper
/// skeleton (16x16 input, 16 init channels): per-sample GEMMs are
/// `cout x (cin*k*k) x (hout*wout)`.
const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("stem_3x3", 16, 27, 256),
    ("cell_conv3x3", 16, 144, 256),
    ("prep_1x1_concat", 16, 64, 256),
    ("reduction_conv3x3", 32, 288, 64),
    ("wide_conv3x3", 64, 576, 64),
];

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse();
    let iters = args.usize("--iters", 40);
    let seed = args.u64("--seed", 0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    let mut rng = StdRng::seed_from_u64(seed);

    println!("gemm: packed vs reference, {iters} iters/shape");
    let mut shape_rows = Vec::new();
    let mut log_sum = 0.0;
    for &(name, m, k, n) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        set_kernel(KernelKind::Reference);
        let ref_ms = bench_ms(iters, || {
            sgemm(m, k, n, &a, &b, &mut c);
            std::hint::black_box(&c);
        });
        set_kernel(KernelKind::Packed);
        let packed_ms = bench_ms(iters, || {
            sgemm(m, k, n, &a, &b, &mut c);
            std::hint::black_box(&c);
        });
        let speedup = ref_ms / packed_ms;
        log_sum += speedup.ln();
        println!("  {name:>18} {m:>3}x{k:>3}x{n:>3}: reference {ref_ms:.2} ms, packed {packed_ms:.2} ms ({speedup:.2}x)");
        shape_rows.push(format!(
            "      {{ \"name\": \"{name}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"reference_ms\": {ref_ms:.3}, \"packed_ms\": {packed_ms:.3}, \"speedup\": {speedup:.2} }}"
        ));
    }
    let gemm_geomean = (log_sum / GEMM_SHAPES.len() as f64).exp();
    println!("  geometric-mean speedup: {gemm_geomean:.2}x (target: >= 2x)");

    // Full conv training step (forward + backward) on a mid-network
    // layer, scratch reused for both kernels so the kernel is the only
    // variable.
    let (cn, cin, chw, cout, ck) = (8, 16, 16, 16, 3);
    let x = Tensor::randn(&[cn, cin, chw, chw], 1.0, &mut rng);
    let w = Tensor::he_normal(&[cout, cin, ck, ck], cin * ck * ck, &mut rng);
    let geom = ConvGeom::same(ck, 1);
    let dout = Tensor::randn(&[cn, cout, chw, chw], 1.0, &mut rng);
    let conv_step = |kind: KernelKind| {
        set_kernel(kind);
        let mut scratch = Scratch::new();
        bench_ms(iters.div_ceil(4), || {
            let (y, cols) = conv2d_forward_scratch(&x, &w, geom, false, &mut scratch);
            let (dx, dw) = conv2d_backward_scratch(&x, &w, geom, &cols, &dout, &mut scratch);
            scratch.give(cols);
            std::hint::black_box((y, dx, dw));
        })
    };
    let conv_ref_ms = conv_step(KernelKind::Reference);
    let conv_packed_ms = conv_step(KernelKind::Packed);
    let conv_speedup = conv_ref_ms / conv_packed_ms;
    println!(
        "conv2d fwd+bwd [{cn},{cin},{chw},{chw}] -> {cout}ch {ck}x{ck}: reference {conv_ref_ms:.1} ms, packed {conv_packed_ms:.1} ms ({conv_speedup:.2}x)"
    );
    set_kernel(KernelKind::Packed);

    // Sparse (inducing-point) GP vs the exact GP at production scale:
    // one fit plus one 256-point batch predict at n = 4000, past the
    // exact model's usual 2000-point training cap. Same fixed
    // hyper-parameters on both sides; the rank agreement of the two
    // prediction sets is recorded alongside the speedup.
    let (sp_n, dims) = (4000usize, 16usize);
    println!("gp-sparse: exact vs inducing-point fit+predict at n={sp_n} ({dims}-dim features)");
    let sp_xs: Vec<Vec<f64>> = (0..sp_n)
        .map(|_| (0..dims).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    let sp_ys: Vec<f64> = sp_xs
        .iter()
        .map(|x| x.iter().map(|v| v.sin()).sum::<f64>() + 0.25 * x[0] * x[1])
        .collect();
    let sp_probe: Vec<Vec<f64>> = (0..256)
        .map(|_| (0..dims).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    let mut sp_exact = GaussianProcess::with_hyperparams(2.0, 1e-2).with_max_train(sp_n);
    let mut sp_exact_pred = Vec::new();
    let sp_exact_ms = time_ms(|| {
        sp_exact.fit(&sp_xs, &sp_ys).expect("exact fit");
        sp_exact_pred = sp_exact.predict_batch(&sp_probe);
        std::hint::black_box(&sp_exact_pred);
    });
    let mut sp_sparse = SparseGaussianProcess::with_hyperparams(2.0, 1e-2);
    let mut sp_sparse_pred = Vec::new();
    let sp_sparse_ms = time_ms(|| {
        sp_sparse.fit(&sp_xs, &sp_ys).expect("sparse fit");
        sp_sparse_pred = sp_sparse.predict_batch(&sp_probe);
        std::hint::black_box(&sp_sparse_pred);
    });
    let sp_speedup = sp_exact_ms / sp_sparse_ms;
    let sp_spearman = spearman(&sp_exact_pred, &sp_sparse_pred);
    println!(
        "  exact {sp_exact_ms:.0} ms, sparse ({} inducing) {sp_sparse_ms:.0} ms ({sp_speedup:.2}x, target >= 5x), spearman {sp_spearman:.3}",
        sp_sparse.inducing_len()
    );

    // Raw integer GEMM (u8 activations x i8 weights -> i32) vs the f32
    // packed kernel on the same im2col shapes. Quantization of weights
    // is excluded (done once per candidate); activation quantization is
    // included (paid per batch).
    println!("int8 gemm: u8xi8 vs f32 packed, same shapes");
    let mut q_log_sum = 0.0;
    let mut q_rows = Vec::new();
    for &(name, m, k, n) in GEMM_SHAPES {
        let wf: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let xf: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let qw = QuantWeights::quantize(&wf, m, k);
        let mut xq = Vec::new();
        let mut acc = vec![0i32; m * n];
        let mut cf = vec![0.0f32; m * n];
        let f32_ms = bench_ms(iters, || {
            sgemm(m, k, n, &wf, &xf, &mut cf);
            std::hint::black_box(&cf);
        });
        let int8_ms = bench_ms(iters, || {
            let scale = quantize_activations(&xf, false, &mut xq);
            gemm_q(&qw, &xq, n, &mut acc);
            std::hint::black_box((&acc, scale));
        });
        let ratio = f32_ms / int8_ms;
        q_log_sum += ratio.ln();
        println!("  {name:>18}: f32 {f32_ms:.2} ms, int8 {int8_ms:.2} ms ({ratio:.2}x)");
        q_rows.push(format!(
            "      {{ \"name\": \"{name}\", \"f32_ms\": {f32_ms:.3}, \"int8_ms\": {int8_ms:.3}, \"speedup\": {ratio:.2} }}"
        ));
    }
    let int8_gemm_geomean = (q_log_sum / GEMM_SHAPES.len() as f64).exp();
    println!("  geometric-mean speedup: {int8_gemm_geomean:.2}x");

    // End-to-end candidate scoring: the HyperNet validation pass in f32
    // (tape-based forward) vs int8 (quantize inherited weights once,
    // integer convs, f32 everything else). This is the quantity the
    // search loop actually pays per candidate.
    let sk = yoso_arch::NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let hyper = HyperNet::new(sk, seed);
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e37);
    let genos: Vec<yoso_arch::Genotype> = (0..4)
        .map(|_| yoso_arch::Genotype::random(&mut rng2))
        .collect();
    let score_iters = 3;
    // Batch 128 — what `FastEvaluator` actually scores with.
    let score_batch = 128;
    // The two sides are timed in *alternating* rounds rather than two
    // back-to-back `bench_ms` windows: on a shared machine a load spike
    // landing in one window would skew the ratio in either direction,
    // while interleaving gives both sides the same shot at a quiet
    // slot. The speedup is the ratio of the per-side *minima* — each
    // min converges to that side's quiet-slot floor, so additive noise
    // is stripped from both sides instead of polluting the ratio.
    for g in &genos {
        std::hint::black_box(hyper.evaluate_genotype(g, &data.val, score_batch));
        std::hint::black_box(hyper.evaluate_genotype_int8(g, &data.val, score_batch));
    }
    let (mut f32_best, mut int8_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        f32_best = f32_best.min(time_ms(|| {
            for _ in 0..score_iters {
                for g in &genos {
                    std::hint::black_box(hyper.evaluate_genotype(g, &data.val, score_batch));
                }
            }
        }));
        int8_best = int8_best.min(time_ms(|| {
            for _ in 0..score_iters {
                for g in &genos {
                    std::hint::black_box(hyper.evaluate_genotype_int8(g, &data.val, score_batch));
                }
            }
        }));
    }
    let per = (score_iters * genos.len()) as f64;
    let f32_score_ms = f32_best / per;
    let int8_score_ms = int8_best / per;
    let score_speedup = f32_score_ms / int8_score_ms;
    println!(
        "int8 scoring: f32 {f32_score_ms:.1} ms/candidate, int8 {int8_score_ms:.1} ms/candidate ({score_speedup:.2}x, target >= 1.5x)"
    );

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"compute kernels\",\n  {meta},\n  \"gemm\": {{\n    \"iters\": {iters},\n    \"shapes\": [\n{}\n    ],\n    \"geomean_speedup\": {gemm_geomean:.2}\n  }},\n  \"conv2d_step\": {{\n    \"input\": [{cn}, {cin}, {chw}, {chw}],\n    \"cout\": {cout},\n    \"kernel\": {ck},\n    \"reference_ms\": {conv_ref_ms:.2},\n    \"packed_ms\": {conv_packed_ms:.2},\n    \"speedup\": {conv_speedup:.2}\n  }},\n  \"gp_sparse\": {{\n    \"n\": {sp_n},\n    \"dims\": {dims},\n    \"inducing\": {},\n    \"exact_ms\": {sp_exact_ms:.1},\n    \"sparse_ms\": {sp_sparse_ms:.1},\n    \"speedup\": {sp_speedup:.2},\n    \"spearman\": {sp_spearman:.3}\n  }},\n  \"int8_gemm\": {{\n    \"shapes\": [\n{}\n    ],\n    \"geomean_speedup\": {int8_gemm_geomean:.2}\n  }},\n  \"int8_scoring\": {{\n    \"candidates\": {},\n    \"f32_ms_per_candidate\": {f32_score_ms:.2},\n    \"int8_ms_per_candidate\": {int8_score_ms:.2},\n    \"speedup\": {score_speedup:.2}\n  }}\n}}\n",
        shape_rows.join(",\n"),
        sp_sparse.inducing_len(),
        q_rows.join(",\n"),
        genos.len(),
    );
    std::fs::write(&out, json)?;
    println!("written {out}");

    assert!(
        gemm_geomean >= 2.0,
        "gemm geomean speedup {gemm_geomean:.2}x below the 2x target"
    );
    assert!(
        conv_speedup >= 2.0,
        "conv step speedup {conv_speedup:.2}x below the 2x target"
    );
    assert!(
        sp_speedup >= 5.0,
        "sparse GP fit+predict speedup {sp_speedup:.2}x below the 5x target at n={sp_n}"
    );
    assert!(
        sp_spearman >= 0.9,
        "sparse GP rank agreement {sp_spearman:.3} below 0.9 at n={sp_n}"
    );
    assert!(
        score_speedup >= 1.5,
        "int8 scoring speedup {score_speedup:.2}x below the 1.5x target"
    );
    Ok(())
}
