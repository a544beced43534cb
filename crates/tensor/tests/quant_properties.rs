//! Property tests for the int8 path: the quantization round trip must
//! respect its analytic error bound, and the batched channel-major u8
//! im2col must match the per-sample lowering byte for byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_tensor::quant::{
    dequantize, im2col_u8, im2col_u8_batch, quantize_activations, ZERO_POINT,
};
use yoso_tensor::ConvGeom;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The quantize -> dequantize round trip stays within half a
    /// quantization step per element (round-to-nearest), and the scale
    /// is exactly `max_abs / 127`.
    #[test]
    fn quantize_round_trip_bound(
        seed in 0u64..1000,
        len in 1usize..600,
        relu in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..len).map(|_| rng.random_range(-4.0..4.0)).collect();
        let mut q = Vec::new();
        let scale = quantize_activations(&x, relu, &mut q);
        prop_assert_eq!(q.len(), x.len());
        let max_abs = x.iter().fold(0.0f32, |m, v| {
            m.max(if relu { v.max(0.0) } else { v.abs() })
        });
        if max_abs > 0.0 {
            prop_assert_eq!(scale, max_abs / 127.0);
        } else {
            prop_assert_eq!(scale, 1.0);
        }
        for (v, &qv) in x.iter().zip(&q) {
            let want = if relu { v.max(0.0) } else { *v };
            let back = dequantize(i32::from(qv) - ZERO_POINT, 1.0, scale);
            // Half a step of rounding plus one ulp of the f32 arithmetic.
            prop_assert!(
                (back - want).abs() <= 0.5 * scale + want.abs() * 1e-6,
                "x {} -> q {} -> {} (scale {})", want, qv, back, scale
            );
        }
    }

    /// The batched channel-major im2col (flat-shift fast path included)
    /// produces byte-identical columns to the per-sample reference
    /// lowering, across kernel sizes, strides and paddings.
    #[test]
    fn im2col_u8_batch_matches_per_sample(
        seed in 0u64..1000,
        n in 1usize..4,
        c in 1usize..4,
        h in 1usize..9,
        k in (0usize..3).prop_map(|i| [1usize, 3, 5][i]),
        stride in 1usize..3,
    ) {
        let w = h; // square images, like every conv in the network
        let pad = k / 2;
        let g = ConvGeom::new(k, stride, pad);
        let hout = g.out_dim(h);
        let wout = g.out_dim(w);
        prop_assume!(hout > 0 && wout > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let nchw: Vec<u8> = (0..n * c * h * w).map(|_| rng.random_range(0..=255)).collect();
        // Channel-major view for the batched entry point.
        let mut cm = vec![0u8; nchw.len()];
        for i in 0..n {
            for ch in 0..c {
                cm[(ch * n + i) * h * w..(ch * n + i + 1) * h * w]
                    .copy_from_slice(&nchw[(i * c + ch) * h * w..(i * c + ch + 1) * h * w]);
            }
        }
        let cols_n = n * hout * wout;
        let mut got = vec![0u8; c * k * k * cols_n];
        im2col_u8_batch(&cm, n, c, h, w, g, hout, wout, &mut got);
        let mut want = vec![0u8; c * k * k * cols_n];
        for i in 0..n {
            im2col_u8(
                &nchw[i * c * h * w..(i + 1) * c * h * w],
                c, h, w, g, hout, wout,
                &mut want, cols_n, i * hout * wout,
            );
        }
        prop_assert_eq!(got, want);
    }
}
