//! Property tests pinning the packed register-tiled SGEMM to the
//! reference blocked kernel: the optimized path must stay within 1e-4
//! relative tolerance on arbitrary float inputs and shapes, including
//! the transposed-operand entry points the conv backward pass uses.
//!
//! The oracle is `sgemm_reference` called directly (not via the global
//! kernel selector), so these tests never mutate process-global state
//! and cannot race with each other.
//!
//! `packed_sgemm_bits_are_pinned` additionally fixes the packed kernel's
//! exact output bits, so any change to its accumulation order fails.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_tensor::matmul::{sgemm, sgemm_a_bt_acc, sgemm_acc, sgemm_at_b_acc, sgemm_reference};

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn transpose(rows: usize, cols: usize, m: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; m.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = m[r * cols + c];
        }
    }
    t
}

fn assert_close(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
            "c[{i}]: packed {g} vs reference {w}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packed `sgemm` matches the reference kernel on shapes straddling
    /// every tile boundary (m, n around MR=8 / NR=16 multiples, k
    /// around the KC=128 depth block).
    #[test]
    fn packed_sgemm_matches_reference(
        seed in 0u64..1000,
        m in 1usize..40,
        k in 1usize..200,
        n in 1usize..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm(m, k, n, &a, &b, &mut got);
        sgemm_reference(m, k, n, &a, &b, &mut want);
        assert_close(&got, &want)?;
    }

    /// `c += a^T b` entry point (weight-gradient GEMM) against an
    /// explicit transpose fed to the reference kernel.
    #[test]
    fn packed_at_b_matches_reference(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = random_vec(k * m, &mut rng); // stored k x m
        let b = random_vec(k * n, &mut rng);
        let init = random_vec(m * n, &mut rng);
        let mut got = init.clone();
        sgemm_at_b_acc(m, k, n, &at, &b, &mut got);
        let a = transpose(k, m, &at);
        let mut want = vec![0.0f32; m * n];
        sgemm_reference(m, k, n, &a, &b, &mut want);
        for (w, i) in want.iter_mut().zip(&init) {
            *w += i;
        }
        assert_close(&got, &want)?;
    }

    /// `c += a b^T` entry point (input-gradient GEMM) against an
    /// explicit transpose fed to the reference kernel.
    #[test]
    fn packed_a_bt_matches_reference(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(m * k, &mut rng);
        let bt = random_vec(n * k, &mut rng); // stored n x k
        let init = random_vec(m * n, &mut rng);
        let mut got = init.clone();
        sgemm_a_bt_acc(m, k, n, &a, &bt, &mut got);
        let b = transpose(n, k, &bt);
        let mut want = vec![0.0f32; m * n];
        sgemm_reference(m, k, n, &a, &b, &mut want);
        for (w, i) in want.iter_mut().zip(&init) {
            *w += i;
        }
        assert_close(&got, &want)?;
    }
}

/// Signature shared by the accumulating SGEMM entry points.
type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The packed kernel's exact output bits on arbitrary (non-integer)
/// floats, accumulated into a non-zero `c`, for all three entry points.
/// The shape spans several row tiles, two `KC` depth blocks and two
/// `NC` column blocks, so reordering the accumulation anywhere (inside
/// the microkernel, across depth blocks, or in the per-block buffer
/// that is added into `c`) changes the hashes. The bits depend only on
/// whether the build has hardware FMA (`fmadd` in `matmul.rs`), so each
/// entry point has one constant per case.
#[test]
fn packed_sgemm_bits_are_pinned() {
    let (m, k, n) = (70, 150, 300);
    let mut rng = StdRng::seed_from_u64(2024);
    let a = random_vec(m * k, &mut rng);
    let b = random_vec(k * n, &mut rng);
    let at = random_vec(k * m, &mut rng); // stored k x m
    let bt = random_vec(n * k, &mut rng); // stored n x k
    let init = random_vec(m * n, &mut rng);
    let run = |f: Gemm, a: &[f32], b: &[f32]| {
        let mut c = init.clone();
        f(m, k, n, a, b, &mut c);
        fnv1a(&c)
    };
    let got = [
        run(sgemm_acc, &a, &b),
        run(sgemm_at_b_acc, &at, &b),
        run(sgemm_a_bt_acc, &a, &bt),
    ];
    let want: [u64; 3] = if cfg!(target_feature = "fma") {
        [
            0xdf5c_78c8_f6ef_dd71,
            0xcdcd_8fc8_ede5_a9b2,
            0x36df_9eaa_6386_02d5,
        ]
    } else {
        [
            0x5dd7_73c8_7323_d80c,
            0x3637_7fbc_a58c_6c98,
            0x6573_a52b_fab7_a139,
        ]
    };
    assert_eq!(got, want, "packed SGEMM output bits changed");
}
