//! AVX-VNNI u8 x i8 GEMM for [`gemm_q`](super::gemm_q), chosen at runtime
//! when `is_x86_feature_detected!("avxvnni")` holds. The kernel
//! accumulates the same exact integers as the portable loop, so the two
//! paths return identical bits; this one is only faster.
//!
//! The kernel is the crate's only `std::arch` code; it opts back in to
//! `unsafe` and states the contract its caller upholds.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

/// Packs the `cols x n` u8 matrix 4-deep for the VNNI kernel: byte
/// `out[q * n * 4 + j * 4 + t]` is `x[(4q + t) * n + j]`, zero-padded
/// past `cols` (the matching weight bytes are zero, so the pad value is
/// irrelevant — zero keeps the buffer deterministic).
pub(super) fn pack_activations_quads(
    x: &[u8],
    cols: usize,
    kq: usize,
    n: usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.resize(kq * n * 4, 0);
    // Full quads interleave four source rows in one pass
    // (`dst[4j + t] = row_t[j]`), which vectorizes to byte-unpack
    // shuffles; only the final quad can be ragged (`cols % 4 != 0`) and
    // takes the scalar path.
    let full = cols / 4;
    for q in 0..full {
        let dst = &mut out[q * n * 4..(q + 1) * n * 4];
        let base = q * 4 * n;
        let (r0, rest) = x[base..base + 4 * n].split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        for (j, d) in dst.chunks_exact_mut(4).enumerate() {
            d[0] = r0[j];
            d[1] = r1[j];
            d[2] = r2[j];
            d[3] = r3[j];
        }
    }
    for q in full..kq {
        let dst = &mut out[q * n * 4..(q + 1) * n * 4];
        for t in 0..4 {
            let kk = q * 4 + t;
            if kk >= cols {
                break;
            }
            let src = &x[kk * n..(kk + 1) * n];
            for (j, v) in src.iter().enumerate() {
                dst[j * 4 + t] = *v;
            }
        }
    }
}

/// Raw u8 x i8 GEMM rows on AVX-VNNI: `c[i][j] = sum_k aq[i][k] * bp[k][j]`
/// over `kq * 4` depth (zero-padded), where `aq` holds signed weights
/// packed `rows x kq*4` and `bp` holds unsigned activations packed
/// 4-deep: byte `bp[q * n * 4 + j * 4 + t]` is activation `(4q + t, j)`.
/// One `dpbusd` per 8 columns per depth quad accumulates 32 exact
/// integer MACs; `c` is overwritten with the *uncorrected* dot (the
/// `-128 * row_sum` zero-point correction is applied by the caller).
///
/// # Safety
///
/// The caller must ensure:
/// - the CPU supports AVX-VNNI (runtime-detected);
/// - `aq.len() >= m * kq * 4`;
/// - `bp.len() >= kq * n * 4`;
/// - `c.len() >= m * n`.
#[target_feature(enable = "avxvnni")]
pub(super) unsafe fn gemm_u8i8_avxvnni(
    m: usize,
    kq: usize,
    n: usize,
    aq: &[i8],
    bp: &[u8],
    c: &mut [i32],
) {
    debug_assert!(aq.len() >= m * kq * 4);
    debug_assert!(bp.len() >= kq * n * 4);
    debug_assert!(c.len() >= m * n);
    // 4 accumulators x 8 i32 lanes = 32 output columns per block. The
    // column blocks are the OUTER loop: the `kq * 128`-byte activation
    // block then stays in L1 across all `m` weight rows, instead of the
    // whole packed matrix being re-streamed once per row (the im2col
    // GEMMs here have small `m` and very large `n`, so B reuse across
    // rows is the entire game).
    const JB: usize = 32;
    unsafe {
        let bpp = bp.as_ptr();
        let app = aq.as_ptr();
        let mut jb = 0;
        while jb + JB <= n {
            let bblock = bpp.add(jb * 4);
            // Weight rows in pairs: the four B loads per depth quad are
            // shared by both rows' dpbusd chains, doubling arithmetic
            // per byte loaded (8 accumulators + 2 broadcasts + 4 loads
            // = 14 live ymm registers).
            let mut i = 0;
            while i + 2 <= m {
                let arow0 = app.add(i * kq * 4) as *const i32;
                let arow1 = app.add((i + 1) * kq * 4) as *const i32;
                let mut a00 = _mm256_setzero_si256();
                let mut a01 = _mm256_setzero_si256();
                let mut a02 = _mm256_setzero_si256();
                let mut a03 = _mm256_setzero_si256();
                let mut a10 = _mm256_setzero_si256();
                let mut a11 = _mm256_setzero_si256();
                let mut a12 = _mm256_setzero_si256();
                let mut a13 = _mm256_setzero_si256();
                for q in 0..kq {
                    let w0 = _mm256_set1_epi32(arow0.add(q).read_unaligned());
                    let w1 = _mm256_set1_epi32(arow1.add(q).read_unaligned());
                    let bq = bblock.add(q * n * 4);
                    let b0 = _mm256_loadu_si256(bq as *const __m256i);
                    let b1 = _mm256_loadu_si256(bq.add(32) as *const __m256i);
                    let b2 = _mm256_loadu_si256(bq.add(64) as *const __m256i);
                    let b3 = _mm256_loadu_si256(bq.add(96) as *const __m256i);
                    a00 = _mm256_dpbusd_avx_epi32(a00, b0, w0);
                    a01 = _mm256_dpbusd_avx_epi32(a01, b1, w0);
                    a02 = _mm256_dpbusd_avx_epi32(a02, b2, w0);
                    a03 = _mm256_dpbusd_avx_epi32(a03, b3, w0);
                    a10 = _mm256_dpbusd_avx_epi32(a10, b0, w1);
                    a11 = _mm256_dpbusd_avx_epi32(a11, b1, w1);
                    a12 = _mm256_dpbusd_avx_epi32(a12, b2, w1);
                    a13 = _mm256_dpbusd_avx_epi32(a13, b3, w1);
                }
                let c0 = c.as_mut_ptr().add(i * n + jb);
                let c1 = c.as_mut_ptr().add((i + 1) * n + jb);
                _mm256_storeu_si256(c0 as *mut __m256i, a00);
                _mm256_storeu_si256(c0.add(8) as *mut __m256i, a01);
                _mm256_storeu_si256(c0.add(16) as *mut __m256i, a02);
                _mm256_storeu_si256(c0.add(24) as *mut __m256i, a03);
                _mm256_storeu_si256(c1 as *mut __m256i, a10);
                _mm256_storeu_si256(c1.add(8) as *mut __m256i, a11);
                _mm256_storeu_si256(c1.add(16) as *mut __m256i, a12);
                _mm256_storeu_si256(c1.add(24) as *mut __m256i, a13);
                i += 2;
            }
            if i < m {
                let arow = app.add(i * kq * 4) as *const i32;
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for q in 0..kq {
                    let wv = _mm256_set1_epi32(arow.add(q).read_unaligned());
                    let bq = bblock.add(q * n * 4);
                    acc0 =
                        _mm256_dpbusd_avx_epi32(acc0, _mm256_loadu_si256(bq as *const __m256i), wv);
                    acc1 = _mm256_dpbusd_avx_epi32(
                        acc1,
                        _mm256_loadu_si256(bq.add(32) as *const __m256i),
                        wv,
                    );
                    acc2 = _mm256_dpbusd_avx_epi32(
                        acc2,
                        _mm256_loadu_si256(bq.add(64) as *const __m256i),
                        wv,
                    );
                    acc3 = _mm256_dpbusd_avx_epi32(
                        acc3,
                        _mm256_loadu_si256(bq.add(96) as *const __m256i),
                        wv,
                    );
                }
                let crow = c.as_mut_ptr().add(i * n + jb);
                _mm256_storeu_si256(crow as *mut __m256i, acc0);
                _mm256_storeu_si256(crow.add(8) as *mut __m256i, acc1);
                _mm256_storeu_si256(crow.add(16) as *mut __m256i, acc2);
                _mm256_storeu_si256(crow.add(24) as *mut __m256i, acc3);
            }
            jb += JB;
        }
        // 8-column vector tail, then a scalar tail for the last < 8.
        while jb + 8 <= n {
            let bblock = bpp.add(jb * 4);
            for i in 0..m {
                let arow = app.add(i * kq * 4) as *const i32;
                let mut acc = _mm256_setzero_si256();
                for q in 0..kq {
                    let wv = _mm256_set1_epi32(arow.add(q).read_unaligned());
                    acc = _mm256_dpbusd_avx_epi32(
                        acc,
                        _mm256_loadu_si256(bblock.add(q * n * 4) as *const __m256i),
                        wv,
                    );
                }
                _mm256_storeu_si256(c.as_mut_ptr().add(i * n + jb) as *mut __m256i, acc);
            }
            jb += 8;
        }
        for j in jb..n {
            for i in 0..m {
                let wrow = app.add(i * kq * 4);
                let mut acc = 0i32;
                for q in 0..kq {
                    let bq = bpp.add(q * n * 4 + j * 4);
                    for t in 0..4 {
                        acc += *wrow.add(q * 4 + t) as i32 * *bq.add(t) as i32;
                    }
                }
                *c.as_mut_ptr().add(i * n + j) = acc;
            }
        }
    }
}
