//! Symmetric int8 quantization and exact integer GEMM for low-precision
//! HyperNet candidate scoring (DESIGN.md §9).
//!
//! ## Scheme
//!
//! * **Weights** — per-output-channel (per-row) symmetric int8:
//!   `scale[i] = max_abs(row_i) / 127` (`1.0` for an all-zero row),
//!   `q = round(w / scale)` in `[-127, 127]`.
//! * **Activations** — per-tensor symmetric scale with an unsigned-8
//!   zero point of 128: `q = clamp(round(x / s) + 128, 0, 255)`,
//!   `s = max_abs / 127`. The u8 domain feeds `dpbusd`-style u8 x i8
//!   vector dot instructions directly; padding writes the zero point
//!   (128), and a fused ReLU is `max(q, 128)`.
//! * **GEMM** — `c[i][j] = sum_k qw[i][k] * (qx[k][j] - 128)` with exact
//!   `i32` accumulation, computed as the raw u8 x i8 dot minus the
//!   precomputed correction `128 * sum_k qw[i][k]`. The worst case
//!   (`k = 576` here) peaks below `10^7`, far from `i32` overflow.
//! * **Dequantization** — `c_f32 = c_i32 * scale[i] * s`.
//!
//! [`gemm_q`] runs the AVX-VNNI kernel in `quant::vnni` when the CPU reports
//! `avxvnni` and a portable integer loop otherwise. Both accumulate the
//! same integers, so they return identical bits; there is no knob to
//! pick one.

use crate::conv::ConvGeom;
use std::cell::RefCell;

#[cfg(target_arch = "x86_64")]
mod vnni;

/// The u8 activation zero point.
pub const ZERO_POINT: i32 = 128;

/// A weight matrix quantized to per-row symmetric int8, with the depth
/// padded to a multiple of 4 (the `dpbusd` quad) and the per-row sums
/// the zero-point correction needs.
#[derive(Debug, Clone)]
pub struct QuantWeights {
    rows: usize,
    cols: usize,
    /// Depth quads: `cols.div_ceil(4)`.
    kq: usize,
    /// `rows x kq*4`, zero-padded past `cols`.
    q: Vec<i8>,
    /// Per-row dequantization scales.
    scales: Vec<f32>,
    /// Per-row `sum_k q[i][k]` (padding contributes nothing).
    row_sums: Vec<i32>,
}

impl QuantWeights {
    /// Quantizes a row-major `rows x cols` f32 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "weight length");
        let kq = cols.div_ceil(4).max(1);
        let mut q = vec![0i8; rows * kq * 4];
        let mut scales = vec![1.0f32; rows];
        let mut row_sums = vec![0i32; rows];
        for i in 0..rows {
            let row = &w[i * cols..(i + 1) * cols];
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            scales[i] = scale;
            let dst = &mut q[i * kq * 4..i * kq * 4 + cols];
            let mut sum = 0i32;
            for (d, v) in dst.iter_mut().zip(row) {
                let qi = (v / scale).round().clamp(-127.0, 127.0) as i32;
                sum += qi;
                *d = qi as i8;
            }
            row_sums[i] = sum;
        }
        QuantWeights {
            rows,
            cols,
            kq,
            q,
            scales,
            row_sums,
        }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical depth (columns before padding).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Quantizes a tensor of activations to u8 with zero point
/// [`ZERO_POINT`] and a per-tensor symmetric scale, returning the scale.
/// With `relu = true`, `max(0, x)` is fused into the rounding (the scale
/// then covers only the positive range).
///
/// Rounding is round-half-to-even (ties land on an exactly
/// representable grid point either way, so the round-trip bound is the
/// same as half-away-from-zero). This function sits on the per-batch
/// hot path of int8 scoring, so both passes (max reduction and
/// round/clamp/narrow) are written to auto-vectorize — see the inline
/// comments for the tricks that make LLVM cooperate.
pub fn quantize_activations(x: &[f32], relu: bool, out: &mut Vec<u8>) -> f32 {
    // Lane-parallel max reduction: a plain `fold` is a sequential
    // dependency chain the compiler must not reorder; 16 independent
    // lanes vectorize.
    const L: usize = 16;
    let mut lanes = [0.0f32; L];
    let chunks = x.chunks_exact(L);
    let tail = chunks.remainder();
    if relu {
        for ch in chunks {
            for (l, v) in lanes.iter_mut().zip(ch) {
                *l = l.max(*v);
            }
        }
    } else {
        for ch in chunks {
            for (l, v) in lanes.iter_mut().zip(ch) {
                *l = l.max(v.abs());
            }
        }
    }
    let mut max_abs = lanes.iter().fold(0.0f32, |m, v| m.max(*v));
    max_abs = tail
        .iter()
        .fold(max_abs, |m, v| m.max(if relu { *v } else { v.abs() }));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    out.clear();
    out.resize(x.len(), 0);
    let inv = 1.0 / scale;
    // Round + clamp + narrow via the classic bias trick: adding
    // 1.5 * 2^23 forces `v * inv + 128` onto the integer grid (ulp = 1
    // there, round-to-nearest-even), the clamp pins the biased value to
    // [MAGIC, MAGIC + 255], and the quantized byte is then exactly the
    // low mantissa byte. This avoids Rust's saturating float -> u8 cast,
    // which LLVM refuses to vectorize; `v * inv` is bounded by 127 by
    // construction of `inv`, so the grid assumption always holds.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let bias = MAGIC + ZERO_POINT as f32;
    let (lo, hi) = if relu {
        (bias, MAGIC + 255.0)
    } else {
        (MAGIC, MAGIC + 255.0)
    };
    if relu {
        for (o, v) in out.iter_mut().zip(x) {
            let r = (v.max(0.0) * inv + bias).clamp(lo, hi);
            *o = (r.to_bits() & 0xff) as u8;
        }
    } else {
        for (o, v) in out.iter_mut().zip(x) {
            let r = (v * inv + bias).clamp(lo, hi);
            *o = (r.to_bits() & 0xff) as u8;
        }
    }
    scale
}

/// [`quantize_activations`] with a channel-major output layout: the
/// input is NCHW `[n, c, hw]` and byte `(i, ch, j)` is written to
/// `out[(ch*n + i)*hw + j]`, i.e. `out` is the `[c, n*hw]` matrix whose
/// row `ch` holds channel `ch` of every sample. That row layout *is*
/// the im2col matrix of a 1x1 stride-1 conv (so those convs skip
/// lowering entirely), and it lets the k x k lowering move whole
/// `n*hw` channel rows at a time.
///
/// Same scale, rounding and fused-ReLU semantics as
/// [`quantize_activations`]; bytes are identical up to the permutation.
pub fn quantize_activations_cm(
    x: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    relu: bool,
    out: &mut Vec<u8>,
) -> f32 {
    assert_eq!(x.len(), n * c * hw, "activation length");
    const L: usize = 16;
    let mut lanes = [0.0f32; L];
    let chunks = x.chunks_exact(L);
    let tail = chunks.remainder();
    if relu {
        for ch in chunks {
            for (l, v) in lanes.iter_mut().zip(ch) {
                *l = l.max(*v);
            }
        }
    } else {
        for ch in chunks {
            for (l, v) in lanes.iter_mut().zip(ch) {
                *l = l.max(v.abs());
            }
        }
    }
    let mut max_abs = lanes.iter().fold(0.0f32, |m, v| m.max(*v));
    max_abs = tail
        .iter()
        .fold(max_abs, |m, v| m.max(if relu { *v } else { v.abs() }));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    out.clear();
    out.resize(x.len(), 0);
    let inv = 1.0 / scale;
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let bias = MAGIC + ZERO_POINT as f32;
    let (lo, hi) = if relu {
        (bias, MAGIC + 255.0)
    } else {
        (MAGIC, MAGIC + 255.0)
    };
    for i in 0..n {
        for ch in 0..c {
            let src = &x[(i * c + ch) * hw..(i * c + ch + 1) * hw];
            let dst = &mut out[(ch * n + i) * hw..(ch * n + i + 1) * hw];
            if relu {
                for (o, v) in dst.iter_mut().zip(src) {
                    let r = (v.max(0.0) * inv + bias).clamp(lo, hi);
                    *o = (r.to_bits() & 0xff) as u8;
                }
            } else {
                for (o, v) in dst.iter_mut().zip(src) {
                    let r = (v * inv + bias).clamp(lo, hi);
                    *o = (r.to_bits() & 0xff) as u8;
                }
            }
        }
    }
    scale
}

/// Dequantizes one value produced by [`gemm_q`]:
/// `c_f32 = c_i32 * w_scale * x_scale`.
#[inline(always)]
pub fn dequantize(acc: i32, w_scale: f32, x_scale: f32) -> f32 {
    acc as f32 * (w_scale * x_scale)
}

thread_local! {
    /// Per-thread 4-deep activation packing scratch for the VNNI path.
    static QPACK_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Int8 GEMM: overwrites `c` (`rows x n`) with
/// `c[i][j] = sum_k qw[i][k] * (x[k][j] - 128)` where `x` is the
/// row-major `cols x n` u8 activation matrix. Accumulation is exact
/// `i32`, so the VNNI kernel and the portable loop return identical
/// bits.
///
/// # Panics
///
/// Panics (in debug builds) if slice lengths do not match.
pub fn gemm_q(w: &QuantWeights, x: &[u8], n: usize, c: &mut [i32]) {
    debug_assert_eq!(x.len(), w.cols * n);
    debug_assert_eq!(c.len(), w.rows * n);
    if n == 0 || w.rows == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avxvnni") {
        QPACK_SCRATCH.with(|scratch| {
            let bp = &mut *scratch.borrow_mut();
            vnni::pack_activations_quads(x, w.cols, w.kq, n, bp);
            // Sound: AVX-VNNI was detected just above, and the packing
            // sizes the operands to the kernel's contract.
            #[allow(unsafe_code)]
            unsafe {
                vnni::gemm_u8i8_avxvnni(w.rows, w.kq, n, &w.q, bp, c)
            };
        });
        for i in 0..w.rows {
            let corr = ZERO_POINT * w.row_sums[i];
            for v in &mut c[i * n..(i + 1) * n] {
                *v -= corr;
            }
        }
        return;
    }
    gemm_q_scalar(w, x, n, c);
}

/// Portable int8 GEMM: a branchy `ikj` loop over the raw u8 operand with
/// the same zero-point correction, bit-identical to the VNNI kernel.
fn gemm_q_scalar(w: &QuantWeights, x: &[u8], n: usize, c: &mut [i32]) {
    let cols = w.cols;
    for i in 0..w.rows {
        let wrow = &w.q[i * w.kq * 4..i * w.kq * 4 + cols];
        let crow = &mut c[i * n..(i + 1) * n];
        crow.fill(0);
        for (kk, &av) in wrow.iter().enumerate() {
            if av == 0 {
                continue;
            }
            let av = av as i32;
            let brow = &x[kk * n..(kk + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * *bv as i32;
            }
        }
        let corr = ZERO_POINT * w.row_sums[i];
        for v in crow.iter_mut() {
            *v -= corr;
        }
    }
}

/// Lowers one u8 sample `x[c, h, w]` into columns of a (possibly
/// batched) column matrix: element `(row, j)` of the sample's
/// `[c*k*k, hout*wout]` im2col block is written to
/// `col[row * col_stride + col_off + j]`. Padding writes the u8 zero
/// point (128), which the GEMM's correction term turns into an exact
/// zero — mirroring the f32 `im2col` bit-for-bit in the quantized
/// domain.
// Like the f32 lowering routines, the full geometry is passed as
// scalars; a params struct would only obscure the BLIS-style shape.
#[allow(unsafe_code, clippy::too_many_arguments)]
pub fn im2col_u8(
    x: &[u8],
    c: usize,
    h: usize,
    w: usize,
    g: ConvGeom,
    hout: usize,
    wout: usize,
    col: &mut [u8],
    col_stride: usize,
    col_off: usize,
) {
    let k = g.k;
    let (s, pad) = (g.stride, g.pad);
    let hw_out = hout * wout;
    debug_assert!(col.len() >= (c * k * k - 1) * col_stride + col_off + hw_out);
    let zp = ZERO_POINT as u8;
    // Stride-1 "same" convs (the bulk of cell ops) admit a much cheaper
    // lowering: with `hout == h` and `wout == w`, tap `(ky, kx)`'s whole
    // `[hout, wout]` block is the source channel flat-shifted by
    // `dy*w + dx` bytes. One block-sized memcpy replaces `hout` row
    // copies; the bytes the flat shift gets wrong are exactly the
    // invalid rows (covered by the head/tail fills) and the invalid
    // wrap-around columns (covered by the per-row edge fills below).
    let flat = s == 1 && hout == h && wout == w;
    let hw = h * w;
    for ch in 0..c {
        let xc = &x[ch * h * w..(ch + 1) * h * w];
        if flat {
            for ky in 0..k {
                let dy = ky as isize - pad as isize;
                for kx in 0..k {
                    let dx = kx as isize - pad as isize;
                    let row = ((ch * k + ky) * k + kx) * col_stride + col_off;
                    let dst = &mut col[row..row + hw];
                    let shift = dy * w as isize + dx;
                    if shift >= 0 {
                        let sh = (shift as usize).min(hw);
                        dst[..hw - sh].copy_from_slice(&xc[sh..]);
                        dst[hw - sh..].fill(zp);
                    } else {
                        let sh = ((-shift) as usize).min(hw);
                        dst[..sh].fill(zp);
                        dst[sh..].copy_from_slice(&xc[..hw - sh]);
                    }
                    if dx > 0 {
                        let d = (dx as usize).min(w);
                        for r in dst.chunks_exact_mut(w) {
                            r[w - d..].fill(zp);
                        }
                    } else if dx < 0 {
                        let d = ((-dx) as usize).min(w);
                        for r in dst.chunks_exact_mut(w) {
                            r[..d].fill(zp);
                        }
                    }
                }
            }
            continue;
        }
        for ky in 0..k {
            // Valid `oy` range for this tap row: `0 <= oy*s + ky - pad < h`.
            // Rows outside it are all padding and get one contiguous fill
            // each (the tap's output block is oy-major), so the copy loop
            // below runs branch-free over fully valid input rows.
            let oy_lo = pad.saturating_sub(ky).div_ceil(s).min(hout);
            let oy_hi = (h + pad).saturating_sub(ky).div_ceil(s).clamp(oy_lo, hout);
            for kx in 0..k {
                // Same for `ox`: `0 <= ox*s + kx - pad < w`.
                let lo = pad.saturating_sub(kx).div_ceil(s).min(wout);
                let hi = (w + pad).saturating_sub(kx).div_ceil(s).clamp(lo, wout);
                let row = ((ch * k + ky) * k + kx) * col_stride + col_off;
                col[row..row + oy_lo * wout].fill(zp);
                col[row + oy_hi * wout..row + hw_out].fill(zp);
                if oy_lo == oy_hi {
                    continue;
                }
                if hi == lo {
                    col[row + oy_lo * wout..row + oy_hi * wout].fill(zp);
                    continue;
                }
                let len = hi - lo;
                let x0 = lo * s + kx - pad;
                let iy0 = oy_lo * s + ky - pad;
                if s == 1 {
                    // Raw pointers: the interior rows are tiny (`wout`
                    // bytes), so bounds-checked sub-slicing per row costs
                    // more than the copies themselves.
                    unsafe {
                        let mut src = xc.as_ptr().add(iy0 * w + x0);
                        let mut dst = col.as_mut_ptr().add(row + oy_lo * wout);
                        for _ in oy_lo..oy_hi {
                            if lo > 0 {
                                std::ptr::write_bytes(dst, zp, lo);
                            }
                            std::ptr::copy_nonoverlapping(src, dst.add(lo), len);
                            if hi < wout {
                                std::ptr::write_bytes(dst.add(hi), zp, wout - hi);
                            }
                            src = src.add(w);
                            dst = dst.add(wout);
                        }
                    }
                } else {
                    for (oy, iy) in (oy_lo..oy_hi).zip((iy0..).step_by(s)) {
                        let dst = &mut col[row + oy * wout..row + (oy + 1) * wout];
                        dst[..lo].fill(zp);
                        dst[hi..].fill(zp);
                        let xrow = &xc[iy * w..(iy + 1) * w];
                        for (d, xv) in dst[lo..hi].iter_mut().zip(xrow[x0..].iter().step_by(s)) {
                            *d = *xv;
                        }
                    }
                }
            }
        }
    }
}

/// Batched [`im2col_u8`] over the channel-major activations produced by
/// [`quantize_activations_cm`]: `x` is the `[c, n*h*w]` matrix (row `ch`
/// = channel `ch` of all `n` samples back to back) and the output is
/// the `[c*k*k, n*hout*wout]` column matrix with sample `i` occupying
/// columns `i*hout*wout..(i+1)*hout*wout`.
///
/// The layout is what makes this fast: for a stride-1 "same" conv, tap
/// `(ky, kx)` of channel `ch` is the *entire* `n*h*w` source row
/// flat-shifted by `dy*w + dx` bytes — one big memcpy per tap — because
/// every sample shifts by the same amount and sample-boundary bleed
/// lands exactly on bytes that are padding anyway (re-filled after).
/// For 1x1 stride-1 convs the column matrix equals `x` itself, so
/// callers should skip this function entirely.
#[allow(unsafe_code, clippy::too_many_arguments)]
pub fn im2col_u8_batch(
    x: &[u8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: ConvGeom,
    hout: usize,
    wout: usize,
    col: &mut [u8],
) {
    let k = g.k;
    let (s, pad) = (g.stride, g.pad);
    let hw = h * w;
    let nhw = n * hw;
    let hw_out = hout * wout;
    let cols_n = n * hw_out;
    debug_assert!(x.len() >= c * nhw);
    debug_assert!(col.len() >= c * k * k * cols_n);
    let zp = ZERO_POINT as u8;
    let flat = s == 1 && hout == h && wout == w;
    for ch in 0..c {
        let xc = &x[ch * nhw..(ch + 1) * nhw];
        for ky in 0..k {
            let oy_lo = pad.saturating_sub(ky).div_ceil(s).min(hout);
            let oy_hi = (h + pad).saturating_sub(ky).div_ceil(s).clamp(oy_lo, hout);
            for kx in 0..k {
                let lo = pad.saturating_sub(kx).div_ceil(s).min(wout);
                let hi = (w + pad).saturating_sub(kx).div_ceil(s).clamp(lo, wout);
                let row = ((ch * k + ky) * k + kx) * cols_n;
                let trow = &mut col[row..row + cols_n];
                if flat {
                    let dy = ky as isize - pad as isize;
                    let dx = kx as isize - pad as isize;
                    let shift = dy * w as isize + dx;
                    let sh = (shift.unsigned_abs()).min(nhw);
                    if sh >= hw {
                        // The shift spans a whole sample: every output row
                        // of this tap is out of range (degenerate h).
                        trow.fill(zp);
                        continue;
                    }
                    // One shifted copy of the whole channel row. Bytes
                    // that bled across a sample boundary are exactly the
                    // per-sample head/tail padding re-filled just below.
                    if shift >= 0 {
                        trow[..nhw - sh].copy_from_slice(&xc[sh..]);
                        if sh > 0 {
                            for blk in trow.chunks_exact_mut(hw) {
                                blk[hw - sh..].fill(zp);
                            }
                        }
                    } else {
                        trow[sh..].copy_from_slice(&xc[..nhw - sh]);
                        if sh > 0 {
                            for blk in trow.chunks_exact_mut(hw) {
                                blk[..sh].fill(zp);
                            }
                        }
                    }
                    if dx > 0 {
                        let d = (dx as usize).min(w);
                        for r in trow.chunks_exact_mut(w) {
                            r[w - d..].fill(zp);
                        }
                    } else if dx < 0 {
                        let d = ((-dx) as usize).min(w);
                        for r in trow.chunks_exact_mut(w) {
                            r[..d].fill(zp);
                        }
                    }
                    continue;
                }
                if hi == lo {
                    // No valid columns at all: the whole tap row is padding.
                    trow.fill(zp);
                    continue;
                }
                let len = hi - lo;
                let x0 = lo * s + kx - pad;
                let iy0 = oy_lo * s + ky - pad;
                for (i, dst) in trow.chunks_exact_mut(hw_out).enumerate() {
                    let xs = &xc[i * hw..(i + 1) * hw];
                    dst[..oy_lo * wout].fill(zp);
                    dst[oy_hi * wout..].fill(zp);
                    if oy_lo == oy_hi {
                        continue;
                    }
                    if s == 1 {
                        unsafe {
                            let mut src = xs.as_ptr().add(iy0 * w + x0);
                            let mut d = dst.as_mut_ptr().add(oy_lo * wout);
                            for _ in oy_lo..oy_hi {
                                if lo > 0 {
                                    std::ptr::write_bytes(d, zp, lo);
                                }
                                std::ptr::copy_nonoverlapping(src, d.add(lo), len);
                                if hi < wout {
                                    std::ptr::write_bytes(d.add(hi), zp, wout - hi);
                                }
                                src = src.add(w);
                                d = d.add(wout);
                            }
                        }
                    } else {
                        for (oy, iy) in (oy_lo..oy_hi).zip((iy0..).step_by(s)) {
                            let drow = &mut dst[oy * wout..(oy + 1) * wout];
                            drow[..lo].fill(zp);
                            drow[hi..].fill(zp);
                            let xrow = &xs[iy * w..(iy + 1) * w];
                            for (d, xv) in drow[lo..hi].iter_mut().zip(xrow[x0..].iter().step_by(s))
                            {
                                *d = *xv;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 37 + 11) % 29) as f32 - 14.0) * scale)
            .collect()
    }

    /// Naive oracle for `gemm_q`.
    fn naive_q(w: &QuantWeights, x: &[u8], n: usize) -> Vec<i32> {
        let mut c = vec![0i32; w.rows * n];
        for i in 0..w.rows {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..w.cols {
                    let qw = w.q[i * w.kq * 4 + kk] as i32;
                    let qx = x[kk * n + j] as i32 - ZERO_POINT;
                    acc += qw * qx;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn weight_quantization_round_trip_bound() {
        let (rows, cols) = (7, 33);
        let w = pseudo(rows * cols, 0.17);
        let qw = QuantWeights::quantize(&w, rows, cols);
        for i in 0..rows {
            let s = qw.scales()[i];
            for kk in 0..cols {
                let deq = qw.q[i * qw.kq * 4 + kk] as f32 * s;
                let err = (w[i * cols + kk] - deq).abs();
                assert!(err <= s * 0.5 + 1e-6, "w[{i},{kk}] err {err} scale {s}");
            }
        }
    }

    #[test]
    fn zero_row_gets_unit_scale() {
        let w = vec![0.0f32; 8];
        let qw = QuantWeights::quantize(&w, 2, 4);
        assert_eq!(qw.scales(), &[1.0, 1.0]);
        assert!(qw.q.iter().all(|&v| v == 0));
    }

    #[test]
    fn activation_round_trip_bound() {
        let x = pseudo(301, 0.03);
        let mut q = Vec::new();
        let s = quantize_activations(&x, false, &mut q);
        for (v, qv) in x.iter().zip(&q) {
            let deq = (*qv as i32 - ZERO_POINT) as f32 * s;
            assert!((v - deq).abs() <= s * 0.5 + 1e-6);
        }
    }

    #[test]
    fn relu_fusion_matches_relu_then_quantize() {
        let x = pseudo(97, 0.05);
        let relued: Vec<f32> = x.iter().map(|v| v.max(0.0)).collect();
        let (mut qa, mut qb) = (Vec::new(), Vec::new());
        let sa = quantize_activations(&x, true, &mut qa);
        let sb = quantize_activations(&relued, false, &mut qb);
        assert_eq!(sa, sb);
        assert_eq!(qa, qb);
    }

    #[test]
    fn gemm_q_matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (6, 27, 37),
            (16, 147, 64),
            (5, 64, 100),
        ] {
            let wf = pseudo(m * k, 0.11);
            let xf = pseudo(k * n, 0.07);
            let w = QuantWeights::quantize(&wf, m, k);
            let mut x = Vec::new();
            quantize_activations(&xf, false, &mut x);
            let want = naive_q(&w, &x, n);
            let mut got = vec![0i32; m * n];
            gemm_q(&w, &x, n, &mut got);
            assert_eq!(got, want, "gemm_q ({m},{k},{n})");
            let mut scalar = vec![0i32; m * n];
            gemm_q_scalar(&w, &x, n, &mut scalar);
            assert_eq!(scalar, want, "portable loop ({m},{k},{n})");
        }
    }

    #[test]
    fn im2col_u8_1x1_identity_and_padding() {
        // 1x1 stride-1: identity copy.
        let x: Vec<u8> = (0..24).map(|v| (v * 3 + 100) as u8).collect();
        let g = ConvGeom::new(1, 1, 0);
        let mut col = vec![0u8; 24];
        im2col_u8(&x, 2, 3, 4, g, 3, 4, &mut col, 12, 0);
        assert_eq!(col, x);
        // 3x3 same-pad writes the zero point into the border.
        let g = ConvGeom::same(3, 1);
        let mut col = vec![0u8; 2 * 9 * 12];
        im2col_u8(&x, 2, 3, 4, g, 3, 4, &mut col, 12, 0);
        // Top-left kernel tap at output (0,0) reads input (-1,-1): padding.
        assert_eq!(col[0], ZERO_POINT as u8);
    }
}
