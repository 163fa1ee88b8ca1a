//! Integer GEMM for quantized inference: packed `i8` weight codes times
//! `i32` spike counts with `i32` accumulation.
//!
//! A deployed network's weights are integer codes on the clustered grid
//! (`|code| ≤ 2^(N−1)`, Eq. 6) and its signals are `M`-bit spike counts, so
//! the synaptic products need no floating point at all. [`PackedCodes`]
//! stores a layer's code matrix transposed once into the `[in, out]` layout
//! the inner loop streams through, and [`igemm`] runs the same cache-blocked
//! loop nest as the `f32` [`crate::gemm`]. Like the `f32` GEMM, there is
//! one exact loop per [`crate::simd_level`] and no kernel setting.
//!
//! # SIMD fast path
//!
//! When [`crate::simd_level`] is above scalar, the micro-kernels in
//! [`crate::simd`] take over; integer accumulation is associative, so every
//! route below is bit-identical to the scalar loop
//! (`tests/simd_bit_identity.rs` property-tests this, sparse operands
//! included).
//!
//! - **AVX2, counts fit `i16`** (the steady state — spike counts are
//!   ≤ 255): [`igemm_wx`] packs adjacent `k`-rows of the count matrix into
//!   two-`i16`-per-word pair operands (the range check fused into the same
//!   pass) and runs the `pmaddwd` **axpy** kernel against the weight pair
//!   panel built at pack time ([`PackedCodes`]) — 16 MACs per multiply,
//!   four output rows blocked per sweep of the packed panel, no transpose.
//! - **AVX2, wider counts**: the exact `vpmulld` axpy body instead.
//! - **SSE2** (no packed 32-bit multiply): transpose the counts once into
//!   `i16` pixel rows and run the shared `i16 × i16 → i32` **dot** kernel;
//!   [`igemm`] widens its row-major count operand into the same kernel at
//!   every SIMD level.
//!
//! [`igemm_conv`] picks the conv lowering from the SIMD level and the
//! image's `i16` range:
//!
//! - **AVX2, image fits `i16`**: the *padded pair lowering*. The image is
//!   copied once into a zero-padded scratch buffer, and each pair of tap
//!   rows is written straight into the `[ceil(c·k²/2), oh·ow]` pair words
//!   the `pmaddwd` axpy kernel reads — contiguous slices at stride 1,
//!   stepped reads otherwise. The `im2col` matrix (`k²` copies of every
//!   count) is never built, and the range check runs on the `c·h·w` image
//!   instead of the expanded columns.
//! - **SSE2, image fits `i16`**: `im2row` + the dot kernel.
//! - **Everything else** (scalar, and images past `i16` at any level):
//!   `im2col` + [`igemm_wx`], whose AVX2 route is the exact `vpmulld` body.

use crate::conv::Conv2dSpec;
use crate::linalg::BLOCK;
use crate::parallel;
use crate::scratch;
use crate::simd::{self, SimdLevel};

/// A layer's weight codes packed for the integer fast path: `i8` entries in
/// `[in, out]` (transposed) layout, prepared once at compile time.
#[derive(Debug, Clone)]
pub struct PackedCodes {
    in_dim: usize,
    out_dim: usize,
    /// `data[i · out_dim + j]` = code of output `j` from input `i`.
    data: Vec<i8>,
    /// The same codes pre-widened to `i16` in row-major `[out, in]` layout
    /// (`rows16[j · in_dim + i]`) — the panel the SIMD dot kernel streams.
    rows16: Vec<i16>,
    /// Adjacent input pairs packed two-`i16`-per-word in `[out, ceil(in/2)]`
    /// layout (`pairs16[j · kp + kkp]` holds codes `2·kkp` and `2·kkp + 1`
    /// of output `j`, an odd tail padded with zero) — the broadcast operand
    /// of the `pmaddwd` axpy kernel.
    pairs16: Vec<i32>,
}

impl PackedCodes {
    /// Packs a code matrix given in the repo's standard `[out, in]` layout
    /// (as stored by `Conv2d`/`Linear` and produced by weight clustering).
    ///
    /// Returns `None` when any code does not fit in `i8` — possible only at
    /// `N = 8`, whose level bound `2^7 = 128` exceeds `i8::MAX`; callers
    /// fall back to the float path in that case.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_dim · in_dim`.
    pub fn try_pack(codes: &[i32], out_dim: usize, in_dim: usize) -> Option<Self> {
        assert_eq!(codes.len(), out_dim * in_dim, "code matrix shape mismatch");
        if codes.iter().any(|&c| i8::try_from(c).is_err()) {
            return None;
        }
        let mut data = vec![0i8; in_dim * out_dim];
        for (j, row) in codes.chunks_exact(in_dim.max(1)).enumerate() {
            for (i, &code) in row.iter().enumerate() {
                data[i * out_dim + j] = code as i8;
            }
        }
        let rows16: Vec<i16> = codes.iter().map(|&c| c as i16).collect();
        let kp = in_dim.div_ceil(2);
        let mut pairs16 = vec![0i32; out_dim * kp];
        for j in 0..out_dim {
            for kkp in 0..kp {
                let w0 = codes[j * in_dim + 2 * kkp] as i16 as u16 as u32;
                let w1 = if 2 * kkp + 1 < in_dim {
                    codes[j * in_dim + 2 * kkp + 1] as i16 as u16 as u32
                } else {
                    0
                };
                pairs16[j * kp + kkp] = (w0 | (w1 << 16)) as i32;
            }
        }
        Some(PackedCodes { in_dim, out_dim, data, rows16, pairs16 })
    }

    /// Input dimension (`k` of the product).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (`n` of the product).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Recovers the code matrix in the repo's standard `[out, in]` layout —
    /// exactly the slice [`Self::try_pack`] was given. Deployment-artifact
    /// serialization uses this to export a compiled layer's codes; packing
    /// the returned codes again reproduces an identical `PackedCodes`
    /// (packing is deterministic).
    pub fn unpack_codes(&self) -> Vec<i32> {
        // rows16 already holds the codes in `[out, in]` order; every code
        // fits i8 so the i16 → i32 widening is lossless.
        self.rows16.iter().map(|&c| c as i32).collect()
    }

    /// Largest possible `|accumulator|` when the product is driven by
    /// counts in `[0, max_count]`: `max_j Σ_i |code[i,j]| · max_count`.
    /// Deployability checks compare this against `2^24` to guarantee the
    /// float oracle's sums stay exactly representable.
    pub fn max_abs_accum(&self, max_count: u32) -> i64 {
        let mut worst = 0i64;
        for j in 0..self.out_dim {
            let col: i64 = (0..self.in_dim)
                .map(|i| (self.data[i * self.out_dim + j] as i64).abs())
                .sum();
            worst = worst.max(col);
        }
        worst * max_count as i64
    }
}

/// Counts one public integer GEMM call in `tensor.igemm.calls`.
fn count_call() {
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("tensor.igemm.calls", 1);
    }
}

/// True when every value fits `i16` — the precondition for widening an
/// operand into the `pmaddwd` dot kernel without changing its value.
fn fits_i16(vals: &[i32]) -> bool {
    // A fold without early exit vectorizes; operands almost always fit, so
    // stopping at the first miss would save nothing.
    vals.iter().fold(true, |ok, &v| ok & (v == v as i16 as i32))
}

/// Widens an `i16`-ranged `i32` slice into `dst` (caller checked the range).
fn widen_i16(src: &[i32], dst: &mut [i16]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s as i16;
    }
}

/// One row band of the integer product: `c[mb×n] += a[mb×k] · B`.
///
/// Mirrors the `f32` `gemm_band` loop nest; per-element accumulation order
/// is ascending `k`, so banding cannot change results (and integer adds are
/// associative regardless).
fn igemm_band(mb: usize, k: usize, n: usize, a: &[i32], b: &[i8], c: &mut [i32]) {
    for i0 in (0..mb).step_by(BLOCK) {
        let i_end = (i0 + BLOCK).min(mb);
        for k0 in (0..k).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j_end = (j0 + BLOCK).min(n);
                for i in i0..i_end {
                    for kk in k0..k_end {
                        let aik = a[i * k + kk];
                        let brow = &b[kk * n + j0..kk * n + j_end];
                        let crow = &mut c[i * n + j0..i * n + j_end];
                        for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                            *cv += aik * bv as i32;
                        }
                    }
                }
            }
        }
    }
}

/// Integer GEMM: `c[m×n] += a[m×k] · b` with `i32` accumulation.
///
/// `a` holds spike counts (row-major `[m, k]`), `b` the packed weight codes.
/// The caller zero-initializes `c` for a pure product. Above scalar SIMD,
/// `i16`-ranged counts take the dot kernel; otherwise the scalar blocked
/// loop runs. Large products split across the [`crate::parallel`] workers
/// by output row — integer accumulation makes banding trivially exact.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn igemm(m: usize, k: usize, n: usize, a: &[i32], b: &PackedCodes, c: &mut [i32]) {
    assert_eq!(k, b.in_dim, "igemm inner dim disagrees with packed codes");
    assert_eq!(n, b.out_dim, "igemm output dim disagrees with packed codes");
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");

    let level = simd::simd_level();
    count_call();
    if level != SimdLevel::Scalar && fits_i16(a) {
        // SIMD dot path: counts widened per call, codes pre-widened at pack
        // time; the shared dot kernel streams code rows register-tiled.
        let mut a16 = scratch::take_i16(m * k);
        widen_i16(a, &mut a16);
        if m < 2 || m * k * n < 32 * 1024 || parallel::num_threads() == 1 {
            simd::dot_tiles(level, k, &b.rows16, n, &a16, m, c, n);
        } else {
            let a16 = &a16;
            parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
                simd::dot_tiles(
                    level,
                    k,
                    &b.rows16,
                    n,
                    &a16[row0 * k..(row0 + rows) * k],
                    rows,
                    c_band,
                    n,
                );
            });
        }
        scratch::put_i16(a16);
        return;
    }
    if m < 2 || m * k * n < 32 * 1024 || parallel::num_threads() == 1 {
        igemm_band(m, k, n, a, &b.data, c);
        return;
    }
    parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
        igemm_band(rows, k, n, &a[row0 * k..(row0 + rows) * k], &b.data, c_band);
    });
}

/// One output-channel band of [`igemm_wx`]: `c[fb×pix] += W[fb×k] · x`.
///
/// `f0` is the first output channel of the band; weight reads go through the
/// packed `[in, out]` layout (`w[f, kk] = data[kk · out + f]`), only
/// `fb · k` scalar loads against `fb · k · pix` streamed MACs.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot loop call free of struct plumbing
fn igemm_wx_band(
    f0: usize,
    fb: usize,
    out_dim: usize,
    k: usize,
    pix: usize,
    w: &[i8],
    x: &[i32],
    c: &mut [i32],
) {
    // Tile pixels and taps so the x tile (BLOCK² · 4 B = 16 KiB) stays in
    // L1 while every output channel of the band reuses it; without the
    // tiling each channel would stream the whole column matrix from memory.
    for p0 in (0..pix).step_by(BLOCK) {
        let p_end = (p0 + BLOCK).min(pix);
        for k0 in (0..k).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(k);
            for f in 0..fb {
                let crow = &mut c[f * pix + p0..f * pix + p_end];
                for kk in k0..k_end {
                    let wk = w[kk * out_dim + f0 + f] as i32;
                    let xrow = &x[kk * pix + p0..kk * pix + p_end];
                    for (cv, &xv) in crow.iter_mut().zip(xrow.iter()) {
                        *cv += wk * xv;
                    }
                }
            }
        }
    }
}

/// Integer GEMM in weights-times-columns orientation:
/// `c[out×pix] += W[out×k] · x[k×pix]`, with `W` the packed weight codes.
///
/// This is the conv fast path's orientation — the inner loop streams a whole
/// pixel row (`pix` is `oh·ow`, typically hundreds), instead of the handful
/// of output channels [`igemm`]'s row-major orientation would give it, and
/// the output lands channel-major like the spiking pipeline's signals.
/// Accumulation is exact integer arithmetic, so banding is
/// result-preserving; large products split across the [`crate::parallel`]
/// workers by output channel.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn igemm_wx(out_dim: usize, k: usize, pix: usize, w: &PackedCodes, x: &[i32], c: &mut [i32]) {
    assert_eq!(k, w.in_dim, "igemm_wx inner dim disagrees with packed codes");
    assert_eq!(out_dim, w.out_dim, "igemm_wx output dim disagrees with packed codes");
    assert_eq!(x.len(), k * pix, "column matrix length mismatch");
    assert_eq!(c.len(), out_dim * pix, "output slice length mismatch");

    let level = simd::simd_level();
    count_call();
    if level == SimdLevel::Avx2 {
        // AVX2 axpy paths: both consume the `[k, pix]` layout over
        // contiguous pixel strips — no transpose. When the counts fit
        // `i16` (the steady state — spike counts are ≤ 255), adjacent `k`
        // rows are pre-packed once into `i16` pair words (a cheap
        // sequential pass, amortized over every output row) and the
        // `pmaddwd` kernel runs 16 MACs per multiply against the weight
        // pair panel built at pack time. Wider counts take the exact
        // `vpmulld` body instead.
        let mut xpk = scratch::take_i32(k.div_ceil(2) * pix);
        // The i16 range check is fused into the packing pass — one read of
        // the counts instead of a scan followed by a pack.
        if simd::pack_wx_pairs(level, k, pix, x, &mut xpk) {
            wx_packed(level, w, pix, &xpk, c);
            scratch::put_i32(xpk);
            return;
        }
        scratch::put_i32(xpk);
        if out_dim < 2 || out_dim * k * pix < 32 * 1024 || parallel::num_threads() == 1 {
            simd::wx_axpy(level, out_dim, k, pix, &w.rows16, x, c);
            return;
        }
        parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
            simd::wx_axpy(level, fb, k, pix, &w.rows16[f0 * k..(f0 + fb) * k], x, c_band);
        });
        return;
    }
    if level != SimdLevel::Scalar && fits_i16(x) {
        // SSE2 dot path (no packed 32-bit multiply below AVX2): transpose
        // the column matrix once into i16 pixel rows (O(k·pix) moves
        // against O(out·k·pix) MACs), then run the same dot kernel as
        // `igemm` with the roles swapped — pixel rows are the
        // register-tiled side, code rows the outer side.
        let mut xr16 = scratch::take_i16(pix * k);
        for kk in 0..k {
            let xrow = &x[kk * pix..(kk + 1) * pix];
            for (p, &xv) in xrow.iter().enumerate() {
                xr16[p * k + kk] = xv as i16;
            }
        }
        wx_dot(level, out_dim, k, pix, &w.rows16, &xr16, c);
        scratch::put_i16(xr16);
        return;
    }
    if out_dim < 2 || out_dim * k * pix < 32 * 1024 || parallel::num_threads() == 1 {
        igemm_wx_band(0, out_dim, out_dim, k, pix, &w.data, x, c);
        return;
    }
    parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
        igemm_wx_band(f0, fb, out_dim, k, pix, &w.data, x, c_band);
    });
}

/// Shared AVX2 tail of [`igemm_wx`] and [`igemm_conv`]: `c[out×pix] +=
/// W · x` with `x` already in the `[ceil(k/2), pix]` pair-word layout of
/// [`simd::pack_wx_pairs`], split across the [`crate::parallel`] workers by
/// output channel when the product is large enough.
fn wx_packed(level: SimdLevel, w: &PackedCodes, pix: usize, xpk: &[i32], c: &mut [i32]) {
    let (out_dim, k) = (w.out_dim, w.in_dim);
    let kp = k.div_ceil(2);
    if out_dim < 2 || out_dim * k * pix < 32 * 1024 || parallel::num_threads() == 1 {
        simd::wx_axpy_packed(level, out_dim, kp, pix, &w.pairs16, xpk, c);
        return;
    }
    parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
        let w_band = &w.pairs16[f0 * kp..(f0 + fb) * kp];
        simd::wx_axpy_packed(level, fb, kp, pix, w_band, xpk, c_band);
    });
}

/// Shared SIMD tail of [`igemm_wx`] and [`igemm_conv`]: `c[out×pix] +=
/// W · xr16ᵀ` where `xr16` holds one widened `i16` row per output pixel.
fn wx_dot(level: SimdLevel, out_dim: usize, k: usize, pix: usize, w16: &[i16], xr16: &[i16], c: &mut [i32]) {
    if out_dim < 2 || out_dim * k * pix < 32 * 1024 || parallel::num_threads() == 1 {
        simd::dot_tiles(level, k, xr16, pix, w16, out_dim, c, pix);
        return;
    }
    parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
        simd::dot_tiles(level, k, xr16, pix, &w16[f0 * k..(f0 + fb) * k], fb, c_band, pix);
    });
}

/// Lowers one integer image `[c, h, w]` to the `[c·k·k, oh·ow]` column
/// matrix [`igemm_wx`] consumes (one row per filter tap, matching the `f32`
/// `im2col` layout). Zero padding is folded in: taps that fall outside the
/// image write 0, so no padded copy is built.
///
/// # Panics
///
/// Panics if `src` or `cols` disagree with the implied geometry.
pub fn im2col_i32(
    src: &[i32],
    c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    cols: &mut [i32],
) {
    let k = spec.kernel;
    let pad = spec.padding;
    let oh = spec.output_size(h);
    let ow = spec.output_size(w);
    let pix = oh * ow;
    assert_eq!(src.len(), c * h * w, "im2col_i32 source length mismatch");
    assert_eq!(cols.len(), c * k * k * pix, "im2col_i32 output length mismatch");

    let mut r = 0;
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let dst = &mut cols[r * pix..(r + 1) * pix];
                r += 1;
                for oy in 0..oh {
                    let iy = oy * spec.stride + ky;
                    let drow = &mut dst[oy * ow..(oy + 1) * ow];
                    if iy < pad || iy >= h + pad {
                        drow.fill(0);
                        continue;
                    }
                    let src_row = &src[(ic * h + iy - pad) * w..(ic * h + iy - pad + 1) * w];
                    for (ox, d) in drow.iter_mut().enumerate() {
                        let ix = ox * spec.stride + kx;
                        *d = if ix < pad || ix >= w + pad {
                            0
                        } else {
                            src_row[ix - pad]
                        };
                    }
                }
            }
        }
    }
}

/// Lowers one integer image `[c, h, w]` to the `[oh·ow, c·k·k]` row matrix
/// the SIMD dot kernel consumes (one widened `i16` row per output pixel).
/// Zero padding is folded in: taps that fall outside the image write 0, so
/// no padded copy is built. The caller has already range-checked `src` (the
/// cast is lossless for `i16`-ranged values).
fn im2row_i16(src: &[i32], c: usize, (h, w): (usize, usize), spec: Conv2dSpec, rows: &mut [i16]) {
    let k = spec.kernel;
    let pad = spec.padding;
    let oh = spec.output_size(h);
    let ow = spec.output_size(w);
    let ckk = c * k * k;
    assert_eq!(src.len(), c * h * w, "im2row source length mismatch");
    assert_eq!(rows.len(), oh * ow * ckk, "im2row output length mismatch");

    for oy in 0..oh {
        for ox in 0..ow {
            let out = &mut rows[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
            for ic in 0..c {
                for ky in 0..k {
                    let tap = &mut out[(ic * k + ky) * k..(ic * k + ky) * k + k];
                    let iy = oy * spec.stride + ky;
                    if iy < pad || iy >= h + pad {
                        tap.fill(0);
                        continue;
                    }
                    let src_row = &src[(ic * h + iy - pad) * w..(ic * h + iy - pad + 1) * w];
                    for (kx, t) in tap.iter_mut().enumerate() {
                        let ix = ox * spec.stride + kx;
                        *t = if ix < pad || ix >= w + pad {
                            0
                        } else {
                            src_row[ix - pad] as i16
                        };
                    }
                }
            }
        }
    }
}

/// Lowers one `i16`-ranged integer image `[c, h, w]` straight into the
/// `[ceil(c·k²/2), oh·ow]` pair-word layout [`simd::wx_axpy_packed`] reads:
/// word `kkp·pix + p` holds taps `2kkp` and `2kkp + 1` of output pixel `p`
/// in its low and high 16 bits (an odd final tap pairs with zero) — the
/// words [`simd::pack_wx_pairs`] would build from the `im2col` matrix,
/// without materializing that matrix.
///
/// The image is first copied once into a zero-padded scratch buffer, each
/// value pre-masked to its low 16 bits, so each tap's rows are plain reads
/// of the padded image — contiguous at stride 1, stepped otherwise — and a
/// pair word is one shift and one or ([`simd::pair_rows`]). The caller has
/// already range-checked `src`.
fn im2pairs_i16(
    level: SimdLevel,
    src: &[i32],
    c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    xpk: &mut [i32],
) {
    let k = spec.kernel;
    let (pad, stride) = (spec.padding, spec.stride);
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    let ckk = c * k * k;
    assert_eq!(src.len(), c * h * w, "im2pairs source length mismatch");
    assert_eq!(xpk.len(), ckk.div_ceil(2) * oh * ow, "im2pairs output length");

    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut img = scratch::take_i32(c * hp * wp);
    for ic in 0..c {
        for y in 0..h {
            let srow = &src[(ic * h + y) * w..(ic * h + y + 1) * w];
            let start = (ic * hp + y + pad) * wp + pad;
            for (d, &v) in img[start..start + w].iter_mut().zip(srow) {
                *d = v & 0xFFFF;
            }
        }
    }
    // Offset in `img` of tap `r`'s input for output pixel (0, 0).
    let tap = |r: usize| {
        let (ic, ky, kx) = (r / (k * k), r / k % k, r % k);
        (ic * hp + ky) * wp + kx
    };
    for (kkp, dst) in xpk.chunks_exact_mut(oh * ow).enumerate() {
        let b = (2 * kkp + 1 < ckk).then(|| tap(2 * kkp + 1));
        let taps = (tap(2 * kkp), b);
        simd::pair_rows(level, &img, taps, (stride, stride * wp), ow, dst);
    }
    scratch::put_i32(img);
}

/// Integer convolution via the fastest exact lowering for the SIMD level:
/// `c[out×oh·ow] += W · lower(src)` for one `[in_c, h, w]` image.
///
/// The three lowerings compute the same product in different layouts. On
/// AVX2, an `i16`-ranged image takes the padded pair lowering: one
/// zero-padded copy of the image, from which each pair of tap rows is
/// written directly into the `pmaddwd` pair words the axpy kernel reads
/// (the words `im2col` followed by pair packing would produce, without
/// the `k²`-times-larger column matrix). On SSE2, `im2row` feeds the dot
/// kernel, whose register tiles want one contiguous `i16` row per output
/// pixel. Scalar, and any image past `i16`, takes `im2col` + [`igemm_wx`]
/// (on AVX2 its exact `vpmulld` body). The SIMD level and one range check
/// over the `c·h·w` image pick per call, so callers never choose a
/// lowering themselves.
///
/// # Panics
///
/// Panics if `src` or `c` disagree with the geometry implied by `spec` and
/// the packed codes (`w.in_dim` must equal `in_c · kernel²`).
pub fn igemm_conv(
    src: &[i32],
    in_c: usize,
    (h, wd): (usize, usize),
    spec: Conv2dSpec,
    w: &PackedCodes,
    c: &mut [i32],
) {
    let ckk = in_c * spec.kernel * spec.kernel;
    let pix = spec.output_size(h) * spec.output_size(wd);
    assert_eq!(ckk, w.in_dim, "igemm_conv taps disagree with packed codes");
    assert_eq!(src.len(), in_c * h * wd, "igemm_conv source length mismatch");
    assert_eq!(c.len(), w.out_dim * pix, "igemm_conv output length mismatch");

    let level = simd::simd_level();
    if level == SimdLevel::Avx2 && fits_i16(src) {
        count_call();
        let mut xpk = scratch::take_i32(ckk.div_ceil(2) * pix);
        im2pairs_i16(level, src, in_c, (h, wd), spec, &mut xpk);
        wx_packed(level, w, pix, &xpk, c);
        scratch::put_i32(xpk);
        return;
    }
    if level == SimdLevel::Sse2 && fits_i16(src) {
        count_call();
        let mut rows16 = scratch::take_i16(pix * ckk);
        im2row_i16(src, in_c, (h, wd), spec, &mut rows16);
        wx_dot(level, w.out_dim, ckk, pix, &w.rows16, &rows16, c);
        scratch::put_i16(rows16);
        return;
    }
    // im2col + axpy: the scalar reference route, and the wide-count route at
    // every level (`igemm_wx` takes `vpmulld` on AVX2); it counts the call.
    let mut cols = scratch::take_i32(ckk * pix);
    im2col_i32(src, in_c, (h, wd), spec, &mut cols);
    igemm_wx(w.out_dim, ckk, pix, w, &cols, c);
    scratch::put_i32(cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[i32], codes: &[i32]) -> Vec<i32> {
        // codes in [out, in] = [n, k] layout, matching try_pack's input.
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * k + kk] * codes[j * k + kk];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn pseudo(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn igemm_matches_naive_on_odd_shapes() {
        let mut seed = 7u64;
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 17, 33), (70, 70, 70), (1, 400, 10)] {
            let a: Vec<i32> = (0..m * k).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
            let codes: Vec<i32> =
                (0..n * k).map(|_| (pseudo(&mut seed) % 17) as i32 - 8).collect();
            let packed = PackedCodes::try_pack(&codes, n, k).expect("codes fit i8");
            let mut c = vec![0i32; m * n];
            igemm(m, k, n, &a, &packed, &mut c);
            assert_eq!(c, naive(m, k, n, &a, &codes), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn igemm_accumulates_into_c() {
        let codes = vec![1, 0, 0, 1]; // identity, [out=2, in=2]
        let packed = PackedCodes::try_pack(&codes, 2, 2).unwrap();
        let a = vec![2, 3];
        let mut c = vec![10, -10];
        igemm(1, 2, 2, &a, &packed, &mut c);
        assert_eq!(c, vec![12, -7]);
    }

    #[test]
    fn parallel_igemm_identical_to_serial() {
        let mut seed = 13u64;
        let (m, k, n) = (128, 32, 100);
        let a: Vec<i32> = (0..m * k).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
        let codes: Vec<i32> = (0..n * k).map(|_| (pseudo(&mut seed) % 17) as i32 - 8).collect();
        let packed = PackedCodes::try_pack(&codes, n, k).unwrap();
        let mut serial = vec![0i32; m * n];
        crate::parallel::with_num_threads(1, || igemm(m, k, n, &a, &packed, &mut serial));
        for threads in [2, 3, 8] {
            let mut par = vec![0i32; m * n];
            crate::parallel::with_num_threads(threads, || igemm(m, k, n, &a, &packed, &mut par));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn pack_rejects_codes_outside_i8() {
        assert!(PackedCodes::try_pack(&[127, -128], 2, 1).is_some());
        assert!(PackedCodes::try_pack(&[128, 0], 2, 1).is_none());
        assert!(PackedCodes::try_pack(&[0, -129], 2, 1).is_none());
    }

    #[test]
    fn pack_transposes_layout() {
        // [out=2, in=3]: row 0 = [1,2,3], row 1 = [4,5,6].
        let packed = PackedCodes::try_pack(&[1, 2, 3, 4, 5, 6], 2, 3).unwrap();
        // [in, out] layout: data[i*2 + j] = codes[j*3 + i].
        assert_eq!(packed.data, vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(packed.max_abs_accum(1), 15); // col 1: 4+5+6
    }

    #[test]
    fn im2row_matches_im2col_transposed() {
        use crate::conv::im2col;
        use crate::tensor::Tensor;
        for &(c, h, w, k, stride, pad) in
            &[(1, 3, 3, 2, 1, 0), (2, 5, 4, 3, 1, 1), (3, 6, 6, 3, 2, 2)]
        {
            let spec = Conv2dSpec::new(k, stride, pad);
            let mut seed = 3u64;
            let src: Vec<i32> = (0..c * h * w).map(|_| (pseudo(&mut seed) % 9) as i32).collect();
            let x = Tensor::from_vec(src.iter().map(|&v| v as f32).collect(), [1, c, h, w]);
            let cols = im2col(&x, spec); // [c·k·k, oh·ow]
            let (ckk, pix) = (cols.dims()[0], cols.dims()[1]);
            let mut rows = vec![0i16; pix * ckk];
            im2row_i16(&src, c, (h, w), spec, &mut rows);
            for r in 0..ckk {
                for p in 0..pix {
                    assert_eq!(
                        rows[p * ckk + r] as f32,
                        cols.as_slice()[r * pix + p],
                        "c={c} h={h} w={w} k={k} s={stride} pad={pad} tap={r} pix={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn igemm_wx_matches_naive_transposed() {
        let mut seed = 17u64;
        for &(out, k, pix) in &[(1, 1, 1), (3, 25, 784), (8, 75, 100), (16, 64, 33)] {
            let x: Vec<i32> = (0..k * pix).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
            let codes: Vec<i32> =
                (0..out * k).map(|_| (pseudo(&mut seed) % 17) as i32 - 8).collect();
            let packed = PackedCodes::try_pack(&codes, out, k).expect("codes fit i8");
            let mut c = vec![0i32; out * pix];
            igemm_wx(out, k, pix, &packed, &x, &mut c);
            for f in 0..out {
                for p in 0..pix {
                    let expect: i32 = (0..k).map(|kk| codes[f * k + kk] * x[kk * pix + p]).sum();
                    assert_eq!(c[f * pix + p], expect, "out={out} k={k} pix={pix} f={f} p={p}");
                }
            }
        }
    }

    #[test]
    fn igemm_wx_parallel_matches_serial_on_sparse_codes() {
        let mut seed = 19u64;
        let (out, k, pix) = (16, 50, 128);
        let x: Vec<i32> = (0..k * pix).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
        // Mostly-zero codes, like clustered weights.
        let codes: Vec<i32> = (0..out * k)
            .map(|i| if i % 4 != 0 { 0 } else { (pseudo(&mut seed) % 9) as i32 - 4 })
            .collect();
        let packed = PackedCodes::try_pack(&codes, out, k).unwrap();
        let mut serial = vec![0i32; out * pix];
        crate::parallel::with_num_threads(1, || igemm_wx(out, k, pix, &packed, &x, &mut serial));
        for threads in [2, 3, 8] {
            let mut par = vec![0i32; out * pix];
            crate::parallel::with_num_threads(threads, || {
                igemm_wx(out, k, pix, &packed, &x, &mut par)
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn im2col_i32_matches_f32_im2col() {
        use crate::conv::im2col;
        use crate::tensor::Tensor;
        for &(c, h, w, k, stride, pad) in
            &[(1, 3, 3, 2, 1, 0), (2, 5, 4, 3, 1, 1), (3, 6, 6, 3, 2, 2), (1, 28, 28, 5, 1, 2)]
        {
            let spec = Conv2dSpec::new(k, stride, pad);
            let mut seed = 5u64;
            let src: Vec<i32> = (0..c * h * w).map(|_| (pseudo(&mut seed) % 9) as i32).collect();
            let x = Tensor::from_vec(src.iter().map(|&v| v as f32).collect(), [1, c, h, w]);
            let expect = im2col(&x, spec); // [c·k·k, oh·ow]
            let mut cols = vec![0i32; expect.as_slice().len()];
            im2col_i32(&src, c, (h, w), spec, &mut cols);
            let got: Vec<f32> = cols.iter().map(|&v| v as f32).collect();
            assert_eq!(got, expect.as_slice(), "c={c} h={h} w={w} k={k} s={stride} pad={pad}");
        }
    }
}
