//! Bit-identity of every SIMD micro-kernel against the scalar serial oracle.
//!
//! The SIMD dispatch contract is absolute: whatever [`SimdLevel`] resolves —
//! forced scalar, SSE2 baseline, or AVX2 — the integer GEMMs produce the
//! same `i32` words and the f32 GEMM the same bit patterns, at any thread
//! count. These properties drive adversarial shapes (0, 1, and
//! non-multiples of the 8/16-lane widths), operands at the i8 coding
//! extremes ±127, spike counts at the saturation ceiling 255, counts past
//! `i16::MAX` (exercising the widening fallback), operands from dense to
//! 95% zero (quantized ReLU counts and clustered weights are often mostly
//! zero), and deliberately unaligned subslices, and pin every available
//! level against a scalar single-threaded run of the same entry point —
//! or, for `igemm_conv`, against a direct convolution written from the
//! definition, since the scalar conv shares the `im2col` lowering.

use proptest::prelude::*;
use qsnc_tensor::{
    gemm, gemm_serial, igemm, igemm_conv, igemm_wx, parallel, simd, Conv2dSpec, PackedCodes,
    SimdLevel,
};
use rand::{Rng, SeedableRng};

/// SIMD levels above scalar that this machine can actually execute.
fn hw_levels() -> Vec<SimdLevel> {
    let top = simd::detected_simd();
    [SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

/// Every SIMD level this machine can execute, scalar included.
fn all_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    levels.extend(hw_levels());
    levels
}

/// Convolution written from the definition, sharing no lowering with the
/// code under test: `out[f, oy, ox] = Σ_{ic,ky,kx} code[f, ic, ky, kx] ·
/// src[ic, oy·s + ky − p, ox·s + kx − p]`, taps outside the image reading
/// zero. Codes are in `[out, in_c·k·k]` layout, the output `[out, oh·ow]`.
fn direct_conv(
    src: &[i32],
    in_c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    codes: &[i32],
    out_c: usize,
) -> Vec<i32> {
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding as isize);
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    let mut out = vec![0i32; out_c * oh * ow];
    for f in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for ic in 0..in_c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * s + ky) as isize - p;
                            let ix = (ox * s + kx) as isize - p;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            let x = src[(ic * h + iy as usize) * w + ix as usize];
                            let code = codes[f * in_c * k * k + (ic * k + ky) * k + kx];
                            acc = acc.wrapping_add(code.wrapping_mul(x));
                        }
                    }
                }
                out[(f * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

/// Draws `len` values from `value`, replacing each with zero with
/// probability `zero_pct`%.
fn sparse<T: Default>(
    len: usize,
    zero_pct: u32,
    rng: &mut rand::rngs::StdRng,
    mut value: impl FnMut(&mut rand::rngs::StdRng) -> T,
) -> Vec<T> {
    (0..len)
        .map(|_| if rng.gen_range(0u32..100) < zero_pct { T::default() } else { value(rng) })
        .collect()
}

/// Spike-count matrix in `0..=255`, `zero_pct`% zeros, with the extremes
/// forced into the leading slots, so every run covers the saturation
/// ceiling and zero.
fn counts(len: usize, zero_pct: u32, rng: &mut rand::rngs::StdRng) -> Vec<i32> {
    let mut v = sparse(len, zero_pct, rng, |r| r.gen_range(0..=255));
    if len > 0 {
        v[0] = 255;
    }
    if len > 1 {
        v[1] = 0;
    }
    v
}

/// Weight codes in `-127..=127`, `zero_pct`% zeros, with both extremes
/// forced in.
fn codes(len: usize, zero_pct: u32, rng: &mut rand::rngs::StdRng) -> Vec<i32> {
    let mut v = sparse(len, zero_pct, rng, |r| r.gen_range(-127..=127));
    if len > 0 {
        v[0] = 127;
    }
    if len > 1 {
        v[1] = -127;
    }
    v
}

/// Copies `data` into a fresh buffer at byte offset `1 × size_of::<T>()`
/// from the allocation start, returning the buffer; slicing `[1..]` yields
/// a view that is guaranteed not to share the Vec's natural alignment
/// phase, so the kernels' unaligned loads/stores are actually exercised.
fn offset_copy<T: Copy + Default>(data: &[T]) -> Vec<T> {
    let mut buf = vec![T::default(); data.len() + 1];
    buf[1..].copy_from_slice(data);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn igemm_matches_scalar_at_every_level_and_thread_count(
        // Spans 0, 1, and non-multiples of the 8- and 16-lane widths.
        m in 0usize..35, k in 0usize..35, n in 0usize..19,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = counts(m * k, zero_pct, &mut rng);
        let w = codes(n * k, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || igemm(m, k, n, &a, &packed, &mut oracle));
        });

        for level in hw_levels() {
            for threads in [1usize, 4] {
                let mut c = vec![0i32; m * n];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        igemm(m, k, n, &a, &packed, &mut c)
                    });
                });
                prop_assert_eq!(
                    &c, &oracle,
                    "igemm diverged at {:?} x {} threads (m={} k={} n={})",
                    level, threads, m, k, n
                );
            }
        }
    }

    #[test]
    fn igemm_wx_matches_scalar_at_every_level_and_thread_count(
        out_dim in 0usize..19, k in 0usize..35, pix in 0usize..35,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = counts(k * pix, zero_pct, &mut rng);
        let w = codes(out_dim * k, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&w, out_dim, k).expect("codes fit i8");

        let mut oracle = vec![0i32; out_dim * pix];
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || {
                igemm_wx(out_dim, k, pix, &packed, &x, &mut oracle)
            });
        });

        for level in hw_levels() {
            for threads in [1usize, 4] {
                let mut c = vec![0i32; out_dim * pix];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        igemm_wx(out_dim, k, pix, &packed, &x, &mut c)
                    });
                });
                prop_assert_eq!(
                    &c, &oracle,
                    "igemm_wx diverged at {:?} x {} threads (out={} k={} pix={})",
                    level, threads, out_dim, k, pix
                );
            }
        }
    }

    #[test]
    fn igemm_conv_matches_direct_conv_at_every_level(
        // The engine's real geometry: LeNet conv1 is k5 p2, `in_c · k²`
        // takes both parities of the pair tail, and padding reaches
        // `kernel − 1`.
        in_c in 1usize..=4, h in 1usize..10, w in 1usize..10,
        kernel in 1usize..=5, stride in 1usize..=3, pad_draw in 0usize..5,
        out_c in 1usize..9,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let padding = pad_draw % kernel;
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let ckk = in_c * kernel * kernel;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let src = counts(in_c * h * w, zero_pct, &mut rng);
        let wcodes = codes(out_c * ckk, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&wcodes, out_c, ckk).expect("codes fit i8");
        let oracle = direct_conv(&src, in_c, (h, w), spec, &wcodes, out_c);

        for level in all_levels() {
            for threads in [1usize, 4] {
                let mut c = vec![0i32; oracle.len()];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        igemm_conv(&src, in_c, (h, w), spec, &packed, &mut c)
                    });
                });
                prop_assert_eq!(
                    &c, &oracle,
                    "igemm_conv diverged at {:?} x {} threads ({}x{}x{} k{} s{} p{})",
                    level, threads, in_c, h, w, kernel, stride, padding
                );
            }
        }
    }

    #[test]
    fn conv_counts_past_i16_fall_back_bit_identically(
        // An image value past i16::MAX must send igemm_conv down the wide
        // `im2col` + `vpmulld` route at AVX2 (and off the `im2row` dot
        // route at SSE2), with the same words as the direct convolution.
        in_c in 1usize..=3, h in 2usize..8, w in 2usize..8,
        kernel in 1usize..=3, padding in 0usize..2, out_c in 1usize..6,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let spec = Conv2dSpec::new(kernel, 1, padding);
        let ckk = in_c * kernel * kernel;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut src = sparse(in_c * h * w, zero_pct, &mut rng, |r| r.gen_range(0..=40_000));
        let hot = rng.gen_range(0..src.len());
        src[hot] = 40_000; // definitely > i16::MAX
        let wcodes = codes(out_c * ckk, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&wcodes, out_c, ckk).expect("codes fit i8");
        let oracle = direct_conv(&src, in_c, (h, w), spec, &wcodes, out_c);
        for level in all_levels() {
            let mut c = vec![0i32; oracle.len()];
            simd::with_simd_level(level, || igemm_conv(&src, in_c, (h, w), spec, &packed, &mut c));
            prop_assert_eq!(&c, &oracle, "wide-count conv diverged at {:?}", level);
        }
    }

    #[test]
    fn counts_past_i16_fall_back_bit_identically(
        // Values beyond i16::MAX cannot take the widened SIMD path; the
        // kernels must detect that per call and the scalar fallback must
        // agree with the forced-scalar oracle exactly.
        m in 1usize..8, k in 1usize..8, n in 1usize..8,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = sparse(m * k, zero_pct, &mut rng, |r| r.gen_range(0..=40_000));
        a[0] = 40_000; // definitely > i16::MAX
        let w = codes(n * k, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            igemm(m, k, n, &a, &packed, &mut oracle)
        });
        for level in hw_levels() {
            let mut c = vec![0i32; m * n];
            simd::with_simd_level(level, || igemm(m, k, n, &a, &packed, &mut c));
            prop_assert_eq!(&c, &oracle, "i16 fallback diverged at {:?}", level);
        }
    }

    #[test]
    fn unaligned_subslices_are_bit_identical(
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = counts(m * k, zero_pct, &mut rng);
        let w = codes(n * k, zero_pct, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            igemm(m, k, n, &a, &packed, &mut oracle)
        });

        // Shift the count matrix and the output off the Vec's natural
        // alignment: the kernels take arbitrary slices and must not assume
        // 16/32-byte alignment anywhere.
        let a_buf = offset_copy(&a);
        for level in hw_levels() {
            let mut c_buf = vec![0i32; m * n + 1];
            simd::with_simd_level(level, || {
                igemm(m, k, n, &a_buf[1..], &packed, &mut c_buf[1..])
            });
            prop_assert_eq!(&c_buf[1..], &oracle[..], "unaligned igemm diverged at {:?}", level);
        }
    }

    #[test]
    fn f32_gemm_is_bitwise_identical_across_levels_and_threads(
        m in 0usize..22, k in 0usize..22, n in 0usize..22,
        seed in 0u64..10_000, zero_pct in 0u32..=95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = sparse(m * k, zero_pct, &mut rng, |r| r.gen_range(-2.0f32..2.0));
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        // Non-zero starting output with a signed zero forced in: every level
        // must add into `c` in the same order, not overwrite it.
        let mut c0: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        if let Some(first) = c0.first_mut() {
            *first = -0.0;
        }

        let mut oracle = c0.clone();
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || gemm(m, k, n, &a, &b, &mut oracle));
        });

        for level in hw_levels() {
            for threads in [1usize, 3] {
                let mut c = c0.clone();
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || gemm(m, k, n, &a, &b, &mut c));
                });
                for (i, (&x, &y)) in c.iter().zip(oracle.iter()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "gemm[{}] diverged at {:?} x {} threads: {} vs {}",
                        i, level, threads, x, y
                    );
                }
            }
            // The serial entry point shares the same micro-kernels.
            let mut c = c0.clone();
            simd::with_simd_level(level, || gemm_serial(m, k, n, &a, &b, &mut c));
            for (&x, &y) in c.iter().zip(oracle.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

/// Deterministic spot check that the AVX2 pair and SSE2 `im2row`
/// lowerings compute the scalar arithmetic: an asymmetric LeNet-like shape,
/// accumulation into a non-zero output (the GEMMs add into `c`).
#[test]
fn conv_simd_accumulates_like_scalar() {
    let (in_c, h, w, out_c) = (3usize, 12usize, 10usize, 16usize);
    let spec = Conv2dSpec::new(5, 1, 2);
    let pix = spec.output_size(h) * spec.output_size(w);
    let ckk = in_c * spec.kernel * spec.kernel;

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let src = counts(in_c * h * w, 0, &mut rng);
    let wcodes = codes(out_c * ckk, 0, &mut rng);
    let packed = PackedCodes::try_pack(&wcodes, out_c, ckk).expect("codes fit i8");

    // Non-zero starting accumulator: both paths must add, not overwrite.
    let bias: Vec<i32> = (0..out_c * pix).map(|i| (i as i32 % 97) - 48).collect();

    let mut oracle = bias.clone();
    simd::with_simd_level(SimdLevel::Scalar, || {
        igemm_conv(&src, in_c, (h, w), spec, &packed, &mut oracle)
    });
    for level in hw_levels() {
        let mut c = bias.clone();
        simd::with_simd_level(level, || {
            igemm_conv(&src, in_c, (h, w), spec, &packed, &mut c)
        });
        assert_eq!(c, oracle, "accumulating conv diverged at {level:?}");
    }
}
