//! AVX butterfly kernels for the FFT plans (DESIGN.md §17).
//!
//! These kernels exist because the radix-4 inner loop is an
//! array-of-structs complex multiply — a shape LLVM's autovectorizer
//! handles poorly (it scalarizes the shuffle between the `re`/`im`
//! lanes). Hand-written AVX closes that gap while staying **bitwise
//! identical** to the scalar kernels in [`crate::plan`]:
//!
//! * Only `mul`/`add`/`sub`/`addsub` vector instructions are used —
//!   never FMA, whose fused rounding would change results.
//! * The complex product is assembled as
//!   `(x.re·t.re − x.im·t.im, x.re·t.im + x.im·t.re)` — the *exact*
//!   expressions (operands and order) of `Cpx::mul` —
//!   by duplicating the data lanes and swapping the twiddle lanes, so
//!   each output element is produced by the same IEEE 754 operation
//!   sequence as the scalar path. `vaddsubpd` subtracts in even lanes
//!   and adds in odd lanes, which is precisely the re/im split.
//! * Butterfly adds/subs map one-to-one onto `vaddpd`/`vsubpd`.
//!
//! Dispatch is runtime-checked ([`avx_available`], cached by
//! `std::arch`'s feature-detection atomics) with the scalar loops as the
//! universal fallback, so plans behave identically — bit for bit — on
//! every host. The `unsafe` here is confined to (a) the `avx`
//! target-feature contract, discharged by the runtime check, and (b)
//! reinterpreting `&[Cpx]` as packed scalars, discharged by the
//! `repr(C)` layout of [`Cpx`].

#![cfg(target_arch = "x86_64")]
// `usize::is_multiple_of` needs Rust 1.87; the workspace declares
// rust-version 1.75, so the debug asserts keep the manual `%` form.
#![allow(clippy::manual_is_multiple_of)]

use crate::num::Cpx;
use core::arch::x86_64::*;

/// Whether the AVX kernels may run on this host. The detection macro
/// caches its CPUID probe, so calling this per stage is free.
#[inline]
pub fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// Packed complex multiply `x * t` for two f64 pairs: the exact scalar
/// expressions of `Cpx::mul` per pair (see module docs).
#[inline]
#[target_feature(enable = "avx")]
unsafe fn cmul_pd(x: __m256d, t: __m256d) -> __m256d {
    let x_re = _mm256_movedup_pd(x); // (x.re, x.re) per pair
    let x_im = _mm256_permute_pd(x, 0b1111); // (x.im, x.im) per pair
    let t_swap = _mm256_permute_pd(t, 0b0101); // (t.im, t.re) per pair
    let p1 = _mm256_mul_pd(x_re, t); // (x.re·t.re, x.re·t.im)
    let p2 = _mm256_mul_pd(x_im, t_swap); // (x.im·t.im, x.im·t.re)
    _mm256_addsub_pd(p1, p2) // (p1 − p2, p1 + p2) per lane pair
}

/// One radix-2 stage of span `len` over `data`.
///
/// # Safety
/// Caller must ensure AVX is available, `len` is a power of two with
/// `len/2 ≥ 2`, `data.len()` is a multiple of `len`, and `tw` holds the
/// stage's `len/2` twiddles.
#[target_feature(enable = "avx")]
pub unsafe fn radix2_stage_pd(data: &mut [Cpx], tw: &[Cpx], len: usize) {
    let half = len / 2;
    debug_assert!(half >= 2 && tw.len() == half && data.len() % len == 0);
    let tw_p = tw.as_ptr() as *const f64;
    for block in data.chunks_exact_mut(len) {
        let (lo, hi) = block.split_at_mut(half);
        let lo_p = lo.as_mut_ptr() as *mut f64;
        let hi_p = hi.as_mut_ptr() as *mut f64;
        for k in (0..half).step_by(2) {
            let i = 2 * k;
            let u = _mm256_loadu_pd(lo_p.add(i));
            let v = _mm256_loadu_pd(hi_p.add(i));
            let t = _mm256_loadu_pd(tw_p.add(i));
            let b = cmul_pd(v, t);
            _mm256_storeu_pd(lo_p.add(i), _mm256_add_pd(u, b));
            _mm256_storeu_pd(hi_p.add(i), _mm256_sub_pd(u, b));
        }
    }
}

/// Two fused radix-2 stages (spans `len` and `2·len`) over `data` — the
/// vector twin of `FftPlan::radix4_pair`'s scalar loop.
///
/// # Safety
/// Caller must ensure AVX is available, `len/2 ≥ 2`, `data.len()` is a
/// multiple of `2·len`, `twa` holds the `len`-stage's `len/2` twiddles
/// and `tb_lo`/`tb_hi` the low/high halves of the `2·len`-stage's.
#[target_feature(enable = "avx")]
pub unsafe fn radix4_pair_pd(
    data: &mut [Cpx],
    twa: &[Cpx],
    tb_lo: &[Cpx],
    tb_hi: &[Cpx],
    len: usize,
) {
    let half = len / 2;
    debug_assert!(half >= 2 && twa.len() == half && tb_lo.len() == half && tb_hi.len() == half);
    debug_assert!(data.len() % (2 * len) == 0);
    let ta_p = twa.as_ptr() as *const f64;
    let tl_p = tb_lo.as_ptr() as *const f64;
    let th_p = tb_hi.as_ptr() as *const f64;
    for block in data.chunks_exact_mut(2 * len) {
        let p = block.as_mut_ptr() as *mut f64;
        let x0 = p;
        let x1 = p.add(2 * half);
        let x2 = p.add(4 * half);
        let x3 = p.add(6 * half);
        for k in (0..half).step_by(2) {
            let i = 2 * k;
            let ta = _mm256_loadu_pd(ta_p.add(i));
            let u0 = _mm256_loadu_pd(x0.add(i));
            let v0 = cmul_pd(_mm256_loadu_pd(x1.add(i)), ta);
            let u1 = _mm256_loadu_pd(x2.add(i));
            let v1 = cmul_pd(_mm256_loadu_pd(x3.add(i)), ta);
            let a = _mm256_add_pd(u0, v0);
            let c = _mm256_sub_pd(u0, v0);
            let e = _mm256_add_pd(u1, v1);
            let g = _mm256_sub_pd(u1, v1);
            let eb = cmul_pd(e, _mm256_loadu_pd(tl_p.add(i)));
            let gb = cmul_pd(g, _mm256_loadu_pd(th_p.add(i)));
            _mm256_storeu_pd(x0.add(i), _mm256_add_pd(a, eb));
            _mm256_storeu_pd(x2.add(i), _mm256_sub_pd(a, eb));
            _mm256_storeu_pd(x1.add(i), _mm256_add_pd(c, gb));
            _mm256_storeu_pd(x3.add(i), _mm256_sub_pd(c, gb));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar twins of the kernels above, written exactly like the
    /// `FftPlan` loops — the SIMD paths must match them bit for bit.
    fn radix2_scalar(data: &mut [Cpx], tw: &[Cpx], len: usize) {
        let half = len / 2;
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), t) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                let a = *u;
                let b = *v * *t;
                *u = a + b;
                *v = a - b;
            }
        }
    }

    fn radix4_scalar(data: &mut [Cpx], twa: &[Cpx], tb_lo: &[Cpx], tb_hi: &[Cpx], len: usize) {
        let half = len / 2;
        for block in data.chunks_exact_mut(2 * len) {
            let (x01, x23) = block.split_at_mut(len);
            let (x0, x1) = x01.split_at_mut(half);
            let (x2, x3) = x23.split_at_mut(half);
            for k in 0..half {
                let ta = twa[k];
                let u0 = x0[k];
                let v0 = x1[k] * ta;
                let u1 = x2[k];
                let v1 = x3[k] * ta;
                let a = u0 + v0;
                let c = u0 - v0;
                let e = u1 + v1;
                let g = u1 - v1;
                let eb = e * tb_lo[k];
                let gb = g * tb_hi[k];
                x0[k] = a + eb;
                x2[k] = a - eb;
                x1[k] = c + gb;
                x3[k] = c - gb;
            }
        }
    }

    fn twiddles(len: usize) -> Vec<Cpx> {
        (0..len / 2)
            .map(|k| Cpx::cis(-2.0 * std::f64::consts::PI * k as f64 / len as f64))
            .collect()
    }

    #[test]
    fn avx_radix2_matches_scalar_bitwise() {
        if !avx_available() {
            return;
        }
        for len in [4usize, 8, 64, 512] {
            let tw = twiddles(len);
            let base: Vec<Cpx> = (0..4 * len)
                .map(|i| Cpx::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut scalar = base.clone();
            radix2_scalar(&mut scalar, &tw, len);
            let mut vector = base;
            unsafe { radix2_stage_pd(&mut vector, &tw, len) };
            assert_eq!(scalar, vector, "len={len}");
        }
    }

    #[test]
    fn avx_radix4_matches_scalar_bitwise() {
        if !avx_available() {
            return;
        }
        for len in [4usize, 16, 128, 1024] {
            let twa = twiddles(len);
            let twb = twiddles(2 * len);
            let (tb_lo, tb_hi) = twb.split_at(len / 2);
            let base: Vec<Cpx> = (0..4 * len)
                .map(|i| Cpx::new((i as f64 * 1.1).sin(), (i as f64 * 0.9).cos()))
                .collect();
            let mut scalar = base.clone();
            radix4_scalar(&mut scalar, &twa, tb_lo, tb_hi, len);
            let mut vector = base;
            unsafe { radix4_pair_pd(&mut vector, &twa, tb_lo, tb_hi, len) };
            assert_eq!(scalar, vector, "len={len}");
        }
    }
}
