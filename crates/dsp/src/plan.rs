//! Precomputed FFT plans and the thread-local plan cache.
//!
//! The free functions in [`crate::fft`] historically recomputed twiddle
//! factors and the bit-reversal permutation on every call and allocated a
//! fresh output buffer each time. Every Monte-Carlo trial in the workspace
//! runs dozens of transforms of a handful of fixed sizes (the range FFT,
//! the STFT frame length, Bluestein's convolution length), so the same
//! tables were being rebuilt millions of times per sweep.
//!
//! An [`FftPlan`] precomputes, per power-of-two size:
//! * the per-stage twiddle factors (`n − 1` complex values, laid out
//!   stage-major so the butterfly loop reads them sequentially),
//! * the bit-reversal permutation,
//!
//! and a [`BluesteinPlan`] additionally caches the chirp-z kernel and the
//! forward transform of its convolution filter for arbitrary (non-power-
//! of-two) lengths — eliminating one of the three internal FFTs and the
//! kernel synthesis per call.
//!
//! Execution fuses radix-2 stage pairs into radix-4 passes over four
//! equal-length slice lanes (bounds-check-free, autovectorizable) and
//! tiles the low stages to L1. Every fused pass performs exactly the
//! floating-point expressions of the two radix-2 stages it replaces, so
//! the fast path is **bitwise identical** to the plain radix-2 reference
//! (pinned by golden-vector tests). True split-radix was evaluated and
//! rejected: its rearranged twiddle algebra changes rounding, which
//! would break the bitwise contract the rest of the workspace is pinned
//! against. See `DESIGN.md` §17.
//!
//! [`with_plan`] and the Bluestein path of [`crate::fft`] memoize plans in a thread-local cache
//! keyed by size, so callers never manage plan lifetimes; the free
//! functions in [`crate::fft`] are now thin wrappers over this module and
//! produce bitwise-identical results to explicit plan usage.

use crate::num::{Cpx, ZERO};
use milback_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::rc::Rc;

/// A reusable radix-2 FFT plan for one power-of-two length.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Stage-major twiddles: for `len = 2, 4, …, n`, the factors
    /// `exp(-j·2π·k/len)` for `k ∈ [0, len/2)`, concatenated.
    twiddles: Vec<Cpx>,
    /// Bit-reversal permutation of `0..n`.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Builds a plan for length `n`.
    ///
    /// ```
    /// use milback_dsp::num::Cpx;
    /// use milback_dsp::plan::FftPlan;
    ///
    /// let plan = FftPlan::new(16);
    /// let x: Vec<Cpx> = (0..16).map(|i| Cpx::cis(i as f64 * 0.3)).collect();
    /// let back = plan.inverse(&plan.forward(&x));
    /// for (a, b) in x.iter().zip(&back) {
    ///     assert!((*a - *b).abs() < 1e-12);
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            crate::fft::is_pow2(n),
            "FftPlan requires a power-of-two length, got {n}"
        );
        assert!(n <= u32::MAX as usize, "FFT length {n} too large for plan");
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for k in 0..half {
                twiddles.push(Cpx::cis(-2.0 * PI * k as f64 / len as f64));
            }
            len <<= 1;
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Self {
            n,
            twiddles,
            bitrev,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the trivial length-0/1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Butterfly tile size in complex elements (16 KiB of `Cpx`): stages
    /// whose span fits the tile are run to completion per tile so the
    /// working set stays L1-resident, before the large-stride stages walk
    /// the whole buffer. Pure loop interchange over independent
    /// butterflies — bitwise identical to the untiled order.
    const TILE: usize = 1024;

    /// In-place unnormalized forward DFT.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward_in_place(&self, data: &mut [Cpx]) {
        telemetry::observe("dsp.fft.size", self.n as u64);
        self.transform_in_place(data);
    }

    /// [`FftPlan::forward_in_place`] without the `dsp.fft.size` sample:
    /// the building block of the public transforms, each of which
    /// records exactly one sample (Bluestein's internal convolution
    /// transforms are part of its own one).
    fn transform_in_place(&self, data: &mut [Cpx]) {
        assert_eq!(data.len(), self.n, "buffer length != plan length");
        if self.n <= 1 {
            return;
        }
        // Bit-reversal permutation from the precomputed table.
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        self.butterflies(data);
    }

    /// All butterfly stages on bit-reversed data: L1-tiled low stages,
    /// then the large-stride tail over the full buffer.
    fn butterflies(&self, data: &mut [Cpx]) {
        let n = self.n;
        if n > Self::TILE {
            for chunk in data.chunks_exact_mut(Self::TILE) {
                self.stages(chunk, 2, Self::TILE);
            }
            self.stages(data, 2 * Self::TILE, n);
        } else {
            self.stages(data, 2, n);
        }
    }

    /// Runs butterfly stages `from_len, 2·from_len, …, to_len` over `data`
    /// (whose length must be a multiple of `to_len`). Stages are fused in
    /// pairs into radix-4 passes; an odd stage count leads with a single
    /// radix-2 pass so the fused kernel always sees aligned pairs.
    fn stages(&self, data: &mut [Cpx], from_len: usize, to_len: usize) {
        let n_stages = (to_len.trailing_zeros() + 1 - from_len.trailing_zeros()) as usize;
        let mut len = from_len;
        if n_stages % 2 == 1 {
            self.radix2_stage(data, len);
            len <<= 1;
        }
        while len <= to_len {
            self.radix4_pair(data, len);
            len <<= 2;
        }
    }

    /// One radix-2 stage of span `len`. The block is split into two
    /// equal-length halves so the inner loop is a pure three-slice zip —
    /// no bounds checks, and a shape LLVM autovectorizes.
    fn radix2_stage(&self, data: &mut [Cpx], len: usize) {
        let half = len / 2;
        // Stage-major layout: stage `len` starts at offset `len/2 − 1`.
        let tw = &self.twiddles[half - 1..len - 1];
        // AVX path: two complex pairs per vector, bitwise identical to
        // the scalar loop below (see crate::simd module docs).
        #[cfg(target_arch = "x86_64")]
        if half >= 2 && crate::simd::avx_available() {
            // SAFETY: AVX checked above; `half` is even (≥2 and a power
            // of two), data length is a multiple of `len`, and `tw` has
            // exactly `half` twiddles.
            unsafe { crate::simd::radix2_stage_pd(data, tw, len) };
            return;
        }
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

    /// Two consecutive radix-2 stages (`len` and `2·len`) fused into one
    /// radix-4 pass. Each `2·len` block is split into four `len/2` lanes;
    /// every iteration performs exactly the floating-point expressions the
    /// two separate stages would (same operands, same order), so results
    /// are bitwise identical to the radix-2 reference — the win is one
    /// memory pass instead of two plus a four-lane body that keeps more
    /// independent FP chains in flight. Equal-length lane slices keep the
    /// inner loop free of bounds checks (verified: no panicking branches
    /// in the release asm for the loop body).
    fn radix4_pair(&self, data: &mut [Cpx], len: usize) {
        let half = len / 2;
        let twa = &self.twiddles[half - 1..len - 1];
        let twb = &self.twiddles[len - 1..2 * len - 1];
        let (tb_lo, tb_hi) = twb.split_at(half);
        // AVX path — bitwise identical (crate::simd module docs).
        #[cfg(target_arch = "x86_64")]
        if half >= 2 && crate::simd::avx_available() {
            // SAFETY: AVX checked above; `half` is even, data length is
            // a multiple of `2·len`, and each twiddle slice has `half`
            // elements.
            unsafe { crate::simd::radix4_pair_pd(data, twa, tb_lo, tb_hi, len) };
            return;
        }
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
                // First stage: (a, c) and (e, g) are the radix-2 outputs
                // of the two len-sized sub-blocks.
                let a = u0 + v0;
                let c = u0 - v0;
                let e = u1 + v1;
                let g = u1 - v1;
                // Second stage across the sub-blocks.
                let eb = e * tb_lo[k];
                let gb = g * tb_hi[k];
                x0[k] = a + eb;
                x2[k] = a - eb;
                x1[k] = c + gb;
                x3[k] = c - gb;
            }
        }
    }

    /// In-place inverse DFT including the `1/N` normalization, via the
    /// conjugation identity `IDFT(x) = conj(DFT(conj(x)))/N`.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse_in_place(&self, data: &mut [Cpx]) {
        assert_eq!(data.len(), self.n, "buffer length != plan length");
        if self.n == 0 {
            return;
        }
        telemetry::observe("dsp.fft.size", self.n as u64);
        for c in data.iter_mut() {
            *c = c.conj();
        }
        self.transform_in_place(data);
        let inv_n = 1.0 / self.n as f64;
        for c in data.iter_mut() {
            *c = c.conj() * inv_n;
        }
    }

    /// Forward DFT into a caller-owned buffer: `out` is overwritten with
    /// the spectrum of `input`, reusing its capacity. After warmup (once
    /// `out` has grown to the plan length) this performs no heap
    /// allocation. Bitwise identical to [`FftPlan::forward`].
    ///
    /// Unlike the in-place path, the input is gathered *directly in
    /// bit-reversed order* (the permutation is an involution, so the
    /// gather produces exactly what copy-then-swap did) — one pass over
    /// the data instead of a copy pass plus a swap pass. This is what
    /// fixed the BENCH_3 `forward_into` regression at 16384 points.
    pub fn forward_into(&self, input: &[Cpx], out: &mut Vec<Cpx>) {
        assert_eq!(input.len(), self.n, "buffer length != plan length");
        telemetry::observe("dsp.fft.size", self.n as u64);
        out.clear();
        if self.n <= 1 {
            out.extend_from_slice(input);
            return;
        }
        out.extend(self.bitrev.iter().map(|&j| input[j as usize]));
        self.butterflies(out);
    }

    /// Forward DFT of `input` scaled sample by sample by `window` and
    /// zero-padded to the plan length, into a caller-owned buffer.
    ///
    /// Bitwise identical to multiplying `input` by `window` in place,
    /// resizing it to the plan length with zeros and calling
    /// [`FftPlan::forward_in_place`]. As in [`FftPlan::forward_into`],
    /// the windowed samples are gathered straight into bit-reversed
    /// order, with zeros at every index past the input: one pass
    /// instead of a window copy, a padding fill and a swap pass. Records
    /// one `dsp.fft.size` sample.
    ///
    /// # Panics
    /// Panics if `input` is longer than the plan or `window` is not as
    /// long as `input`.
    pub fn forward_padded_into(&self, input: &[Cpx], window: &[f64], out: &mut Vec<Cpx>) {
        let m = input.len();
        assert!(m <= self.n, "input longer than plan length");
        assert_eq!(window.len(), m, "window length != input length");
        telemetry::observe("dsp.fft.size", self.n as u64);
        out.clear();
        out.extend(self.bitrev.iter().map(|&j| {
            let j = j as usize;
            if j < m {
                input[j] * window[j]
            } else {
                ZERO
            }
        }));
        if self.n > 1 {
            self.butterflies(out);
        }
    }

    /// Inverse DFT (normalized) into a caller-owned buffer; the
    /// allocation-free counterpart of [`FftPlan::inverse`].
    pub fn inverse_into(&self, input: &[Cpx], out: &mut Vec<Cpx>) {
        crate::buffer::copy_into(input, out);
        self.inverse_in_place(out);
    }

    /// Out-of-place forward DFT (allocating wrapper over
    /// [`FftPlan::forward_into`]).
    pub fn forward(&self, input: &[Cpx]) -> Vec<Cpx> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out);
        out
    }

    /// Out-of-place inverse DFT, normalized (allocating wrapper over
    /// [`FftPlan::inverse_into`]).
    pub fn inverse(&self, input: &[Cpx]) -> Vec<Cpx> {
        let mut out = Vec::new();
        self.inverse_into(input, &mut out);
        out
    }
}

/// A reusable Bluestein (chirp-z) plan for one arbitrary length.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    /// Padded convolution length (power of two ≥ 2n−1).
    m: usize,
    /// Forward-transform chirp `exp(-jπk²/n)` for `k ∈ [0, n)`.
    chirp: Vec<Cpx>,
    /// Precomputed forward FFT of the convolution filter built from the
    /// conjugate chirp (forward-transform orientation).
    filter_spec: Vec<Cpx>,
    /// The length-`m` radix-2 plan the convolution runs on.
    inner: Rc<FftPlan>,
    /// Reusable length-`m` convolution buffer. Plans live in a
    /// thread-local cache, so a `RefCell` suffices; after the first
    /// transform a call performs zero transient allocations.
    scratch: RefCell<Vec<Cpx>>,
}

impl BluesteinPlan {
    /// Builds a plan for length `n` (any `n ≥ 1`), reusing `inner` for the
    /// internal power-of-two convolution.
    pub fn new(n: usize, inner: Rc<FftPlan>) -> Self {
        assert!(n >= 1, "BluesteinPlan requires n >= 1");
        let m = crate::fft::next_pow2(2 * n - 1);
        assert_eq!(inner.len(), m, "inner plan length mismatch");
        // Chirp factors c[k] = exp(-jπ k²/n); k² is reduced mod 2n to keep
        // the phase argument bounded for large k.
        let chirp: Vec<Cpx> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Cpx::cis(-PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut filter = vec![ZERO; m];
        filter[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            filter[k] = c;
            filter[m - k] = c;
        }
        inner.transform_in_place(&mut filter);
        Self {
            n,
            m,
            chirp,
            filter_spec: filter,
            inner,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the trivial length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Unnormalized transform with sign `-1` (forward) or `+1` (inverse
    /// kernel; the caller applies `1/N`), written into `out`. The
    /// convolution runs in the plan's own scratch buffer, so a call on a
    /// warmed plan performs no heap allocation beyond growing `out` once.
    ///
    /// # Panics
    /// Panics if called re-entrantly on the same plan (the internal
    /// scratch is a `RefCell`); transforms never recurse, so this cannot
    /// happen from the public API.
    pub fn transform_into(&self, input: &[Cpx], inverse: bool, out: &mut Vec<Cpx>) {
        assert_eq!(input.len(), self.n, "buffer length != plan length");
        telemetry::observe("dsp.fft.size", self.n as u64);
        let n = self.n;
        let m = self.m;
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        scratch.resize(m, ZERO);
        // The inverse kernel is the conjugate chirp; conjugating the
        // cached forward chirp avoids a second table.
        let chirp = |k: usize| {
            if inverse {
                self.chirp[k].conj()
            } else {
                self.chirp[k]
            }
        };
        for k in 0..n {
            scratch[k] = input[k] * chirp(k);
        }
        self.inner.transform_in_place(&mut scratch);
        if inverse {
            // conv filter for the inverse kernel is the conjugate of the
            // forward filter's *time response*, whose spectrum is the
            // conjugate-with-reversal; recomputing from the identity
            // FFT(conj(x))[k] = conj(FFT(x)[-k]) keeps one cached table.
            for (k, s) in scratch.iter_mut().enumerate().take(m) {
                *s *= self.filter_spec[(m - k) % m].conj();
            }
        } else {
            for (s, f) in scratch.iter_mut().zip(&self.filter_spec) {
                *s *= *f;
            }
        }
        // Inverse FFT of the product via the conjugate trick + 1/m.
        for c in scratch.iter_mut() {
            *c = c.conj();
        }
        self.inner.transform_in_place(&mut scratch);
        let inv_m = 1.0 / m as f64;
        out.clear();
        out.extend((0..n).map(|k| scratch[k].conj() * inv_m * chirp(k)));
    }
}

/// Thread-local memoized plans. Bluestein scratch lives inside each
/// [`BluesteinPlan`], so the cache holds plans only.
struct PlanCache {
    fft: HashMap<usize, Rc<FftPlan>>,
    bluestein: HashMap<usize, Rc<BluesteinPlan>>,
}

thread_local! {
    static PLAN_CACHE: RefCell<PlanCache> = RefCell::new(PlanCache {
        fft: HashMap::new(),
        bluestein: HashMap::new(),
    });
}

fn pow2_plan(cache: &mut PlanCache, n: usize) -> Rc<FftPlan> {
    match cache.fft.entry(n) {
        std::collections::hash_map::Entry::Occupied(e) => {
            telemetry::counter_add("dsp.plan_cache.hit.local", 1);
            e.get().clone()
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            telemetry::counter_add("dsp.plan_cache.miss.local", 1);
            telemetry::observe("dsp.plan_cache.built_size.local", n as u64);
            e.insert(Rc::new(FftPlan::new(n))).clone()
        }
    }
}

/// Runs `f` with the cached power-of-two plan for length `n`, creating it
/// on first use. Plans are per-thread, so this is safe (and contention-
/// free) under the parallel batch engine.
///
/// ```
/// use milback_dsp::num::Cpx;
/// use milback_dsp::plan::with_plan;
///
/// let x: Vec<Cpx> = (0..8).map(|i| Cpx::new(i as f64, 0.0)).collect();
/// // First call builds the length-8 plan; repeats reuse it.
/// let spectrum = with_plan(8, |plan| plan.forward(&x));
/// // Bitwise identical to the free function (itself a plan wrapper).
/// assert_eq!(spectrum, milback_dsp::fft::fft(&x));
/// ```
///
/// # Panics
/// Panics if `n` is not a power of two.
pub fn with_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    let plan = PLAN_CACHE.with(|c| pow2_plan(&mut c.borrow_mut(), n));
    f(&plan)
}

/// Bluestein transform through the thread-local cache, written into a
/// caller-owned buffer. `inverse` selects the kernel sign; normalization
/// is the caller's business (matching [`crate::fft::fft`] conventions).
///
/// The hot path is a single cache borrow with no `Rc` clone: the
/// transform runs *under* the borrow, which is sound because
/// [`BluesteinPlan::transform_into`] is self-contained (its inner
/// power-of-two plan and scratch buffer live inside the plan) and never
/// re-enters the cache.
pub(crate) fn bluestein_cached_into(input: &[Cpx], inverse: bool, out: &mut Vec<Cpx>) {
    let n = input.len();
    PLAN_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(p) = cache.bluestein.get(&n) {
            telemetry::counter_add("dsp.plan_cache.hit.local", 1);
            p.transform_into(input, inverse, out);
        } else {
            telemetry::counter_add("dsp.plan_cache.miss.local", 1);
            let inner = pow2_plan(&mut cache, crate::fft::next_pow2(2 * n - 1));
            let p = Rc::new(BluesteinPlan::new(n, inner));
            p.transform_into(input, inverse, out);
            cache.bluestein.insert(n, p);
        }
    })
}

/// Allocating wrapper over [`bluestein_cached_into`].
pub(crate) fn bluestein_cached(input: &[Cpx], inverse: bool) -> Vec<Cpx> {
    let mut out = Vec::new();
    bluestein_cached_into(input, inverse, &mut out);
    out
}

/// Number of distinct plan sizes currently cached on this thread
/// (`(radix-2, bluestein)`), for tests and diagnostics.
pub fn cached_plan_sizes() -> (usize, usize) {
    PLAN_CACHE.with(|c| {
        let cache = c.borrow();
        (cache.fft.len(), cache.bluestein.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, ifft};

    fn ramp(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| Cpx::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn plan_matches_free_fft_bitwise_pow2() {
        for n in [1usize, 2, 8, 64, 512] {
            let x = ramp(n);
            let planned = FftPlan::new(n).forward(&x);
            assert_eq!(planned, fft(&x), "n={n}");
        }
    }

    #[test]
    fn plan_inverse_round_trip() {
        for n in [2usize, 16, 128] {
            let plan = FftPlan::new(n);
            let x = ramp(n);
            let y = plan.inverse(&plan.forward(&x));
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn bluestein_plan_matches_free_fft_bitwise() {
        for n in [3usize, 5, 12, 100, 257] {
            let x = ramp(n);
            let via_free = fft(&x);
            let via_plan = bluestein_cached(&x, false);
            assert_eq!(via_free, via_plan, "n={n}");
        }
    }

    #[test]
    fn bluestein_inverse_matches_ifft() {
        for n in [3usize, 7, 100] {
            let x = ramp(n);
            let expect = ifft(&x);
            let mut got = bluestein_cached(&x, true);
            let inv_n = 1.0 / n as f64;
            for c in got.iter_mut() {
                *c *= inv_n;
            }
            for (a, b) in expect.iter().zip(&got) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn forward_into_matches_forward_bitwise() {
        for n in [1usize, 8, 256] {
            let x = ramp(n);
            let plan = FftPlan::new(n);
            let alloc = plan.forward(&x);
            let mut reused = Vec::new();
            // Repeated calls into the same buffer must keep producing the
            // allocating result bit for bit.
            for _ in 0..3 {
                plan.forward_into(&x, &mut reused);
                assert_eq!(alloc, reused, "n={n}");
            }
            let inv_alloc = plan.inverse(&alloc);
            let mut inv_reused = Vec::new();
            plan.inverse_into(&alloc, &mut inv_reused);
            assert_eq!(inv_alloc, inv_reused, "n={n}");
        }
    }

    #[test]
    fn bluestein_into_matches_allocating_bitwise() {
        for n in [3usize, 12, 257] {
            let x = ramp(n);
            let expect = bluestein_cached(&x, false);
            let mut out = Vec::new();
            // The internal scratch is reused across calls; results must
            // stay bitwise stable.
            for _ in 0..3 {
                bluestein_cached_into(&x, false, &mut out);
                assert_eq!(expect, out, "n={n}");
            }
            let inner = Rc::new(FftPlan::new(crate::fft::next_pow2(2 * n - 1)));
            let standalone = BluesteinPlan::new(n, inner);
            standalone.transform_into(&x, false, &mut out);
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn cache_memoizes_by_size() {
        // Run on a dedicated thread for a clean cache.
        std::thread::spawn(|| {
            let x = ramp(64);
            let _ = fft(&x);
            let _ = fft(&x);
            let y = ramp(100);
            let _ = fft(&y);
            let (p2, blu) = cached_plan_sizes();
            // 64 and the bluestein inner 256 for n=100.
            assert_eq!(blu, 1);
            assert!(p2 >= 2, "pow2 plans {p2}");
        })
        .join()
        .unwrap();
    }

    /// The pre-radix-4 reference: plain radix-2 DIT with the same
    /// twiddle table, exactly as `forward_in_place` was written before
    /// the fused kernels landed. The golden contract is that the fused
    /// radix-4 / tiled path reproduces this bit for bit.
    fn radix2_reference(plan: &FftPlan, data: &mut [Cpx]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = plan.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        let mut tw_off = 0;
        while len <= n {
            let half = len / 2;
            let tw = &plan.twiddles[tw_off..tw_off + half];
            let mut i = 0;
            while i < n {
                for k in 0..half {
                    let u = data[i + k];
                    let v = data[i + k + half] * tw[k];
                    data[i + k] = u + v;
                    data[i + k + half] = u - v;
                }
                i += len;
            }
            tw_off += half;
            len <<= 1;
        }
    }

    #[test]
    fn radix4_matches_radix2_reference_bitwise() {
        // Cover odd/even stage counts on both sides of the L1 tile
        // (TILE = 1024): pure-tiled, tail radix-2, tail radix-4.
        for n in [2usize, 4, 8, 64, 128, 1024, 2048, 4096, 16384] {
            let plan = FftPlan::new(n);
            let x = ramp(n);
            let mut golden = x.clone();
            radix2_reference(&plan, &mut golden);
            let mut fast = x.clone();
            plan.forward_in_place(&mut fast);
            assert_eq!(golden, fast, "n={n}");
        }
    }

    #[test]
    fn padded_gather_matches_window_pad_swap_butterflies_bitwise() {
        let bits = |xs: &[Cpx]| -> Vec<(u64, u64)> {
            xs.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect()
        };
        let pairs = [
            (1usize, 0usize),
            (1, 1),
            (2, 1),
            (8, 3),
            (1024, 0),
            (1024, 1),
            (1024, 512),
            (1024, 1000),
            (1024, 1024),
            (8192, 6400),
            (16384, 0),
            (16384, 1),
            (16384, 8192),
            (16384, 6400),
            (16384, 16384),
        ];
        let mut out = Vec::new();
        for (n, m) in pairs {
            let plan = FftPlan::new(n);
            let x = ramp(m);
            let window = crate::window::Window::Hann.generate(m);
            let mut golden = x.clone();
            for (c, w) in golden.iter_mut().zip(&window) {
                *c *= *w;
            }
            golden.resize(n, ZERO);
            plan.forward_in_place(&mut golden);
            // Twice into one buffer: stale contents must not leak in.
            for _ in 0..2 {
                plan.forward_padded_into(&x, &window, &mut out);
                assert!(bits(&out) == bits(&golden), "n={n} m={m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "longer than plan")]
    fn padded_gather_rejects_overlong_input() {
        FftPlan::new(4).forward_padded_into(&ramp(5), &[1.0; 5], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_plan_rejected() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_rejected() {
        let plan = FftPlan::new(8);
        let mut buf = vec![ZERO; 4];
        plan.forward_in_place(&mut buf);
    }
}
