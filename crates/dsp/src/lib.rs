//! # milback-dsp
//!
//! Digital-signal-processing substrate for the MilBack mmWave backscatter
//! reproduction. Everything here is pure, deterministic, and independent of
//! the RF/hardware layers:
//!
//! * [`num`] — complex arithmetic ([`num::Cpx`]),
//! * [`fft`] — radix-2 + Bluestein FFT, spectra and bin-frequency helpers,
//! * [`window`] — spectral windows and their cached coefficient tables,
//! * [`signal`] — the complex-baseband [`signal::Signal`] container,
//! * [`chirp`] — FMCW sawtooth / triangular chirps,
//! * [`filter`] — the one-pole video filter and a moving average,
//! * [`noise`] — seeded Gaussian noise and thermal-noise arithmetic,
//! * [`detect`] — peak detection with sub-sample refinement,
//! * [`stats`] — means, percentiles and CDFs for experiment reporting,
//! * [`stft`] — short-time Fourier transform (spectrograms),
//! * [`plan`] — cached FFT plans (precomputed twiddles, bit-reversal
//!   tables, Bluestein kernels, fused radix-4 butterflies) backing the
//!   [`fft`] free functions,
//! * [`simd`] — runtime-dispatched AVX butterfly kernels, bitwise
//!   identical to the scalar loops (x86-64 only; scalar fallback
//!   everywhere else),
//! * [`buffer`] — reusable-buffer helpers for the zero-allocation
//!   `_into` hot paths (DESIGN.md §12),
//! * [`par`] — the two-core fork/join helper that splits long noise
//!   fills and runs paired receive chains at once, bit for bit
//!   (DESIGN.md §17.4),
//! * [`phasor`] — phasor-recurrence carrier rotation with periodic
//!   exact re-anchoring (DESIGN.md §13).
//!
//! ## Place in the paper's architecture
//!
//! This crate implements no paper section by itself; it is the numeric
//! substrate every reproduced section runs on. The FMCW dechirp/range
//! FFT of §5.1 is [`fft`] + [`window`], the triangular-chirp orientation
//! sensing of §5.2 uses [`chirp`] and [`stft`], the §6 OAQFM downlink
//! video runs on [`filter`], and every Monte-Carlo figure draws its noise from
//! [`noise`] and reports through [`stats`].
//!
//! ## Telemetry
//!
//! The plan cache reports `dsp.plan_cache.hit.local` /
//! `dsp.plan_cache.miss.local` counters and the plans a `dsp.fft.size`
//! histogram (one sample per transform, valued at its length) through
//! `milback-telemetry` when `MILBACK_TELEMETRY=1`; recording is a no-op
//! branch otherwise (README §Observability).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod buffer;
pub mod chirp;
pub mod detect;
pub mod fft;
pub mod filter;
pub mod noise;
pub mod num;
pub mod par;
pub mod phasor;
pub mod plan;
pub mod signal;
pub mod simd;
pub mod stats;
pub mod stft;
pub mod window;

pub use num::Cpx;
pub use signal::Signal;
