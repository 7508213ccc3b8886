//! FMCW dechirp and range processing (paper §2, §5.1).
//!
//! The AP mixes each received chirp with the transmitted reference; a
//! reflection delayed by `τ` appears as a beat tone at
//! `f_b = slope · τ`, so the FFT of the dechirped signal is a *range
//! profile*: bin `k` ↔ round-trip delay `k·fs/(N·slope)` ↔ range
//! `c·τ/2`.

use milback_dsp::buffer;
use milback_dsp::chirp::ChirpConfig;
use milback_dsp::num::Cpx;
use milback_dsp::plan::{with_plan, FftPlan};
use milback_dsp::signal::Signal;
use milback_dsp::window::{cached_coeffs, Window};
use milback_rf::geometry::SPEED_OF_LIGHT;

/// Range-processing parameters.
#[derive(Debug, Clone, Copy)]
pub struct RangeProcessor {
    /// The transmitted sawtooth chirp.
    pub chirp: ChirpConfig,
    /// Window applied before the range FFT.
    pub window: Window,
    /// FFT length (≥ chirp samples; extra is zero-padding for finer bin
    /// spacing).
    pub fft_len: usize,
}

impl RangeProcessor {
    /// Builds a processor for a chirp, zero-padding the FFT to the next
    /// power of two at least `pad` × the chirp length.
    pub fn new(chirp: ChirpConfig, pad: usize) -> Self {
        let n = chirp.n_samples() * pad.max(1);
        Self {
            chirp,
            window: Window::Hann,
            fft_len: n.next_power_of_two(),
        }
    }

    /// Dechirps a received chirp against the transmitted reference:
    /// `rx · tx*`.
    pub fn dechirp(&self, rx: &Signal, tx_ref: &Signal) -> Signal {
        rx.conj_multiply(tx_ref)
    }

    /// Allocation-free [`RangeProcessor::dechirp`]: writes the `rx · tx*`
    /// samples into `out`, reusing its capacity. Truncates to the shorter
    /// length, like [`Signal::conj_multiply`].
    pub fn dechirp_into(&self, rx: &Signal, tx_ref: &Signal, out: &mut Vec<Cpx>) {
        assert_eq!(rx.fs, tx_ref.fs, "sample-rate mismatch in dechirp_into");
        let n = rx.len().min(tx_ref.len());
        buffer::track_growth(out, n);
        out.clear();
        out.extend((0..n).map(|i| rx.samples[i] * tx_ref.samples[i].conj()));
    }

    /// Runs `f` with the range-transform tables for `m`-sample dechirps.
    pub(crate) fn with_tables<R>(&self, m: usize, f: impl FnOnce(RangeTables<'_>) -> R) -> R {
        let window = cached_coeffs(self.window, m);
        with_plan(self.fft_len, |plan| {
            f(RangeTables {
                plan,
                window: &window,
            })
        })
    }

    /// Windowed, zero-padded complex range spectrum of a dechirped chirp,
    /// written into `out`, on tables looked up by the caller. A dechirp
    /// whose length differs from the tables' window looks its own window
    /// up on the running thread.
    ///
    /// One [`FftPlan::forward_padded_into`] on the cached plan for
    /// `fft_len` (a power of two by construction) and the cached window
    /// coefficients: the windowed samples are gathered straight into
    /// bit-reversed order with zeros past the chirp, bitwise the same as
    /// windowing a copy, zero-padding it and transforming in place.
    /// Samples past `fft_len` are dropped after windowing. A warmed
    /// `out` makes the call allocation-free.
    fn spectrum_with(&self, t: RangeTables<'_>, dechirped: &[Cpx], out: &mut Vec<Cpx>) {
        milback_telemetry::counter_add("ap.dechirp.spectra", 1);
        let own;
        let window: &[f64] = if t.window.len() == dechirped.len() {
            t.window
        } else {
            own = cached_coeffs(self.window, dechirped.len());
            &own
        };
        let m = dechirped.len().min(self.fft_len);
        t.plan
            .forward_padded_into(&dechirped[..m], &window[..m], out);
    }

    /// Complex range profile, all `fft_len` bins (allocating wrapper
    /// over [`RangeProcessor::range_profile_into`]).
    pub fn range_profile(&self, dechirped: &Signal) -> Vec<Cpx> {
        let mut fft_buf = Vec::new();
        let mut out = Vec::new();
        self.range_profile_into(&dechirped.samples, self.fft_len, &mut fft_buf, &mut out);
        out
    }

    /// Complex range profile: the range spectrum re-indexed so that bin
    /// `k` corresponds to round-trip delay `k·fs/(fft_len·slope)`, kept
    /// for bins `[0, bins)` only (`bins` is capped at `fft_len`).
    ///
    /// Dechirping `rx·tx*` puts a delay-τ echo at beat frequency `−slope·τ`
    /// (the delayed chirp lags the reference), i.e. in the
    /// negative-frequency half of the FFT; this profile flips the axis so
    /// increasing bin = increasing range, without conjugating (the complex
    /// values keep the carrier phase used for AoA). Each kept bin holds
    /// the same bits whatever `bins` is.
    ///
    /// The spectrum lands in `fft_buf`, the flipped profile in `out`;
    /// both reuse their capacity across calls.
    pub fn range_profile_into(
        &self,
        dechirped: &[Cpx],
        bins: usize,
        fft_buf: &mut Vec<Cpx>,
        out: &mut Vec<Cpx>,
    ) {
        self.with_tables(dechirped.len(), |t| {
            self.profile_with(t, dechirped, bins, fft_buf, out);
        });
    }

    /// [`RangeProcessor::range_profile_into`] on tables looked up by the
    /// caller.
    pub(crate) fn profile_with(
        &self,
        t: RangeTables<'_>,
        dechirped: &[Cpx],
        bins: usize,
        fft_buf: &mut Vec<Cpx>,
        out: &mut Vec<Cpx>,
    ) {
        self.spectrum_with(t, dechirped, fft_buf);
        flip_spectrum_into(fft_buf, bins, out);
    }

    /// Beat frequency of range-FFT bin `k` (fractional bins allowed),
    /// interpreting bins below `fft_len/2` as positive beat frequencies.
    pub fn bin_to_beat(&self, bin: f64, fs: f64) -> f64 {
        bin * fs / self.fft_len as f64
    }

    /// Converts a beat frequency to round-trip delay: `τ = f_b / slope`.
    pub fn beat_to_delay(&self, beat: f64) -> f64 {
        beat / self.chirp.slope()
    }

    /// Converts a (fractional) range-FFT bin directly to one-way range in
    /// meters.
    pub fn bin_to_range(&self, bin: f64, fs: f64) -> f64 {
        let tau = self.beat_to_delay(self.bin_to_beat(bin, fs));
        tau * SPEED_OF_LIGHT / 2.0
    }

    /// Highest unambiguous one-way range for sample rate `fs`: the beat
    /// must stay below `fs/2`.
    pub fn max_range(&self, fs: f64) -> f64 {
        let tau = (fs / 2.0) / self.chirp.slope();
        tau * SPEED_OF_LIGHT / 2.0
    }
}

/// The tables one range transform runs on: the cached FFT plan and the
/// window coefficients for one dechirp length. Looked up once on the
/// calling thread and borrowed by every chirp of both antennas' chains,
/// so a chain on the `par` helper never touches its own thread-local
/// caches.
#[derive(Clone, Copy)]
pub(crate) struct RangeTables<'a> {
    plan: &'a FftPlan,
    window: &'a [f64],
}

/// Profile flip `out[k] = spec[(n−k) mod n]` for `k < bins` (capped at
/// `n`), written as bin 0 plus a reversed-slice copy — same values as
/// the modulo form (it's a pure permutation) without a `%` per element,
/// which kept the old loop from vectorizing.
fn flip_spectrum_into(spectrum: &[Cpx], bins: usize, out: &mut Vec<Cpx>) {
    let n = spectrum.len();
    let bins = bins.min(n);
    buffer::track_growth(out, bins);
    out.clear();
    if bins == 0 {
        return;
    }
    out.push(spectrum[0]);
    out.extend(spectrum[n + 1 - bins..].iter().rev());
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::detect::{argmax, parabolic_refine};

    /// A fast test chirp: full 3 GHz bandwidth, short duration.
    fn test_chirp() -> ChirpConfig {
        ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 4e-6,
            fs: 3.2e9,
            amplitude: 1.0,
        }
    }

    /// Simulates an ideal point reflection at distance `d` and returns the
    /// estimated range.
    fn estimate_range(d: f64) -> f64 {
        let cfg = test_chirp();
        let proc = RangeProcessor::new(cfg, 2);
        let tx = cfg.sawtooth();
        let tau = 2.0 * d / SPEED_OF_LIGHT;
        let mut rx = tx.delayed(tau);
        rx.rotate(Cpx::cis(-2.0 * std::f64::consts::PI * tx.fc * tau));
        let de = proc.dechirp(&rx, &tx);
        let spec: Vec<f64> = proc
            .range_profile(&de)
            .iter()
            .map(|c| c.norm_sq())
            .collect();
        // Only search the positive-delay half.
        let half = &spec[..spec.len() / 2];
        let peak = argmax(half).unwrap();
        let refined = parabolic_refine(half, peak);
        proc.bin_to_range(refined, tx.fs)
    }

    #[test]
    fn range_recovery_across_distances() {
        for d in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let est = estimate_range(d);
            assert!((est - d).abs() < 0.02, "true {d} m, estimated {est} m");
        }
    }

    #[test]
    fn two_reflectors_resolved() {
        let cfg = test_chirp();
        let proc = RangeProcessor::new(cfg, 2);
        let tx = cfg.sawtooth();
        let mut rx = Signal::zeros(tx.fs, tx.fc, tx.len());
        for d in [2.0, 2.5] {
            let tau = 2.0 * d / SPEED_OF_LIGHT;
            let mut echo = tx.delayed(tau);
            echo.rotate(Cpx::cis(-2.0 * std::f64::consts::PI * tx.fc * tau));
            rx.add(&echo);
        }
        let de = proc.dechirp(&rx, &tx);
        let spec: Vec<f64> = proc
            .range_profile(&de)
            .iter()
            .map(|c| c.norm_sq())
            .collect();
        let half = &spec[..spec.len() / 2];
        let peaks = milback_dsp::detect::find_peaks(half, half[argmax(half).unwrap()] * 0.2, 4);
        assert!(peaks.len() >= 2, "expected 2 peaks, got {}", peaks.len());
        let mut ranges: Vec<f64> = peaks[..2]
            .iter()
            .map(|p| proc.bin_to_range(p.refined, tx.fs))
            .collect();
        ranges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ranges[0] - 2.0).abs() < 0.05, "{ranges:?}");
        assert!((ranges[1] - 2.5).abs() < 0.05, "{ranges:?}");
    }

    #[test]
    fn into_variants_match_allocating_bitwise() {
        let cfg = test_chirp();
        let proc = RangeProcessor::new(cfg, 2);
        let tx = cfg.sawtooth();
        let tau = 2.0 * 3.0 / SPEED_OF_LIGHT;
        let mut rx = tx.delayed(tau);
        rx.rotate(Cpx::cis(-2.0 * std::f64::consts::PI * tx.fc * tau));

        let de = proc.dechirp(&rx, &tx);
        let mut de_buf = Vec::new();
        proc.dechirp_into(&rx, &tx, &mut de_buf);
        assert_eq!(de.samples, de_buf);

        let profile = proc.range_profile(&de);
        assert_eq!(profile.len(), proc.fft_len);
        let mut fft_buf = Vec::new();
        let mut prof_buf = Vec::new();
        // Reused buffers must keep reproducing the allocating result.
        for _ in 0..2 {
            proc.range_profile_into(&de_buf, proc.fft_len, &mut fft_buf, &mut prof_buf);
            assert_eq!(profile, prof_buf);
        }

        // A banded profile is the full profile's prefix, bit for bit,
        // through buffers that held a wider band before.
        let bits = |xs: &[Cpx]| -> Vec<(u64, u64)> {
            xs.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect()
        };
        for bins in [0, 1, 2, 930, proc.fft_len - 1, proc.fft_len + 5] {
            proc.range_profile_into(&de_buf, bins, &mut fft_buf, &mut prof_buf);
            let kept = bins.min(proc.fft_len);
            assert_eq!(bits(&prof_buf), bits(&profile[..kept]), "bins {bins}");
        }
    }

    #[test]
    fn flip_matches_modulo_form() {
        let spec: Vec<Cpx> = (0..17)
            .map(|k| Cpx::new(k as f64, -(k as f64) * 0.5))
            .collect();
        let golden: Vec<Cpx> = (0..spec.len())
            .map(|k| spec[(spec.len() - k) % spec.len()])
            .collect();
        let mut out = Vec::new();
        for bins in 0..=spec.len() + 1 {
            flip_spectrum_into(&spec, bins, &mut out);
            assert_eq!(golden[..bins.min(spec.len())], out[..], "bins {bins}");
        }
        flip_spectrum_into(&[], 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn conversions_are_consistent() {
        let cfg = test_chirp();
        let proc = RangeProcessor::new(cfg, 1);
        let fs = cfg.fs;
        // Bin → beat → delay → range round-trips through the slope.
        let bin = 100.0;
        let beat = proc.bin_to_beat(bin, fs);
        let tau = proc.beat_to_delay(beat);
        assert!((beat - tau * cfg.slope()).abs() < 1e-3);
        let r = proc.bin_to_range(bin, fs);
        assert!((r - tau * SPEED_OF_LIGHT / 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_range_is_generous() {
        let proc = RangeProcessor::new(test_chirp(), 1);
        // slope = 3 GHz / 4 µs = 7.5e14; fs/2 = 1.6 GHz → τ = 2.13 µs → 320 m.
        assert!(proc.max_range(3.2e9) > 100.0);
    }
}
