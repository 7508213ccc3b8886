//! Background subtraction over consecutive chirps (paper §5.1).
//!
//! Static reflectors (walls, desks, self-interference) return identical
//! echoes chirp after chirp; the node, toggling at 10 kHz, does not.
//! Subtracting consecutive chirp captures therefore cancels everything
//! *except* the node. The AP takes five consecutive chirps, forms the four
//! adjacent differences, and uses the strongest difference for detection.
//!
//! The subtraction works identically on time-domain dechirped signals and
//! on their spectra (the FFT is linear); both forms are provided because
//! ranging wants spectra and AP-side orientation sensing wants the
//! time-domain difference.

use milback_dsp::buffer;
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;

/// Pairwise differences of consecutive chirp captures (time domain).
/// Returns `n−1` difference signals.
pub fn pairwise_diff_signals(chirps: &[Signal]) -> Vec<Signal> {
    assert!(chirps.len() >= 2, "need at least two chirps to subtract");
    chirps
        .windows(2)
        .map(|w| {
            assert_eq!(w[0].len(), w[1].len(), "chirp length mismatch");
            let samples = w[1]
                .samples
                .iter()
                .zip(&w[0].samples)
                .map(|(b, a)| *b - *a)
                .collect();
            Signal::new(w[0].fs, w[0].fc, samples)
        })
        .collect()
}

/// Pairwise differences of consecutive chirp spectra, written into
/// `out`. Both the outer vector and each inner difference buffer reuse
/// their capacity, so a warmed five-chirp burst performs no allocation.
pub fn pairwise_diff_spectra_into(spectra: &[Vec<Cpx>], out: &mut Vec<Vec<Cpx>>) {
    assert!(spectra.len() >= 2, "need at least two spectra to subtract");
    let n_diffs = spectra.len() - 1;
    buffer::track_growth(out, n_diffs);
    out.truncate(n_diffs);
    while out.len() < n_diffs {
        out.push(Vec::new());
    }
    for (d, w) in out.iter_mut().zip(spectra.windows(2)) {
        assert_eq!(w[0].len(), w[1].len(), "spectrum length mismatch");
        buffer::track_growth(d, w[0].len());
        d.clear();
        d.extend(w[1].iter().zip(&w[0]).map(|(b, a)| *b - *a));
    }
}

/// Index of the difference with the largest total energy — the pair that
/// straddled a node state transition.
pub fn strongest_diff<T: DiffEnergy>(diffs: &[T]) -> usize {
    assert!(!diffs.is_empty(), "no differences given");
    let mut best = 0;
    let mut best_e = f64::MIN;
    for (i, d) in diffs.iter().enumerate() {
        let e = d.diff_energy();
        if e > best_e {
            best_e = e;
            best = i;
        }
    }
    best
}

/// Per-bin detection power: the maximum of `|d[k]|²` across all
/// differences, written into `out` (capacity reused). Static clutter is
/// near zero in every difference; the node's bin is large in at least
/// one.
pub fn detection_spectrum_into(diffs: &[Vec<Cpx>], out: &mut Vec<f64>) {
    assert!(!diffs.is_empty(), "no differences given");
    let n = diffs[0].len();
    buffer::track_growth(out, n);
    out.clear();
    out.resize(n, 0.0);
    for d in diffs {
        for (o, c) in out.iter_mut().zip(d) {
            *o = (*o).max(c.norm_sq());
        }
    }
}

/// Total-energy abstraction so [`strongest_diff`] works on both forms.
/// (Named `diff_energy` so it cannot be shadowed by `Signal`'s inherent
/// `energy` method.)
pub trait DiffEnergy {
    /// Total energy of the difference.
    fn diff_energy(&self) -> f64;
}

impl DiffEnergy for Signal {
    fn diff_energy(&self) -> f64 {
        self.samples.iter().map(|c| c.norm_sq()).sum()
    }
}

impl DiffEnergy for Vec<Cpx> {
    fn diff_energy(&self) -> f64 {
        self.iter().map(|c| c.norm_sq()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(amp: f64, n: usize) -> Signal {
        Signal::tone(1e6, 0.0, 1e3, amp, n)
    }

    fn diff_spectra(spectra: &[Vec<Cpx>]) -> Vec<Vec<Cpx>> {
        let mut out = Vec::new();
        pairwise_diff_spectra_into(spectra, &mut out);
        out
    }

    fn detection(diffs: &[Vec<Cpx>]) -> Vec<f64> {
        let mut out = Vec::new();
        detection_spectrum_into(diffs, &mut out);
        out
    }

    #[test]
    fn static_returns_cancel() {
        let chirps = vec![tone(1.0, 64); 5];
        let diffs = pairwise_diff_signals(&chirps);
        assert_eq!(diffs.len(), 4);
        for d in &diffs {
            assert!(
                d.diff_energy() < 1e-20,
                "static energy leaked: {}",
                d.diff_energy()
            );
        }
    }

    #[test]
    fn modulated_return_survives() {
        // Node "on" in chirps 0-2, "off" in 3-4 → only diff 2→3 is nonzero.
        let on = tone(1.0, 64);
        let off = tone(0.1, 64);
        let chirps = vec![on.clone(), on.clone(), on, off.clone(), off];
        let diffs = pairwise_diff_signals(&chirps);
        assert!(diffs[0].diff_energy() < 1e-20);
        assert!(diffs[2].diff_energy() > 0.1);
        assert_eq!(strongest_diff(&diffs), 2);
    }

    #[test]
    fn spectra_subtraction_matches_fft_linearity() {
        let a = tone(1.0, 64);
        let b = tone(0.3, 64);
        let sa = milback_dsp::fft::fft(&a.samples);
        let sb = milback_dsp::fft::fft(&b.samples);
        let diffs = diff_spectra(&[sa, sb]);
        // FFT(b−a) == FFT(b) − FFT(a).
        let direct = milback_dsp::fft::fft(
            &b.samples
                .iter()
                .zip(&a.samples)
                .map(|(x, y)| *x - *y)
                .collect::<Vec<_>>(),
        );
        for (x, y) in diffs[0].iter().zip(&direct) {
            assert!((*x - *y).abs() < 1e-9);
        }
    }

    #[test]
    fn detection_spectrum_keeps_node_bin() {
        // Clutter at bin 3 static, node at bin 10 toggling.
        let n = 32;
        let make = |node_on: bool| -> Vec<Cpx> {
            let mut v = vec![milback_dsp::num::ZERO; n];
            v[3] = Cpx::new(100.0, 0.0);
            v[10] = Cpx::new(if node_on { 1.0 } else { 0.0 }, 0.0);
            v
        };
        let spectra = vec![make(true), make(true), make(false), make(false), make(true)];
        let diffs = diff_spectra(&spectra);
        let det = detection(&diffs);
        assert!(det[3] < 1e-20, "clutter bin leaked: {}", det[3]);
        assert!((det[10] - 1.0).abs() < 1e-12, "node bin: {}", det[10]);
    }

    #[test]
    fn reused_buffers_reproduce_the_definition_bitwise() {
        let n = 48;
        let spectra: Vec<Vec<Cpx>> = (0..5)
            .map(|c| {
                (0..n)
                    .map(|k| Cpx::cis((c * n + k) as f64 * 0.13) * (1.0 + k as f64 * 0.01))
                    .collect()
            })
            .collect();
        // d_i[k] = s_{i+1}[k] − s_i[k];  det[k] = max_i |d_i[k]|².
        let diffs: Vec<Vec<Cpx>> = (0..4)
            .map(|i| (0..n).map(|k| spectra[i + 1][k] - spectra[i][k]).collect())
            .collect();
        let det: Vec<f64> = (0..n)
            .map(|k| diffs.iter().fold(0.0, |m: f64, d| m.max(d[k].norm_sq())))
            .collect();

        let mut diffs_buf = Vec::new();
        let mut det_buf = Vec::new();
        // Reused buffers (including previously-longer inner vectors) must
        // keep reproducing the definition bit for bit.
        diffs_buf.push(vec![milback_dsp::num::ZERO; n * 2]);
        for _ in 0..2 {
            pairwise_diff_spectra_into(&spectra, &mut diffs_buf);
            assert_eq!(diffs, diffs_buf);
            detection_spectrum_into(&diffs_buf, &mut det_buf);
            assert_eq!(det, det_buf);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_chirp() {
        pairwise_diff_signals(&[tone(1.0, 8)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        pairwise_diff_signals(&[tone(1.0, 8), tone(1.0, 9)]);
    }
}
