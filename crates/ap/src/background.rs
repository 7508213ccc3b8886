//! Background subtraction over consecutive chirps (paper §5.1).
//!
//! Static reflectors (walls, desks, self-interference) return identical
//! echoes chirp after chirp; the node, toggling at 10 kHz, does not.
//! Subtracting consecutive chirp captures therefore cancels everything
//! *except* the node. The AP takes five consecutive chirps, forms the four
//! adjacent differences, and keeps per range bin the strongest of them
//! for detection.
//!
//! The subtraction runs on the chirps' range spectra: the FFT is linear,
//! so a spectral difference is the spectrum of the time-domain
//! difference. Ranging reads the differences directly; AP-side
//! orientation sensing gates one of them around the node's bin and
//! transforms it back to the time domain
//! (`ApOrientationEstimator::estimate_gated`).

use milback_dsp::buffer;
use milback_dsp::num::Cpx;

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

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::signal::Signal;

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

    fn energy(d: &[Cpx]) -> f64 {
        d.iter().map(|c| c.norm_sq()).sum()
    }

    #[test]
    fn static_returns_cancel() {
        let spectra = vec![milback_dsp::fft::fft(&tone(1.0, 64).samples); 5];
        let diffs = diff_spectra(&spectra);
        assert_eq!(diffs.len(), 4);
        for d in &diffs {
            assert!(energy(d) < 1e-20, "static energy leaked: {}", energy(d));
        }
    }

    #[test]
    fn modulated_return_survives() {
        // Node "on" in chirps 0-2, "off" in 3-4 → only diff 2→3 is nonzero.
        let on = milback_dsp::fft::fft(&tone(1.0, 64).samples);
        let off = milback_dsp::fft::fft(&tone(0.1, 64).samples);
        let spectra = vec![on.clone(), on.clone(), on, off.clone(), off];
        let diffs = diff_spectra(&spectra);
        assert!(energy(&diffs[0]) < 1e-20);
        assert!(energy(&diffs[2]) > 0.1);
        assert!(energy(&diffs[3]) < 1e-20);
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
        diff_spectra(&[vec![Cpx::new(1.0, 0.0); 8]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        diff_spectra(&[vec![Cpx::new(1.0, 0.0); 8], vec![Cpx::new(1.0, 0.0); 9]]);
    }
}
