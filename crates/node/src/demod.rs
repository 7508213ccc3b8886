//! Downlink OAQFM demodulation at the node (paper §6.1–6.2).
//!
//! Each FSA port receives (at most) one of the two OAQFM tones; the
//! envelope detector converts presence/absence of that tone into a
//! high/low voltage. The MCU integrates the detector output over each
//! symbol period and compares against a threshold — no mixer, no
//! oscillator, no carrier synchronization.
//!
//! When the node is normal to the AP (`f_A == f_B`), both ports see the
//! same tone and the link falls back to single-carrier OOK at one bit per
//! symbol (paper §6.2 last paragraph).

use milback_proto::bits::OaqfmSymbol;

/// Per-symbol energy integrator + threshold slicer for one detector
/// output.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeSlicer {
    /// Sample rate of the detector/comparator samples, Hz.
    pub sample_rate: f64,
    /// Symbol rate, symbols/s.
    pub symbol_rate: f64,
    /// Fraction of the symbol period to skip at the start (detector
    /// settling), 0–0.5.
    pub guard: f64,
}

impl EnvelopeSlicer {
    /// A slicer with a 25% settling guard.
    pub fn new(sample_rate: f64, symbol_rate: f64) -> Self {
        assert!(
            sample_rate >= 2.0 * symbol_rate,
            "need ≥2 samples per symbol"
        );
        Self {
            sample_rate,
            symbol_rate,
            guard: 0.25,
        }
    }

    /// Samples per symbol.
    pub fn samples_per_symbol(&self) -> f64 {
        self.sample_rate / self.symbol_rate
    }

    /// Integrates the detector output over each of `n_symbols` symbol
    /// periods starting at `t0` seconds, skipping the settling guard.
    pub fn symbol_levels(&self, detector: &[f64], t0: f64, n_symbols: usize) -> Vec<f64> {
        let mut levels = Vec::new();
        self.symbol_levels_into(detector, t0, n_symbols, &mut levels);
        levels
    }

    /// Allocation-free [`EnvelopeSlicer::symbol_levels`]: clears and
    /// refills `out`, reusing its capacity.
    pub fn symbol_levels_into(
        &self,
        detector: &[f64],
        t0: f64,
        n_symbols: usize,
        out: &mut Vec<f64>,
    ) {
        let sps = self.samples_per_symbol();
        out.clear();
        out.reserve(n_symbols);
        for k in 0..n_symbols {
            let start = ((t0 * self.sample_rate) + (k as f64 + self.guard) * sps) as usize;
            let end =
                (((t0 * self.sample_rate) + (k as f64 + 1.0) * sps) as usize).min(detector.len());
            if start >= end {
                out.push(0.0);
                continue;
            }
            let sum: f64 = detector[start..end].iter().sum();
            out.push(sum / (end - start) as f64);
        }
    }

    /// Picks a decision threshold from the observed levels: the midpoint
    /// of the min and max symbol levels. Works because every payload
    /// contains both on and off symbols (CRC trailer randomizes content).
    pub fn threshold(levels: &[f64]) -> f64 {
        let max = levels.iter().cloned().fold(f64::MIN, f64::max);
        let min = levels.iter().cloned().fold(f64::MAX, f64::min);
        (max + min) / 2.0
    }

    /// Slices levels into on/off decisions with the given threshold:
    /// clears and refills `out`, reusing its capacity.
    pub fn slice_into(levels: &[f64], threshold: f64, out: &mut Vec<bool>) {
        out.clear();
        out.extend(levels.iter().map(|v| *v > threshold));
    }
}

/// Reusable intermediate buffers (per-symbol levels, per-branch slices,
/// the OOK combined stream) for the `_into` demodulators, pooled by the
/// link layer across transfers.
#[derive(Debug, Default, Clone)]
pub struct DemodScratch {
    levels_a: Vec<f64>,
    levels_b: Vec<f64>,
    bits_a: Vec<bool>,
    bits_b: Vec<bool>,
    combined: Vec<f64>,
}

/// Demodulates the two detector outputs into OAQFM symbols.
///
/// `det_a` / `det_b` are the port-A / port-B detector (or comparator)
/// sample streams; `t0` is the payload start time within them.
/// Intermediates run in `scratch` and the symbols land in `out`, both
/// reusing their capacity.
pub fn demodulate_oaqfm_into(
    slicer: &EnvelopeSlicer,
    det_a: &[f64],
    det_b: &[f64],
    t0: f64,
    n_symbols: usize,
    scratch: &mut DemodScratch,
    out: &mut Vec<OaqfmSymbol>,
) {
    milback_telemetry::counter_add("node.demod.oaqfm.symbols", n_symbols as u64);
    slicer.symbol_levels_into(det_a, t0, n_symbols, &mut scratch.levels_a);
    slicer.symbol_levels_into(det_b, t0, n_symbols, &mut scratch.levels_b);
    let ta = EnvelopeSlicer::threshold(&scratch.levels_a);
    let tb = EnvelopeSlicer::threshold(&scratch.levels_b);
    EnvelopeSlicer::slice_into(&scratch.levels_a, ta, &mut scratch.bits_a);
    EnvelopeSlicer::slice_into(&scratch.levels_b, tb, &mut scratch.bits_b);
    out.clear();
    out.extend(
        scratch
            .bits_a
            .iter()
            .zip(&scratch.bits_b)
            .map(|(&a_on, &b_on)| OaqfmSymbol { a_on, b_on }),
    );
}

/// Demodulates single-carrier OOK (the normal-incidence fallback): both
/// detectors see the same tone, so their sum is sliced at one bit per
/// symbol. Intermediates run in `scratch` and the bit decisions land in
/// `out`, both reusing their capacity.
pub fn demodulate_ook_into(
    slicer: &EnvelopeSlicer,
    det_a: &[f64],
    det_b: &[f64],
    t0: f64,
    n_bits: usize,
    scratch: &mut DemodScratch,
    out: &mut Vec<bool>,
) {
    milback_telemetry::counter_add("node.demod.ook.bits", n_bits as u64);
    scratch.combined.clear();
    scratch
        .combined
        .extend(det_a.iter().zip(det_b).map(|(a, b)| a + b));
    slicer.symbol_levels_into(&scratch.combined, t0, n_bits, &mut scratch.levels_a);
    let thr = EnvelopeSlicer::threshold(&scratch.levels_a);
    EnvelopeSlicer::slice_into(&scratch.levels_a, thr, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a detector stream: `high` volts during on-symbols, `low`
    /// during off, `sps` samples per symbol.
    fn stream(pattern: &[bool], sps: usize, high: f64, low: f64) -> Vec<f64> {
        pattern
            .iter()
            .flat_map(|&on| std::iter::repeat_n(if on { high } else { low }, sps))
            .collect()
    }

    #[test]
    fn levels_integrate_per_symbol() {
        let slicer = EnvelopeSlicer::new(10e6, 1e6);
        let det = stream(&[true, false, true], 10, 1.0, 0.0);
        let levels = slicer.symbol_levels(&det, 0.0, 3);
        assert!(levels[0] > 0.9);
        assert!(levels[1] < 0.1);
        assert!(levels[2] > 0.9);
    }

    #[test]
    fn threshold_is_midpoint() {
        assert_eq!(EnvelopeSlicer::threshold(&[0.0, 1.0, 0.2]), 0.5);
    }

    #[test]
    fn oaqfm_demod_round_trip() {
        let slicer = EnvelopeSlicer::new(20e6, 1e6);
        let symbols = [
            OaqfmSymbol {
                a_on: false,
                b_on: false,
            },
            OaqfmSymbol {
                a_on: false,
                b_on: true,
            },
            OaqfmSymbol {
                a_on: true,
                b_on: false,
            },
            OaqfmSymbol {
                a_on: true,
                b_on: true,
            },
        ];
        let pat_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
        let pat_b: Vec<bool> = symbols.iter().map(|s| s.b_on).collect();
        let det_a = stream(&pat_a, 20, 0.8, 0.05);
        let det_b = stream(&pat_b, 20, 0.6, 0.02);
        let mut got = Vec::new();
        let mut scratch = DemodScratch::default();
        demodulate_oaqfm_into(&slicer, &det_a, &det_b, 0.0, 4, &mut scratch, &mut got);
        assert_eq!(got, symbols);
    }

    #[test]
    fn demod_with_offset_start() {
        let slicer = EnvelopeSlicer::new(10e6, 1e6);
        // 5 leading off-symbols of junk, then the payload.
        let pat = [false, false, false, false, false, true, false, true];
        let det = stream(&pat, 10, 1.0, 0.0);
        let levels = slicer.symbol_levels(&det, 5e-6, 3);
        assert!(levels[0] > 0.9);
        assert!(levels[1] < 0.1);
        assert!(levels[2] > 0.9);
    }

    #[test]
    fn ook_fallback() {
        let slicer = EnvelopeSlicer::new(10e6, 1e6);
        let bits = [true, false, true, true, false];
        // Both detectors see the same tone at half strength.
        let det_a = stream(&bits, 10, 0.3, 0.01);
        let det_b = stream(&bits, 10, 0.3, 0.01);
        let mut got = Vec::new();
        let mut scratch = DemodScratch::default();
        demodulate_ook_into(&slicer, &det_a, &det_b, 0.0, 5, &mut scratch, &mut got);
        assert_eq!(got, bits.to_vec());
    }

    #[test]
    fn guard_skips_settling_edge() {
        let slicer = EnvelopeSlicer::new(10e6, 1e6);
        // First 2 samples of each symbol are corrupted by settling.
        let mut det = stream(&[true, false], 10, 1.0, 0.0);
        det[0] = 0.0;
        det[1] = 0.0;
        det[10] = 1.0;
        det[11] = 1.0;
        let levels = slicer.symbol_levels(&det, 0.0, 2);
        assert!(levels[0] > 0.9, "guard failed: {levels:?}");
        assert!(levels[1] < 0.1, "guard failed: {levels:?}");
    }

    #[test]
    fn out_of_range_symbols_are_zero() {
        let slicer = EnvelopeSlicer::new(10e6, 1e6);
        let det = stream(&[true], 10, 1.0, 0.0);
        let levels = slicer.symbol_levels(&det, 0.0, 3);
        assert_eq!(levels[1], 0.0);
        assert_eq!(levels[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "2 samples per symbol")]
    fn rejects_undersampled_slicer() {
        EnvelopeSlicer::new(1e6, 1e6);
    }
}
