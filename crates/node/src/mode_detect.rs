//! Field-1 mode detection at the node (paper §7).
//!
//! The AP signals the payload direction by how many triangular chirps it
//! sends in Field 1: three back-to-back chirps mean uplink, two chirps
//! with a gap in the middle slot mean downlink. The node detects chirp
//! presence per slot with a simple energy detector on its envelope
//! outputs.

use milback_proto::packet::LinkMode;

/// Per-slot energy detector for Field-1 chirp counting.
#[derive(Debug, Clone, Copy)]
pub struct ModeDetector {
    /// Duration of one chirp slot, seconds.
    pub slot_duration: f64,
    /// Sample rate of the detector captures, Hz.
    pub sample_rate: f64,
}

impl ModeDetector {
    /// Detector for the paper's 45 µs Field-1 slots at the 1 MHz MCU ADC.
    pub fn milback() -> Self {
        Self {
            slot_duration: 45e-6,
            sample_rate: 1e6,
        }
    }

    /// Mean detector level in each of the three Field-1 slots, from the
    /// summed port captures starting at `t0`.
    pub fn slot_levels(&self, capture: &[f64], t0: f64) -> [f64; 3] {
        let sps = (self.slot_duration * self.sample_rate) as usize;
        let start0 = (t0 * self.sample_rate) as usize;
        let mut out = [0.0; 3];
        for (k, slot) in out.iter_mut().enumerate() {
            let s = start0 + k * sps;
            let e = (s + sps).min(capture.len());
            if s >= e {
                continue;
            }
            *slot = capture[s..e].iter().sum::<f64>() / (e - s) as f64;
        }
        out
    }

    /// Mode detection: slot energies → chirp count → link mode, robust to
    /// detector noise. Returns `None` when the pattern matches neither
    /// mode (e.g. the packet was missed entirely). Both valid patterns
    /// carry chirps in the outer slots; only the *middle* slot differs,
    /// so the decision is the middle level against the outer-slot
    /// baseline. `noise_sigma` is
    /// the per-sample detector noise (the MCU measures it on a quiet
    /// window before the packet); the baseline must clear it decisively
    /// or nothing was received.
    pub fn detect_with_floor(
        &self,
        capture: &[f64],
        t0: f64,
        noise_sigma: f64,
    ) -> Option<LinkMode> {
        let levels = self.slot_levels(capture, t0);
        let baseline = 0.5 * (levels[0] + levels[2]);
        let sps = (self.slot_duration * self.sample_rate).max(1.0);
        let sigma_mean = noise_sigma / sps.sqrt();
        // Both outer slots must contain a chirp well above the noise, and
        // be mutually consistent.
        if baseline < 5.0 * sigma_mean || baseline <= 0.0 {
            return None;
        }
        if (levels[0] - levels[2]).abs() > 0.5 * baseline {
            return None;
        }
        let ratio = levels[1] / baseline;
        let mode = if ratio > 0.55 {
            Some(LinkMode::Uplink)
        } else if ratio < 0.45 {
            Some(LinkMode::Downlink)
        } else {
            None
        };
        Self::count_decision(mode);
        mode
    }

    /// Telemetry bookkeeping of one detection.
    fn count_decision(mode: Option<LinkMode>) {
        match mode {
            Some(LinkMode::Uplink) => milback_telemetry::counter_add("node.mode_detect.uplink", 1),
            Some(LinkMode::Downlink) => {
                milback_telemetry::counter_add("node.mode_detect.downlink", 1)
            }
            None => milback_telemetry::counter_add("node.mode_detect.undecided", 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a capture with the given slot pattern: `level` volts in "on"
    /// slots, `floor` in "off" slots.
    /// Detection at a per-sample noise σ of 2 mV.
    fn detect(det: &ModeDetector, capture: &[f64], t0: f64) -> Option<LinkMode> {
        det.detect_with_floor(capture, t0, 0.002)
    }

    fn capture(pattern: [bool; 3], level: f64, floor: f64) -> Vec<f64> {
        let det = ModeDetector::milback();
        let sps = (det.slot_duration * det.sample_rate) as usize;
        pattern
            .iter()
            .flat_map(|&on| std::iter::repeat_n(if on { level } else { floor }, sps))
            .collect()
    }

    #[test]
    fn uplink_pattern_detected() {
        let det = ModeDetector::milback();
        let cap = capture([true, true, true], 0.4, 0.01);
        assert_eq!(detect(&det, &cap, 0.0), Some(LinkMode::Uplink));
    }

    #[test]
    fn downlink_pattern_detected() {
        let det = ModeDetector::milback();
        let cap = capture([true, false, true], 0.4, 0.01);
        assert_eq!(detect(&det, &cap, 0.0), Some(LinkMode::Downlink));
    }

    #[test]
    fn silence_is_none() {
        let det = ModeDetector::milback();
        let cap = capture([false, false, false], 0.4, 0.0);
        assert_eq!(detect(&det, &cap, 0.0), None);
    }

    #[test]
    fn invalid_patterns_are_none() {
        let det = ModeDetector::milback();
        // Single chirp.
        let cap = capture([true, false, false], 0.4, 0.01);
        assert_eq!(detect(&det, &cap, 0.0), None);
        // Gap-first two chirps — not a defined pattern.
        let cap = capture([false, true, true], 0.4, 0.01);
        assert_eq!(detect(&det, &cap, 0.0), None);
    }

    #[test]
    fn detection_with_time_offset() {
        let det = ModeDetector::milback();
        let mut cap = vec![0.01; 100];
        cap.extend(capture([true, false, true], 0.4, 0.01));
        assert_eq!(detect(&det, &cap, 100e-6), Some(LinkMode::Downlink));
    }

    #[test]
    fn noisy_levels_still_detected() {
        let det = ModeDetector::milback();
        let mut cap = capture([true, true, true], 0.4, 0.01);
        for (i, v) in cap.iter_mut().enumerate() {
            *v += 0.02 * ((i as f64) * 0.7).sin();
        }
        assert_eq!(detect(&det, &cap, 0.0), Some(LinkMode::Uplink));
    }

    #[test]
    fn floor_detection_robust_to_noise() {
        let det = ModeDetector::milback();
        let mut cap = capture([true, true, true], 0.003, 0.0);
        // Per-sample noise comparable to the slot levels.
        for (i, v) in cap.iter_mut().enumerate() {
            *v += 0.002 * ((i as f64 * 1.7).sin());
        }
        assert_eq!(
            det.detect_with_floor(&cap, 0.0, 0.002),
            Some(LinkMode::Uplink)
        );
        let mut cap = capture([true, false, true], 0.003, 0.0);
        for (i, v) in cap.iter_mut().enumerate() {
            *v += 0.002 * ((i as f64 * 1.7).sin());
        }
        assert_eq!(
            det.detect_with_floor(&cap, 0.0, 0.002),
            Some(LinkMode::Downlink)
        );
    }

    #[test]
    fn floor_detection_rejects_silence() {
        let det = ModeDetector::milback();
        let cap = vec![0.0001; 135];
        assert_eq!(det.detect_with_floor(&cap, 0.0, 0.002), None);
    }

    #[test]
    fn floor_detection_rejects_inconsistent_outer_slots() {
        let det = ModeDetector::milback();
        // Only slot 0 has a chirp — not a valid pattern.
        let cap = capture([true, false, false], 0.3, 0.0);
        assert_eq!(det.detect_with_floor(&cap, 0.0, 0.001), None);
    }

    #[test]
    fn slot_levels_values() {
        let det = ModeDetector::milback();
        let cap = capture([true, false, true], 1.0, 0.0);
        let levels = det.slot_levels(&cap, 0.0);
        assert!(levels[0] > 0.99 && levels[2] > 0.99);
        assert!(levels[1] < 0.01);
    }
}
