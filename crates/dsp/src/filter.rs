//! Digital filters: the single-pole low-pass used to model
//! envelope-detector video bandwidth, and a moving-average smoother.

use std::f64::consts::PI;

// ---------------------------------------------------------------------------
// Single-pole low-pass (RC)
// ---------------------------------------------------------------------------

/// First-order RC low-pass, used to model the finite video bandwidth
/// (rise/fall time) of the envelope detectors: `y[n] = y[n-1] + α(x[n] −
/// y[n-1])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePole {
    alpha: f64,
    state: f64,
}

impl OnePole {
    /// Creates a one-pole low-pass with 3 dB corner `f3db` Hz at sample rate
    /// `fs`.
    pub fn new(f3db: f64, fs: f64) -> Self {
        assert!(f3db > 0.0 && fs > 0.0, "invalid one-pole parameters");
        // Exact impulse-invariant mapping.
        let alpha = 1.0 - (-2.0 * PI * f3db / fs).exp();
        Self { alpha, state: 0.0 }
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        self.state += self.alpha * (x - self.state);
        self.state
    }
}

/// Simple moving-average smoother over a window of `w` samples (w ≥ 1).
pub fn moving_average(input: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1, "window must be at least 1");
    if input.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0.0;
    for i in 0..input.len() {
        acc += input[i];
        if i >= w {
            acc -= input[i - w];
        }
        let n = (i + 1).min(w);
        out.push(acc / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pole_step_response_rise_time() {
        let fs = 1e9;
        let rise = 10e-9; // 10 ns, like a fast envelope detector
                          // 10–90% rise time t_r ≈ 0.35 / f3db.
        let mut lp = OnePole::new(0.35 / rise, fs);
        let y: Vec<f64> = (0..100).map(|_| lp.step(1.0)).collect();
        // Find 10% and 90% crossing times.
        let t10 = y.iter().position(|v| *v >= 0.1).unwrap() as f64 / fs;
        let t90 = y.iter().position(|v| *v >= 0.9).unwrap() as f64 / fs;
        let measured = t90 - t10;
        assert!(
            (measured - rise).abs() < 0.35 * rise,
            "rise time {measured} vs requested {rise}"
        );
    }

    #[test]
    fn one_pole_tracks_dc() {
        let mut lp = OnePole::new(1e6, 1e9);
        let last = (0..10_000).map(|_| lp.step(2.5)).last().unwrap();
        assert!((last - 2.5).abs() < 1e-6);
    }

    #[test]
    fn moving_average_smooths() {
        let v = [0.0, 0.0, 4.0, 4.0, 4.0, 4.0];
        let y = moving_average(&v, 4);
        assert_eq!(y[0], 0.0);
        assert_eq!(y[3], 2.0); // window covers samples 0..=3 → (0+0+4+4)/4
        assert_eq!(y[5], 4.0); // window covers samples 2..=5 → all 4.0
        let y = moving_average(&[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(y, vec![1.0, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v = [3.0, -1.0, 2.0];
        assert_eq!(moving_average(&v, 1), v.to_vec());
    }
}
