//! MCU ADC model (MSP430-class).
//!
//! The node's microcontroller samples the two envelope-detector outputs —
//! at 1 MHz for orientation sensing (paper §9.3) and at the symbol rate
//! for downlink data. The model captures sample-rate conversion,
//! quantization and clipping.

use milback_dsp::resample::{sample_at_reads, sample_at_with};

/// A successive-approximation ADC as found on a low-power MCU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Sample rate, Hz.
    pub sample_rate: f64,
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input voltage (inputs are clipped to `[0, v_ref]`).
    pub v_ref: f64,
}

impl Adc {
    /// The MSP430FR6989-class 12-bit ADC sampling at 1 MHz used for
    /// node-side orientation sensing.
    pub fn msp430() -> Self {
        Self {
            sample_rate: 1e6,
            bits: 12,
            v_ref: 2.5,
        }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Quantization step size, volts.
    pub fn lsb(&self) -> f64 {
        self.v_ref / self.levels() as f64
    }

    /// Quantizes a single voltage to the nearest code's voltage, clipping
    /// to the input range.
    pub fn quantize(&self, v: f64) -> f64 {
        let clipped = v.clamp(0.0, self.v_ref);
        let code = (clipped / self.lsb())
            .round()
            .min((self.levels() - 1) as f64);
        code * self.lsb()
    }

    /// Samples an analog waveform given at rate `fs_in`, producing
    /// quantized samples at the ADC's own rate.
    pub fn capture(&self, analog: &[f64], fs_in: f64) -> Vec<f64> {
        self.capture_with(analog.len(), fs_in, |i| analog[i])
    }

    /// [`Adc::capture`] of an `n_in`-sample waveform given by `value(i)`,
    /// called only at the indices [`Adc::read_indices`] names (once per
    /// conversion instant that reads it): bitwise `capture(&wave, fs_in)`
    /// when `value(i) == wave[i]` there.
    pub fn capture_with(
        &self,
        n_in: usize,
        fs_in: f64,
        mut value: impl FnMut(usize) -> f64,
    ) -> Vec<f64> {
        assert!(fs_in > 0.0, "input rate must be positive");
        self.instants(n_in, fs_in)
            .map(|t| self.quantize(sample_at_with(n_in, fs_in, t, &mut value)))
            .collect()
    }

    /// The input indices [`Adc::capture`] reads from an `n_in`-sample
    /// waveform at `fs_in`, ascending and without repeats: the samples
    /// each conversion instant interpolates between. A capture of a
    /// waveform that differs only at other indices is bitwise the same.
    pub fn read_indices(&self, n_in: usize, fs_in: f64) -> impl Iterator<Item = usize> {
        let mut next = 0;
        self.instants(n_in, fs_in)
            .flat_map(move |t| sample_at_reads(n_in, fs_in, t))
            .filter(move |&i| {
                let fresh = i >= next;
                next = next.max(i + 1);
                fresh
            })
    }

    /// Conversion instants (seconds) over an `n_in`-sample waveform at
    /// `fs_in`: every ADC period that fits in its duration.
    fn instants(&self, n_in: usize, fs_in: f64) -> impl Iterator<Item = f64> {
        let rate = self.sample_rate;
        let n = (n_in as f64 / fs_in * rate).floor() as usize;
        (0..n).map(move |i| i as f64 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_lsb() {
        let adc = Adc::msp430();
        assert_eq!(adc.levels(), 4096);
        assert!((adc.lsb() - 2.5 / 4096.0).abs() < 1e-15);
    }

    #[test]
    fn quantize_rounds_and_clips() {
        let adc = Adc::msp430();
        assert_eq!(adc.quantize(-1.0), 0.0);
        assert_eq!(adc.quantize(5.0), (adc.levels() - 1) as f64 * adc.lsb());
        let v = 1.2345;
        let q = adc.quantize(v);
        assert!((q - v).abs() <= adc.lsb() / 2.0 + 1e-15);
    }

    #[test]
    fn capture_rate_conversion() {
        let adc = Adc::msp430();
        // 10 ms of a 100 MHz-sampled ramp → 10_000 ADC samples.
        let fs_in = 100e6;
        let n_in = (0.01 * fs_in) as usize;
        let analog: Vec<f64> = (0..n_in).map(|i| i as f64 / n_in as f64 * 2.0).collect();
        let out = adc.capture(&analog, fs_in);
        assert_eq!(out.len(), 10_000);
        // Mid-capture value ≈ 1.0 V.
        assert!((out[5000] - 1.0).abs() < 0.01);
    }

    #[test]
    fn capture_reads_only_the_read_indices() {
        // Rates that put instants on, between and (at the fast rate)
        // sharing input samples.
        for (rate, fs_in, n_in) in [(1e6, 3.3e6, 100), (1e6, 1e8, 1000), (3e6, 2e6, 41)] {
            let adc = Adc {
                sample_rate: rate,
                ..Adc::msp430()
            };
            let analog: Vec<f64> = (0..n_in).map(|i| 0.3 + (i as f64 * 0.37).sin()).collect();
            let reads: Vec<usize> = adc.read_indices(n_in, fs_in).collect();
            assert!(reads.windows(2).all(|w| w[0] < w[1]), "not ascending");
            let mut poisoned = vec![f64::NAN; n_in];
            for &i in &reads {
                poisoned[i] = analog[i];
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(adc.capture(&poisoned, fs_in)),
                bits(adc.capture(&analog, fs_in)),
                "rate {rate}, fs_in {fs_in}"
            );
        }
    }

    #[test]
    fn capture_empty() {
        let adc = Adc::msp430();
        assert!(adc.capture(&[], 1e6).is_empty());
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = Adc::msp430();
        for i in 0..1000 {
            let v = i as f64 * 0.0025;
            let q = adc.quantize(v);
            assert!((q - v).abs() <= adc.lsb() / 2.0 + 1e-12, "v={v}");
        }
    }
}
