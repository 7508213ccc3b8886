//! MCU ADC model (MSP430-class).
//!
//! The node's microcontroller samples the two envelope-detector outputs —
//! at 1 MHz for orientation sensing (paper §9.3) and at the symbol rate
//! for downlink data. The model captures the conversion instants,
//! quantization and clipping.

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

    /// Conversion instants (seconds from the window's start) over a
    /// `duration`-second window: every ADC period that fits in it.
    pub fn instants(&self, duration: f64) -> impl Iterator<Item = f64> {
        let rate = self.sample_rate;
        let n = (duration * rate).floor() as usize;
        (0..n).map(move |k| k as f64 / rate)
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
    fn instants_fill_the_window_at_the_adc_rate() {
        let adc = Adc::msp430();
        let t: Vec<f64> = adc.instants(45e-6).collect();
        assert_eq!(t.len(), 45);
        assert_eq!((t[0], t[44]), (0.0, 44e-6));
        assert_eq!(adc.instants(0.5e-6).count(), 0);
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
