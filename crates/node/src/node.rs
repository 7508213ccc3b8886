//! The MilBack backscatter node (paper §4, Figure 4).
//!
//! A node is a dual-port FSA whose ports are connected through SPDT
//! switches to either the FSA ground plane (reflective) or an envelope
//! detector (absorptive), plus an MCU ADC sampling the detector outputs.
//! There are **no** mmWave active components — no amplifier, mixer,
//! oscillator or phased array.
//!
//! The struct here owns the hardware models and exposes the two things the
//! rest of the system needs:
//!
//! * the reflection coefficients `Γ` the channel renders, in the two
//!   shapes the node's switches take: one `[Γ_A, Γ_B]` per Field-2 chirp
//!   ([`BackscatterNode::field2_gamma`], paper §5.1) and one per uplink
//!   OAQFM symbol ([`uplink_fill_into`], §6.3), and
//! * the receive path: FSA port power → switch through-loss → envelope
//!   detector law, read by the MCU ADC for Field 1
//!   ([`BackscatterNode::receive`]) and as the symbol-rate payload video
//!   ([`BackscatterNode::payload_video_into`]) for the downlink.

use milback_dsp::noise::{count_variates, normal};
use milback_dsp::num::Cpx;
use milback_hw::adc::Adc;
use milback_hw::envelope::{two_tone_envelope, EnvelopeDetector};
use milback_hw::power::PowerModel;
use milback_hw::switch::{SpdtSwitch, SwitchState};
use milback_proto::bits::OaqfmSymbol;
use milback_rf::fsa::DualPortFsa;
use milback_rf::geometry::Pose;
use rand::rngs::StdRng;

/// A complete MilBack backscatter node.
#[derive(Debug, Clone)]
pub struct BackscatterNode {
    /// Where the node is and which way its FSA faces.
    pub pose: Pose,
    /// The dual-port FSA.
    pub fsa: DualPortFsa,
    /// The SPDT switch on each port (identical parts).
    pub switch: SpdtSwitch,
    /// The envelope detector on each port (identical parts).
    pub detector: EnvelopeDetector,
    /// The MCU ADC.
    pub adc: Adc,
    /// Power/energy accounting.
    pub power: PowerModel,
    /// One-way implementation loss, dB: polarization mismatch, connector
    /// and evaluation-board cabling losses of the prototype (paper Fig. 9
    /// wires evaluation boards together). Applied once on the receive path
    /// and twice on backscatter.
    pub impl_loss_db: f64,
}

impl BackscatterNode {
    /// Builds the paper's prototype node at the given pose.
    pub fn milback(pose: Pose) -> Self {
        Self {
            pose,
            fsa: DualPortFsa::milback(),
            switch: SpdtSwitch::adrf5020(),
            // ADL6010 silicon plus the MCU ADC input chain: the effective
            // output-referred noise density of the prototype's detector
            // path, calibrated against Fig. 14's SINR-vs-distance curve.
            detector: EnvelopeDetector {
                noise_density: 400e-9,
                ..EnvelopeDetector::adl6010()
            },
            adc: Adc::msp430(),
            power: PowerModel::milback(),
            impl_loss_db: 6.0,
        }
    }

    /// One-way implementation-loss amplitude factor.
    fn impl_loss_amp(&self) -> f64 {
        10f64.powf(-self.impl_loss_db / 20.0)
    }

    /// The `[absorptive, reflective]` reflection coefficient of one
    /// port as the channel sees it, indexed by the bit the port keys:
    /// the switch throw's Γ through the two-way implementation loss
    /// (backscatter passes it in and out).
    pub fn port_gammas(&self) -> [Cpx; 2] {
        let two_way = self.impl_loss_amp() * self.impl_loss_amp();
        [SwitchState::Absorptive, SwitchState::Reflective].map(|s| self.switch.gamma(s) * two_way)
    }

    /// The node's constant port reflection coefficients while *parked*
    /// (not scheduled on the MAC): both SPDT switches rest on the
    /// absorptive throw, so only the residual switch mismatch — through
    /// the two-way implementation loss — reflects. This is the Γ the
    /// dense-network fabric feeds the channel for every unscheduled
    /// neighbor whose leftover reflection clutters a scheduled node's
    /// capture.
    pub fn parked_gamma(&self) -> [Cpx; 2] {
        let [g, _] = self.port_gammas();
        [g, g]
    }

    /// The node's `[Γ_A, Γ_B]` over Field-2 chirp `chirp` of a burst
    /// (paper §5.1). Port A holds each throw for two chirps, starting
    /// reflective: a square wave at `1/(4·T_chirp)`, ≈ 14 kHz at the
    /// paper's 18 µs chirps, the paper's "10 kHz rate". The chirps see
    /// R, R, A, A, R, so two of the four chirp-pair differences carry
    /// the full node contrast, and no chirp straddles a toggle: Γ is
    /// constant over every chirp. Port B rests absorptive.
    pub fn field2_gamma(&self, chirp: usize) -> [Cpx; 2] {
        // Backscatter passes the implementation loss twice. This
        // expression can differ from `port_gammas`'s `impl_loss_amp()²`
        // in the last bit, and every Field-2 digest depends on it.
        let two_way = 10f64.powf(-2.0 * self.impl_loss_db / 20.0);
        let a = if (chirp / 2).is_multiple_of(2) {
            SwitchState::Reflective
        } else {
            SwitchState::Absorptive
        };
        [a, SwitchState::Absorptive].map(|s| self.switch.gamma(s) * two_way)
    }

    /// Amplitude gain from the FSA port to the detector input: the
    /// switch's absorptive through-loss and the one-way implementation
    /// loss.
    fn rx_gain(&self) -> f64 {
        self.switch.through_gain().sqrt() * self.impl_loss_amp()
    }

    /// The envelope, in volts across the detector input, of `p` watts at
    /// an FSA port: `√(p·R)` through the switch's through-loss and the
    /// one-way implementation loss. Both receive paths, Field 1's ADC
    /// reads and the payload video, convert port power to volts here, so
    /// they share one detector law (`slope` times this envelope).
    fn detector_envelope(&self, p: f64) -> f64 {
        (p * self.detector.input_impedance).sqrt() * self.rx_gain()
    }

    /// One reception at an FSA port, as the MCU ADC reads it (DESIGN.md
    /// §5): at each conversion instant `t_k` in `duration` seconds, the
    /// detector law on the port power `p_port(t_k)` watts (node time, `0`
    /// for silence) plus the detector's output noise, then quantized.
    ///
    /// The ADC reads the detector output unfiltered, so each read carries
    /// the full video-band noise, `σ = output_noise_rms()`, independent
    /// from read to read: one key word of `rng` per reception (none for a
    /// noiseless detector) and read `k`'s variate `normal(key, k, 0)`.
    /// The detector's video one-pole (τ ≈ 4.4 ns at 36 MHz) settles long
    /// before the next 1 µs read, so the reads skip it.
    pub fn receive(
        &self,
        duration: f64,
        p_port: impl Fn(f64) -> f64,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let key = self.detector.noise_key(rng);
        let sigma = self.detector.output_noise_rms();
        let reads: Vec<f64> = self
            .adc
            .instants(duration)
            .enumerate()
            .map(|(k, t)| {
                let v = self.detector.slope * self.detector_envelope(p_port(t));
                let noise = key.map_or(0.0, |key| normal(key, k, 0) * sigma);
                self.adc.quantize(v + noise)
            })
            .collect();
        milback_telemetry::counter_add("node.adc.reads", reads.len() as u64);
        if key.is_some() {
            count_variates(reads.len());
        }
        reads
    }

    /// The payload half of the node's receive path for one port
    /// (DESIGN.md §5), at the symbol-rate comparator's video rate `fs`
    /// rather than the slow ADC's. Over symbol `k` the port receives the
    /// wanted tone (power `p_own` watts at the FSA port) when `own[k]`,
    /// the other tone's cross-port leak (`p_other`) when `other[k]`
    /// (`false` past its end), both, or nothing; two tones beat far
    /// above the video bandwidth, so the detector sees their beat
    /// averaged over its period ([`two_tone_envelope`]). Through the
    /// switch's through-loss and the detector's video with noise on the
    /// stream `key` (from the detector's `noise_key`), into `out`
    /// (cleared first, capacity reused).
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    pub fn payload_video_into(
        &self,
        [p_own, p_other]: [f64; 2],
        own: &[bool],
        other: &[bool],
        symbol_rate: f64,
        fs: f64,
        key: Option<u64>,
        out: &mut Vec<f64>,
    ) {
        let (a, b) = (
            self.detector_envelope(p_own),
            self.detector_envelope(p_other),
        );
        let both = two_tone_envelope(a, b);
        let envelope = |k: usize| match (own[k], other.get(k) == Some(&true)) {
            (true, true) => both,
            (true, false) => a,
            (false, true) => b,
            (false, false) => 0.0,
        };
        self.detector
            .symbol_video_into(own.len(), envelope, symbol_rate, fs, key, out);
    }
}

/// The parked symbol: both ports absorptive, before and after an
/// uplink payload.
const PARKED: OaqfmSymbol = OaqfmSymbol {
    a_on: false,
    b_on: false,
};

/// The switch edges of an uplink symbol stream starting at node time
/// `t0`, at sample rate `fs`, as an endless iterator: edge `k` is the
/// first sample `i` with `t0 + k·(1/symbol_rate) <= i/fs`, where symbol
/// `k` starts (the edge past the last symbol returns the ports to
/// parked). Each edge is found by that predicate, scanning on from the
/// previous one, never rounded onto the symbol grid, so an edge may
/// land one sample past `(t0 + k·ts)·fs`.
pub fn symbol_edges(t0: f64, symbol_rate: f64, fs: f64) -> impl Iterator<Item = usize> {
    let ts = 1.0 / symbol_rate;
    let mut i = 0usize;
    (0usize..).map(move |k| {
        let start = t0 + k as f64 * ts;
        while (i as f64 / fs) < start {
            i += 1;
        }
        i
    })
}

/// Fills `out` (cleared first, capacity reused) with `n` samples at `fs`
/// of an uplink transmission from node time 0 (paper §6.3): the node
/// holds each port's switch throw for a whole OAQFM symbol, port A
/// reflective for the first bit and port B for the second, and parks
/// both absorptive before `t0` and after the last symbol, so the AP's
/// baseband is quiet around the payload. Symbol `k` fills from
/// [`symbol_edges`]'s edge `k` up to edge `k + 1`.
///
/// `value` maps a held symbol to its sample (a branch envelope, say);
/// it is called once per symbol segment, not per sample. Sample `i`
/// therefore holds `value` of the last symbol whose edge predicate
/// holds at `i`, or of the parked symbol before the first edge and past
/// the last.
pub fn uplink_fill_into<T: Copy>(
    symbols: &[OaqfmSymbol],
    t0: f64,
    symbol_rate: f64,
    fs: f64,
    n: usize,
    mut value: impl FnMut(OaqfmSymbol) -> T,
    out: &mut Vec<T>,
) {
    out.clear();
    let mut held = value(PARKED);
    let stream = symbols.iter().copied().chain([PARKED]);
    for (symbol, edge) in stream.zip(symbol_edges(t0, symbol_rate, fs)) {
        out.resize(edge.min(n), held);
        held = value(symbol);
    }
    out.resize(n, held);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn node() -> BackscatterNode {
        BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0))
    }

    #[test]
    fn port_gammas_keep_the_switch_contrast() {
        let n = node();
        let [off, on] = n.port_gammas();
        // Two-way implementation loss scales both, but the reflective
        // throw must stay far stronger than the absorptive one.
        let two_way = 10f64.powf(-2.0 * n.impl_loss_db / 20.0);
        assert!((on.re - n.switch.gamma(SwitchState::Reflective).re * two_way).abs() < 1e-12);
        assert!(
            on.abs() / off.abs() > 5.0,
            "contrast lost: {on:?} vs {off:?}"
        );
        assert_eq!(n.parked_gamma(), [off, off]);
    }

    #[test]
    fn field2_gamma_toggles_port_a_every_two_chirps() {
        let n = node();
        let [first, parked] = n.field2_gamma(0);
        assert!(first.abs() / parked.abs() > 5.0, "{first:?} vs {parked:?}");
        for chirp in 0..8 {
            let [a, b] = n.field2_gamma(chirp);
            let want = if [0, 1, 4, 5].contains(&chirp) {
                first
            } else {
                parked
            };
            assert_eq!(a, want, "chirp {chirp}");
            assert_eq!(b, parked, "chirp {chirp}");
        }
    }

    #[test]
    fn receive_reads_at_the_adc_rate() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(3);
        // 100 µs of a port → 100 reads of the 1 MHz ADC.
        let out = n.receive(100e-6, |_| 1e-6, &mut rng);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn silence_reads_the_detector_noise_alone() {
        // One key word per reception, silent or not, and reads of
        // silence carry the full video-band noise (clipped below 0 V by
        // the ADC, so half the reads sit at 0 and the rest at |noise|).
        let n = node();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ref_rng = rng.clone();
        let quiet = n.receive(20e-3, |_| 0.0, &mut rng);
        let _ = ref_rng.gen::<u64>();
        assert_eq!(rng, ref_rng, "one key word per reception");
        let sigma = n.detector.output_noise_rms();
        let second_moment = quiet.iter().map(|v| v * v).sum::<f64>() / quiet.len() as f64;
        assert!(
            (second_moment / (0.5 * sigma * sigma) - 1.0).abs() < 0.1,
            "read noise {} vs σ {sigma}",
            second_moment.sqrt()
        );
        let noiseless = BackscatterNode {
            detector: EnvelopeDetector {
                noise_density: 0.0,
                ..n.detector
            },
            ..n.clone()
        };
        let mut still = StdRng::seed_from_u64(5);
        assert!(noiseless
            .receive(45e-6, |_| 0.0, &mut still)
            .iter()
            .all(|&v| v == 0.0));
        assert_eq!(
            still,
            StdRng::seed_from_u64(5),
            "a noiseless detector draws no key"
        );
    }

    #[test]
    fn adc_reads_match_the_video_read_at_the_same_instants() {
        // The reads skip the detector's video one-pole: evaluated at the
        // ADC instants, the detector law on a Field-1-like power bump
        // (a 2 µs Gaussian, as the FSA beam sweeps past the AP) equals
        // the one-pole video of the same envelope rendered at 2·B_video
        // and quantized at those instants, to within 1% of the peak plus
        // one ADC step. The one-pole's 4.4 ns lag is all that separates
        // them.
        let n = BackscatterNode {
            detector: EnvelopeDetector {
                noise_density: 0.0,
                ..EnvelopeDetector::adl6010()
            },
            ..node()
        };
        let p = |t: f64| 1e-4 * (-((t - 20e-6) / 2e-6).powi(2)).exp();
        let reads = n.receive(45e-6, p, &mut StdRng::seed_from_u64(1));
        let fs = 2.0 * n.detector.video_bandwidth;
        let mut video = Vec::new();
        let samples = (45e-6 * fs).round() as usize;
        let envelope = |i: usize| n.detector_envelope(p(i as f64 / fs));
        n.detector
            .symbol_video_into(samples, envelope, fs, fs, None, &mut video);
        let peak = n.detector.slope * n.detector_envelope(1e-4);
        for (k, &read) in reads.iter().enumerate() {
            let at = n
                .adc
                .quantize(video[(k as f64 * 1e-6 * fs).round() as usize]);
            assert!(
                (read - at).abs() <= 0.01 * peak + n.adc.lsb(),
                "read {k}: {read} V vs video {at} V (peak {peak} V)"
            );
        }
    }

    #[test]
    fn receive_strong_tone_is_visible() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(4);
        let p_in = 1e-6; // −30 dBm at the port
        let out = n.receive(200e-6, |_| p_in, &mut rng);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let one_way = 10f64.powf(-n.impl_loss_db / 10.0);
        let expected = n
            .detector
            .ideal_output(p_in * n.switch.through_gain() * one_way);
        assert!(
            (mean / expected - 1.0).abs() < 0.1,
            "mean {mean} vs {expected}"
        );
    }
}
