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
//! * the reflection coefficients `Γ` the channel renders, as
//!   piecewise-constant runs filled from per-port [`SwitchSchedule`]s
//!   ([`fill_gamma_runs`]), and
//! * the receive path: FSA port → switch through-loss → envelope
//!   detector ([`BackscatterNode::port_video_into`], noiseless) → detector
//!   noise and ADC ([`BackscatterNode::sample_video`]) for Field 1, and
//!   the symbol-rate payload video
//!   ([`BackscatterNode::payload_video_into`]) for the downlink.

use milback_dsp::noise::{add_real_noise_at, count_variates, normal};
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_hw::adc::Adc;
use milback_hw::envelope::{two_tone_envelope, EnvelopeDetector};
use milback_hw::power::PowerModel;
use milback_hw::switch::{for_each_state_run, SpdtSwitch, SwitchSchedule, SwitchState};
use milback_rf::channel::GammaRun;
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

    /// The node's constant port reflection coefficients while *parked*
    /// (not scheduled on the MAC): both SPDT switches rest on the
    /// absorptive throw, so only the residual switch mismatch — through
    /// the two-way implementation loss — reflects. This is the Γ the
    /// dense-network fabric feeds the channel for every unscheduled
    /// neighbor whose leftover reflection clutters a scheduled node's
    /// capture.
    pub fn parked_gamma(&self) -> [Cpx; 2] {
        let two_way = self.impl_loss_amp() * self.impl_loss_amp();
        let g = self.switch.gamma(SwitchState::Absorptive) * two_way;
        [g, g]
    }

    /// Fills `runs` with the channel-facing Γ runs of per-port
    /// schedules over `n` samples at `fs`, starting at node time 0: each
    /// throw's switch reflection coefficient through the two-way
    /// implementation loss. See [`fill_gamma_runs`].
    pub fn gamma_runs_into(
        &self,
        port_a: &SwitchSchedule,
        port_b: &SwitchSchedule,
        fs: f64,
        n: usize,
        runs: &mut Vec<GammaRun>,
    ) {
        // Backscatter passes the implementation loss twice (in and out).
        let two_way = self.impl_loss_amp() * self.impl_loss_amp();
        let gamma = |state| self.switch.gamma(state) * two_way;
        fill_gamma_runs(port_a, port_b, gamma, 0.0, fs, n, runs);
    }

    /// Amplitude gain from the FSA port to the detector input: the
    /// switch's absorptive through-loss and the one-way implementation
    /// loss.
    fn rx_gain(&self) -> f64 {
        self.switch.through_gain().sqrt() * self.impl_loss_amp()
    }

    /// The video half of the node's receive path for one port: the RF
    /// signal at the FSA port (as produced by `Scene::to_node_port_into`)
    /// through the switch's absorptive through-loss and the envelope
    /// detector's video low-pass, into `out` (cleared first, capacity
    /// reused) at the signal's rate. Noiseless: a pure function of the
    /// signal and the receive chain, so a caller may keep it and run
    /// [`Self::sample_video`] on a copy once per reception.
    pub fn port_video_into(&self, at_port: &Signal, out: &mut Vec<f64>) {
        self.detector
            .video_into(&at_port.samples, self.rx_gain(), at_port.fs, out);
    }

    /// The sampling half of the node's receive path: adds detector noise
    /// to the noiseless `video` at `fs` (in place) and samples it with
    /// the MCU ADC. Returns ADC samples (volts at `adc.sample_rate`).
    ///
    /// The noise is additive and addressable per sample, so only the
    /// samples the ADC interpolates between get (and cost) a variate:
    /// the same bits full-rate noising on the reception's key would give
    /// them, from one key word of `rng`. Samples the ADC does not read
    /// stay noiseless.
    pub fn sample_video(&self, video: &mut [f64], fs: f64, rng: &mut StdRng) -> Vec<f64> {
        if let Some(key) = self.detector.noise_key(rng) {
            let reads = self.adc.read_indices(video.len(), fs);
            add_real_noise_at(video, reads, self.detector.output_noise_rms(), key);
        }
        self.adc.capture(video, fs)
    }

    /// The receive path for a port that receives nothing for `n`
    /// samples at `fs`: the detector output rests at exactly 0 V (a zero
    /// envelope through the one-pole filter from rest), so only its
    /// noise at the ADC's read indices reaches the ADC. Bitwise the same
    /// as [`Self::sample_video`] on an all-zero video, with the same
    /// key draw, without any video buffer.
    pub fn receive_silence(&self, n: usize, fs: f64, rng: &mut StdRng) -> Vec<f64> {
        let Some(key) = self.detector.noise_key(rng) else {
            return self.adc.capture_with(n, fs, |_| 0.0);
        };
        let sigma = self.detector.output_noise_rms();
        // Instants that share an input sample evaluate its variate
        // again; the ledger counts each read sample once, as
        // `sample_video` does.
        count_variates(self.adc.read_indices(n, fs).count());
        // `0.0 +` as `sample_video` adds the noise to a zero sample.
        self.adc
            .capture_with(n, fs, |i| 0.0 + normal(key, i, 0) * sigma)
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
        let volts = |p: f64| (p * self.detector.input_impedance).sqrt() * self.rx_gain();
        let (a, b) = (volts(p_own), volts(p_other));
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

/// Fills `runs` (cleared first, capacity reused) with the `[Γ_A, Γ_B]`
/// runs of two port schedules over `n` samples at the instants
/// `t_off + i as f64 / fs`, ready for a
/// [`milback_rf::channel::NodeInterface`].
///
/// `gamma` maps a switch throw to the port's reflection coefficient; it
/// is called once per throw per fill, not per sample. Each run's states
/// come from [`for_each_state_run`], so expanding the runs gives, bit
/// for bit, `gamma(schedule.state_at(t_off + i as f64 / fs))` per port
/// and sample.
pub fn fill_gamma_runs(
    port_a: &SwitchSchedule,
    port_b: &SwitchSchedule,
    gamma: impl Fn(SwitchState) -> Cpx,
    t_off: f64,
    fs: f64,
    n: usize,
    runs: &mut Vec<GammaRun>,
) {
    let reflective = gamma(SwitchState::Reflective);
    let absorptive = gamma(SwitchState::Absorptive);
    let of = |state| match state {
        SwitchState::Reflective => reflective,
        SwitchState::Absorptive => absorptive,
    };
    runs.clear();
    for_each_state_run(port_a, port_b, t_off, fs, n, |end, [a, b]| {
        runs.push(GammaRun {
            end,
            gamma: [of(a), of(b)],
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::noise::add_real_noise_keyed;
    use rand::{Rng, SeedableRng};

    fn node() -> BackscatterNode {
        BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0))
    }

    /// Both halves of the ADC receive path, back to back.
    fn receive(n: &BackscatterNode, sig: &Signal, rng: &mut StdRng) -> Vec<f64> {
        let mut video = Vec::new();
        n.port_video_into(sig, &mut video);
        n.sample_video(&mut video, sig.fs, rng)
    }

    /// Expands runs back to one `[Γ_A, Γ_B]` per sample.
    fn expand(runs: &[GammaRun]) -> Vec<[Cpx; 2]> {
        let mut out = Vec::new();
        for run in runs {
            out.resize(run.end, run.gamma);
        }
        out
    }

    #[test]
    fn gamma_runs_track_states() {
        let n = node();
        let a = SwitchSchedule::Constant(SwitchState::Reflective);
        let b = SwitchSchedule::Constant(SwitchState::Absorptive);
        let mut runs = Vec::new();
        n.gamma_runs_into(&a, &b, 1e8, 500, &mut runs);
        assert_eq!(runs.len(), 1, "constant ports are one run");
        assert_eq!(runs[0].end, 500);
        let [ga, gb] = runs[0].gamma;
        // Two-way implementation loss scales both, but the reflective
        // port must stay far stronger than the absorptive one.
        let two_way = 10f64.powf(-2.0 * n.impl_loss_db / 20.0);
        assert!((ga.re - n.switch.gamma(SwitchState::Reflective).re * two_way).abs() < 1e-12);
        assert!(ga.abs() / gb.abs() > 5.0, "contrast lost: {ga:?} vs {gb:?}");
    }

    #[test]
    fn gamma_runs_follow_square_wave() {
        let n = node();
        let a = SwitchSchedule::SquareWave {
            freq_hz: 10e3,
            first: SwitchState::Reflective,
        };
        let b = SwitchSchedule::Constant(SwitchState::Absorptive);
        let mut runs = Vec::new();
        // 200 µs at 1 MHz: four 50 µs half-periods. Boundaries follow
        // the schedule's own floating-point arithmetic, so one may land
        // a sample late (i/fs just below a multiple of 50 µs).
        n.gamma_runs_into(&a, &b, 1e6, 200, &mut runs);
        assert_eq!(runs.len(), 4);
        for (k, run) in runs.iter().enumerate() {
            assert!(
                run.end.abs_diff(50 * (k + 1)) <= 1,
                "run {k} ends at {}",
                run.end
            );
        }
        assert_eq!(runs[3].end, 200);
        let (g0, g1) = (runs[0].gamma[0], runs[1].gamma[0]);
        assert!(
            g0.abs() / g1.abs() > 5.0,
            "square wave lost: {g0:?} vs {g1:?}"
        );
        assert_eq!(runs[0].gamma, runs[2].gamma);
    }

    #[test]
    fn filled_runs_expand_to_per_sample_gamma() {
        // Every sample of the expansion equals Γ of that instant's
        // switch state, computed the per-sample way.
        let n = node();
        let two_way = 10f64.powf(-2.0 * n.impl_loss_db / 20.0);
        let per_state = |s| n.switch.gamma(s) * two_way;
        let a = SwitchSchedule::from_events(vec![
            (0.0, SwitchState::Absorptive),
            (1e-6, SwitchState::Reflective),
            (1e-6, SwitchState::Absorptive),
            (2.5e-6, SwitchState::Reflective),
        ]);
        let b = SwitchSchedule::SquareWave {
            freq_hz: 300e3,
            first: SwitchState::Absorptive,
        };
        let (t_off, fs, len) = (0.4e-6, 20e6, 90);
        let mut runs = Vec::new();
        fill_gamma_runs(&a, &b, per_state, t_off, fs, len, &mut runs);
        let expanded = expand(&runs);
        assert_eq!(expanded.len(), len);
        for (i, g) in expanded.iter().enumerate() {
            let t = t_off + i as f64 / fs;
            assert_eq!(*g, [per_state(a.state_at(t)), per_state(b.state_at(t))]);
        }
        // Refilling reuses the buffer and replaces its contents.
        fill_gamma_runs(&a, &a, per_state, 0.0, fs, 10, &mut runs);
        assert_eq!(runs.last().map(|r| r.end), Some(10));
    }

    #[test]
    fn receive_port_produces_adc_rate_samples() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(3);
        // 100 µs of signal at 100 MHz → 100 samples at the 1 MHz ADC.
        let sig = Signal::tone(1e8, 28e9, 0.0, 1e-3, 10_000);
        let out = receive(&n, &sig, &mut rng);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn receive_port_matches_full_rate_detection_bitwise() {
        // The reference path: scale a copy of the signal, detect with
        // noise on every sample, then let the ADC read it.
        let n = node();
        let fs = 3.3e8;
        let samples = (0..20_001)
            .map(|i| {
                let amp = 1e-2 * (1.0 + (i as f64 * 1e-3).sin());
                Cpx::from_polar(amp, i as f64 * 0.1)
            })
            .collect();
        let sig = Signal::new(fs, 28e9, samples);
        let reference = |sig: &Signal, rng: &mut StdRng| {
            let mut scaled = sig.clone();
            scaled.scale(n.rx_gain());
            let mut video = Vec::new();
            n.detector
                .video_into(&scaled.samples, 1.0, scaled.fs, &mut video);
            if let Some(key) = n.detector.noise_key(rng) {
                add_real_noise_keyed(&mut video, n.detector.output_noise_rms(), key);
            }
            n.adc.capture(&video, sig.fs)
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(8);
        let mut ref_rng = rng.clone();
        assert_eq!(
            bits(receive(&n, &sig, &mut rng)),
            bits(reference(&sig, &mut ref_rng))
        );
        let silence = Signal::zeros(fs, 28e9, 7_000);
        assert_eq!(
            bits(n.receive_silence(silence.len(), fs, &mut rng)),
            bits(reference(&silence, &mut ref_rng))
        );
        // One kept video serves repeated receptions: sampling a fresh
        // copy of it each time matches detecting each reception in full.
        let mut kept = Vec::new();
        n.port_video_into(&sig, &mut kept);
        for _ in 0..2 {
            let mut copy = kept.clone();
            assert_eq!(
                bits(n.sample_video(&mut copy, fs, &mut rng)),
                bits(reference(&sig, &mut ref_rng))
            );
        }
        // Both paths drew one key word per reception.
        assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
    }

    #[test]
    fn silence_matches_sampling_a_zero_video() {
        // `receive_silence` renders no video: pinned bit for bit, with
        // the RNG after, against `sample_video` on an all-zero one, at
        // the Field-1 rate and at rates where instants share reads.
        let n = node();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (len, fs) in [(144_000, 1.44e9), (7_001, 3.3e8), (50, 1.5e6), (0, 1e8)] {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let mut ref_rng = rng.clone();
            assert_eq!(
                bits(n.receive_silence(len, fs, &mut rng)),
                bits(n.sample_video(&mut vec![0.0; len], fs, &mut ref_rng)),
                "{len} samples at {fs}"
            );
            assert_eq!(rng, ref_rng, "RNG after {len} samples at {fs}");
        }
    }

    #[test]
    fn receive_strong_tone_is_visible() {
        let n = node();
        let mut rng = StdRng::seed_from_u64(4);
        let p_in = 1e-6; // −30 dBm at the port
        let amp = (p_in * n.detector.input_impedance).sqrt();
        let sig = Signal::tone(1e8, 28e9, 0.0, amp, 20_000);
        let out = receive(&n, &sig, &mut rng);
        let settled = &out[50..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
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
