//! Uplink receiver — the paper's Figure 7 chain at its detection
//! bandwidth.
//!
//! Per RX antenna: LNA → mixer (× one query tone) → band-pass → DC block
//! → coherent projection → per-symbol integration → slicing. The
//! receiver takes each branch as the complex envelope of its query tone
//! after the mixer, sampled at `samples_per_symbol × symbol_rate`
//! (`milback::link` renders it per Γ run from
//! `milback_rf::channel::Scene::tone_response`): the other tone and
//! everything else outside the branch's band never reach it, as the
//! hardware filter ensures. The LNA's noise is drawn over that
//! bandwidth.
//!
//! Clutter and self-interference are unmodulated copies of the query, so
//! at the tone's own frequency they are a constant; the node's keyed
//! reflection steps between two levels with its modulation intact. A
//! digital DC block (the paper's band-pass filter) removes the former.
//!
//! Projection sign ambiguity: after DC blocking, "on" symbols sit at
//! `+A(1−p)` and "off" at `−Ap` along an unknown phasor. The transmitted
//! symbol stream starts with the known [`milback_proto::packet`] uplink
//! pilot, which fixes the sign.

use milback_dsp::noise::thermal_noise_power;
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;
use milback_proto::bits::OaqfmSymbol;
use milback_rf::frontend::Lna;
use rand::rngs::StdRng;

/// Known pilot prefix for uplink payloads: both ports alternate
/// reflect/absorb, giving each branch the pattern `1,0,1,0`.
pub const UPLINK_PILOT: [OaqfmSymbol; 4] = [
    OaqfmSymbol {
        a_on: true,
        b_on: true,
    },
    OaqfmSymbol {
        a_on: false,
        b_on: false,
    },
    OaqfmSymbol {
        a_on: true,
        b_on: true,
    },
    OaqfmSymbol {
        a_on: false,
        b_on: false,
    },
];

/// Link statistics from an uplink demodulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkStats {
    /// Estimated SNR of the symbol decision variable, linear power ratio
    /// (min across the two branches).
    pub snr: f64,
    /// Per-branch SNR `[A, B]`.
    pub branch_snr: [f64; 2],
}

/// Pooled working buffers for [`UplinkReceiver::demodulate_into`], one
/// working set per antenna branch. A warmed scratch makes repeated
/// demodulations allocation-free.
#[derive(Debug, Clone, Default)]
pub struct UplinkScratch {
    /// Branch A (RX antenna 0) and branch B (RX antenna 1).
    branches: [BranchScratch; 2],
}

/// One branch's buffers: the noisy decision stream, per-symbol points,
/// decision levels and slices.
#[derive(Debug, Clone, Default)]
struct BranchScratch {
    /// The branch stream after the LNA and the DC block.
    work: Vec<Cpx>,
    /// Per-symbol complex means.
    pts: Vec<Cpx>,
    /// Projected decision levels.
    lev: Vec<f64>,
    /// Sliced decisions.
    dec: Vec<bool>,
    /// On/off level clusters for the SNR estimate.
    on: Vec<f64>,
    off: Vec<f64>,
}

/// The AP's uplink receiver.
#[derive(Debug, Clone, Copy)]
pub struct UplinkReceiver {
    /// The per-antenna LNA.
    pub lna: Lna,
    /// Payload symbol rate, symbols/s.
    pub symbol_rate: f64,
    /// Branch samples per symbol: the detection bandwidth as a multiple
    /// of the symbol rate.
    pub samples_per_symbol: usize,
}

impl UplinkReceiver {
    /// The paper's receiver at the given symbol rate.
    pub fn milback(symbol_rate: f64) -> Self {
        Self {
            lna: Lna::milback(),
            symbol_rate,
            samples_per_symbol: 8,
        }
    }

    /// Sample rate of a branch stream, which is also its noise
    /// bandwidth: `samples_per_symbol × symbol_rate`.
    pub fn branch_rate(&self) -> f64 {
        self.symbol_rate * self.samples_per_symbol as f64
    }

    /// One branch of the Figure-7 chain after the mixer: branch envelope
    /// → LNA (adds thermal noise over the branch bandwidth) → DC block →
    /// per-symbol points → projection (sign fixed by `pilot_on`) →
    /// slicing. `scr.lev`/`scr.dec` hold the levels and decisions on
    /// return; the returned value is the branch SNR.
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    fn branch(
        &self,
        scr: &mut BranchScratch,
        rx: &Signal,
        t0: f64,
        n_symbols: usize,
        pilot_on: &[bool],
        noise_key: Option<u64>,
    ) -> f64 {
        let work = std::mem::take(&mut scr.work);
        let mut sig = Signal::new(rx.fs, rx.fc, work);
        sig.copy_from(rx);
        self.lna.apply(&mut sig, rx.fs, noise_key);
        // DC block (the band-pass filter of Fig. 7): remove the stream
        // mean, which holds all static clutter + self-interference
        // energy. An empty stream has a zero mean.
        let n = sig.len();
        let mean = if n == 0 {
            ZERO
        } else {
            sig.samples.iter().copied().sum::<Cpx>() / n as f64
        };
        for c in sig.samples.iter_mut() {
            *c -= mean;
        }
        let fs = sig.fs;
        scr.work = sig.samples;
        self.symbol_points_into(fs, &scr.work, t0, n_symbols, &mut scr.pts);
        Self::project_into(&scr.pts, pilot_on, &mut scr.lev);
        Self::slice_into(&scr.lev, &mut scr.dec);
        Self::level_snr(&scr.lev, &scr.dec, &mut scr.on, &mut scr.off)
    }

    /// Per-symbol complex means of a decision stream starting at `t0`.
    fn symbol_points_into(&self, fs: f64, stream: &[Cpx], t0: f64, n: usize, out: &mut Vec<Cpx>) {
        let sps = fs / self.symbol_rate;
        out.clear();
        for k in 0..n {
            let start = ((t0 * fs) + (k as f64 + 0.25) * sps) as usize;
            let end = (((t0 * fs) + (k as f64 + 0.95) * sps) as usize).min(stream.len());
            if start >= end {
                out.push(ZERO);
                continue;
            }
            let sum: Cpx = stream[start..end].iter().copied().sum();
            out.push(sum / (end - start) as f64);
        }
    }

    /// Projects complex symbol points onto their dominant axis and fixes
    /// the sign with the pilot pattern, writing real decision levels.
    fn project_into(points: &[Cpx], pilot_on: &[bool], levels: &mut Vec<f64>) {
        // Dominant axis via the second-moment direction: arg(Σ p²)/2.
        let m2: Cpx = points.iter().map(|p| *p * *p).sum();
        let axis = Cpx::cis(-m2.arg() / 2.0);
        levels.clear();
        levels.extend(points.iter().map(|p| (*p * axis).re));
        // Pilot correlation fixes the ± ambiguity.
        let corr: f64 = pilot_on
            .iter()
            .zip(levels.iter())
            .map(|(&on, &l)| if on { l } else { -l })
            .sum();
        if corr < 0.0 {
            for l in levels.iter_mut() {
                *l = -*l;
            }
        }
    }

    /// Slices projected levels at the midpoint threshold.
    fn slice_into(levels: &[f64], out: &mut Vec<bool>) {
        let max = levels.iter().cloned().fold(f64::MIN, f64::max);
        let min = levels.iter().cloned().fold(f64::MAX, f64::min);
        let thr = (max + min) / 2.0;
        out.clear();
        out.extend(levels.iter().map(|l| *l > thr));
    }

    /// SNR of the decision variable from sliced levels: distance between
    /// cluster means squared over the summed cluster variances. `on` /
    /// `off` are pooled cluster buffers.
    fn level_snr(levels: &[f64], decisions: &[bool], on: &mut Vec<f64>, off: &mut Vec<f64>) -> f64 {
        on.clear();
        on.extend(
            levels
                .iter()
                .zip(decisions)
                .filter(|(_, d)| **d)
                .map(|(l, _)| *l),
        );
        off.clear();
        off.extend(
            levels
                .iter()
                .zip(decisions)
                .filter(|(_, d)| !**d)
                .map(|(l, _)| *l),
        );
        if on.is_empty() || off.is_empty() {
            return 0.0;
        }
        let mu_on = milback_dsp::stats::mean(on);
        let mu_off = milback_dsp::stats::mean(off);
        let var = milback_dsp::stats::variance(on) + milback_dsp::stats::variance(off);
        if var <= 0.0 {
            return f64::INFINITY;
        }
        (mu_on - mu_off).powi(2) / var
    }

    /// Demodulates an uplink into symbols (pilot included in the stream
    /// written to `out`) and returns the link statistics.
    ///
    /// * `rx0`/`rx1` — the two branches' noiseless envelopes at
    ///   [`UplinkReceiver::branch_rate`]: RX antenna 0 mixed with the
    ///   port-A tone, RX antenna 1 with the port-B tone,
    /// * `t0` — time of the first (pilot) symbol within them,
    /// * `n_symbols` — total symbols including the 4-symbol pilot.
    ///
    /// Runs through the pooled buffers of `scr`: a warmed scratch makes
    /// the whole demodulation chain allocation-free (pinned by
    /// `tests/zero_alloc.rs`).
    ///
    /// Each branch's LNA noise is one stream, keyed by a word drawn from
    /// `rng` before either branch runs: branch A's, then branch B's (none
    /// for a branch at zero noise power).
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    pub fn demodulate_into(
        &self,
        scr: &mut UplinkScratch,
        rx0: &Signal,
        rx1: &Signal,
        t0: f64,
        n_symbols: usize,
        rng: &mut StdRng,
        out: &mut Vec<OaqfmSymbol>,
    ) -> UplinkStats {
        let mut pilot_a = [false; UPLINK_PILOT.len()];
        let mut pilot_b = [false; UPLINK_PILOT.len()];
        for (i, s) in UPLINK_PILOT.iter().enumerate() {
            pilot_a[i] = s.a_on;
            pilot_b[i] = s.b_on;
        }
        let key_a = self.lna.noise_key(rx0.fs, rng);
        let key_b = self.lna.noise_key(rx1.fs, rng);
        let [scr_a, scr_b] = &mut scr.branches;
        let snr_a = self.branch(scr_a, rx0, t0, n_symbols, &pilot_a, key_a);
        let snr_b = self.branch(scr_b, rx1, t0, n_symbols, &pilot_b, key_b);

        out.clear();
        out.extend(
            scr_a
                .dec
                .iter()
                .zip(&scr_b.dec)
                .map(|(&a_on, &b_on)| OaqfmSymbol { a_on, b_on }),
        );
        UplinkStats {
            snr: snr_a.min(snr_b),
            branch_snr: [snr_a, snr_b],
        }
    }

    /// Analytic noise power in the decision bandwidth (`symbol_rate` Hz of
    /// complex bandwidth) referred to the LNA input, watts.
    pub fn noise_power(&self) -> f64 {
        thermal_noise_power(self.symbol_rate, self.lna.nf_db)
    }
}

/// Non-coherent OOK bit-error probability at SNR `snr` (linear):
/// `BER ≈ ½·exp(−SNR/4)` for equal-variance on/off clusters with midpoint
/// threshold (each branch of OAQFM is an independent OOK decision).
pub fn ook_ber(snr: f64) -> f64 {
    0.5 * (-snr / 4.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// [`UplinkReceiver::demodulate_into`] through a fresh scratch.
    fn demodulate(
        rxr: &UplinkReceiver,
        rx0: &Signal,
        rx1: &Signal,
        t0: f64,
        n_symbols: usize,
        rng: &mut StdRng,
    ) -> (Vec<OaqfmSymbol>, UplinkStats) {
        let mut out = Vec::new();
        let mut scr = UplinkScratch::default();
        let stats = rxr.demodulate_into(&mut scr, rx0, rx1, t0, n_symbols, rng, &mut out);
        (out, stats)
    }

    /// Builds a branch envelope at the receiver's branch rate: a static
    /// clutter phasor plus the node's reflection keyed by `data`.
    fn synthetic_branch(
        rxr: &UplinkReceiver,
        data: &[bool],
        amp_node: f64,
        amp_clutter: f64,
    ) -> Signal {
        let sps = rxr.samples_per_symbol;
        let clutter = Cpx::from_polar(amp_clutter, 0.3);
        let node = Cpx::from_polar(amp_node, 0.8);
        let samples = data
            .iter()
            .flat_map(|&on| std::iter::repeat_n(if on { clutter + node } else { clutter }, sps))
            .collect();
        Signal::new(rxr.branch_rate(), 28e9, samples)
    }

    fn with_pilot(data: &[bool], pilot: &[bool]) -> Vec<bool> {
        let mut v = pilot.to_vec();
        v.extend_from_slice(data);
        v
    }

    /// Surrounds the data with `n` silent (node-absorbing) guard symbols
    /// on each side, as the real query runs before and after the node's
    /// modulation.
    fn with_guard(data: &[bool], n: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        v.extend_from_slice(data);
        v.extend(std::iter::repeat_n(false, n));
        v
    }

    const GUARD: usize = 6;

    fn pilot(port_a: bool) -> Vec<bool> {
        UPLINK_PILOT
            .iter()
            .map(|s| if port_a { s.a_on } else { s.b_on })
            .collect()
    }

    #[test]
    fn demodulates_clean_uplink() {
        let mut rng = StdRng::seed_from_u64(42);
        let rxr = UplinkReceiver::milback(10e6);
        let data_a = [true, true, false, true, false, false, true, false];
        let data_b = [false, true, true, false, true, false, false, true];
        let full_a = with_pilot(&data_a, &pilot(true));
        let full_b = with_pilot(&data_b, &pilot(false));
        // Strong node signal: −50 dBm-ish vs clutter −20 dBm.
        let rx0 = synthetic_branch(&rxr, &with_guard(&full_a, GUARD), 1e-5, 1e-2);
        let rx1 = synthetic_branch(&rxr, &with_guard(&full_b, GUARD), 1e-5, 1e-2);
        let n = full_a.len();
        let t0 = GUARD as f64 / rxr.symbol_rate;
        let (symbols, stats) = demodulate(&rxr, &rx0, &rx1, t0, n, &mut rng);
        assert_eq!(symbols.len(), n);
        for (k, s) in symbols.iter().enumerate() {
            assert_eq!(s.a_on, full_a[k], "branch A symbol {k}");
            assert_eq!(s.b_on, full_b[k], "branch B symbol {k}");
        }
        assert!(stats.snr > 10.0, "snr {}", stats.snr);
    }

    #[test]
    fn dc_clutter_does_not_break_decisions() {
        // Clutter 120 dB above the node signal.
        let mut rng = StdRng::seed_from_u64(7);
        let rxr = UplinkReceiver::milback(10e6);
        let full_a = with_pilot(&[true, false, false, true], &pilot(true));
        let full_b = vec![false; full_a.len()];
        let rx0 = synthetic_branch(&rxr, &with_guard(&full_a, GUARD), 1e-5, 10.0);
        let rx1 = synthetic_branch(&rxr, &with_guard(&full_b, GUARD), 1e-5, 10.0);
        let t0 = GUARD as f64 / rxr.symbol_rate;
        let (symbols, _) = demodulate(&rxr, &rx0, &rx1, t0, full_a.len(), &mut rng);
        let got_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
        assert_eq!(got_a, full_a);
    }

    #[test]
    fn empty_captures_demodulate_to_zero_snr() {
        let mut rng = StdRng::seed_from_u64(5);
        let rxr = UplinkReceiver::milback(10e6);
        let empty = Signal::new(rxr.branch_rate(), 28e9, Vec::new());
        let (symbols, stats) = demodulate(&rxr, &empty, &empty, 0.0, 8, &mut rng);
        assert_eq!(symbols.len(), 8);
        assert_eq!(stats.snr, 0.0);
        assert_eq!(stats.branch_snr, [0.0, 0.0]);
    }

    fn next4(rng: &mut StdRng) -> [u64; 4] {
        std::array::from_fn(|_| rng.gen())
    }

    #[test]
    fn demodulation_leaves_rng_past_both_branches_keys() {
        // One key word per branch, branch A's first, whatever the
        // stream lengths: the RNG ends two words past its start.
        let rxr = UplinkReceiver::milback(10e6);
        let full_a = with_pilot(&[true, false, true, true], &pilot(true));
        let full_b: Vec<bool> = full_a.iter().map(|b| !b).collect();
        let rx0 = synthetic_branch(&rxr, &with_guard(&full_a, GUARD), 1e-5, 1e-3);
        let rx1 = synthetic_branch(&rxr, &with_guard(&full_b, GUARD), 1e-5, 1e-3);
        let t0 = GUARD as f64 / rxr.symbol_rate;
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let mut keys = rng.clone();
        demodulate(&rxr, &rx0, &rx1, t0, full_a.len(), &mut rng);
        let (_, _): (u64, u64) = (keys.gen(), keys.gen());
        assert_eq!(next4(&mut rng), next4(&mut keys));
    }

    #[test]
    fn branch_noise_is_uncorrelated_at_the_branch_bandwidth() {
        // Silent branches: each stream is its own LNA noise, so branches
        // sharing a noise stream would correlate fully (|ρ| = 1); with
        // 16k independent samples |ρ| has a standard error of ~0.008.
        // Each stream's power is the LNA's thermal noise over the branch
        // rate, times its gain.
        let rxr = UplinkReceiver::milback(10e6);
        let silent = Signal::zeros(rxr.branch_rate(), 28e9, 16_000);
        let mut rng = StdRng::seed_from_u64(0xB0D);
        let mut scr = UplinkScratch::default();
        let mut out = Vec::new();
        rxr.demodulate_into(&mut scr, &silent, &silent, 0.0, 8, &mut rng, &mut out);
        let [a, b] = &scr.branches;
        let cross: Cpx = a.work.iter().zip(&b.work).map(|(x, y)| *x * y.conj()).sum();
        let pa: f64 = a.work.iter().map(|x| x.norm_sq()).sum();
        let pb: f64 = b.work.iter().map(|x| x.norm_sq()).sum();
        let rho = cross.abs() / (pa * pb).sqrt();
        assert!(rho < 0.04, "branch A/B noise correlation {rho}");
        let want =
            rxr.lna.input_noise_power(rxr.branch_rate()) * 10f64.powf(rxr.lna.gain_db / 10.0);
        for p in [pa, pb] {
            let ratio = p / a.work.len() as f64 / want;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "branch noise power ratio {ratio}"
            );
        }
    }

    #[test]
    fn ook_ber_shape() {
        assert!(ook_ber(0.0) == 0.5);
        assert!(ook_ber(40.0) < 1e-4);
        assert!(ook_ber(10.0) > ook_ber(20.0));
    }

    #[test]
    fn noise_power_scales_with_symbol_rate() {
        let a = UplinkReceiver::milback(10e6).noise_power();
        let b = UplinkReceiver::milback(40e6).noise_power();
        assert!((b / a - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pilot_fixes_projection_sign() {
        // All-ones data would be sign-ambiguous without the pilot.
        let mut rng = StdRng::seed_from_u64(3);
        let rxr = UplinkReceiver::milback(10e6);
        let data_a = [true, true, true, true, false, true, true, true];
        let full_a = with_pilot(&data_a, &pilot(true));
        let full_b = vec![false; full_a.len()];
        let rx0 = synthetic_branch(&rxr, &with_guard(&full_a, GUARD), 1e-5, 1e-3);
        let rx1 = synthetic_branch(&rxr, &with_guard(&full_b, GUARD), 1e-5, 1e-3);
        let t0 = GUARD as f64 / rxr.symbol_rate;
        let (symbols, _) = demodulate(&rxr, &rx0, &rx1, t0, full_a.len(), &mut rng);
        let got_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
        assert_eq!(got_a, full_a);
    }
}
