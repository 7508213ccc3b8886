//! Uplink receiver — the paper's Figure 7 chain.
//!
//! Per RX antenna: LNA → mixer (× one query tone) → low-pass/decimate →
//! DC block → coherent projection → per-symbol integration → slicing.
//!
//! The mixer arithmetic is what rejects interference: clutter and
//! self-interference are unmodulated copies of the query, so after
//! multiplication by the tone they land at exactly DC (plus far-away
//! mixing images); the node's keyed reflection lands at baseband with its
//! modulation sidebands intact. A digital DC block (the paper's band-pass
//! filter) removes the former.
//!
//! Projection sign ambiguity: after DC blocking, "on" symbols sit at
//! `+A(1−p)` and "off" at `−Ap` along an unknown phasor. The transmitted
//! symbol stream starts with the known [`milback_proto::packet`] uplink
//! pilot, which fixes the sign.

use milback_dsp::filter::Fir;
use milback_dsp::noise::{skip_gaussians, thermal_noise_power};
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;
use milback_dsp::window::Window;
use milback_dsp::{par, phasor};
use milback_proto::bits::OaqfmSymbol;
use milback_rf::frontend::{Lna, Mixer};
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

/// Pooled working buffers for [`UplinkReceiver::demodulate_into`]:
/// one working set per antenna branch, so the two branches can run at
/// once. A warmed scratch makes repeated demodulations allocation-free.
#[derive(Debug, Clone, Default)]
pub struct UplinkScratch {
    /// Branch A (RX antenna 0) and branch B (RX antenna 1).
    branches: [BranchScratch; 2],
}

/// One branch's buffers: the decision stream, mixer LO, anti-alias
/// filter output, per-symbol points, decision levels and slices, and
/// the cached FIR designs.
#[derive(Debug, Clone, Default)]
struct BranchScratch {
    /// Branch working signal samples (filtered/decimated in place).
    work: Vec<Cpx>,
    /// Anti-alias filter output (ping-pong with `work`).
    filt: Vec<Cpx>,
    /// Mixer LO phasor ramp.
    lo: Vec<Cpx>,
    /// Per-symbol complex means.
    pts: Vec<Cpx>,
    /// Projected decision levels.
    lev: Vec<f64>,
    /// Sliced decisions.
    dec: Vec<bool>,
    /// On/off level clusters for the SNR estimate.
    on: Vec<f64>,
    off: Vec<f64>,
    /// Anti-alias FIR designs keyed by `(new_fs, fs)` bit patterns.
    /// The decimation cascade reuses a handful of designs per symbol
    /// rate (a few stages per rate a link runs at), so the cache stays
    /// small and a warmed chain stops designing filters.
    firs: Vec<((u64, u64), Fir)>,
}

/// The anti-alias low-pass of one decimation stage from `fs` to
/// `new_fs`: Blackman-Harris, whose stopband must crush the cross-tone
/// clutter (up to ~60 dB above the node's signal), which a standard
/// Hamming design cannot.
pub fn anti_alias_fir(new_fs: f64, fs: f64) -> Fir {
    Fir::lowpass_with_window(0.35 * new_fs, fs, 127, Window::BlackmanHarris)
}

/// Index of the cached [`anti_alias_fir`] for `(new_fs, fs)`, building
/// and inserting it on first use.
fn cached_fir(firs: &mut Vec<((u64, u64), Fir)>, new_fs: f64, fs: f64) -> usize {
    let key = (new_fs.to_bits(), fs.to_bits());
    if let Some(i) = firs.iter().position(|(k, _)| *k == key) {
        return i;
    }
    firs.push((key, anti_alias_fir(new_fs, fs)));
    firs.len() - 1
}

/// The AP's uplink receiver.
#[derive(Debug, Clone, Copy)]
pub struct UplinkReceiver {
    /// The per-antenna LNA.
    pub lna: Lna,
    /// The per-antenna mixer.
    pub mixer: Mixer,
    /// Payload symbol rate, symbols/s.
    pub symbol_rate: f64,
    /// Decimated processing rate as a multiple of the symbol rate.
    pub samples_per_symbol: usize,
}

impl UplinkReceiver {
    /// The paper's receiver at the given symbol rate.
    pub fn milback(symbol_rate: f64) -> Self {
        Self {
            lna: Lna::milback(),
            mixer: Mixer::milback(),
            symbol_rate,
            samples_per_symbol: 8,
        }
    }

    /// Target baseband rate after decimation.
    fn target_fs(&self) -> f64 {
        self.symbol_rate * self.samples_per_symbol as f64
    }

    /// The factor of the decimation stage that follows a stream at rate
    /// `fs`, or `None` once `fs` is within 2× of the processing rate.
    /// Each stage filters with [`anti_alias_fir`] to `fs / factor`.
    pub fn decimation_factor(&self, fs: f64) -> Option<usize> {
        let ratio = fs / self.target_fs();
        (ratio >= 2.0).then(|| (ratio.floor() as usize).clamp(2, 8))
    }

    /// One branch of the Figure-7 chain, end to end: antenna capture →
    /// LNA (adds thermal noise) → mix with the tone at `f_tone` →
    /// decimate → DC block → per-symbol points → projection (sign fixed
    /// by `pilot_on`) → slicing. `scr.lev`/`scr.dec` hold the levels and
    /// decisions on return; the returned value is the branch SNR.
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    fn branch(
        &self,
        scr: &mut BranchScratch,
        rx: &Signal,
        f_tone: f64,
        t0: f64,
        n_symbols: usize,
        pilot_on: &[bool],
        rng: &mut StdRng,
    ) -> f64 {
        let work = std::mem::take(&mut scr.work);
        let mut sig = Signal::new(rx.fs, rx.fc, work);
        sig.copy_from(rx);
        let capture_bw = sig.fs;
        // LNA noise over the full capture bandwidth; decimation later
        // reduces it to the detection bandwidth, as the hardware BPF does.
        self.lna.apply(&mut sig, capture_bw, rng);
        // Mix with the query tone (the LO phasor ramp of Signal::tone).
        let w = 2.0 * std::f64::consts::PI * (f_tone - sig.fc) / sig.fs;
        scr.lo.clear();
        scr.lo.resize(sig.len(), ZERO);
        phasor::fill_linear(1.0, 0.0, w, &mut scr.lo);
        self.mixer.downconvert_in_place(&mut sig, &scr.lo);
        // Cascaded decimation down to the processing rate through the
        // anti-alias filters, whose designs are cached per (new rate,
        // rate) in the scratch. Only the kept outputs are computed
        // (bitwise the full-rate filter strided by `factor`).
        while let Some(factor) = self.decimation_factor(sig.fs) {
            let new_fs = sig.fs / factor as f64;
            let idx = cached_fir(&mut scr.firs, new_fs, sig.fs);
            let fir = &scr.firs[idx].1;
            fir.decimate_into(&sig.samples, factor, &mut scr.filt);
            sig.samples.clear();
            sig.samples.extend_from_slice(&scr.filt);
            sig.fs = new_fs;
        }
        // DC block (the band-pass filter of Fig. 7): remove the capture
        // mean, which holds all static clutter + self-interference energy.
        // The mean is estimated over the central 80% of the capture —
        // the decimation filters' edge transients attenuate the clutter DC
        // near the capture boundaries and would bias a full-span mean.
        // An empty stream (empty capture) has a zero mean.
        let n = sig.len();
        let trim = n / 10;
        let mean = if n == 0 {
            ZERO
        } else {
            let core = &sig.samples[trim..(n - trim).max(trim + 1)];
            core.iter().copied().sum::<Cpx>() / core.len() as f64
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

    /// Demodulates an uplink capture into symbols (pilot included in the
    /// returned stream) plus link statistics.
    ///
    /// * `rx0`/`rx1` — the two antenna captures (channel output, no noise),
    /// * `f_a`/`f_b` — the query tone frequencies,
    /// * `t0` — time of the first (pilot) symbol within the capture,
    /// * `n_symbols` — total symbols including the 4-symbol pilot.
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    pub fn demodulate(
        &self,
        rx0: &Signal,
        rx1: &Signal,
        f_a: f64,
        f_b: f64,
        t0: f64,
        n_symbols: usize,
        rng: &mut StdRng,
    ) -> (Vec<OaqfmSymbol>, UplinkStats) {
        let mut scr = UplinkScratch::default();
        let mut out = Vec::new();
        let stats =
            self.demodulate_into(&mut scr, rx0, rx1, f_a, f_b, t0, n_symbols, rng, &mut out);
        (out, stats)
    }

    /// [`UplinkReceiver::demodulate`] through pooled buffers: a warmed
    /// scratch makes the whole demodulation chain allocation-free
    /// (pinned by `tests/zero_alloc.rs`).
    ///
    /// Branch A's LNA draws from `rng` before branch B's, and `rng` ends
    /// past both. When [`par::claim`] finds an idle core, branch B runs
    /// on it at the same time as branch A, from a clone of `rng` that
    /// skips branch A's variates, and `rng` takes that clone's end state
    /// afterwards — bitwise the serial result (DESIGN.md §17.4).
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    pub fn demodulate_into(
        &self,
        scr: &mut UplinkScratch,
        rx0: &Signal,
        rx1: &Signal,
        f_a: f64,
        f_b: f64,
        t0: f64,
        n_symbols: usize,
        rng: &mut StdRng,
        out: &mut Vec<OaqfmSymbol>,
    ) -> UplinkStats {
        let claim = par::claim();
        self.demodulate_with(claim, scr, rx0, rx1, f_a, f_b, t0, n_symbols, rng, out)
    }

    /// [`UplinkReceiver::demodulate_into`] with the helper claim (or
    /// `None`) chosen by the caller: both branches at once, or in turn.
    #[allow(clippy::too_many_arguments)] // one argument per physical input
    fn demodulate_with(
        &self,
        claim: Option<par::Claim>,
        scr: &mut UplinkScratch,
        rx0: &Signal,
        rx1: &Signal,
        f_a: f64,
        f_b: f64,
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
        let [scr_a, scr_b] = &mut scr.branches;
        let (snr_a, snr_b) = match claim {
            Some(claim) => {
                let skip = self.lna.noise_variates(rx0.len(), rx0.fs);
                let mut rng_b = rng.clone();
                let (snr_a, (snr_b, rng_b)) = claim.join(
                    || self.branch(scr_a, rx0, f_a, t0, n_symbols, &pilot_a, rng),
                    || {
                        skip_gaussians(&mut rng_b, skip);
                        let snr = self.branch(scr_b, rx1, f_b, t0, n_symbols, &pilot_b, &mut rng_b);
                        (snr, rng_b)
                    },
                );
                *rng = rng_b;
                (snr_a, snr_b)
            }
            None => (
                self.branch(scr_a, rx0, f_a, t0, n_symbols, &pilot_a, rng),
                self.branch(scr_b, rx1, f_b, t0, n_symbols, &pilot_b, rng),
            ),
        };

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

    /// Builds a synthetic capture: DC clutter + keyed node tone + the
    /// other tone keyed with different data, at the capture rate.
    #[allow(clippy::too_many_arguments)]
    fn synthetic_rx(
        fs: f64,
        fc: f64,
        f_mine: f64,
        f_other: f64,
        data_mine: &[bool],
        data_other: &[bool],
        symbol_rate: f64,
        amp_node: f64,
        amp_clutter: f64,
    ) -> Signal {
        let sps = (fs / symbol_rate) as usize;
        let n = data_mine.len() * sps;
        let mut sig = Signal::tone(fs, fc, f_mine - fc, amp_clutter, n); // clutter at my tone
        let other_clutter = Signal::tone(fs, fc, f_other - fc, amp_clutter, n);
        sig.add(&other_clutter);
        // Keyed node reflections.
        let w_m = 2.0 * std::f64::consts::PI * (f_mine - fc) / fs;
        let w_o = 2.0 * std::f64::consts::PI * (f_other - fc) / fs;
        for (k, (&dm, &do2)) in data_mine.iter().zip(data_other).enumerate() {
            for i in 0..sps {
                let t = (k * sps + i) as f64;
                let mut v = ZERO;
                if dm {
                    v += Cpx::from_polar(amp_node, w_m * t + 0.8);
                }
                if do2 {
                    v += Cpx::from_polar(amp_node, w_o * t + 1.9);
                }
                sig.samples[k * sps + i] += v;
            }
        }
        sig
    }

    fn with_pilot(data: &[bool], pilot: &[bool]) -> Vec<bool> {
        let mut v = pilot.to_vec();
        v.extend_from_slice(data);
        v
    }

    /// Surrounds the data with `n` silent (node-absorbing) guard symbols
    /// on each side — the real query runs before and after the node's
    /// modulation, so the receiver's filter transients land in the guard,
    /// not the payload.
    fn with_guard(data: &[bool], n: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        v.extend_from_slice(data);
        v.extend(std::iter::repeat_n(false, n));
        v
    }

    const GUARD: usize = 6;

    #[test]
    fn demodulates_clean_uplink() {
        let mut rng = StdRng::seed_from_u64(42);
        let fs = 2e9;
        let fc = 28e9;
        let (f_a, f_b) = (27.6e9, 28.4e9);
        let symbol_rate = 10e6;
        let rxr = UplinkReceiver::milback(symbol_rate);
        let pilot_a: Vec<bool> = UPLINK_PILOT.iter().map(|s| s.a_on).collect();
        let pilot_b: Vec<bool> = UPLINK_PILOT.iter().map(|s| s.b_on).collect();
        let data_a = [true, true, false, true, false, false, true, false];
        let data_b = [false, true, true, false, true, false, false, true];
        let full_a = with_pilot(&data_a, &pilot_a);
        let full_b = with_pilot(&data_b, &pilot_b);
        let tx_a = with_guard(&full_a, GUARD);
        let tx_b = with_guard(&full_b, GUARD);
        // Strong node signal: −50 dBm-ish vs clutter −20 dBm.
        let rx0 = synthetic_rx(fs, fc, f_a, f_b, &tx_a, &tx_b, symbol_rate, 1e-5, 1e-2);
        let rx1 = synthetic_rx(fs, fc, f_b, f_a, &tx_b, &tx_a, symbol_rate, 1e-5, 1e-2);
        let n = full_a.len();
        let t0 = GUARD as f64 / symbol_rate;
        let (symbols, stats) = rxr.demodulate(&rx0, &rx1, f_a, f_b, t0, n, &mut rng);
        assert_eq!(symbols.len(), n);
        for (k, s) in symbols.iter().enumerate() {
            assert_eq!(s.a_on, full_a[k], "branch A symbol {k}");
            assert_eq!(s.b_on, full_b[k], "branch B symbol {k}");
        }
        assert!(stats.snr > 10.0, "snr {}", stats.snr);
    }

    #[test]
    fn dc_clutter_does_not_break_decisions() {
        // Clutter 60 dB above the node signal.
        let mut rng = StdRng::seed_from_u64(7);
        let fs = 2e9;
        let fc = 28e9;
        let (f_a, f_b) = (27.6e9, 28.4e9);
        let symbol_rate = 10e6;
        let rxr = UplinkReceiver::milback(symbol_rate);
        let pilot_a: Vec<bool> = UPLINK_PILOT.iter().map(|s| s.a_on).collect();
        let data_a = [true, false, false, true];
        let full_a = with_pilot(&data_a, &pilot_a);
        let full_b = vec![false; full_a.len()];
        let tx_a = with_guard(&full_a, GUARD);
        let tx_b = with_guard(&full_b, GUARD);
        let rx0 = synthetic_rx(fs, fc, f_a, f_b, &tx_a, &tx_b, symbol_rate, 1e-5, 10.0);
        let rx1 = synthetic_rx(fs, fc, f_b, f_a, &tx_b, &tx_a, symbol_rate, 1e-5, 10.0);
        let t0 = GUARD as f64 / symbol_rate;
        let (symbols, _) = rxr.demodulate(&rx0, &rx1, f_a, f_b, t0, full_a.len(), &mut rng);
        let got_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
        assert_eq!(got_a, full_a);
    }

    #[test]
    fn empty_captures_demodulate_to_zero_snr() {
        let mut rng = StdRng::seed_from_u64(5);
        let rxr = UplinkReceiver::milback(10e6);
        let empty = Signal::new(2e9, 28e9, Vec::new());
        let (symbols, stats) = rxr.demodulate(&empty, &empty, 27.6e9, 28.4e9, 0.0, 8, &mut rng);
        assert_eq!(symbols.len(), 8);
        assert_eq!(stats.snr, 0.0);
        assert_eq!(stats.branch_snr, [0.0, 0.0]);
    }

    /// A short two-tone capture pair for the RNG-bookkeeping tests.
    fn capture_pair(rxr: &UplinkReceiver) -> (Signal, Signal, f64, usize) {
        let (fs, fc, f_a, f_b) = (2e9, 28e9, 27.6e9, 28.4e9);
        let pilot_a: Vec<bool> = UPLINK_PILOT.iter().map(|s| s.a_on).collect();
        let full_a = with_pilot(&[true, false, true, true], &pilot_a);
        let full_b: Vec<bool> = full_a.iter().map(|b| !b).collect();
        let tx_a = with_guard(&full_a, GUARD);
        let tx_b = with_guard(&full_b, GUARD);
        let sr = rxr.symbol_rate;
        let rx0 = synthetic_rx(fs, fc, f_a, f_b, &tx_a, &tx_b, sr, 1e-5, 1e-3);
        let rx1 = synthetic_rx(fs, fc, f_b, f_a, &tx_b, &tx_a, sr, 1e-5, 1e-3);
        (rx0, rx1, GUARD as f64 / sr, full_a.len())
    }

    fn next4(rng: &mut StdRng) -> [u64; 4] {
        std::array::from_fn(|_| rng.gen())
    }

    #[test]
    fn demodulation_leaves_rng_past_both_branches_noise() {
        let rxr = UplinkReceiver::milback(10e6);
        let (rx0, rx1, t0, n) = capture_pair(&rxr);
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let mut skipped = rng.clone();
        let mut scr = UplinkScratch::default();
        let mut out = Vec::new();
        rxr.demodulate_into(
            &mut scr, &rx0, &rx1, 27.6e9, 28.4e9, t0, n, &mut rng, &mut out,
        );
        skip_gaussians(&mut skipped, 2 * (rx0.len() + rx1.len()));
        assert_eq!(next4(&mut rng), next4(&mut skipped));
    }

    /// A helper claim, waiting out other tests that hold it; `None` on
    /// a 1-core host.
    fn forced_claim() -> Option<par::Claim> {
        if par::cores() < 2 {
            return None;
        }
        loop {
            if let Some(c) = par::claim() {
                return Some(c);
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn branches_at_once_match_serial_branches() {
        let rxr = UplinkReceiver::milback(10e6);
        let (rx0, rx1, t0, n) = capture_pair(&rxr);
        let run = |claim: Option<par::Claim>| {
            let mut rng = StdRng::seed_from_u64(0xB0C);
            let mut scr = UplinkScratch::default();
            let mut out = Vec::new();
            let stats = rxr.demodulate_with(
                claim, &mut scr, &rx0, &rx1, 27.6e9, 28.4e9, t0, n, &mut rng, &mut out,
            );
            (out, stats.branch_snr.map(f64::to_bits), next4(&mut rng))
        };
        assert_eq!(run(forced_claim()), run(None));
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
        let fs = 2e9;
        let fc = 28e9;
        let (f_a, f_b) = (27.7e9, 28.3e9);
        let symbol_rate = 10e6;
        let rxr = UplinkReceiver::milback(symbol_rate);
        let pilot_a: Vec<bool> = UPLINK_PILOT.iter().map(|s| s.a_on).collect();
        let data_a = [true, true, true, true, false, true, true, true];
        let full_a = with_pilot(&data_a, &pilot_a);
        let full_b = vec![false; full_a.len()];
        let tx_a = with_guard(&full_a, GUARD);
        let tx_b = with_guard(&full_b, GUARD);
        let rx0 = synthetic_rx(fs, fc, f_a, f_b, &tx_a, &tx_b, symbol_rate, 1e-5, 1e-3);
        let rx1 = synthetic_rx(fs, fc, f_b, f_a, &tx_b, &tx_a, symbol_rate, 1e-5, 1e-3);
        let t0 = GUARD as f64 / symbol_rate;
        let (symbols, _) = rxr.demodulate(&rx0, &rx1, f_a, f_b, t0, full_a.len(), &mut rng);
        let got_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
        assert_eq!(got_a, full_a);
    }
}
