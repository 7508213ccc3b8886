//! Property-based tests of the DSP substrate's invariants.

use milback_dsp::chirp::ChirpConfig;
use milback_dsp::fft::{fft, ifft};
use milback_dsp::filter::{Fir, OnePole};
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_dsp::stats;
use milback_dsp::window::Window;
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Cpx>> {
    proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Cpx::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip_arbitrary_length(x in arb_signal(200)) {
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_holds(x in arb_signal(128)) {
        let y = fft(&x);
        let et: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let ef: f64 = y.iter().map(|c| c.norm_sq()).sum::<f64>() / x.len() as f64;
        prop_assert!((et - ef).abs() < 1e-6 * (et + 1.0));
    }

    #[test]
    fn windows_never_exceed_unity(n in 2usize..256, kind in 0usize..5) {
        let w = [Window::Rect, Window::Hann, Window::Hamming, Window::Blackman, Window::BlackmanHarris][kind];
        for v in w.generate(n) {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn one_pole_is_bibo_stable(f3db in 1e3f64..1e8, input in proptest::collection::vec(-5.0f64..5.0, 1..200)) {
        let mut lp = OnePole::new(f3db, 1e9);
        let out: Vec<f64> = input.iter().map(|&x| lp.step(x)).collect();
        let bound = input.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        for v in out {
            prop_assert!(v.abs() <= bound + 1e-9);
        }
    }

    #[test]
    fn fir_lowpass_dc_gain_is_unity(cutoff_frac in 0.01f64..0.45, taps in 2usize..40) {
        let fs = 1e6;
        let f = Fir::lowpass_with_window(cutoff_frac * fs, fs, 2 * taps + 1, Window::Hamming);
        prop_assert!((f.response_at(0.0, fs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_monotone(data in proptest::collection::vec(-100.0f64..100.0, 1..100), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(stats::percentile(&data, lo) <= stats::percentile(&data, hi) + 1e-12);
    }

    #[test]
    fn signal_delay_preserves_energy_roughly(
        f_off in -1e5f64..1e5,
        n_delay in 0usize..20,
    ) {
        // An integer-delay of a tone loses only the zero-filled prefix.
        let fs = 1e6;
        let n = 256;
        let s = Signal::tone(fs, 0.0, f_off, 1.0, n);
        let d = s.delayed(n_delay as f64 / fs);
        let kept: f64 = d.samples[n_delay..].iter().map(|c| c.norm_sq()).sum();
        prop_assert!((kept - (n - n_delay) as f64).abs() < 1.0);
    }

    #[test]
    fn chirp_power_is_amplitude_squared(amp in 0.1f64..5.0, dur_us in 1.0f64..4.0) {
        let cfg = ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: dur_us * 1e-6,
            fs: 3.2e9,
            amplitude: amp,
        };
        prop_assert!((cfg.sawtooth().power() - amp * amp).abs() < 1e-9 * amp * amp);
        prop_assert!((cfg.triangular().power() - amp * amp).abs() < 1e-9 * amp * amp);
    }

    #[test]
    fn triangular_crossings_are_ordered(f_ghz in 26.5f64..29.5) {
        let cfg = ChirpConfig::milback_triangular();
        if let Some((t1, t2)) = cfg.triangular_crossings(f_ghz * 1e9) {
            prop_assert!(t1 <= t2);
            prop_assert!(t1 >= 0.0 && t2 <= cfg.duration);
        }
    }
}

/// The "same"-mode convolution by definition: output `i` accumulates
/// `input[i + delay − j]·taps[j]` for `j = 0..k`, skipping indices
/// outside the input.
fn same_mode_reference(taps: &[f64], input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len() as isize;
    let delay = (taps.len() as isize - 1) / 2;
    (0..n)
        .map(|i| {
            let mut acc = Cpx::new(0.0, 0.0);
            for (j, t) in taps.iter().enumerate() {
                let idx = i + delay - j as isize;
                if (0..n).contains(&idx) {
                    acc += input[idx as usize] * *t;
                }
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fir_decimate_equals_full_rate_filter_strided(
        input in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..700),
        taps in proptest::collection::vec(-1.0f64..1.0, 3..128),
        factor in 1usize..9,
    ) {
        let input: Vec<Cpx> = input.into_iter().map(|(re, im)| Cpx::new(re, im)).collect();
        let fir = Fir { taps };
        let bits = |v: &[Cpx]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let reference: Vec<Cpx> = same_mode_reference(&fir.taps, &input)
            .into_iter()
            .step_by(factor)
            .collect();
        let mut full = Vec::new();
        fir.apply_into(&input, &mut full);
        let strided: Vec<Cpx> = full.iter().step_by(factor).copied().collect();
        // A reused, dirty output buffer must not leak into the result.
        let mut decimated = vec![Cpx::new(1.0, -1.0); 3];
        fir.decimate_into(&input, factor, &mut decimated);
        prop_assert_eq!(bits(&decimated), bits(&reference));
        prop_assert_eq!(bits(&strided), bits(&reference));
    }
}
