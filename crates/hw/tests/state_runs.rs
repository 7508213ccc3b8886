//! Exactness of the switch-state run walk (`for_each_state_run`) behind
//! the channel's Γ runs (DESIGN.md §13.1): expanding the runs must give
//! `SwitchSchedule::state_at(t_off + i as f64 / fs)` for every sample
//! `i`, and the runs must tile `0..n` in order with no empty run.

use milback_hw::switch::{for_each_state_run, SwitchSchedule, SwitchState};
use proptest::prelude::*;

/// Walks the runs, checks their tiling, and compares every sample's
/// expanded state with a direct `state_at` of that sample's instant.
fn assert_runs_exact(a: &SwitchSchedule, b: &SwitchSchedule, t_off: f64, fs: f64, n: usize) {
    let mut runs = Vec::new();
    for_each_state_run(a, b, t_off, fs, n, |end, states| runs.push((end, states)));
    if n == 0 {
        assert!(runs.is_empty(), "no samples must give no runs");
        return;
    }
    let mut start = 0;
    for &(end, states) in &runs {
        assert!(end > start, "empty or backward run {start}..{end}");
        for i in start..end {
            let t = t_off + i as f64 / fs;
            assert_eq!(
                states,
                [a.state_at(t), b.state_at(t)],
                "sample {i} (t = {t:e}) in run {start}..{end}"
            );
        }
        start = end;
    }
    assert_eq!(start, n, "runs must end at n");
}

fn state(on: bool) -> SwitchState {
    if on {
        SwitchState::Reflective
    } else {
        SwitchState::Absorptive
    }
}

/// A time-sorted event schedule from raw draws. Each draw places its
/// event at a random time, exactly on a sample instant, or on the
/// previous event's time (a tie); some land before `t_off` and some
/// after the last sample.
fn events_from(draws: &[(u64, bool, u8)], t_off: f64, fs: f64, n: usize) -> SwitchSchedule {
    let span = (n + 4) as f64 / fs;
    let mut events: Vec<(f64, SwitchState)> = Vec::with_capacity(draws.len());
    for &(r, on, kind) in draws {
        let t = match (kind, events.last()) {
            (0, _) => t_off - 2.0 / fs + (r % 100_000) as f64 / 100_000.0 * span,
            (1, _) => t_off + (r % (n as u64 + 3)) as f64 / fs,
            (_, Some(&(prev, _))) => prev,
            (_, None) => t_off,
        };
        events.push((t, state(on)));
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0));
    SwitchSchedule::from_events(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_runs_expand_to_state_at(
        draws_a in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u8..3), 1..40),
        draws_b in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u8..3), 1..40),
        fs in 1e6f64..2e9,
        t_off in -1e-6f64..1e-5,
        n in 0usize..600,
    ) {
        let a = events_from(&draws_a, t_off, fs, n);
        let b = events_from(&draws_b, t_off, fs, n);
        assert_runs_exact(&a, &b, t_off, fs, n);
        // Against a constant partner too (one port parked).
        assert_runs_exact(&a, &SwitchSchedule::Constant(SwitchState::Absorptive), t_off, fs, n);
    }

    #[test]
    fn square_wave_runs_expand_to_state_at(
        freq in 1e5f64..5e7,
        first in any::<bool>(),
        half_periods in 0u32..40,
        nudge in -3.0f64..3.0,
        fs in 1e8f64..2e9,
        n in 1usize..2000,
    ) {
        // A chirp offset within a few samples of a half-period boundary,
        // so the first run straddles (or just misses) the toggle.
        let half = 0.5 / freq;
        let t_off = half_periods as f64 * half + nudge / fs;
        let a = SwitchSchedule::SquareWave { freq_hz: freq, first: state(first) };
        let b = SwitchSchedule::Constant(SwitchState::Absorptive);
        assert_runs_exact(&a, &b, t_off, fs, n);
        assert_runs_exact(&b, &a, t_off, fs, n);
        let b = SwitchSchedule::SquareWave { freq_hz: freq * 1.5, first: state(!first) };
        assert_runs_exact(&a, &b, t_off, fs, n);
    }

    #[test]
    fn constant_runs_are_one_run(
        on_a in any::<bool>(),
        on_b in any::<bool>(),
        t_off in -1e-3f64..1e-3,
        n in 0usize..5000,
    ) {
        let a = SwitchSchedule::Constant(state(on_a));
        let b = SwitchSchedule::Constant(state(on_b));
        assert_runs_exact(&a, &b, t_off, 1e9, n);
        let mut runs = 0;
        for_each_state_run(&a, &b, t_off, 1e9, n, |_, _| runs += 1);
        prop_assert_eq!(runs, usize::from(n > 0));
    }
}

/// The localization burst's shape: a 10 kHz square wave sampled across
/// five back-to-back chirps whose offsets are exact multiples of the
/// chirp duration — one fill per chirp.
#[test]
fn localization_burst_chirps_expand_to_state_at() {
    let a = SwitchSchedule::SquareWave {
        freq_hz: 10e3,
        first: SwitchState::Reflective,
    };
    let b = SwitchSchedule::Constant(SwitchState::Absorptive);
    let (fs, duration) = (1.6e9, 40e-6);
    let n = (duration * fs) as usize;
    for chirp in 0..5 {
        assert_runs_exact(&a, &b, chirp as f64 * duration, fs, n);
    }
}
