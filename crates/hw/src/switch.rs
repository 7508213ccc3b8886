//! SPDT RF switch model (ADRF5020-class).
//!
//! Each FSA port is connected through an SPDT switch to either the FSA
//! ground plane (reflective mode) or an envelope detector (absorptive
//! mode) — paper §4. The switch model captures the three properties that
//! matter to the system:
//!
//! * reflection coefficient in each throw position (this is what modulates
//!   the backscatter),
//! * a maximum toggle rate (this is what caps the uplink at 160 Mbps,
//!   paper §9.5),
//! * energy per transition (this is why uplink draws more power than
//!   downlink, paper §9.6).

use milback_dsp::num::Cpx;

/// Throw position of the SPDT switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// Port shorted to the FSA ground plane → beam reflects (|Γ| ≈ 1).
    Reflective,
    /// Port routed to the matched envelope detector → beam absorbs
    /// (|Γ| ≈ 0).
    Absorptive,
}

impl SwitchState {
    /// The opposite throw.
    pub fn toggled(self) -> Self {
        match self {
            SwitchState::Reflective => SwitchState::Absorptive,
            SwitchState::Absorptive => SwitchState::Reflective,
        }
    }
}

/// An SPDT RF switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpdtSwitch {
    /// Insertion loss in the signal path, dB (positive).
    pub insertion_loss_db: f64,
    /// Return loss looking into the matched (absorptive) throw, dB
    /// (positive; higher = better match).
    pub return_loss_db: f64,
    /// Maximum toggle rate, Hz. Toggling faster than this is rejected.
    pub max_toggle_hz: f64,
    /// Static power draw, mW.
    pub static_power_mw: f64,
    /// Energy per state transition, nJ.
    pub toggle_energy_nj: f64,
}

impl SpdtSwitch {
    /// The ADRF5020-class switch used in the MilBack prototype.
    ///
    /// `max_toggle_hz` is set so that two-port OAQFM (2 bits/symbol) tops
    /// out at the paper's 160 Mbps uplink limit (80 Msym/s).
    pub fn adrf5020() -> Self {
        Self {
            insertion_loss_db: 1.0,
            return_loss_db: 22.0,
            max_toggle_hz: 80e6,
            static_power_mw: 0.5,
            toggle_energy_nj: 0.33,
        }
    }

    /// Complex voltage reflection coefficient presented to the FSA port in
    /// the given state.
    ///
    /// * Reflective: a short circuit reflects with Γ = −1, attenuated by
    ///   the round-trip insertion loss.
    /// * Absorptive: the matched detector leaves only the residual return
    ///   loss.
    pub fn gamma(&self, state: SwitchState) -> Cpx {
        match state {
            SwitchState::Reflective => {
                // Signal passes the switch twice (in and back out).
                let a = 10f64.powf(-2.0 * self.insertion_loss_db / 20.0);
                Cpx::new(-a, 0.0)
            }
            SwitchState::Absorptive => {
                let a = 10f64.powf(-self.return_loss_db / 20.0);
                Cpx::new(a, 0.0)
            }
        }
    }

    /// Power transmission into the detector path in the absorptive state
    /// (one-way through the switch): `(1 − |Γ|²)·10^(−IL/10)`.
    pub fn through_gain(&self) -> f64 {
        let g = self.gamma(SwitchState::Absorptive).norm_sq();
        (1.0 - g) * 10f64.powf(-self.insertion_loss_db / 10.0)
    }

    /// Whether a toggle rate (Hz) is within the switch's capability.
    pub fn supports_rate(&self, rate_hz: f64) -> bool {
        rate_hz <= self.max_toggle_hz
    }

    /// Average switching power at `toggle_rate` transitions per second, mW.
    pub fn power_mw(&self, toggle_rate: f64) -> f64 {
        assert!(toggle_rate >= 0.0, "toggle rate must be non-negative");
        self.static_power_mw + self.toggle_energy_nj * 1e-9 * toggle_rate * 1e3
    }
}

/// A time-stamped switch-state schedule, used to drive the channel's
/// reflection-coefficient waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchSchedule {
    /// The state never changes.
    Constant(SwitchState),
    /// Square-wave modulation at `freq_hz` full cycles per second (two
    /// state transitions per cycle), starting in state `first` at t = 0.
    /// The paper's localization modulation is a 10 kHz square wave.
    SquareWave {
        /// Modulation frequency in Hz (cycles per second).
        freq_hz: f64,
        /// State during the first half-cycle.
        first: SwitchState,
    },
    /// Explicit `(start_time_s, state)` entries; each state holds until
    /// the next entry. Used for data symbols.
    ///
    /// The entries must be time-sorted (non-decreasing start times):
    /// [`SwitchSchedule::from_events`] asserts it, and both
    /// [`SwitchSchedule::state_at`]'s binary search and the forward
    /// cursor of [`for_each_state_run`] rely on it.
    Events(Vec<(f64, SwitchState)>),
}

impl SwitchSchedule {
    /// Builds an event schedule, validating time order.
    pub fn from_events(events: Vec<(f64, SwitchState)>) -> Self {
        assert!(!events.is_empty(), "schedule needs at least one event");
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "events must be time-sorted"
        );
        SwitchSchedule::Events(events)
    }

    /// State at time `t` seconds (times before the first event get the
    /// first event's state).
    pub fn state_at(&self, t: f64) -> SwitchState {
        match self {
            SwitchSchedule::Constant(s) => *s,
            SwitchSchedule::SquareWave { freq_hz, first } => {
                square_state(*first, square_phase(0.5 / freq_hz, t))
            }
            SwitchSchedule::Events(events) => {
                let started = events.partition_point(|(ts, _)| *ts <= t);
                events[started.saturating_sub(1)].1
            }
        }
    }

    /// Number of state transitions in `[0, duration)`.
    pub fn transitions_in(&self, duration: f64) -> usize {
        match self {
            SwitchSchedule::Constant(_) => 0,
            SwitchSchedule::SquareWave { freq_hz, .. } => {
                (duration * 2.0 * freq_hz).floor().max(0.0) as usize
            }
            SwitchSchedule::Events(events) => events
                .windows(2)
                .filter(|w| w[1].0 < duration && w[1].1 != w[0].1)
                .count(),
        }
    }
}

/// Index of the half-period a square wave is in at `t`.
#[inline]
fn square_phase(half_period: f64, t: f64) -> i64 {
    (t / half_period).floor() as i64
}

/// A square wave's state in half-period `phase`.
#[inline]
fn square_state(first: SwitchState, phase: i64) -> SwitchState {
    if phase.rem_euclid(2) == 0 {
        first
    } else {
        first.toggled()
    }
}

/// Forward cursor over one schedule for non-decreasing query times.
/// It sits in one *segment* — a stretch of constant state: a square
/// wave's half-period, the span between two event starts — and answers
/// "has `t` left it?" with one evaluation of [`SwitchSchedule::state_at`]'s
/// own arithmetic (the `ts <= t` predicate, the half-period floor), so
/// segment boundaries are found, never computed from event times.
enum Cursor<'a> {
    Constant(SwitchState),
    Square {
        half_period: f64,
        first: SwitchState,
        phase: i64,
    },
    Events {
        events: &'a [(f64, SwitchState)],
        /// Number of events started (`ts <= t`) at the cursor's time.
        started: usize,
    },
}

impl<'a> Cursor<'a> {
    fn new(schedule: &'a SwitchSchedule, t: f64) -> Self {
        let mut cursor = match schedule {
            SwitchSchedule::Constant(s) => Cursor::Constant(*s),
            SwitchSchedule::SquareWave { freq_hz, first } => Cursor::Square {
                half_period: 0.5 / freq_hz,
                first: *first,
                phase: 0,
            },
            SwitchSchedule::Events(events) => {
                debug_assert!(
                    events.windows(2).all(|w| w[0].0 <= w[1].0),
                    "events must be time-sorted"
                );
                Cursor::Events { events, started: 0 }
            }
        };
        cursor.advance_to(t);
        cursor
    }

    /// The state of the current segment.
    fn state(&self) -> SwitchState {
        match self {
            Cursor::Constant(s) => *s,
            Cursor::Square { first, phase, .. } => square_state(*first, *phase),
            Cursor::Events { events, started } => events[started.saturating_sub(1)].1,
        }
    }

    /// Whether `t` lies past the current segment. Once true for some
    /// `t`, it stays true for every later `t`.
    #[inline]
    fn left_by(&self, t: f64) -> bool {
        match self {
            Cursor::Constant(_) => false,
            Cursor::Square {
                half_period, phase, ..
            } => square_phase(*half_period, t) != *phase,
            Cursor::Events { events, started } => events.get(*started).is_some_and(|e| e.0 <= t),
        }
    }

    /// Moves to the segment holding `t`.
    fn advance_to(&mut self, t: f64) {
        match self {
            Cursor::Constant(_) => {}
            Cursor::Square {
                half_period, phase, ..
            } => *phase = square_phase(*half_period, t),
            Cursor::Events { events, started } => {
                while events.get(*started).is_some_and(|e| e.0 <= t) {
                    *started += 1;
                }
            }
        }
    }
}

/// Walks the joint `[port A, port B]` switch state over `n` samples at
/// the instants `t_off + i as f64 / fs`, calling `emit(end, states)` once
/// per run of equal states: the runs tile `0..n` in order, each covering
/// `previous end..end`, and none is empty.
///
/// Every run boundary is located by evaluating the schedules at sample
/// instants with [`SwitchSchedule::state_at`]'s own arithmetic, never
/// computed from event times, so expanding the runs reproduces a
/// per-sample `state_at` bit for bit. Sample instants never decrease
/// and a schedule never returns to a segment it left, so the next
/// boundary is found by a galloping search: a run of `L` samples costs
/// `O(log L)` evaluations, not `L`.
pub fn for_each_state_run(
    port_a: &SwitchSchedule,
    port_b: &SwitchSchedule,
    t_off: f64,
    fs: f64,
    n: usize,
    mut emit: impl FnMut(usize, [SwitchState; 2]),
) {
    assert!(fs > 0.0, "sample rate must be positive");
    if n == 0 {
        return;
    }
    let at = |i: usize| t_off + i as f64 / fs;
    let mut cursors = [Cursor::new(port_a, at(0)), Cursor::new(port_b, at(0))];
    let mut run = [cursors[0].state(), cursors[1].state()];
    let mut start = 0;
    loop {
        let left = |i: usize| {
            let t = at(i);
            cursors[0].left_by(t) || cursors[1].left_by(t)
        };
        let next = first_where(start, n, left);
        if next == n {
            emit(n, run);
            return;
        }
        let t = at(next);
        cursors[0].advance_to(t);
        cursors[1].advance_to(t);
        let states = [cursors[0].state(), cursors[1].state()];
        if states != run {
            emit(next, run);
            run = states;
        }
        start = next;
    }
}

/// The first `i` in `from + 1..n` with `pred(i)`, or `n` if none, for a
/// `pred` that is false at `from` and, once true, stays true: doubling
/// steps bracket the change, then bisection pins it.
fn first_where(from: usize, n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    let mut hi = loop {
        let probe = lo.saturating_add(step);
        if probe >= n {
            break n;
        }
        if pred(probe) {
            break probe;
        }
        lo = probe;
        step *= 2;
    };
    // pred(lo) is false; pred(hi) is true, or hi == n.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_reflective_is_near_minus_one() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Reflective);
        assert!(g.re < -0.7 && g.re > -1.0, "{g:?}");
        assert_eq!(g.im, 0.0);
    }

    #[test]
    fn gamma_absorptive_is_small() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Absorptive);
        assert!(g.abs() < 0.1, "{g:?}");
    }

    #[test]
    fn through_gain_below_unity() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.through_gain();
        assert!(g > 0.5 && g < 1.0, "{g}");
    }

    #[test]
    fn rate_capability() {
        let sw = SpdtSwitch::adrf5020();
        assert!(sw.supports_rate(20e6));
        assert!(sw.supports_rate(80e6));
        assert!(!sw.supports_rate(100e6));
    }

    #[test]
    fn power_grows_with_rate() {
        let sw = SpdtSwitch::adrf5020();
        let idle = sw.power_mw(0.0);
        assert_eq!(idle, sw.static_power_mw);
        let fast = sw.power_mw(20e6);
        assert!(fast > idle + 5.0, "fast {fast}");
    }

    #[test]
    fn toggled_flips() {
        assert_eq!(SwitchState::Reflective.toggled(), SwitchState::Absorptive);
        assert_eq!(SwitchState::Absorptive.toggled(), SwitchState::Reflective);
    }

    #[test]
    fn constant_schedule() {
        let s = SwitchSchedule::Constant(SwitchState::Absorptive);
        assert_eq!(s.state_at(0.0), SwitchState::Absorptive);
        assert_eq!(s.state_at(1.0), SwitchState::Absorptive);
        assert_eq!(s.transitions_in(1.0), 0);
    }

    #[test]
    fn square_wave_schedule_10khz() {
        let s = SwitchSchedule::SquareWave {
            freq_hz: 10e3,
            first: SwitchState::Reflective,
        };
        // Half-period is 50 µs.
        assert_eq!(s.state_at(0.0), SwitchState::Reflective);
        assert_eq!(s.state_at(49e-6), SwitchState::Reflective);
        assert_eq!(s.state_at(51e-6), SwitchState::Absorptive);
        assert_eq!(s.state_at(101e-6), SwitchState::Reflective);
        // 10 kHz → 20k transitions per second.
        assert_eq!(s.transitions_in(1.0), 20_000);
    }

    #[test]
    fn event_schedule_lookup() {
        let s = SwitchSchedule::from_events(vec![
            (0.0, SwitchState::Absorptive),
            (1e-6, SwitchState::Reflective),
            (3e-6, SwitchState::Absorptive),
        ]);
        assert_eq!(s.state_at(0.5e-6), SwitchState::Absorptive);
        assert_eq!(s.state_at(2e-6), SwitchState::Reflective);
        assert_eq!(s.state_at(10e-6), SwitchState::Absorptive);
        assert_eq!(s.transitions_in(10e-6), 2);
        assert_eq!(s.transitions_in(2e-6), 1);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn event_schedule_rejects_unsorted() {
        SwitchSchedule::from_events(vec![
            (1.0, SwitchState::Absorptive),
            (0.0, SwitchState::Reflective),
        ]);
    }
}
