//! Literal pins on the workspace/template fast paths, exercised at the
//! network level (DESIGN.md §12). The per-kernel pins live next to each
//! kernel's unit tests; this file pins the end-to-end compositions the
//! pipeline actually runs.
//!
//! The localization and orientation constants were recorded from the
//! allocating reference pipeline (per-chirp `dechirp` → `range_profile`
//! → pairwise spectrum differences → detection spectrum), which the
//! workspace path reproduced bit for bit, in debug and release builds
//! alike. A deliberate change to the render or the DSP re-records them;
//! a refactor must keep them unchanged.

use milback::{Fidelity, Network};
use milback_ap::ranging::LocalizationResult;
use milback_ap::with_workspace;
use milback_dsp::signal::Signal;
use milback_dsp::template;
use milback_rf::geometry::{deg_to_rad, Pose};

/// Bit patterns of a fix: `range`, `angle` and `peak_power`.
type FixBits = (u64, Option<u64>, u64);

fn bits(fix: Option<LocalizationResult>) -> Option<FixBits> {
    fix.map(|r| {
        (
            r.range.to_bits(),
            r.angle.map(f64::to_bits),
            r.peak_power.to_bits(),
        )
    })
}

/// `Network::localize` (the thread-local workspace and
/// `Localizer::process_with`) must reproduce the fixes the allocating
/// pipeline recorded, on a cold workspace and on a warmed one.
#[test]
fn network_localize_matches_allocating_process() {
    const PINS: [(u64, FixBits); 3] = [
        (
            1,
            (
                0x4008_07f0_3555_6417,
                Some(0x3fbc_2e66_86dc_b0a9),
                0x3f35_fc85_1941_963b,
            ),
        ),
        (
            9,
            (
                0x4008_1ce4_8fa8_6f47,
                Some(0x3fba_630a_f04e_7e85),
                0x3f35_79ab_f875_bd5e,
            ),
        ),
        (
            42,
            (
                0x4008_1ae3_e2a8_77df,
                Some(0x3fb8_5569_0042_8652),
                0x3f35_c43c_e799_567e,
            ),
        ),
    ];
    let pose = Pose::facing_ap(3.0, deg_to_rad(6.0), 0.0);
    for (seed, expect) in PINS {
        let mut cold = Network::new(pose, Fidelity::Fast, seed);
        assert_eq!(bits(cold.localize()), Some(expect), "seed {seed}");
        // A second network on the same thread reuses the now-warmed
        // workspace: still the same bits.
        let mut warm = Network::new(pose, Fidelity::Fast, seed);
        assert_eq!(bits(warm.localize()), Some(expect), "seed {seed} (warmed)");
    }
}

/// AP-side orientation sensing through the workspace must reproduce the
/// estimate of the allocating flow (profile diffs → detection spectrum
/// → node bin → gated estimate).
#[test]
fn sense_orientation_matches_allocating_flow() {
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0));
    let mut net = Network::new(pose, Fidelity::Fast, 3);
    let got = net.sense_orientation_at_ap().map(f64::to_bits);
    assert_eq!(got, Some(0xbfc4_3dd8_32e3_e42b), "{got:#018x?}");
}

/// Template fetches are bitwise identical to fresh synthesis for every
/// cached waveform family (Field-2 sawtooth, Field-1 triangular, uplink
/// query tone).
#[test]
fn templates_match_fresh_synthesis_bitwise() {
    let saw_cfg = Fidelity::Fast.sawtooth();
    let fresh = saw_cfg.sawtooth();
    let cached = template::sawtooth(&saw_cfg);
    assert_eq!(fresh.samples, cached.samples);
    assert_eq!((fresh.fs, fresh.fc), (cached.fs, cached.fc));

    let tri_cfg = Fidelity::Fast.triangular();
    let fresh = tri_cfg.triangular();
    let cached = template::triangular(&tri_cfg);
    assert_eq!(fresh.samples, cached.samples);

    let (fs, fc, f_off, amp, n) = (4e9, 27.9e9, 220e6, 0.7, 10_000);
    let fresh = Signal::tone(fs, fc, f_off, amp, n);
    let cached = template::tone(fs, fc, f_off, amp, n);
    assert_eq!(fresh.samples, cached.samples);
    assert_eq!((fresh.fs, fresh.fc), (cached.fs, cached.fc));
}

/// The nested-checkout fallback of `with_workspace` stays bitwise
/// equivalent: running a localization inside an outer checkout lands on
/// a fresh temporary workspace and must produce the recorded fix.
#[test]
fn nested_workspace_checkout_is_equivalent() {
    let pose = Pose::facing_ap(2.5, 0.0, 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, 7);
    let (tx, captures) = net.field2_captures(5);
    let localizer = net.localizer();
    let got = with_workspace(|_outer| {
        // `localize`-style inner checkout while the outer one is held.
        with_workspace(|ws| localizer.process_with(ws, &tx, &captures))
    });
    let expect = (
        0x4004_13d1_1a47_3638,
        Some(0xbf7d_ffa2_dbc2_24f4),
        0x3f45_de51_557e_0958,
    );
    assert_eq!(bits(got), Some(expect));
}
