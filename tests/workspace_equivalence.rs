//! Literal pins on the workspace fast paths, exercised at the
//! network level (DESIGN.md §12). The per-kernel pins live next to each
//! kernel's unit tests; this file pins the end-to-end compositions the
//! pipeline actually runs.
//!
//! The localization and orientation constants were first recorded from
//! the allocating reference pipeline (per-chirp `dechirp` →
//! `range_profile` → pairwise spectrum differences → detection
//! spectrum), which the workspace path reproduced bit for bit, in debug
//! and release builds alike; they were re-recorded from the workspace
//! path when the Gaussian noise generator changed (the captures' noise
//! bits moved, the DSP did not). A deliberate change to the render or
//! the DSP re-records them; a refactor must keep them unchanged.

use milback::{Fidelity, Network, Session, SessionCtx};
use milback_ap::ranging::LocalizationResult;
use milback_proto::packet::Packet;
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

/// `Network::localize` (the thread's shared `SessionCtx` and
/// `Localizer::process_with`) must reproduce the fixes the allocating
/// pipeline recorded, on a cold context and on a warmed one.
#[test]
fn network_localize_matches_allocating_process() {
    const PINS: [(u64, FixBits); 3] = [
        (
            1,
            (
                0x4007_e1aa_63a1_2120,
                Some(0x3fbb_1f26_c695_8a2f),
                0x3f36_1a42_1fbb_f6f2,
            ),
        ),
        (
            9,
            (
                0x4008_2225_a8f6_c0b3,
                Some(0x3fb9_57d1_0bf6_5888),
                0x3f34_395f_8f75_3c5c,
            ),
        ),
        (
            42,
            (
                0x4008_188d_0f7c_eead,
                Some(0x3fbe_75bf_a997_a63d),
                0x3f34_e19d_8ab5_f526,
            ),
        ),
    ];
    let pose = Pose::facing_ap(3.0, deg_to_rad(6.0), 0.0);
    for (seed, expect) in PINS {
        let mut cold = Network::new(pose, Fidelity::Fast, seed);
        assert_eq!(bits(cold.localize()), Some(expect), "seed {seed}");
        // A second network on the same thread reuses the now-warmed
        // context: still the same bits.
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
    assert_eq!(got, Some(0xbfc6_22ae_ea6b_e22e), "{got:#018x?}");
}

/// A session renders every field in the caller's `SessionCtx`, and only
/// Field 2 leaves cache entries there: the Field-1 render is a one-shot
/// render in the ctx's pooled scratch, and the payload renders at the
/// receivers' detection bandwidth without the channel workspace. After
/// an uplink and a downlink exchange a fresh context holds exactly the
/// entries a localize-only session leaves in another.
#[test]
fn exchange_session_renders_every_field_in_the_callers_ctx() {
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let session = Session::default();
    let mut localize_ctx = SessionCtx::new();
    let mut net = Network::new(pose, Fidelity::Fast, 5);
    let summary = session.localize_in(&mut localize_ctx, &mut net);
    assert!(summary.fix.is_some());
    let mut exchange_ctx = SessionCtx::new();
    let mut net = Network::new(pose, Fidelity::Fast, 5);
    let uplink = Packet::uplink(vec![0x5C; 16]);
    let report = session
        .run_in(&mut exchange_ctx, &mut net, &uplink, false)
        .expect("uplink exchange failed");
    assert!(report.uplink.is_some_and(|u| u.payload.is_ok()));
    let downlink = Packet::downlink((0..16).collect());
    let report = session
        .run_in(&mut exchange_ctx, &mut net, &downlink, false)
        .expect("downlink exchange failed");
    assert!(report.downlink.is_some_and(|d| d.payload.is_ok()));
    let localize = localize_ctx.chan.cached_entries();
    let exchange = exchange_ctx.chan.cached_entries();
    assert!(localize > 0, "localize-only ctx holds no entries");
    assert_eq!(
        exchange, localize,
        "exchange ctx holds {exchange} entries, localize-only {localize}"
    );
}
