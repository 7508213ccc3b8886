//! Literal pins on the channel render itself (DESIGN.md §13).
//!
//! The serve/net digest pins hash decoded *outcomes*, so a render drift
//! that still decodes to the same fixes and payloads passes them. These
//! pins sit one level lower: every sample bit of a Field-2 burst, and
//! the raw SNR and bit-error count of uplink transfers, must equal
//! recorded literals. A deliberate change to the channel arithmetic
//! re-records them; a refactor must keep them unchanged.
//!
//! In the indoor scene the TX→RX leakage and clutter are orders of
//! magnitude above the node's return, so a last-bit change in the node
//! or mirror term rarely survives the sum. One burst and one transfer
//! therefore render a clutter-free scene that keeps only the node, its
//! mirror reflection (lit: the node faces 6° off the AP, near the
//! mirror's −4° specular peak) and receiver noise.

use milback::{Fidelity, Interferer, Network};
use milback_dsp::signal::Signal;
use milback_node::node::BackscatterNode;
use milback_proto::packet::LinkMode;
use milback_rf::channel::MirrorReflection;
use milback_rf::geometry::{deg_to_rad, Pose};
use rand::Rng;

/// FNV-1a over the bit pattern of every sample of the TX reference and
/// of every capture, in chirp then antenna order.
fn burst_digest(tx: &Signal, captures: &[[Signal; 2]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for sig in std::iter::once(tx).chain(captures.iter().flatten()) {
        word(sig.len() as u64);
        for c in &sig.samples {
            word(c.re.to_bits());
            word(c.im.to_bits());
        }
    }
    h
}

const POSE: (f64, f64, f64) = (3.0, 4.0, 6.0);

fn pose(range: f64, azimuth: f64, facing: f64) -> Pose {
    Pose::facing_ap(range, deg_to_rad(azimuth), deg_to_rad(facing))
}

/// A network whose scene holds only the node and its mirror reflection.
fn clutter_free(pose: Pose, seed: u64) -> Network {
    let mut net = Network::free_space(pose, Fidelity::Fast, seed);
    net.scene.mirror = Some(MirrorReflection::milback());
    net
}

#[test]
fn clutter_free_field2_burst_is_pinned() {
    let (range, azimuth, facing) = POSE;
    let mut net = clutter_free(pose(range, azimuth, facing), 0x5EED_0015);
    let (tx, captures) = net.field2_captures(5).expect("the node renders");
    assert_eq!(captures.len(), 5);
    let digest = burst_digest(&tx, &captures);
    assert_eq!(
        digest, 0xafb5_b392_f982_2ba8,
        "clutter-free Field-2 burst digest moved: {digest:#018x}"
    );
}

#[test]
fn indoor_field2_burst_with_parked_interferers_is_pinned() {
    let (range, azimuth, facing) = POSE;
    let mut net = Network::new(pose(range, azimuth, facing), Fidelity::Fast, 0x5EED_0015);
    for (range, azimuth, facing) in [(2.2, -9.0, 10.0), (3.6, 7.0, -5.0), (4.1, -2.0, 15.0)] {
        let neighbor = BackscatterNode::milback(pose(range, azimuth, facing));
        net.interferers.push(Interferer {
            pose: neighbor.pose,
            fsa: neighbor.fsa,
            gamma: neighbor.parked_gamma(),
        });
    }
    let (tx, captures) = net.field2_captures(5).expect("the node renders");
    let digest = burst_digest(&tx, &captures);
    assert_eq!(
        digest, 0xab67_01ed_9f77_13a7,
        "interfered Field-2 burst digest moved: {digest:#018x}"
    );
}

/// One uplink transfer's `(snr bits, bit errors)` must equal `pinned`.
fn assert_uplink(name: &str, mut net: Network, payload: &[u8], rate: f64, pinned: (u64, usize)) {
    let report = net.uplink(payload, rate, true).expect("uplink tones");
    assert_eq!(
        (report.snr.to_bits(), report.bit_errors),
        pinned,
        "{name}: uplink moved: snr {:#018x} ({}), {} bit errors",
        report.snr.to_bits(),
        report.snr,
        report.bit_errors
    );
}

#[test]
fn uplink_transfers_are_pinned() {
    // A clean dual-tone OAQFM transfer at 2.5 m in the clutter-free
    // scene, and a fast, long-range indoor one whose bit-error count is
    // nonzero.
    assert_uplink(
        "clutter-free",
        clutter_free(pose(2.5, 3.0, 6.0), 21),
        b"pinned uplink #1",
        5e6,
        (0x403e_781c_0c8b_8228, 0),
    );
    assert_uplink(
        "indoor 9 m",
        Network::new(pose(9.0, 3.0, -14.0), Fidelity::Fast, 22),
        &[0xA5; 24],
        40e6,
        (0x4013_5c26_b1b1_4f58, 15),
    );
}

/// Bytewise FNV-1a over the length and the bit pattern of every sample
/// of each ADC capture, in order. Quantized ADC values end in long runs
/// of zero mantissa bits, so each word is hashed byte by byte.
fn adc_digest(captures: &[&[f64]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cap in captures {
        word(cap.len() as u64);
        for v in *cap {
            word(v.to_bits());
        }
    }
    h
}

#[test]
fn field1_node_captures_and_mode_signalling_are_pinned() {
    // Per roster pose: the digest of both node ADC captures of one
    // Field-1 chirp, the node's decoded mode for both directions, and
    // the next draw of the network's RNG, which moves if the detector
    // path draws a different number of noise keys.
    let pinned: [(u64, u64); 2] = [
        (0xb72c_2b66_6523_6ba3, 0x5c44_27b8_4326_728f),
        (0xd0ff_608c_5c4c_1fae, 0x6212_3948_54c4_9899),
    ];
    for (k, (pose, pinned)) in milback::serve::roster(2, 11)
        .into_iter()
        .zip(pinned)
        .enumerate()
    {
        let mut net = Network::new(pose, Fidelity::Fast, 0x5EED_F1E1 + k as u64);
        let (cap_a, cap_b) = net.field1_node_captures().expect("renderable roster pose");
        let digest = adc_digest(&[&cap_a, &cap_b]);
        assert_eq!(net.signal_mode(LinkMode::Uplink), Some(LinkMode::Uplink));
        assert_eq!(
            net.signal_mode(LinkMode::Downlink),
            Some(LinkMode::Downlink)
        );
        let next: u64 = net.fork_rng().gen();
        assert_eq!(
            (digest, next),
            pinned,
            "roster pose {k}: Field-1 moved: digest {digest:#018x}, next draw {next:#018x}"
        );
    }
}
