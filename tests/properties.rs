//! Property-based integration tests (proptest): invariants that must hold
//! for arbitrary payloads, geometries and orientations.

use milback::{Fidelity, Network};
use milback_proto::bits::{
    bits_to_bytes_into, bits_to_symbols_into, bytes_to_bits_into, symbols_to_bits_into, OaqfmSymbol,
};
use milback_proto::frame::{decode_frame_with, encode_frame_into, FrameError, FrameScratch};
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::{deg_to_rad, Pose};
use proptest::prelude::*;

fn encode(payload: &[u8]) -> Vec<OaqfmSymbol> {
    let mut symbols = Vec::new();
    encode_frame_into(payload, &mut FrameScratch::default(), &mut symbols);
    symbols
}

fn decode(symbols: &[OaqfmSymbol], payload_bytes: usize) -> Result<Vec<u8>, FrameError> {
    decode_frame_with(&mut FrameScratch::default(), symbols, payload_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frame encode→decode is the identity for any payload.
    #[test]
    fn frame_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let symbols = encode(&payload);
        let decoded = decode(&symbols, payload.len()).unwrap();
        prop_assert_eq!(decoded, payload);
    }

    /// Bit/byte/symbol conversions are mutually inverse.
    #[test]
    fn bit_conversions_invertible(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let (mut bits, mut back) = (Vec::new(), Vec::new());
        bytes_to_bits_into(&bytes, &mut bits);
        bits_to_bytes_into(&bits, &mut back);
        prop_assert_eq!(back, bytes);
        let (mut symbols, mut bits_back) = (Vec::new(), Vec::new());
        bits_to_symbols_into(&bits, &mut symbols);
        symbols_to_bits_into(&symbols, &mut bits_back);
        prop_assert_eq!(bits_back, bits);
    }

    /// Any single corrupted symbol makes the CRC fail.
    #[test]
    fn single_symbol_corruption_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..32),
        idx in 0usize..1000,
        flip_a in any::<bool>(),
    ) {
        let mut symbols = encode(&payload);
        let k = idx % symbols.len();
        if flip_a {
            symbols[k].a_on = !symbols[k].a_on;
        } else {
            symbols[k].b_on = !symbols[k].b_on;
        }
        prop_assert!(decode(&symbols, payload.len()).is_err());
    }

    /// The FSA scan law and its inverse agree at any in-range orientation.
    #[test]
    fn fsa_scan_law_invertible(deg in -29.0f64..29.0) {
        let fsa = DualPortFsa::milback();
        for port in Port::BOTH {
            let theta = deg_to_rad(deg);
            if let Some(f) = fsa.frequency_for_angle(port, theta) {
                let back = fsa.beam_angle(port, f).unwrap();
                prop_assert!((back - theta).abs() < 1e-9);
            }
        }
    }

    /// The two OAQFM tones are always mirror images around the normal
    /// frequency and stay ordered with orientation.
    #[test]
    fn oaqfm_tone_symmetry(deg in -25.0f64..25.0) {
        let fsa = DualPortFsa::milback();
        let theta = deg_to_rad(deg);
        let fa = fsa.frequency_for_angle(Port::A, theta).unwrap();
        let fb = fsa.frequency_for_angle(Port::B, theta).unwrap();
        let f0 = fsa.normal_frequency();
        // Product symmetry: 1/fa + 1/fb == 2/f0 (harmonic mirror).
        let lhs = 1.0 / fa + 1.0 / fb;
        prop_assert!((lhs - 2.0 / f0).abs() < 1e-18, "lhs {} vs {}", lhs, 2.0 / f0);
        if deg > 0.5 {
            prop_assert!(fa > fb);
        } else if deg < -0.5 {
            prop_assert!(fb > fa);
        }
    }
}

proptest! {
    // End-to-end cases are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uplink delivers arbitrary payloads intact at short range.
    #[test]
    fn uplink_delivers_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 1..24),
        seed in 0u64..1000,
    ) {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        let report = net.uplink(&payload, 5e6, true).expect("no uplink");
        prop_assert_eq!(report.bit_errors, 0);
        prop_assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
    }

    /// Downlink delivers arbitrary payloads intact at short range.
    #[test]
    fn downlink_delivers_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 1..24),
        seed in 0u64..1000,
    ) {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        let report = net.downlink(&payload, 1e6, true).expect("no downlink");
        prop_assert_eq!(report.bit_errors, 0);
        prop_assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
    }

    /// Localization error is bounded at any geometry in the core region.
    #[test]
    fn localization_bounded_error(
        d in 1.5f64..6.0,
        phi_deg in -15.0f64..15.0,
        seed in 0u64..1000,
    ) {
        let pose = Pose::facing_ap(d, deg_to_rad(phi_deg), 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        let fix = net.localize().expect("no fix");
        prop_assert!((fix.range - d).abs() < 0.3, "range {} vs {}", fix.range, d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trial seeds are collision-free within any sweep: distinct indices
    /// under one master seed never map to the same per-trial seed. (The
    /// derivation is a bijection of `master ^ index·odd`, so this holds
    /// for ALL pairs — the test samples the space.)
    #[test]
    fn seed_derivation_no_collisions(
        master in any::<u64>(),
        i in 0usize..100_000,
        j in 0usize..100_000,
    ) {
        let a = milback::batch::derive_seed(master, i as u64);
        let b = milback::batch::derive_seed(master, j as u64);
        prop_assert_eq!(a == b, i == j, "indices {} and {} -> {:#x}", i, j, a);
    }

    /// Seed derivation is a pure function of (master, index): evaluation
    /// order is irrelevant, so a permuted work schedule (what the
    /// parallel engine actually does) sees the same seeds.
    #[test]
    fn seed_derivation_order_invariant(
        master in any::<u64>(),
        n in 1usize..64,
        shuffle_seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let forward: Vec<u64> = (0..n).map(|i| milback::batch::derive_seed(master, i as u64)).collect();
        // Visit indices in a pseudo-random order, as a work-stealing pool would.
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for &i in &order {
            prop_assert_eq!(milback::batch::derive_seed(master, i as u64), forward[i]);
        }
    }

    /// Different master seeds give unrelated trial-seed streams.
    #[test]
    fn seed_derivation_masters_diverge(
        m1 in any::<u64>(),
        m2 in any::<u64>(),
        i in 0usize..1000,
    ) {
        let m2 = if m1 == m2 { m2 ^ 1 } else { m2 }; // force distinct masters
        prop_assert_ne!(
            milback::batch::derive_seed(m1, i as u64),
            milback::batch::derive_seed(m2, i as u64)
        );
    }

    /// par_map over derived seeds hands each closure the seed derived
    /// from its own index, and returns results in index order.
    #[test]
    fn par_map_seeds_match_derivation(master in any::<u64>(), n in 0usize..32) {
        let seeds: Vec<u64> = (0..n).map(|i| milback::batch::derive_seed(master, i as u64)).collect();
        let got = milback::batch::par_map(&seeds, |&seed, index| (index, seed));
        let expect: Vec<(usize, u64)> =
            (0..n).map(|i| (i, milback::batch::derive_seed(master, i as u64))).collect();
        prop_assert_eq!(got, expect);
    }
}
