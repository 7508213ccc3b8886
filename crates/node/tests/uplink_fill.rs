//! Exactness of the uplink's per-symbol fill (`uplink_fill_into`, DESIGN.md
//! §13.4): every sample must hold the symbol the per-sample definition
//! gives at its instant `i/fs` — the last symbol `k` whose start
//! `t0 + k·(1/symbol_rate)` is at or before it, parked (both ports
//! absorptive) before the first start and from the end of the stream on.

use milback_hw::switch::SpdtSwitch;
use milback_node::node::{symbol_edges, uplink_fill_into};
use milback_proto::bits::OaqfmSymbol;
use proptest::prelude::*;

const PARKED: OaqfmSymbol = OaqfmSymbol {
    a_on: false,
    b_on: false,
};

/// The symbol held at sample `i`, evaluated on its own: count the
/// symbol starts (and the end of the stream) at or before `i/fs`.
fn held_at(symbols: &[OaqfmSymbol], t0: f64, symbol_rate: f64, fs: f64, i: usize) -> OaqfmSymbol {
    let ts = 1.0 / symbol_rate;
    let t = i as f64 / fs;
    let started = (0..=symbols.len())
        .filter(|&k| t0 + k as f64 * ts <= t)
        .count();
    match started {
        0 => PARKED,
        k if k > symbols.len() => PARKED,
        k => symbols[k - 1],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn uplink_fill_matches_the_per_sample_definition(
        bits in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..60),
        decades in 0.0f64..4.0,
        guard in 0usize..8,
        samples_per_symbol in 1usize..12,
        extra in 0usize..20,
    ) {
        let limit = SpdtSwitch::adrf5020().max_toggle_hz;
        // Log-uniform from 8 ksym/s up to the 80 Msym/s toggle limit.
        let symbol_rate = limit * 10f64.powf(-decades);
        let symbols: Vec<OaqfmSymbol> = bits
            .iter()
            .map(|&(a_on, b_on)| OaqfmSymbol { a_on, b_on })
            .collect();
        let t0 = guard as f64 / symbol_rate;
        let fs = symbol_rate * samples_per_symbol as f64;
        // Past the end of the stream by `extra` samples, or cut short.
        let n = (symbols.len() + 2 * guard) * samples_per_symbol + extra;
        for n in [n, n / 2] {
            let mut calls = 0;
            let mut out = vec![PARKED; 3]; // stale contents are cleared
            uplink_fill_into(&symbols, t0, symbol_rate, fs, n, |s| {
                calls += 1;
                s
            }, &mut out);
            prop_assert_eq!(out.len(), n);
            for (i, got) in out.iter().enumerate() {
                prop_assert_eq!(*got, held_at(&symbols, t0, symbol_rate, fs, i), "sample {}", i);
            }
            // One value per symbol segment, plus the parked one.
            prop_assert_eq!(calls, symbols.len() + 2);
        }
        // Each edge is the first sample at or past its symbol's start.
        let ts = 1.0 / symbol_rate;
        for (k, edge) in symbol_edges(t0, symbol_rate, fs).take(symbols.len() + 1).enumerate() {
            let start = t0 + k as f64 * ts;
            prop_assert!(start <= edge as f64 / fs, "edge {} too early", k);
            prop_assert!(edge == 0 || (edge - 1) as f64 / fs < start, "edge {} too late", k);
        }
    }
}
