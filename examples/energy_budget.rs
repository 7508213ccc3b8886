//! Energy budgeting for battery-powered MilBack nodes: how long common
//! IoT duty cycles last on a coin cell, and how MilBack compares with an
//! active mmWave radio and with mmTag (paper §9.6).
//!
//! ```sh
//! cargo run --release --example energy_budget
//! ```

use milback_hw::power::{NodeMode, PowerModel};

/// CR2032 coin cell: ~225 mAh at 3 V ≈ 2430 J.
const COIN_CELL_J: f64 = 2430.0;

fn main() {
    let model = PowerModel::milback();

    println!("MilBack node energy budget (CR2032 coin cell, {COIN_CELL_J:.0} J)");
    println!("================================================================");

    // Scenario A: periodic sensor reporting.
    // Wake every second, receive a 32-byte command, send a 256-byte report.
    let dl_rate = 2e6; // 1 Msym/s OAQFM
    let ul_rate = 10e6;
    let dl_bits = (32.0 + 2.0) * 8.0;
    let ul_bits = (256.0 + 2.0) * 8.0;
    let t_dl = dl_bits / dl_rate;
    let t_ul = ul_bits / ul_rate;
    let e_dl = model.power_mw(NodeMode::Downlink) * 1e-3 * t_dl;
    let e_ul = model.power_mw(NodeMode::Uplink { bit_rate: ul_rate }) * 1e-3 * t_ul;
    // Localization preamble: 3 triangular + 5 sawtooth chirps ≈ 225 µs.
    let e_loc = model.power_mw(NodeMode::Localization) * 1e-3 * 225e-6;
    let e_cycle = e_dl + e_ul + e_loc;
    let years = COIN_CELL_J / e_cycle / (3600.0 * 24.0 * 365.0);
    println!("scenario A — 1 report/s (32 B down, 256 B up, localized every packet):");
    println!(
        "  energy per cycle: {:.2} µJ  (dl {:.2} + ul {:.2} + loc {:.2})",
        e_cycle * 1e6,
        e_dl * 1e6,
        e_ul * 1e6,
        e_loc * 1e6
    );
    println!(
        "  coin-cell life:   {years:.0} years of radio activity (battery shelf-life limited!)"
    );
    println!();

    // Scenario B: continuous AR stream — 40 Mbps uplink, always on.
    let p_stream = model.power_mw(NodeMode::Uplink { bit_rate: 40e6 }) * 1e-3;
    let hours = COIN_CELL_J / p_stream / 3600.0;
    println!("scenario B — continuous 40 Mbps uplink stream:");
    println!(
        "  node power: {:.0} mW → {hours:.0} h on a coin cell",
        p_stream * 1e3
    );
    println!();

    // Comparison per §9.6.
    println!("energy-per-bit comparison:");
    let [mmtag, .., milback] = milback_baseline::table1();
    println!(
        "  MilBack uplink   : {:.2} nJ/bit",
        milback.uplink_nj_per_bit.unwrap()
    );
    println!(
        "  MilBack downlink : {:.2} nJ/bit",
        milback.downlink_nj_per_bit.unwrap()
    );
    println!(
        "  mmTag uplink     : {:.2} nJ/bit (no downlink at all)",
        mmtag.uplink_nj_per_bit.unwrap()
    );
    // An active 28 GHz radio (phased array + mixers) draws watts; even an
    // optimistic 500 mW at 100 Mbps is 5 nJ/bit — and cannot run from a
    // coin cell's ~10 mA pulse limit at all.
    println!("  active mmWave    : ~5 nJ/bit at best, and exceeds coin-cell pulse current");
}
