//! Multi-node operation by space-division multiplexing (paper §7 last
//! paragraph): the AP steers its beams toward each node in turn and runs
//! the full per-node procedure. Nodes outside the steered beam contribute
//! only side-lobe energy, so the links stay isolated.
//!
//! Polling runs on the dense-network fabric (`milback::net`, DESIGN.md
//! §16): first a single-AP fabric polling three nodes, then two APs with
//! slotted polling rounds per coverage cell, parked-neighbor
//! interference and deterministic handoffs.
//!
//! ```sh
//! cargo run --release --example multi_node_sdm
//! ```

use milback::net::{ap_line, net_roster, Fabric, NetConfig};
use milback::{Fidelity, Network};
use milback_rf::geometry::{deg_to_rad, Pose};

fn main() {
    // Three nodes spread across the AP's field of view — ALL physically
    // present in the channel at once; the AP steers per slot (SDM).
    let names = ["headset  ", "wristband", "anchor   "];
    let poses = vec![
        Pose::facing_ap(2.5, deg_to_rad(-25.0), deg_to_rad(10.0)),
        Pose::facing_ap(4.0, deg_to_rad(0.0), deg_to_rad(-8.0)),
        Pose::facing_ap(6.0, deg_to_rad(30.0), deg_to_rad(15.0)),
    ];
    let truths = [2.5, 4.0, 6.0];

    println!(
        "MilBack SDM demo: one AP polling {} co-present nodes",
        poses.len()
    );
    // One AP, one cell: every slot is an uplink session with the other
    // two nodes parked absorptive in the capture.
    let mut cfg = NetConfig::milback(Fidelity::Fast);
    cfg.localize_fraction = 0.0;
    cfg.uplink_fraction = 1.0;
    let mut fabric = Fabric::new(&ap_line(1, 0.0), &poses, cfg);
    fabric.reseed(4000);
    let round = fabric.run_round(1);

    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>9}",
        "node", "true_m", "est_m", "interferers", "UL ok"
    );
    for (k, name) in names.iter().enumerate() {
        let slot = fabric.outcome(k);
        let est = if slot.fix_range_bits == u64::MAX {
            "miss".to_string()
        } else {
            format!("{:.2}", f64::from_bits(slot.fix_range_bits))
        };
        println!(
            "{:<10} {:>9.2} {:>10} {:>12} {:>9}",
            name,
            truths[k],
            est,
            slot.interferers,
            if slot.delivered { "yes" } else { "no" }
        );
    }
    // Per-node uplink goodput under this round-robin.
    println!(
        "per-node uplink goodput in this round-robin: {:.0} bit/s",
        round.goodput_bps / poses.len() as f64
    );

    println!();
    println!("Isolation check: with the beam steered at the wristband (0°),");
    println!("how much weaker is the headset's (−25°) backscatter?");
    let wrist = Pose::facing_ap(4.0, 0.0, deg_to_rad(-8.0));
    let head = Pose::facing_ap(2.5, deg_to_rad(-25.0), deg_to_rad(10.0));
    let net = Network::new(wrist, Fidelity::Fast, 5000);
    // Per-tone backscatter gains with the AP steered at the wristband.
    let fsa = net.node.fsa;
    let wrist_inc = wrist.incidence_from(&net.scene.tx_pos);
    let f = fsa
        .frequency_for_angle(milback_rf::fsa::Port::A, wrist_inc)
        .unwrap();
    let g_wrist = net
        .scene
        .tone_backscatter_gain(&wrist, &fsa, milback_rf::fsa::Port::A, f, 0);
    let g_head = net
        .scene
        .tone_backscatter_gain(&head, &fsa, milback_rf::fsa::Port::A, f, 0);
    println!(
        "wristband path {:.1} dB, headset path {:.1} dB → {:.1} dB of spatial isolation",
        10.0 * g_wrist.log10(),
        10.0 * g_head.log10(),
        10.0 * (g_wrist / g_head).log10()
    );

    // Scaling up: the dense-network fabric (milback::net) runs the same
    // polling discipline across coverage cells — here two APs 4 m apart
    // serving a dozen nodes for one slotted round, with parked-neighbor
    // interference and strongest-response cell assignment.
    println!();
    println!("Dense-network fabric: 2 APs, 12 nodes, one slotted round");
    let aps = ap_line(2, 4.0);
    let roster = net_roster(12, &aps, 0x5D17);
    let mut fabric = Fabric::new(&aps, &roster, NetConfig::milback(Fidelity::Fast));
    fabric.reseed(0x5D17);
    let round = fabric.run_round(1);
    let cell0 = fabric.assignment().iter().filter(|&&c| c == 0).count();
    println!(
        "cells: {} nodes on AP0, {} on AP1; round span {:.1} ms",
        cell0,
        fabric.nodes() - cell0,
        round.round_airtime_s * 1e3
    );
    println!(
        "round: {}/{} delivered ({} fixes), {} overruns, {:.0} bit/s aggregate goodput",
        round.delivered, round.sessions, round.fixes, round.overruns, round.goodput_bps
    );
}
