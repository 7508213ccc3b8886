//! Two-way exchange: an AR-style control loop where the AP pushes a
//! configuration downlink and the node answers with sensor reports uplink
//! — the use case (both directions on one low-power tag) that no prior
//! mmWave backscatter system supports (paper Table 1).
//!
//! ```sh
//! cargo run --release --example two_way_link
//! ```

use milback::{Fidelity, Network, Session, SessionConfig};
use milback_proto::arq::parse_header;
use milback_proto::packet::Packet;
use milback_rf::geometry::{deg_to_rad, Pose};

fn checksum_ok<T>(r: &Result<Vec<u8>, T>) -> &'static str {
    if r.is_ok() {
        "CRC ok"
    } else {
        "CRC FAIL"
    }
}

fn main() {
    let pose = Pose::facing_ap(4.0, deg_to_rad(-5.0), deg_to_rad(14.0));
    let mut net = Network::new(pose, Fidelity::Fast, 77);

    println!("MilBack two-way link demo (node at 4 m)");
    println!("========================================");

    // One shot per packet: a session with a single attempt per stage.
    let one_shot = |symbol_rate| {
        Session::new(SessionConfig {
            mode_attempts: 1,
            payload_attempts: 1,
            symbol_rate,
            ..SessionConfig::milback()
        })
    };

    // Round 1: AP → node configuration.
    let config = b"cfg:rate=10Mbps;led=on;interval=50ms".to_vec();
    match one_shot(1e6).run(&mut net, &Packet::downlink(config.clone())) {
        Ok(report) => {
            let dl = report.downlink.expect("downlink did not run");
            println!(
                "[AP → node] {} bytes, SINR {:.1} dB, {} — node heard mode {:?}",
                config.len(),
                10.0 * dl.sinr.log10(),
                checksum_ok(&dl.payload),
                report.mode
            );
            if let Ok(p) = &dl.payload {
                println!("            node decoded: {:?}", String::from_utf8_lossy(p));
            }
        }
        Err(e) => println!("[AP → node] {e}"),
    }

    // Rounds 2-4: node → AP sensor reports at 10 Mbps (5 Msym/s).
    for round in 0..3 {
        let report = format!("report#{round}:imu=ok;temp={}C", 21 + round).into_bytes();
        let outcome = match one_shot(5e6).run(&mut net, &Packet::uplink(report.clone())) {
            Ok(outcome) => outcome,
            Err(e) => {
                // Mode signalling or the payload missed this packet — a
                // real deployment would simply retransmit.
                println!("[node → AP] packet missed ({e}) — retrying next round");
                continue;
            }
        };
        let ul = outcome.uplink.expect("uplink did not run");
        println!(
            "[node → AP] {} bytes, SNR {:.1} dB, {} bit errors, {}",
            report.len(),
            10.0 * ul.snr.log10(),
            ul.bit_errors,
            checksum_ok(&ul.payload)
        );
        if let Some((_, p)) = ul.payload.as_deref().ok().and_then(parse_header) {
            println!("            AP decoded:  {:?}", String::from_utf8_lossy(p));
        }
        // Each packet re-localizes the node for free (Field 2).
        if let Some(fix) = outcome.fix {
            println!(
                "            side-effect localization: {:.2} m (truth {:.2} m)",
                fix.range,
                net.true_range()
            );
        }
    }

    // Energy receipt for the session.
    use milback_hw::power::NodeMode;
    let p = &net.node.power;
    let dl_energy = p.energy_per_bit_nj(NodeMode::Downlink, 2e6);
    let ul_energy = p.energy_per_bit_nj(NodeMode::Uplink { bit_rate: 10e6 }, 10e6);
    println!();
    println!(
        "node energy: {dl_energy:.1} nJ/bit downlink at this rate, {ul_energy:.1} nJ/bit uplink"
    );
}
