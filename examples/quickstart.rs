//! Quickstart: stand up a MilBack network, localize the node, sense its
//! orientation from both ends, and exchange a packet in each direction.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use milback::{Fidelity, Network, Session, SessionConfig};
use milback_proto::arq::parse_header;
use milback_proto::packet::Packet;
use milback_rf::geometry::{deg_to_rad, rad_to_deg, Pose};

fn main() {
    // A node 3 m from the AP, 8° off the AP's boresight, rotated 12° away
    // from facing the AP, in the paper's cluttered indoor scene.
    let pose = Pose::facing_ap(3.0, deg_to_rad(8.0), deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, 42);

    println!("MilBack quickstart");
    println!("------------------");
    println!(
        "ground truth: range {:.2} m, azimuth {:.1}°, orientation {:.1}°",
        net.true_range(),
        rad_to_deg(net.true_angle()),
        rad_to_deg(net.true_orientation())
    );

    // 1. Localization (paper §5.1): FMCW + background subtraction.
    match net.localize() {
        Some(fix) => println!(
            "localization: range {:.3} m, azimuth {}",
            fix.range,
            fix.angle
                .map(|a| format!("{:.2}°", rad_to_deg(a)))
                .unwrap_or_else(|| "n/a".into())
        ),
        None => println!("localization: node not detected"),
    }

    // 2. Orientation sensing, both ends (paper §5.2).
    if let Some(o) = net.sense_orientation_at_ap() {
        println!("AP-side orientation estimate:   {:.2}°", rad_to_deg(o));
    }
    if let Some(o) = net.sense_orientation_at_node() {
        println!("node-side orientation estimate: {:.2}°", rad_to_deg(o));
    }

    // 3. A full downlink packet: Field 1 signals the mode, Field 2
    //    localizes, then the payload rides on orientation-selected tones.
    //    One shot: the session gets a single attempt per stage.
    let one_shot = |symbol_rate| {
        Session::new(SessionConfig {
            mode_attempts: 1,
            payload_attempts: 1,
            symbol_rate,
            ..SessionConfig::milback()
        })
    };
    let downlink = Packet::downlink(b"hello node, please report".to_vec());
    match one_shot(1e6).run(&mut net, &downlink) {
        Ok(report) => {
            let dl = report.downlink.expect("downlink did not run");
            println!(
                "downlink: tones {:?}, SINR {:.1} dB, {} bit errors, payload {:?}",
                dl.tones,
                10.0 * dl.sinr.log10(),
                dl.bit_errors,
                dl.payload
                    .as_ref()
                    .map(|p| String::from_utf8_lossy(p).into_owned())
            );
        }
        Err(e) => println!("downlink: {e}"),
    }

    // 4. A full uplink packet: the node backscatters its data on the
    //    two-tone query, inside the session's ARQ frame.
    let uplink = Packet::uplink(b"temp=23C batt=97% status=ok".to_vec());
    match one_shot(5e6).run(&mut net, &uplink) {
        Ok(report) => {
            let ul = report.uplink.expect("uplink did not run");
            println!(
                "uplink:   tones {:?}, SNR {:.1} dB, {} bit errors, payload {:?}",
                ul.tones,
                10.0 * ul.snr.log10(),
                ul.bit_errors,
                ul.payload
                    .as_ref()
                    .ok()
                    .and_then(|f| parse_header(f))
                    .map(|(_, p)| String::from_utf8_lossy(p).into_owned())
            );
        }
        Err(e) => println!("uplink: {e}"),
    }

    // 5. What it costs the node (paper §9.6).
    use milback_hw::power::NodeMode;
    let p = &net.node.power;
    println!(
        "node power: {:.0} mW localization/downlink, {:.0} mW uplink @40 Mbps",
        p.power_mw(NodeMode::Downlink),
        p.power_mw(NodeMode::Uplink { bit_rate: 40e6 })
    );
}
