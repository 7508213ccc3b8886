//! Field-1 mode signalling of the MilBack packet protocol (paper §7):
//! the AP announces the payload direction by chirp count and the node
//! decodes it with its energy detector. The full exchange — Field 1,
//! Field 2 localization and orientation, then the payload in whichever
//! direction Field 1 announced — is run by [`crate::session::Session`].

use crate::network::{field1_reception, Network};

use milback_node::mode_detect::ModeDetector;
use milback_proto::packet::{LinkMode, PacketConfig, Slot};
use milback_rf::fsa::Port;

impl Network {
    /// Transmits Field 1 for `mode` and lets the node detect the mode by
    /// counting chirps with its energy detector (paper §7).
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered (see
    /// [`Network::localize`]).
    pub fn signal_mode(&mut self, mode: LinkMode) -> Option<LinkMode> {
        if self.render_rejected() {
            return None;
        }
        let chirp = self.fidelity.packet().field1_chirp;
        let mut rng = self.fork_rng();
        let (scene, node, p_tx) = (&self.scene, &self.node, self.ap.tx.amplitude().powi(2));
        let mut combined: Vec<f64> = Vec::new();
        for slot in PacketConfig::field1_slots(mode) {
            // A gap slot is a reception of silence: the detectors see
            // only their own noise.
            let lit = |port| (slot == Slot::Chirp).then_some(port);
            let cap_a = field1_reception(scene, node, p_tx, &chirp, lit(Port::A), &mut rng);
            let cap_b = field1_reception(scene, node, p_tx, &chirp, lit(Port::B), &mut rng);
            combined.extend(cap_a.iter().zip(&cap_b).map(|(a, b)| a + b));
        }
        let det = ModeDetector {
            slot_duration: chirp.duration,
            sample_rate: self.node.adc.sample_rate,
        };
        // Scheduled impairments hit the node's detector stream before
        // the decision (no-op when the fault plan is empty) — a blockage
        // window over Field 1 erases chirps the counter needed.
        self.faults
            .apply_to_video(self.clock_s, self.node.adc.sample_rate, &mut combined);
        // The node knows its detector noise (it can measure a quiet
        // window any time); the combined capture sums two ports.
        let sigma = 2f64.sqrt() * self.node.detector.output_noise_rms();
        det.detect_with_floor(&combined, 0.0, sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use crate::session::{FailureKind, Session, SessionConfig};
    use milback_proto::arq::parse_header;
    use milback_proto::packet::Packet;
    use milback_rf::geometry::{deg_to_rad, Pose};

    #[test]
    fn mode_signalling_through_channel() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0));
        let mut net = Network::new(pose, Fidelity::Fast, 21);
        assert_eq!(net.signal_mode(LinkMode::Uplink), Some(LinkMode::Uplink));
        assert_eq!(
            net.signal_mode(LinkMode::Downlink),
            Some(LinkMode::Downlink)
        );
    }

    /// One-shot exchange: a session with no retry budget at either
    /// stage, at the given payload symbol rate.
    fn one_shot(symbol_rate: f64) -> Session {
        Session::new(SessionConfig {
            mode_attempts: 1,
            payload_attempts: 1,
            symbol_rate,
            ..SessionConfig::milback()
        })
    }

    #[test]
    fn full_downlink_packet() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 22);
        let packet = Packet::downlink((0..16).collect());
        let report = one_shot(1e6)
            .run(&mut net, &packet)
            .expect("exchange failed");
        assert_eq!(report.mode, LinkMode::Downlink);
        assert!(report.fix.is_some());
        assert!(report.node_orientation.is_some());
        assert!(report.ap_orientation.is_some());
        let dl = report.downlink.expect("downlink did not run");
        assert_eq!(dl.payload.as_deref().unwrap(), &packet.payload[..]);
    }

    #[test]
    fn full_uplink_packet() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 23);
        let packet = Packet::uplink(vec![0xC3; 16]);
        let report = one_shot(5e6)
            .run(&mut net, &packet)
            .expect("exchange failed");
        assert_eq!(report.mode, LinkMode::Uplink);
        let ul = report.uplink.expect("uplink did not run");
        // The uplink frame carries the session's ARQ header.
        let frame = ul.payload.as_deref().unwrap();
        assert_eq!(
            parse_header(frame).map(|(_, p)| p),
            Some(&packet.payload[..])
        );
    }

    #[test]
    fn mode_mismatch_skips_payload() {
        // A node too far away to hear Field 1 must not attempt the payload.
        let pose = Pose::facing_ap(40.0, 0.0, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, 24);
        // Out of localizer range too — everything degrades gracefully.
        let packet = Packet::downlink(vec![1, 2, 3]);
        if let Err(e) = one_shot(1e6).run(&mut net, &packet) {
            if e.kind == FailureKind::ModeDetect {
                // Only the one Field-1 transmission went on air.
                assert_eq!(e.attempts, 1);
                assert_eq!(net.clock_s, net.fidelity.packet().field1_duration());
            }
        }
    }
}
