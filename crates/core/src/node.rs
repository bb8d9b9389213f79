//! Node-level messaging facade: [`Messenger`] packages the trial-level
//! protocol into "send hand signals from A to B" calls for the examples
//! and app-level tests.

use crate::trial::{run_trial, Scheme, TrialConfig, TrialResult};
use aqua_channel::environments::Environment;
use aqua_channel::geometry::Pos;
use aqua_channel::mobility::Trajectory;
use aqua_proto::messages::Message;
use aqua_proto::packet::MessagePacket;

/// Outcome of a messaging attempt.
#[derive(Debug, Clone)]
pub struct SendOutcome {
    /// The raw trial measurements.
    pub trial: TrialResult,
    /// The messages the receiver decoded, resolved against the codebook.
    pub received: Vec<Message>,
}

/// App-level facade: sends hand-signal packets between two positioned
/// devices in an environment, running the full adaptive protocol.
pub struct Messenger {
    env: Environment,
    seed: u64,
}

impl Messenger {
    /// Creates a messenger for an environment.
    pub fn new(env: Environment, seed: u64) -> Self {
        Self { env, seed }
    }

    /// Sends a message packet from `alice` to `bob` (device positions).
    /// Each call is one packet exchange; the seed advances so repeated
    /// sends see fresh noise.
    pub fn send(&mut self, alice: Pos, bob: Pos, packet: MessagePacket) -> SendOutcome {
        self.send_with(alice, bob, packet, Scheme::Adaptive, None, None)
    }

    /// Full-control variant used by examples: optional scheme override and
    /// trajectories.
    pub fn send_with(
        &mut self,
        alice: Pos,
        bob: Pos,
        packet: MessagePacket,
        scheme: Scheme,
        alice_traj: Option<Trajectory>,
        bob_traj: Option<Trajectory>,
    ) -> SendOutcome {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut cfg = TrialConfig::standard(self.env.clone(), alice, bob, self.seed);
        cfg.payload = packet.to_bits();
        cfg.scheme = scheme;
        if let Some(t) = alice_traj {
            cfg.alice_traj = t;
        }
        if let Some(t) = bob_traj {
            cfg.bob_traj = t;
        }
        let trial = run_trial(&cfg);
        let received = trial
            .bits
            .as_deref()
            .and_then(MessagePacket::from_bits)
            .map(|p| {
                let mut msgs = Vec::new();
                if let Some(m) = aqua_proto::messages::by_id(p.first) {
                    msgs.push(m);
                }
                if let Some(second) = p.second {
                    if let Some(m) = aqua_proto::messages::by_id(second) {
                        msgs.push(m);
                    }
                }
                msgs
            })
            .unwrap_or_default();
        SendOutcome { trial, received }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_channel::environments::Site;

    #[test]
    fn messenger_delivers_two_hand_signals() {
        let mut m = Messenger::new(Environment::preset(Site::Bridge), 9);
        let packet = MessagePacket::pair(3, 77);
        let out = m.send(Pos::new(0.0, 0.0, 1.0), Pos::new(5.0, 0.0, 1.0), packet);
        assert!(out.trial.packet_ok, "delivery failed");
        assert_eq!(out.received.len(), 2);
        assert_eq!(out.received[0].id, 3);
        assert_eq!(out.received[1].id, 77);
    }

    #[test]
    fn messenger_seeds_advance_between_sends() {
        let mut m = Messenger::new(Environment::preset(Site::Bridge), 1);
        let p = MessagePacket::single(0);
        let a = m.send(Pos::new(0.0, 0.0, 1.0), Pos::new(5.0, 0.0, 1.0), p);
        let b = m.send(Pos::new(0.0, 0.0, 1.0), Pos::new(5.0, 0.0, 1.0), p);
        // both should deliver; the channel/noise realizations differ but we
        // can at least assert both ran the full pipeline
        assert!(a.trial.preamble_detected && b.trial.preamble_detected);
    }
}
