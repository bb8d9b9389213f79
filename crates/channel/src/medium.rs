//! Shared multi-node acoustic medium.
//!
//! Multiple devices in the same water body hear the superposition of each
//! other's transmissions plus their own local noise. [`Medium`] renders
//! every transmission through the pairwise [`Link`]s into per-node receive
//! tapes; nodes then [`Medium::capture`] arbitrary windows (what a real-time
//! audio callback would deliver).
//!
//! This is the full-waveform bus used by protocol and network tests. The
//! MAC-scale collision experiments (Fig. 19, minutes of simulated audio)
//! use `aqua-mac`'s energy-envelope fast path instead; both share the same
//! link-budget model.

use crate::device::Device;
use crate::environments::Environment;
use crate::link::{Link, LinkConfig};
use crate::mobility::Trajectory;
use crate::noise::NoiseGenerator;
use std::collections::HashMap;

/// Identifier of a node on the medium.
pub type NodeId = usize;

struct NodeEntry {
    device: Device,
    traj: Trajectory,
}

/// A shared acoustic medium connecting several devices.
pub struct Medium {
    fs: f64,
    env: Environment,
    seed: u64,
    nodes: Vec<NodeEntry>,
    /// Accumulated (noise-free) received waveform per node, indexed from
    /// absolute sample 0.
    rx_tapes: Vec<Vec<f64>>,
    /// Deterministic ambient noise per node, extended lazily so repeated
    /// captures of the same window agree.
    noise_tapes: Vec<Vec<f64>>,
    noise_gens: Vec<NoiseGenerator>,
    links: HashMap<(NodeId, NodeId), Link>,
}

impl Medium {
    /// Creates an empty medium in the given environment.
    pub fn new(env: Environment, fs: f64, seed: u64) -> Self {
        Self {
            fs,
            env,
            seed,
            nodes: Vec::new(),
            rx_tapes: Vec::new(),
            noise_tapes: Vec::new(),
            noise_gens: Vec::new(),
            links: HashMap::new(),
        }
    }

    /// Adds a device to the medium and returns its id.
    pub fn add_node(&mut self, device: Device, traj: Trajectory) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(NodeEntry { device, traj });
        self.rx_tapes.push(Vec::new());
        self.noise_tapes.push(Vec::new());
        self.noise_gens.push(NoiseGenerator::new(
            self.env.noise.clone(),
            self.fs,
            self.seed ^ (id as u64).wrapping_mul(0x9E37),
        ));
        id
    }

    fn link_for(&mut self, from: NodeId, to: NodeId) -> &mut Link {
        let fs = self.fs;
        let env = self.env.clone();
        let tx_dev = self.nodes[from].device;
        let rx_dev = self.nodes[to].device;
        let tx_traj = self.nodes[from].traj.clone();
        let rx_traj = self.nodes[to].traj.clone();
        let seed = self.seed ^ ((from as u64) << 16) ^ to as u64;
        self.links.entry((from, to)).or_insert_with(|| {
            Link::new(LinkConfig {
                fs,
                env,
                tx_device: tx_dev,
                rx_device: rx_dev,
                tx_traj,
                rx_traj,
                // noise is added per-receiver at capture time, not per link
                noise: false,
                impulses: false,
                seed,
            })
        })
    }

    /// Broadcasts `samples` from node `from` starting at absolute sample
    /// `start`; renders into every other node's receive tape.
    pub fn transmit(&mut self, from: NodeId, start: u64, samples: &[f64]) {
        let t0 = start as f64 / self.fs;
        let n = self.nodes.len();
        for to in 0..n {
            if to == from {
                continue;
            }
            let rx = self.link_for(from, to).transmit(samples, t0);
            let tape = &mut self.rx_tapes[to];
            let end = start as usize + rx.len();
            if tape.len() < end {
                tape.resize(end, 0.0);
            }
            for (i, v) in rx.iter().enumerate() {
                tape[start as usize + i] += v;
            }
        }
    }

    /// Captures `len` samples of what node `node` hears starting at
    /// absolute sample `start` (signal superposition plus that node's
    /// deterministic ambient noise).
    pub fn capture(&mut self, node: NodeId, start: u64, len: usize) -> Vec<f64> {
        let start = start as usize;
        // extend the noise tape deterministically
        let need = start + len;
        if self.noise_tapes[node].len() < need {
            let missing = need - self.noise_tapes[node].len();
            let more = self.noise_gens[node].generate(missing.max(4800));
            self.noise_tapes[node].extend(more);
        }
        let tape = &self.rx_tapes[node];
        (0..len)
            .map(|i| {
                let idx = start + i;
                let sig = tape.get(idx).copied().unwrap_or(0.0);
                sig + self.noise_tapes[node][idx]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environments::Site;
    use crate::geometry::Pos;
    use aqua_dsp::chirp::tone;

    fn two_node_medium() -> (Medium, NodeId, NodeId) {
        let mut m = Medium::new(Environment::preset(Site::Bridge), 48000.0, 7);
        let a = m.add_node(
            Device::default_rig(1),
            Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)),
        );
        let b = m.add_node(
            Device::default_rig(2),
            Trajectory::fixed(Pos::new(5.0, 0.0, 1.0)),
        );
        (m, a, b)
    }

    #[test]
    fn receiver_hears_transmission() {
        let (mut m, a, b) = two_node_medium();
        let tx = tone(2000.0, 4800, 48000.0);
        m.transmit(a, 1000, &tx);
        let rx = m.capture(b, 1000, 6000);
        let silent = m.capture(b, 200_000, 6000);
        let e_rx: f64 = rx.iter().map(|v| v * v).sum();
        let e_silent: f64 = silent.iter().map(|v| v * v).sum();
        assert!(e_rx > 3.0 * e_silent, "rx {e_rx} vs noise {e_silent}");
    }

    #[test]
    fn transmitter_does_not_hear_itself() {
        let (mut m, a, _) = two_node_medium();
        let tx = tone(2000.0, 4800, 48000.0);
        m.transmit(a, 0, &tx);
        let own = m.capture(a, 0, 4800);
        // only ambient noise
        let rms = (own.iter().map(|v| v * v).sum::<f64>() / own.len() as f64).sqrt();
        assert!(rms < 0.05);
    }

    #[test]
    fn simultaneous_transmissions_superpose() {
        let mut m = Medium::new(Environment::preset(Site::Bridge), 48000.0, 9);
        let a = m.add_node(
            Device::default_rig(1),
            Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)),
        );
        let b = m.add_node(
            Device::default_rig(2),
            Trajectory::fixed(Pos::new(10.0, 0.0, 1.0)),
        );
        let c = m.add_node(
            Device::default_rig(3),
            Trajectory::fixed(Pos::new(5.0, 3.0, 1.0)),
        );
        let t1 = tone(1500.0, 4800, 48000.0);
        let t2 = tone(2500.0, 4800, 48000.0);
        m.transmit(a, 0, &t1);
        m.transmit(b, 0, &t2);
        let rx = m.capture(c, 0, 5200);
        use aqua_dsp::goertzel::goertzel_power;
        let p1 = goertzel_power(&rx[400..4600], 1500.0, 48000.0);
        let p2 = goertzel_power(&rx[400..4600], 2500.0, 48000.0);
        let p_off = goertzel_power(&rx[400..4600], 3500.0, 48000.0);
        assert!(p1 > 5.0 * p_off, "tone 1 missing");
        assert!(p2 > 5.0 * p_off, "tone 2 missing");
    }

    #[test]
    fn capture_is_repeatable() {
        let (mut m, a, b) = two_node_medium();
        let tx = tone(2000.0, 2400, 48000.0);
        m.transmit(a, 0, &tx);
        let r1 = m.capture(b, 0, 3000);
        let r2 = m.capture(b, 0, 3000);
        assert_eq!(r1, r2, "same window must return identical samples");
    }

    #[test]
    fn capture_beyond_rendered_signal_is_noise_only() {
        let (mut m, _, b) = two_node_medium();
        let rx = m.capture(b, 1_000_000, 1000);
        assert_eq!(rx.len(), 1000);
        let rms = (rx.iter().map(|v| v * v).sum::<f64>() / 1000.0).sqrt();
        assert!(rms > 0.0 && rms < 0.05);
    }
}
