//! Ocean deployment topologies and the geometric medium backing them.
//!
//! The dense `gains[i][j]` matrix of [`crate::netsim`] is O(n²) in both
//! construction (two sample-level link renders per pair) and memory — a
//! non-starter for 10 000 nodes. This module replaces it with:
//!
//! - [`RangeGain`]: a log-distance power-law fit `g(r) = a·r^-α`
//!   calibrated against the *real* channel model — two
//!   [`crate::budget::gain_matrix`] soundings at 5 m and 40 m in the lake
//!   environment pin `a` and `α`, so every pairwise gain the ocean
//!   simulator uses extrapolates the same physics the dive-site
//!   experiments render at sample level. The fit is invertible, which the
//!   PHY layer uses to map an SINR back to an equivalent clean range for
//!   the PER table.
//! - [`GeoMedium`]: per-node neighbor lists from a uniform spatial hash,
//!   truncated at the sensitivity cutoff where sensed power falls below
//!   1/8 of the noise floor (far below the carrier-sense margin, so
//!   truncation never flips a busy decision). Memory is O(n·k) for k
//!   audible neighbors, not O(n²).
//! - [`OceanTopology`]: the deployment families the dtn-unetstack design
//!   doc names — a regular sensor **grid**, clustered sensor **swarms**,
//!   and a dive-resort **fleet** of boats with divers around each.
//!
//! Everything is deterministic in the topology seed.

use crate::budget::{gain_matrix, noise_floor};
use aqua_channel::device::Device;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use super::event::Medium;

/// Band power of a transmitting node (target_rms², the convention the
/// fig19 experiment uses to scale gain matrices into sensed power).
pub const TX_POWER: f64 = 0.04;

/// Log-distance power-law fit of the in-band link gain, calibrated from
/// two sample-level channel soundings: `gain(r) = a · r^-alpha`.
#[derive(Debug, Clone, Copy)]
pub struct RangeGain {
    a: f64,
    alpha: f64,
    /// In-band ambient noise power of the calibration environment.
    pub noise: f64,
}

impl RangeGain {
    /// Calibrates against the lake preset (the environment behind the
    /// fig12 PER knots) at 2 m device depth: link-budget soundings at 5 m
    /// and 40 m determine the power-law exponent and anchor.
    pub fn lake() -> Self {
        Self::calibrated(&Environment::preset(Site::Lake), 2.0, 5.0, 40.0)
    }

    /// Fits `a`/`alpha` from two [`gain_matrix`] soundings at ranges `r1 <
    /// r2` (meters) and `depth` m in `env`.
    pub fn calibrated(env: &Environment, depth: f64, r1: f64, r2: f64) -> Self {
        assert!(r1 > 0.0 && r2 > r1);
        let positions = [
            Pos::new(0.0, 0.0, depth),
            Pos::new(r1, 0.0, depth),
            Pos::new(r2, 0.0, depth),
        ];
        let devices = [
            Device::default_rig(1),
            Device::default_rig(2),
            Device::default_rig(3),
        ];
        let g = gain_matrix(env, &positions, &devices);
        let (g1, g2) = (g[0][1], g[0][2]);
        assert!(g1 > g2 && g2 > 0.0, "gain must fall with range: {g1} {g2}");
        let alpha = (g1 / g2).ln() / (r2 / r1).ln();
        let a = g1 * r1.powf(alpha);
        Self {
            a,
            alpha,
            noise: noise_floor(env, 1)[0],
        }
    }

    /// Linear power gain at range `r` meters (clamped below 1 m — the fit
    /// is a far-field model).
    pub fn gain(&self, r: f64) -> f64 {
        self.a * r.max(1.0).powf(-self.alpha)
    }

    /// Sensed power at range `r` for a [`TX_POWER`] transmitter.
    pub fn sensed(&self, r: f64) -> f64 {
        self.gain(r) * TX_POWER
    }

    /// Inverse of [`RangeGain::sensed`]: the range at which a transmitter
    /// is sensed at power `p` (clamped to ≥ 1 m).
    pub fn range_for_sensed(&self, p: f64) -> f64 {
        assert!(p > 0.0);
        (self.a * TX_POWER / p).powf(1.0 / self.alpha).max(1.0)
    }

    /// Range beyond which sensed power drops below `noise / 8` — the
    /// medium's sensitivity cutoff for neighbor lists.
    fn hearing_radius(&self) -> f64 {
        self.range_for_sensed(self.noise / 8.0)
    }
}

/// A named node layout family for the `repro ocean` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Regular sensor grid, 20 m pitch with ±2 m placement jitter.
    Grid,
    /// Clustered sensor swarm: ~50-node clusts scattered over the area.
    Swarm,
    /// Dive-resort fleet: boats every 200 m along a coastline, ~10
    /// divers within 30 m of each boat.
    Fleet,
}

impl TopologyKind {
    /// CLI/table name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Grid => "grid",
            TopologyKind::Swarm => "swarm",
            TopologyKind::Fleet => "fleet",
        }
    }
}

/// Node positions plus each node's message destination (its nearest
/// audible neighbor; `u32::MAX` marks an isolated broadcast-only node).
#[derive(Debug, Clone)]
pub struct OceanTopology {
    /// Node positions (2 m nominal device depth).
    pub positions: Vec<Pos>,
    /// Destination node per transmitter (`u32::MAX` when isolated).
    pub dest: Vec<u32>,
}

/// Sentinel destination for nodes with no audible neighbor.
pub const NO_DEST: u32 = u32::MAX;

impl OceanTopology {
    /// Generates `n` node positions of the given family, deterministically
    /// in `seed`, and assigns nearest-neighbor destinations using the
    /// medium geometry in `rg`.
    pub fn generate(kind: TopologyKind, n: usize, seed: u64, rg: &RangeGain) -> Self {
        assert!(n >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = 2.0;
        let mut positions = Vec::with_capacity(n);
        match kind {
            TopologyKind::Grid => {
                let cols = (n as f64).sqrt().ceil() as usize;
                for i in 0..n {
                    let (row, col) = (i / cols, i % cols);
                    let jx: f64 = rng.gen_range(-2.0..=2.0);
                    let jy: f64 = rng.gen_range(-2.0..=2.0);
                    positions.push(Pos::new(
                        col as f64 * 20.0 + jx,
                        row as f64 * 20.0 + jy,
                        depth,
                    ));
                }
            }
            TopologyKind::Swarm => {
                // ~50-node clusters over an area matching the grid's
                // density; each node uniform in a 30 m disc around its
                // cluster center.
                let clusters = n.div_ceil(50).max(1);
                let side = ((n as f64).sqrt() * 20.0).max(60.0);
                let centers: Vec<(f64, f64)> = (0..clusters)
                    .map(|_| (rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
                    .collect();
                for i in 0..n {
                    let (cx, cy) = centers[i % clusters];
                    let r = 30.0 * rng.gen_range(0.0f64..=1.0).sqrt();
                    let th = rng.gen_range(0.0..=std::f64::consts::TAU);
                    positions.push(Pos::new(cx + r * th.cos(), cy + r * th.sin(), depth));
                }
            }
            TopologyKind::Fleet => {
                // Boats moored every 200 m along a coastline; ~10 divers
                // per boat within 30 m.
                let boats = n.div_ceil(10).max(1);
                for i in 0..n {
                    let boat = i % boats;
                    let bx = boat as f64 * 200.0;
                    let by: f64 = rng.gen_range(-20.0..=20.0);
                    let r = 30.0 * rng.gen_range(0.0f64..=1.0).sqrt();
                    let th = rng.gen_range(0.0..=std::f64::consts::TAU);
                    positions.push(Pos::new(bx + r * th.cos(), by + r * th.sin(), depth));
                }
            }
        }
        let dest = nearest_neighbors(&positions, rg.hearing_radius());
        Self { positions, dest }
    }
}

/// Spatial hash over node positions: uniform square cells `size` meters
/// wide, numbered in order of first occupant.
struct Cells {
    /// Per node: its cell.
    of: Vec<u32>,
    /// Per cell: its nodes, ascending.
    members: Vec<Vec<u32>>,
    /// Per cell: the occupied cells of its 3×3 block, itself included.
    /// Every node within `size` of a node lies in that node's block.
    near: Vec<Vec<u32>>,
}

impl Cells {
    fn new(positions: &[Pos], size: f64) -> Self {
        let mut ids: HashMap<(i64, i64), u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let of = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let key = ((p.x / size).floor() as i64, (p.y / size).floor() as i64);
                let c = *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    members.push(Vec::new());
                    keys.len() as u32 - 1
                });
                members[c as usize].push(i as u32);
                c
            })
            .collect();
        let near = keys
            .iter()
            .map(|&(cx, cy)| {
                (-1..=1)
                    .flat_map(|dx| (-1..=1).map(move |dy| (cx + dx, cy + dy)))
                    .filter_map(|key| ids.get(&key).copied())
                    .collect()
            })
            .collect();
        Self { of, members, near }
    }

    /// Every node in the 3×3 block around node `i`'s cell, `i` included.
    fn around(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.near[self.of[i] as usize]
            .iter()
            .flat_map(|&c| self.members[c as usize].iter().copied())
    }
}

/// Nearest audible neighbor per node ([`NO_DEST`] when none within
/// `radius`); ties broken toward the lower node index.
fn nearest_neighbors(positions: &[Pos], radius: f64) -> Vec<u32> {
    let cells = Cells::new(positions, radius);
    positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut best = NO_DEST;
            let mut best_d = f64::INFINITY;
            for j in cells.around(i).filter(|&j| j as usize != i) {
                let d = p.distance(&positions[j as usize]);
                if d <= radius && (d < best_d || (d == best_d && j < best)) {
                    best_d = d;
                    best = j;
                }
            }
            best
        })
        .collect()
}

/// Sparse geometric medium: per-node neighbor lists (ascending index)
/// with precomputed sensed powers from the [`RangeGain`] fit, and the
/// hearing-radius cells of its spatial hash for the event core's
/// live-transmission index.
#[derive(Debug, Clone)]
pub struct GeoMedium {
    positions: Vec<Pos>,
    rg: RangeGain,
    /// Per node: audible neighbors in ascending index order.
    neighbors: Vec<Vec<u32>>,
    /// Per node: sensed power of the matching neighbor (same order).
    powers: Vec<Vec<f64>>,
    /// Per node: its hearing-radius cell.
    cell: Vec<u32>,
    /// Per cell: the occupied cells of its 3×3 block, which hold every
    /// neighbor of every node in the cell.
    near: Vec<Vec<u32>>,
}

impl GeoMedium {
    /// Builds neighbor lists for `positions` under the sensitivity cutoff
    /// of `rg`: the range beyond which sensed power drops below
    /// `noise / 8`.
    pub fn new(positions: Vec<Pos>, rg: RangeGain) -> Self {
        let radius = rg.hearing_radius();
        let cells = Cells::new(&positions, radius);
        let n = positions.len();
        let mut neighbors = Vec::with_capacity(n);
        let mut powers = Vec::with_capacity(n);
        for (i, p) in positions.iter().enumerate() {
            let mut near: Vec<u32> = cells
                .around(i)
                .filter(|&j| j as usize != i && p.distance(&positions[j as usize]) <= radius)
                .collect();
            near.sort_unstable();
            let pw = near
                .iter()
                .map(|&j| rg.sensed(p.distance(&positions[j as usize])))
                .collect();
            neighbors.push(near);
            powers.push(pw);
        }
        Self {
            positions,
            rg,
            neighbors,
            powers,
            cell: cells.of,
            near: cells.near,
        }
    }

    /// Euclidean range between two nodes, meters.
    pub fn range_m(&self, i: usize, j: usize) -> f64 {
        self.positions[i].distance(&self.positions[j])
    }

    /// One-way acoustic propagation delay between two nodes, seconds.
    pub fn prop_delay_s(&self, i: usize, j: usize) -> f64 {
        self.range_m(i, j) / super::event::SOUND_SPEED
    }

    /// Largest pairwise propagation delay that matters to the simulator:
    /// interactions are truncated at the hearing radius.
    pub fn max_prop_delay_s(&self) -> f64 {
        self.rg.hearing_radius() / super::event::SOUND_SPEED
    }

    /// Mean audible-neighbor count (reported by the ocean experiment).
    pub fn mean_degree(&self) -> f64 {
        let total: usize = self.neighbors.iter().map(Vec::len).sum();
        total as f64 / self.neighbors.len().max(1) as f64
    }
}

impl Medium for GeoMedium {
    fn nodes(&self) -> usize {
        self.positions.len()
    }
    fn noise_floor(&self, _rx: usize) -> f64 {
        self.rg.noise
    }
    fn neighbors_of(&self, rx: usize) -> &[u32] {
        &self.neighbors[rx]
    }
    fn gain(&self, tx: usize, rx: usize) -> f64 {
        match self.neighbors[rx].binary_search(&(tx as u32)) {
            Ok(k) => self.powers[rx][k],
            Err(_) => 0.0,
        }
    }
    fn gain_at(&self, rx: usize, k: usize) -> f64 {
        self.powers[rx][k]
    }
    fn cell_count(&self) -> usize {
        self.near.len()
    }
    fn cell_of(&self, node: usize) -> usize {
        self.cell[node] as usize
    }
    fn cells_near(&self, node: usize) -> &[u32] {
        &self.near[self.cell[node] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lake_fit_is_monotone_and_invertible() {
        let rg = RangeGain::lake();
        assert!(rg.sensed(5.0) > rg.sensed(20.0));
        assert!(rg.sensed(20.0) > rg.sensed(80.0));
        let r = 17.0;
        let back = rg.range_for_sensed(rg.sensed(r));
        assert!((back - r).abs() < 1e-9, "{back}");
        assert!(rg.hearing_radius() > 5.0, "{}", rg.hearing_radius());
    }

    #[test]
    fn topologies_are_deterministic_and_sized() {
        let rg = RangeGain::lake();
        for kind in [TopologyKind::Grid, TopologyKind::Swarm, TopologyKind::Fleet] {
            let a = OceanTopology::generate(kind, 120, 9, &rg);
            let b = OceanTopology::generate(kind, 120, 9, &rg);
            assert_eq!(a.positions.len(), 120);
            for (p, q) in a.positions.iter().zip(&b.positions) {
                assert_eq!(p.x.to_bits(), q.x.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
            assert_eq!(a.dest, b.dest);
            // Dense-enough layouts: nearly everyone has a destination.
            let with_dest = a.dest.iter().filter(|&&d| d != NO_DEST).count();
            assert!(with_dest * 10 >= 120 * 9, "{kind:?}: {with_dest}/120");
        }
    }

    #[test]
    fn geo_medium_neighbors_are_sorted_and_symmetric() {
        let rg = RangeGain::lake();
        let topo = OceanTopology::generate(TopologyKind::Grid, 64, 3, &rg);
        let m = GeoMedium::new(topo.positions, rg);
        for i in 0..64 {
            let ns = m.neighbors_of(i);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            assert!(!ns.contains(&(i as u32)), "self excluded");
            for &j in ns {
                assert!(
                    m.neighbors_of(j as usize).contains(&(i as u32)),
                    "symmetry {i} {j}"
                );
                assert!(m.gain(j as usize, i) > 0.0);
            }
        }
        if m.range_m(0, 63) > rg.hearing_radius() {
            assert_eq!(m.gain(0, 63), 0.0, "out-of-range pair has zero gain");
        }
    }

    #[test]
    fn geo_medium_cells_near_hold_every_neighbor() {
        let rg = RangeGain::lake();
        for kind in [TopologyKind::Grid, TopologyKind::Swarm, TopologyKind::Fleet] {
            let topo = OceanTopology::generate(kind, 400, 5, &rg);
            let m = GeoMedium::new(topo.positions, rg);
            assert!(m.cell_count() > 1, "{kind:?}: one cell proves nothing");
            for i in 0..400 {
                let near = m.cells_near(i);
                let mut distinct = near.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), near.len(), "distinct cells");
                assert!(near.contains(&(m.cell_of(i) as u32)), "own cell");
                for (k, &j) in m.neighbors_of(i).iter().enumerate() {
                    assert!(
                        near.contains(&(m.cell_of(j as usize) as u32)),
                        "{kind:?} {i} {j}"
                    );
                    assert_eq!(m.gain_at(i, k).to_bits(), m.gain(j as usize, i).to_bits());
                }
            }
        }
    }
}
