//! Event-driven ocean-scale network simulation.
//!
//! The ROADMAP's north star is a simulated ocean — thousands of
//! acoustically-messaging nodes over hours of simulated time — which the
//! slot-stepped [`crate::netsim`] cannot reach (it scans every node every
//! 80 ms slot and renders every link sample-level). This module family
//! splits the problem:
//!
//! - [`event`]: the event-driven MAC core — a binary-heap event queue
//!   keyed `(slot, node)`, per-node transmission histories instead of
//!   per-slot scans, and reception windows scheduled at
//!   propagation-delay-adjusted arrival times. On dense small configs it
//!   is **bit-identical** to `netsim::simulate` (the oracle), pinned by
//!   `mac/tests/ocean_equivalence.rs`.
//! - [`topology`]: grid/swarm/fleet deployments, the calibrated
//!   log-distance range-gain fit, and the spatial-hash [`topology::GeoMedium`]
//!   with O(n·k) neighbor lists.
//! - [`per_table`]: the analytic PER-vs-range lookup interpolated from
//!   the recorded fig9/fig12 curves — the fast path for clean receptions.
//! - [`phy`]: the PER-vs-sample-level dispatch rule and the memoized
//!   sample-level probe renders for receptions with real time overlap.
//! - [`stats`]: bounded-memory streaming collision/latency/fairness
//!   accounting.
//!
//! [`run_ocean`] assembles them: the MAC state machine advances serially
//! (its decisions are causally ordered through the shared channel), while
//! completed reception windows — the expensive, independent part — are
//! batched and fanned out across an [`aqua_par::Pool`] with the same
//! parallel ≡ serial bit-identical contract as the experiment engine
//! (`mac/tests/ocean_determinism.rs`). The `repro ocean` experiment in
//! `aqua-eval` drives 10 000-node, 24 h simulated deployments through
//! this entry point. See DESIGN.md §11.

pub mod churn;
pub mod event;
pub mod per_table;
pub mod phy;
pub mod stats;
pub mod topology;

pub use churn::ChurnConfig;
pub use event::simulate_events;
pub use per_table::{Band, PerTable};
pub use topology::TopologyKind;

use crate::netsim::MacConfig;
use aqua_par::Pool;

use churn::ChurnSchedule;
use event::{EventCore, Reception, SimHooks};
use phy::PhyResolver;
use stats::{jain_fairness, CollisionWindow, LatencyHist};
use topology::{GeoMedium, OceanTopology, RangeGain, NO_DEST};

/// Configuration of one ocean deployment run.
#[derive(Debug, Clone)]
pub struct OceanConfig {
    /// Deployment layout family.
    pub kind: TopologyKind,
    /// Number of nodes.
    pub nodes: usize,
    /// Simulated duration (seconds); the run is truncated here.
    pub sim_duration_s: f64,
    /// MAC parameters (slotting, carrier sense, traffic pattern).
    pub mac: MacConfig,
    /// Modulation scheme for the PER table.
    pub band: Band,
    /// Master seed: topology, MAC RNG and per-reception PHY draws.
    pub seed: u64,
    /// Receptions buffered before a parallel resolution flush.
    pub batch: usize,
    /// Node churn model: hard failures and duty-cycle sleep
    /// ([`ChurnConfig::none`] for an always-on fleet).
    pub churn: ChurnConfig,
}

impl OceanConfig {
    /// The standard deployment traffic model: periodic sensor reports
    /// (uniform 2–8 min inter-packet gap, staggered start over 2 min),
    /// carrier sense on, endless packet supply — the run length is set by
    /// `sim_duration_s`, not a packet budget.
    pub fn deployment(kind: TopologyKind, nodes: usize, sim_duration_s: f64, seed: u64) -> Self {
        Self {
            kind,
            nodes,
            sim_duration_s,
            mac: MacConfig {
                max_packets: usize::MAX,
                initial_delay_s: (0.0, 120.0),
                inter_packet_gap_s: (120.0, 480.0),
                ..MacConfig::default()
            },
            band: Band::Adaptive,
            seed,
            batch: 1024,
            churn: ChurnConfig::none(),
        }
    }
}

/// Aggregate result of an ocean run. All statistics are streamed with
/// bounded memory; no per-packet records survive the run.
#[derive(Debug, Clone)]
pub struct OceanResult {
    /// Nodes simulated.
    pub nodes: usize,
    /// Simulated time covered (seconds).
    pub duration_s: f64,
    /// Packets transmitted.
    pub transmissions: u64,
    /// Reception windows resolved (transmissions with a destination).
    pub receptions: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// `delivered / receptions` (1.0 when nothing was addressed).
    pub delivery_rate: f64,
    /// Receptions lost because the destination was itself transmitting.
    pub dest_busy_losses: u64,
    /// Receptions lost because the destination was failed or asleep for
    /// some part of the arrival window.
    pub churn_losses: u64,
    /// Fraction of the run the average node spent unavailable.
    pub downtime_frac: f64,
    /// Receptions that required the sample-level overlap path.
    pub overlap_receptions: u64,
    /// Fraction of transmissions colliding (same metric as fig19).
    pub collision_fraction: f64,
    /// Mean end-to-end delivered-packet latency (seconds).
    pub latency_mean_s: f64,
    /// Median delivered-packet latency (seconds, histogram resolution).
    pub latency_p50_s: f64,
    /// 90th-percentile delivered-packet latency (seconds).
    pub latency_p90_s: f64,
    /// Jain fairness index over per-sender delivered counts.
    pub fairness: f64,
    /// Heap events processed by the core.
    pub events: u64,
    /// Peak event-heap length (memory-bound witness).
    pub peak_heap: usize,
    /// Peak collision-window length (memory-bound witness).
    pub peak_collision_window: usize,
    /// Sample-level probe renders paid over the whole run.
    pub probe_renders: usize,
    /// Mean audible-neighbor count of the topology.
    pub mean_degree: f64,
}

/// Scenario hooks wiring the event core to topology, PHY and streaming
/// stats. Receptions are buffered and resolved in parallel batches; the
/// fold back into the stats runs in item order, so results are identical
/// for every pool size.
struct OceanHooks<'a> {
    topo: &'a OceanTopology,
    medium: &'a GeoMedium,
    phy: &'a PhyResolver,
    pool: &'a Pool,
    churn: &'a ChurnSchedule,
    slot_s: f64,
    packet_duration_s: f64,
    batch: usize,
    pending: Vec<Reception>,
    collisions: CollisionWindow,
    latency: LatencyHist,
    delivered_per_node: Vec<u64>,
    transmissions: u64,
    receptions: u64,
    delivered: u64,
    dest_busy_losses: u64,
    churn_losses: u64,
    overlap_receptions: u64,
    peak_window: usize,
}

impl<'a> OceanHooks<'a> {
    /// Resolves the buffered receptions through the pool and folds them
    /// into the stats in item order. A full batch runs for milliseconds:
    /// the first one forks once this thread has spent
    /// [`aqua_par::FORK_AFTER`] on it, and since the pool remembers that,
    /// later ones fork before their first reception. This thread resolves
    /// beside the workers either way.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let phy = self.phy;
        let outcomes = self.pool.par_map_slice(&pending, |rx| phy.resolve(rx));
        for out in outcomes {
            self.receptions += 1;
            if out.dest_busy {
                self.dest_busy_losses += 1;
            }
            if out.overlap {
                self.overlap_receptions += 1;
            }
            if out.delivered {
                self.delivered += 1;
                self.delivered_per_node[out.tx as usize] += 1;
                self.latency.record(out.latency_s);
            }
        }
    }
}

impl SimHooks for OceanHooks<'_> {
    fn dest(&mut self, node: usize) -> Option<u32> {
        match self.topo.dest[node] {
            NO_DEST => None,
            d => Some(d),
        }
    }
    fn prop_delay_s(&self, tx: usize, rx: usize) -> f64 {
        self.medium.prop_delay_s(tx, rx)
    }
    fn max_prop_delay_s(&self) -> f64 {
        self.medium.max_prop_delay_s()
    }
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        self.transmissions += 1;
        self.collisions.push(node as u32, t_s);
        self.peak_window = self.peak_window.max(self.collisions.window_len());
    }
    fn on_reception(&mut self, rx: Reception) {
        // A destination that is failed or asleep for any part of the
        // arrival window hears nothing: the reception is accounted (it
        // was addressed traffic) but lost before the PHY ever runs.
        let a = (rx.arrival_s / self.slot_s).floor().max(0.0) as u64;
        let b = ((rx.arrival_s + self.packet_duration_s) / self.slot_s).ceil() as u64;
        if self.churn.down_during(rx.dest as usize, a, b) {
            self.receptions += 1;
            self.churn_losses += 1;
            return;
        }
        self.pending.push(rx);
        if self.pending.len() >= self.batch {
            self.flush();
        }
    }
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        self.churn.wake_at(node, slot)
    }
}

/// Runs one ocean deployment on the given pool. Deterministic in
/// `cfg.seed`; bit-identical for every pool size
/// (`mac/tests/ocean_determinism.rs`).
pub fn run_ocean(cfg: &OceanConfig, pool: &Pool) -> OceanResult {
    let rg = RangeGain::lake();
    let topo = OceanTopology::generate(cfg.kind, cfg.nodes, cfg.seed, &rg);
    let medium = GeoMedium::new(topo.positions.clone(), rg);
    let phy = PhyResolver::new(cfg.band, rg, cfg.mac.packet_duration_s, cfg.seed);
    let max_slots = (cfg.sim_duration_s / cfg.mac.slot_s).ceil() as u64;
    // The churn stream is salted away from the MAC/PHY seed so outage
    // timing and traffic randomness never alias.
    let churn = ChurnSchedule::generate(
        &cfg.churn,
        cfg.nodes,
        max_slots,
        cfg.mac.slot_s,
        cfg.seed ^ 0xC08A_12D5,
    );
    let mut hooks = OceanHooks {
        topo: &topo,
        medium: &medium,
        phy: &phy,
        pool,
        churn: &churn,
        slot_s: cfg.mac.slot_s,
        packet_duration_s: cfg.mac.packet_duration_s,
        batch: cfg.batch.max(1),
        pending: Vec::new(),
        collisions: CollisionWindow::new(cfg.nodes, cfg.mac.packet_duration_s),
        latency: LatencyHist::new(),
        delivered_per_node: vec![0; cfg.nodes],
        transmissions: 0,
        receptions: 0,
        delivered: 0,
        dest_busy_losses: 0,
        churn_losses: 0,
        overlap_receptions: 0,
        peak_window: 0,
    };
    let core = EventCore::new(&cfg.mac, &medium, &mut hooks, cfg.seed).run(max_slots);
    hooks.flush();
    let (collision_fraction, _per_node) = hooks.collisions.finish();
    let delivery_rate = if hooks.receptions == 0 {
        1.0
    } else {
        hooks.delivered as f64 / hooks.receptions as f64
    };
    // Fairness over senders that had a destination at all.
    let counted: Vec<u64> = (0..cfg.nodes)
        .filter(|&i| topo.dest[i] != NO_DEST)
        .map(|i| hooks.delivered_per_node[i])
        .collect();
    OceanResult {
        nodes: cfg.nodes,
        duration_s: core.duration_s,
        transmissions: hooks.transmissions,
        receptions: hooks.receptions,
        delivered: hooks.delivered,
        delivery_rate,
        dest_busy_losses: hooks.dest_busy_losses,
        churn_losses: hooks.churn_losses,
        downtime_frac: churn.mean_downtime_frac(),
        overlap_receptions: hooks.overlap_receptions,
        collision_fraction,
        latency_mean_s: hooks.latency.mean(),
        latency_p50_s: hooks.latency.quantile(0.5),
        latency_p90_s: hooks.latency.quantile(0.9),
        fairness: jain_fairness(&counted),
        events: core.events,
        peak_heap: core.peak_heap,
        peak_collision_window: hooks.peak_window,
        probe_renders: phy.rendered_buckets(),
        mean_degree: medium.mean_degree(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ocean_run_produces_traffic() {
        let cfg = OceanConfig::deployment(TopologyKind::Grid, 36, 900.0, 7);
        let r = run_ocean(&cfg, &Pool::new(1));
        assert_eq!(r.nodes, 36);
        assert!((r.duration_s - 900.0).abs() < 0.1, "{}", r.duration_s);
        assert!(r.transmissions > 36, "every node reports: {r:?}");
        assert!(r.receptions > 0 && r.delivered > 0, "{r:?}");
        assert!(r.delivery_rate > 0.5, "sparse CS network delivers: {r:?}");
        assert!((0.0..=1.0).contains(&r.fairness));
        assert!(r.peak_heap <= 36 + r.receptions as usize);
    }

    #[test]
    fn churned_fleet_loses_traffic_to_outages() {
        let clean = OceanConfig::deployment(TopologyKind::Grid, 36, 1800.0, 7);
        let mut churned = clean.clone();
        churned.churn = ChurnConfig {
            mtbf_s: 300.0,
            mttr_s: 120.0,
            duty_cycle: 0.7,
            duty_period_s: 60.0,
        };
        let a = run_ocean(&clean, &Pool::new(1));
        let b = run_ocean(&churned, &Pool::new(1));
        assert_eq!(a.churn_losses, 0);
        assert_eq!(a.downtime_frac, 0.0);
        assert!(b.downtime_frac > 0.1, "outages scheduled: {b:?}");
        assert!(
            b.churn_losses > 0,
            "asleep destinations lose packets: {b:?}"
        );
        assert!(
            b.transmissions < a.transmissions,
            "sleeping senders transmit less: {} vs {}",
            b.transmissions,
            a.transmissions
        );
        assert!(b.delivered > 0, "the fleet still functions: {b:?}");
        // Reruns of the churned config are exactly reproducible.
        let b2 = run_ocean(&churned, &Pool::new(1));
        assert_eq!(b.transmissions, b2.transmissions);
        assert_eq!(b.churn_losses, b2.churn_losses);
        assert_eq!(b.delivered, b2.delivered);
    }

    #[test]
    fn seeds_change_results_but_reruns_do_not() {
        let cfg = OceanConfig::deployment(TopologyKind::Swarm, 30, 600.0, 3);
        let a = run_ocean(&cfg, &Pool::new(1));
        let b = run_ocean(&cfg, &Pool::new(1));
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(
            a.collision_fraction.to_bits(),
            b.collision_fraction.to_bits()
        );
        let other = run_ocean(
            &OceanConfig {
                seed: 4,
                ..cfg.clone()
            },
            &Pool::new(1),
        );
        assert_ne!(
            (a.transmissions, a.delivered),
            (other.transmissions, other.delivered)
        );
    }
}
