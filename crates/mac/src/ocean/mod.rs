//! Event-driven ocean-scale network simulation.
//!
//! The ROADMAP's north star is a simulated ocean — thousands of
//! acoustically-messaging nodes over hours of simulated time — which the
//! slot-stepped [`crate::netsim`] cannot reach (it scans every node every
//! 80 ms slot and renders every link sample-level). This module family
//! splits the problem:
//!
//! - [`event`]: the event-driven MAC core — a slot-bucketed event queue
//!   ordered `(slot, node)`, a per-cell index of live transmissions
//!   instead of per-slot scans, and reception windows scheduled at
//!   propagation-delay-adjusted arrival times. On dense small configs it
//!   is **bit-identical** to `netsim::simulate` (the oracle), pinned by
//!   `mac/tests/ocean_equivalence.rs`.
//! - [`topology`]: grid/swarm/fleet deployments, the calibrated
//!   log-distance range-gain fit, and the spatial-hash [`topology::GeoMedium`]
//!   with O(n·k) neighbor lists and the hearing-radius cells the event
//!   core indexes transmissions by.
//! - [`per_table`]: the analytic PER-vs-range lookup interpolated from
//!   the recorded fig9/fig12 curves — the fast path for clean receptions.
//! - [`phy`]: the PER-vs-sample-level dispatch rule and the memoized
//!   sample-level probe renders for receptions with real time overlap.
//! - [`stats`]: bounded-memory streaming collision/latency/fairness
//!   accounting.
//!
//! [`Deployment`] assembles them into the one driver every ocean simulator
//! runs on: the lake medium, the PHY resolver, the horizon and the sleep
//! schedule, and the only non-oracle [`event::SimHooks`] ([`Drive`]). The
//! MAC state machine advances serially (its decisions are causally
//! ordered through the shared channel), while completed reception
//! windows — the expensive, independent part — are batched, resolved
//! across an [`aqua_par::Pool`] and handed back in emission order, so a
//! run is bit-identical for every pool size
//! (`mac/tests/ocean_determinism.rs`). A [`Scenario`] supplies the
//! traffic: [`run_ocean`] is the plain one (fixed nearest-neighbor
//! destinations, streaming stats), the `aqua-net` relay tier the other.
//! See DESIGN.md §11.

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
use aqua_channel::geometry::Pos;
use aqua_par::Pool;

use churn::ChurnSchedule;
use event::{CoreStats, EventCore, Medium, Reception, SimHooks};
use phy::{PhyResolver, RxOutcome};
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
    /// Events processed by the core.
    pub events: u64,
    /// Peak pending events in the core's queue (memory-bound witness).
    pub peak_heap: usize,
    /// Peak collision-window length (memory-bound witness).
    pub peak_collision_window: usize,
    /// Distinct lake probe buckets the run read. Each bucket is rendered
    /// sample-level at most once per process, so this counts the renders
    /// the run pays in a fresh process.
    pub probe_renders: usize,
    /// Mean audible-neighbor count of the topology.
    pub mean_degree: f64,
}

/// The traffic an ocean simulation puts on the shared driver
/// ([`Deployment::drive`]).
pub trait Scenario {
    /// Whether every pending reception is resolved before each
    /// transmission: a node that decides what to say from what it heard
    /// must hear first. Otherwise receptions wait for a full batch.
    const FLUSH_BEFORE_TRANSMIT: bool;
    /// `node` starts transmitting at `t_s`: the node it addresses, or
    /// `None` for a broadcast nobody tracks.
    fn transmit(&mut self, node: usize, t_s: f64) -> Option<u32>;
    /// A reception lost before the PHY ran: its destination was failed or
    /// asleep for some part of the arrival window.
    fn lost(&mut self, rx: &Reception);
    /// A reception resolved by the PHY, in the order the core emitted it.
    fn resolved(&mut self, rx: &Reception, out: RxOutcome);
}

/// The lake deployment an ocean simulation runs on: the spatial-hash
/// medium over the node positions, the PHY resolver and the horizon.
pub struct Deployment {
    /// The medium over the node positions.
    pub medium: GeoMedium,
    /// Run horizon in MAC slots.
    pub max_slots: u64,
    phy: PhyResolver,
    mac: MacConfig,
    seed: u64,
}

impl Deployment {
    /// The lake deployment over `positions`, run for `sim_duration_s`
    /// under `mac` with PHY band `band` from master seed `seed`.
    pub fn lake(
        positions: Vec<Pos>,
        mac: &MacConfig,
        band: Band,
        sim_duration_s: f64,
        seed: u64,
    ) -> Self {
        let rg = RangeGain::lake();
        Self {
            medium: GeoMedium::new(positions, rg),
            phy: PhyResolver::new(band, rg, mac.packet_duration_s, seed),
            max_slots: (sim_duration_s / mac.slot_s).ceil() as u64,
            mac: mac.clone(),
            seed,
        }
    }

    /// The sleep schedule `churn` draws for these nodes. The churn stream
    /// is salted away from the MAC/PHY seed so outage timing and traffic
    /// randomness never alias.
    pub fn sleep(&self, churn: &ChurnConfig) -> ChurnSchedule {
        ChurnSchedule::generate(
            churn,
            self.medium.nodes(),
            self.max_slots,
            self.mac.slot_s,
            self.seed ^ 0xC08A_12D5,
        )
    }

    /// Runs `scenario` to the horizon with `down` gating availability (a
    /// down node's events are deferred and its receptions lost), resolving
    /// receptions through `pool` in batches of at most `batch`.
    pub fn drive<'a, S: Scenario>(
        &'a self,
        down: &'a ChurnSchedule,
        batch: usize,
        pool: &'a Pool,
        scenario: S,
    ) -> (Drive<'a, S>, CoreStats) {
        let mut drive = Drive {
            medium: &self.medium,
            phy: &self.phy,
            down,
            pool,
            mac: &self.mac,
            batch: batch.max(1),
            granted: None,
            pending: Vec::new(),
            transmissions: 0,
            receptions: 0,
            churn_losses: 0,
            scenario,
        };
        let core =
            EventCore::new(&self.mac, &self.medium, &mut drive, self.seed).run(self.max_slots);
        drive.flush();
        (drive, core)
    }
}

/// The event core's hooks for every ocean scenario, handed back by
/// [`Deployment::drive`] with the run's counts. The deployment's parts
/// are held by reference and the scenario by value: all of them sit on
/// the per-event path.
pub struct Drive<'a, S> {
    medium: &'a GeoMedium,
    phy: &'a PhyResolver,
    down: &'a ChurnSchedule,
    pool: &'a Pool,
    mac: &'a MacConfig,
    batch: usize,
    /// The grant `on_transmit` hands to the `dest` call that follows it.
    granted: Option<(usize, f64)>,
    pending: Vec<Reception>,
    /// MAC transmissions.
    pub transmissions: u64,
    /// Addressed receptions: resolved ones plus those lost to churn.
    pub receptions: u64,
    /// Receptions lost to a failed or sleeping destination.
    pub churn_losses: u64,
    /// The scenario, with everything it folded.
    pub scenario: S,
}

impl<S: Scenario> Drive<'_, S> {
    /// Resolves the pending receptions through the pool and hands them to
    /// the scenario in emission order. A full batch forks workers once it
    /// outlasts [`aqua_par::FORK_AFTER`]; the one or two receptions
    /// pending at a transmission resolve on this thread.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let phy = self.phy;
        let outcomes = self.pool.par_map_slice(&pending, |rx| phy.resolve(rx));
        self.receptions += outcomes.len() as u64;
        for (rx, out) in pending.iter().zip(outcomes) {
            self.scenario.resolved(rx, out);
        }
    }
}

impl<S: Scenario> SimHooks for Drive<'_, S> {
    fn dest(&mut self, node: usize) -> Option<u32> {
        // SAFETY of the expect: the event core calls `dest` exactly once,
        // immediately after `on_transmit` for the same node — the seam's
        // documented contract, pinned by the determinism suites.
        let (granted, t_s) = self.granted.take().expect("dest follows on_transmit");
        debug_assert_eq!(granted, node);
        self.scenario.transmit(node, t_s)
    }
    fn prop_delay_s(&self, tx: usize, rx: usize) -> f64 {
        self.medium.prop_delay_s(tx, rx)
    }
    fn max_prop_delay_s(&self) -> f64 {
        self.medium.max_prop_delay_s()
    }
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        if S::FLUSH_BEFORE_TRANSMIT {
            self.flush();
        }
        self.transmissions += 1;
        self.granted = Some((node, t_s));
    }
    fn on_reception(&mut self, rx: Reception) {
        // A destination that is failed or asleep for any part of the
        // arrival window hears nothing: the reception is accounted (it
        // was addressed traffic) but lost before the PHY ever runs.
        let (slot_s, duration_s) = (self.mac.slot_s, self.mac.packet_duration_s);
        let a = (rx.arrival_s / slot_s).floor().max(0.0) as u64;
        let b = ((rx.arrival_s + duration_s) / slot_s).ceil() as u64;
        if self.down.down_during(rx.dest as usize, a, b) {
            self.receptions += 1;
            self.churn_losses += 1;
            self.scenario.lost(&rx);
            return;
        }
        self.pending.push(rx);
        if self.pending.len() >= self.batch {
            self.flush();
        }
    }
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        self.down.wake_at(node, slot)
    }
}

/// The plain ocean's scenario: every node reports to its fixed nearest
/// neighbor, and receptions fold into bounded-memory streaming stats.
struct OceanStats<'a> {
    dest: &'a [u32],
    collisions: CollisionWindow,
    peak_window: usize,
    latency: LatencyHist,
    delivered_per_node: Vec<u64>,
    delivered: u64,
    dest_busy_losses: u64,
    overlap_receptions: u64,
}

impl Scenario for OceanStats<'_> {
    const FLUSH_BEFORE_TRANSMIT: bool = false;
    fn transmit(&mut self, node: usize, t_s: f64) -> Option<u32> {
        self.collisions.push(node as u32, t_s);
        self.peak_window = self.peak_window.max(self.collisions.window_len());
        Some(self.dest[node]).filter(|&d| d != NO_DEST)
    }
    fn lost(&mut self, _rx: &Reception) {}
    fn resolved(&mut self, _rx: &Reception, out: RxOutcome) {
        self.dest_busy_losses += u64::from(out.dest_busy);
        self.overlap_receptions += u64::from(out.overlap);
        if out.delivered {
            self.delivered += 1;
            self.delivered_per_node[out.tx as usize] += 1;
            self.latency.record(out.latency_s);
        }
    }
}

/// Runs one ocean deployment on the given pool. Deterministic in
/// `cfg.seed`; bit-identical for every pool size
/// (`mac/tests/ocean_determinism.rs`).
pub fn run_ocean(cfg: &OceanConfig, pool: &Pool) -> OceanResult {
    let OceanTopology { positions, dest } =
        OceanTopology::generate(cfg.kind, cfg.nodes, cfg.seed, &RangeGain::lake());
    let lake = Deployment::lake(positions, &cfg.mac, cfg.band, cfg.sim_duration_s, cfg.seed);
    let sleep = lake.sleep(&cfg.churn);
    let stats = OceanStats {
        dest: &dest,
        collisions: CollisionWindow::new(cfg.nodes, cfg.mac.packet_duration_s),
        peak_window: 0,
        latency: LatencyHist::new(),
        delivered_per_node: vec![0; cfg.nodes],
        delivered: 0,
        dest_busy_losses: 0,
        overlap_receptions: 0,
    };
    let (run, core) = lake.drive(&sleep, cfg.batch, pool, stats);
    let s = run.scenario;
    let (collision_fraction, _per_node) = s.collisions.finish();
    let delivery_rate = if run.receptions == 0 {
        1.0
    } else {
        s.delivered as f64 / run.receptions as f64
    };
    // Fairness over senders that had a destination at all.
    let counted: Vec<u64> = (0..cfg.nodes)
        .filter(|&i| dest[i] != NO_DEST)
        .map(|i| s.delivered_per_node[i])
        .collect();
    OceanResult {
        nodes: cfg.nodes,
        duration_s: core.duration_s,
        transmissions: run.transmissions,
        receptions: run.receptions,
        delivered: s.delivered,
        delivery_rate,
        dest_busy_losses: s.dest_busy_losses,
        churn_losses: run.churn_losses,
        downtime_frac: sleep.mean_downtime_frac(),
        overlap_receptions: s.overlap_receptions,
        collision_fraction,
        latency_mean_s: s.latency.mean(),
        latency_p50_s: s.latency.quantile(0.5),
        latency_p90_s: s.latency.quantile(0.9),
        fairness: jain_fairness(&counted),
        events: core.events,
        peak_heap: core.peak_heap,
        peak_collision_window: s.peak_window,
        probe_renders: lake.phy.rendered_buckets(),
        mean_degree: lake.medium.mean_degree(),
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
