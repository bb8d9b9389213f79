//! `ocean`: plain `run_ocean` deployments (grid, swarm, fleet). The traced
//! run re-assembles `run_ocean` from its public pieces — `EventCore`,
//! `GeoMedium`, `PhyResolver`, `ChurnSchedule` and the streaming stats —
//! behind a timed `SimHooks` implementation.

use crate::pool::TracedPool;
use crate::report::Values;
use crate::util::{derive, ratio, SpanLog};
use crate::workload::{PartClock, Summary, Workload};
use aqua_mac::ocean::churn::ChurnSchedule;
use aqua_mac::ocean::event::{EventCore, Reception, SimHooks};
use aqua_mac::ocean::phy::PhyResolver;
use aqua_mac::ocean::stats::{jain_fairness, CollisionWindow, LatencyHist};
use aqua_mac::ocean::topology::{GeoMedium, OceanTopology, RangeGain, NO_DEST};
use aqua_mac::ocean::{run_ocean, OceanConfig, OceanResult, TopologyKind};
use aqua_par::Pool;
use std::time::{Duration, Instant};

const NODES: usize = 5000;
const SIM_S: f64 = 2.0 * 3600.0;

pub struct Ocean;

pub fn build(seed: u64, smoke: bool) -> Vec<OceanConfig> {
    let (nodes, sim_s) = if smoke { (200, 1800.0) } else { (NODES, SIM_S) };
    [TopologyKind::Grid, TopologyKind::Swarm, TopologyKind::Fleet]
        .into_iter()
        .enumerate()
        .map(|(k, kind)| OceanConfig::deployment(kind, nodes, sim_s, derive(seed, k as u64) >> 16))
        .collect()
}

/// The deployment `run_ocean` builds before its event loop: topology,
/// spatial-hash medium, PER resolver and churn schedule.
pub struct Deployment {
    pub topo: OceanTopology,
    pub medium: GeoMedium,
    pub phy: PhyResolver,
    pub churn: ChurnSchedule,
    pub max_slots: u64,
}

pub fn deploy(cfg: &OceanConfig) -> Deployment {
    let rg = RangeGain::lake();
    let topo = OceanTopology::generate(cfg.kind, cfg.nodes, cfg.seed, &rg);
    let medium = GeoMedium::new(topo.positions.clone(), rg);
    let phy = PhyResolver::new(cfg.band, rg, cfg.mac.packet_duration_s, cfg.seed);
    let max_slots = (cfg.sim_duration_s / cfg.mac.slot_s).ceil() as u64;
    let churn = ChurnSchedule::generate(
        &cfg.churn,
        cfg.nodes,
        max_slots,
        cfg.mac.slot_s,
        cfg.seed ^ 0xC08A_12D5,
    );
    Deployment {
        topo,
        medium,
        phy,
        churn,
        max_slots,
    }
}

/// Time spent inside the timed hooks, to split `EventCore::run` into the
/// core's self time and the hooks'.
#[derive(Default)]
pub struct HookClock {
    pub in_hooks: Duration,
    pub flushes: u64,
    pub flushed: u64,
}

/// `run_ocean`'s hooks, field for field, with the transmit and reception
/// hooks (and the flushes they trigger) timed.
struct TracedHooks<'a> {
    topo: &'a OceanTopology,
    medium: &'a GeoMedium,
    phy: &'a PhyResolver,
    pool: &'a TracedPool,
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
    clock: HookClock,
}

impl TracedHooks<'_> {
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        self.clock.flushes += 1;
        self.clock.flushed += pending.len() as u64;
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

impl SimHooks for TracedHooks<'_> {
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
        let t0 = Instant::now();
        self.transmissions += 1;
        self.collisions.push(node as u32, t_s);
        self.peak_window = self.peak_window.max(self.collisions.window_len());
        self.clock.in_hooks += t0.elapsed();
    }
    fn on_reception(&mut self, rx: Reception) {
        let t0 = Instant::now();
        let a = (rx.arrival_s / self.slot_s).floor().max(0.0) as u64;
        let b = ((rx.arrival_s + self.packet_duration_s) / self.slot_s).ceil() as u64;
        if self.churn.down_during(rx.dest as usize, a, b) {
            self.receptions += 1;
            self.churn_losses += 1;
        } else {
            self.pending.push(rx);
            if self.pending.len() >= self.batch {
                self.flush();
            }
        }
        self.clock.in_hooks += t0.elapsed();
    }
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        self.churn.wake_at(node, slot)
    }
}

/// Layer totals of the traced event-core runs.
#[derive(Default)]
pub struct CoreTotals {
    pub run: Duration,
    pub hooks: Duration,
    pub events: u64,
    pub peak_heap: usize,
    pub flushes: u64,
    pub flushed: u64,
    pub overlap: u64,
    pub probe_renders: usize,
}

impl CoreTotals {
    /// The `ocean.*` layer values (resolve timing comes from the pool,
    /// whose items are exactly the `PhyResolver::resolve` calls).
    pub fn values(&self, pool: &TracedPool) -> Values {
        let st = pool.stats.borrow();
        let mut v = Values::default();
        v.set("ocean.core_ms", (self.run - self.hooks).as_secs_f64() * 1e3);
        v.set("ocean.events", self.events as f64);
        v.set("ocean.peak_heap", self.peak_heap as f64);
        v.set("ocean.resolve_calls", st.items as f64);
        v.set("ocean.resolve_us", ratio(st.busy_ns, st.items as f64) / 1e3);
        v.set(
            "ocean.overlap_frac",
            ratio(self.overlap as f64, self.flushed as f64),
        );
        v.set("ocean.probe_renders", self.probe_renders as f64);
        v.set("ocean.flushes", self.flushes as f64);
        v.set(
            "ocean.batch_mean",
            ratio(self.flushed as f64, self.flushes as f64),
        );
        v
    }
}

fn traced_ocean(cfg: &OceanConfig, pool: &TracedPool, totals: &mut CoreTotals) -> OceanResult {
    let d = deploy(cfg);
    let mut hooks = TracedHooks {
        topo: &d.topo,
        medium: &d.medium,
        phy: &d.phy,
        pool,
        churn: &d.churn,
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
        clock: HookClock::default(),
    };
    let t0 = Instant::now();
    let core = EventCore::new(&cfg.mac, &d.medium, &mut hooks, cfg.seed).run(d.max_slots);
    totals.run += t0.elapsed();
    hooks.flush();
    totals.hooks += hooks.clock.in_hooks;
    totals.events += core.events;
    totals.peak_heap = totals.peak_heap.max(core.peak_heap);
    totals.flushes += hooks.clock.flushes;
    totals.flushed += hooks.clock.flushed;
    totals.overlap += hooks.overlap_receptions;
    totals.probe_renders += d.phy.rendered_buckets();
    let (collision_fraction, _per_node) = hooks.collisions.finish();
    let delivery_rate = if hooks.receptions == 0 {
        1.0
    } else {
        hooks.delivered as f64 / hooks.receptions as f64
    };
    let counted: Vec<u64> = (0..cfg.nodes)
        .filter(|&i| d.topo.dest[i] != NO_DEST)
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
        downtime_frac: d.churn.mean_downtime_frac(),
        overlap_receptions: hooks.overlap_receptions,
        collision_fraction,
        latency_mean_s: hooks.latency.mean(),
        latency_p50_s: hooks.latency.quantile(0.5),
        latency_p90_s: hooks.latency.quantile(0.9),
        fairness: jain_fairness(&counted),
        events: core.events,
        peak_heap: core.peak_heap,
        peak_collision_window: hooks.peak_window,
        probe_renders: d.phy.rendered_buckets(),
        mean_degree: d.medium.mean_degree(),
    }
}

/// Inputs: the configs plus one pre-built deployment each, so `setup_s`
/// times the constructors `run_ocean` calls before its event loop.
pub struct Inputs {
    pub configs: Vec<OceanConfig>,
    pub deployments: Vec<Deployment>,
}

impl Workload for Ocean {
    const NAME: &'static str = "ocean";
    type Inputs = Inputs;
    type Output = Vec<OceanResult>;

    fn setup(seed: u64, smoke: bool) -> Self::Inputs {
        let configs = build(seed, smoke);
        let deployments = configs.iter().map(deploy).collect();
        Inputs {
            configs,
            deployments,
        }
    }

    fn run(inputs: &Self::Inputs, pool: &Pool, parts: &mut PartClock) -> Self::Output {
        inputs
            .configs
            .iter()
            .map(|c| parts.time(|| run_ocean(c, pool)))
            .collect()
    }

    fn summarize(inputs: &Self::Inputs, out: &Self::Output) -> Summary {
        let mut sum = Summary::default();
        for ((cfg, dep), r) in inputs.configs.iter().zip(&inputs.deployments).zip(out) {
            sum.ops += r.receptions;
            sum.lost += r.receptions - r.delivered.min(r.receptions);
            sum.packets += r.transmissions;
            sum.events += r.events;
            if dep.medium.mean_degree().to_bits() != r.mean_degree.to_bits() {
                sum.problems.push(format!(
                    "{}: set-up built a different deployment than the run",
                    cfg.kind.name()
                ));
            }
            let accounted = r.delivered + r.dest_busy_losses + r.churn_losses;
            if r.delivered > r.receptions || accounted > r.receptions || r.receptions == 0 {
                sum.problems.push(format!(
                    "{}: inconsistent reception accounting {r:?}",
                    cfg.kind.name()
                ));
            }
            if (r.duration_s - cfg.sim_duration_s).abs() > cfg.mac.slot_s {
                sum.problems.push(format!(
                    "{}: simulated {} s of {} s",
                    cfg.kind.name(),
                    r.duration_s,
                    cfg.sim_duration_s
                ));
            }
            sum.digest.push(format!(
                "{} {} nodes {:.1} h: {} tx, {}/{} delivered ({:.4}), collisions {:.4}, {} events",
                cfg.kind.name(),
                r.nodes,
                r.duration_s / 3600.0,
                r.transmissions,
                r.delivered,
                r.receptions,
                r.delivery_rate,
                r.collision_fraction,
                r.events
            ));
        }
        sum
    }

    fn fingerprint(out: &Self::Output) -> String {
        format!("{out:?}")
    }

    fn traced(
        inputs: &Self::Inputs,
        pool: &TracedPool,
        log: &mut SpanLog,
    ) -> (Self::Output, Values) {
        let mut totals = CoreTotals::default();
        let out = inputs
            .configs
            .iter()
            .enumerate()
            .map(|(k, c)| {
                log.time("ocean.deployment", k as u64, || {
                    traced_ocean(c, pool, &mut totals)
                })
            })
            .collect();
        (out, totals.values(pool))
    }
}
