//! `relay`: `run_relay_ocean` on a 2 000-node grid with sleep and crash
//! churn and durable custody journals. The traced run re-assembles
//! `run_relay_ocean` from `EventCore`, `GeoMedium`, `PhyResolver`,
//! `ChurnSchedule` and one `RelayNode` per vessel behind a timed
//! `SimHooks` implementation.

use crate::ocean::CoreTotals;
use crate::pool::TracedPool;
use crate::report::Values;
use crate::util::{derive, quantile, ratio, SpanLog};
use crate::workload::{PartClock, Summary, Workload};
use aqua_mac::ocean::churn::ChurnSchedule;
use aqua_mac::ocean::event::{EventCore, Medium, Reception, SimHooks};
use aqua_mac::ocean::phy::PhyResolver;
use aqua_mac::ocean::topology::{GeoMedium, OceanTopology, RangeGain};
use aqua_mac::ocean::{ChurnConfig, PerTable, TopologyKind};
use aqua_net::bundle::fragment_message;
use aqua_net::sim::RelayTopology;
use aqua_net::{
    check_invariants, run_relay_ocean, run_relay_ocean_audit, Frame, JournalConfig, RelayNode,
    RelayOceanConfig, RelayOceanResult, RelayStats,
};
use aqua_par::Pool;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

pub struct Relay;

/// Multi-hop flows on the grid (the `relay` experiment's geometry): each
/// destination sits three rows and columns diagonally from its source,
/// past single-hop range but a few relay hops away.
fn flows(nodes: usize, count: usize) -> Vec<(u16, u16)> {
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let mut pairs = Vec::with_capacity(count);
    let mut k = 0usize;
    while pairs.len() < count {
        let src = (k * 13 + 1) % nodes;
        k += 1;
        let (row, col) = (src / cols, src % cols);
        let (dst_row, dst_col) = if col + 3 < cols && (row + 3) * cols + col + 3 < nodes {
            (row + 3, col + 3)
        } else if row >= 3 && col >= 3 {
            (row - 3, col - 3)
        } else {
            continue;
        };
        pairs.push((src as u16, (dst_row * cols + dst_col) as u16));
    }
    pairs
}

pub fn build(seed: u64, smoke: bool) -> RelayOceanConfig {
    let (nodes, sim_s, flow_count) = if smoke {
        (64, 3.0 * 3600.0, 6)
    } else {
        (2000, 4.0 * 3600.0, 200)
    };
    let mut cfg = RelayOceanConfig::deployment(
        RelayTopology::Kind(TopologyKind::Grid),
        nodes,
        sim_s,
        derive(seed, 0) >> 16,
    );
    // Moderate sleep churn (`repro relay`) plus crash churn with durable
    // custody (`repro recovery`).
    cfg.churn = ChurnConfig {
        mtbf_s: 600.0,
        mttr_s: 120.0,
        duty_cycle: 0.9,
        duty_period_s: 60.0,
    };
    cfg.crash = ChurnConfig {
        mtbf_s: 1800.0,
        mttr_s: 300.0,
        duty_cycle: 1.0,
        duty_period_s: 0.0,
    };
    cfg.journal = Some(JournalConfig::default());
    cfg.mac.inter_packet_gap_s = (60.0, 180.0);
    cfg.relay.spray_copies = 16;
    cfg.relay.neighbor_expiry_s = 1800.0;
    cfg.relay.min_rto_s = 120.0;
    cfg.relay.max_rto_s = 480.0;
    cfg.relay.focus_after_s = 180.0;
    cfg.relay.max_hops = 64;
    cfg.traffic.pairs = flows(nodes, flow_count);
    // TTLs past the horizon: the custody audit's precondition.
    cfg.traffic.ttl_s = (sim_s + 3600.0).min(f64::from(u16::MAX)) as u16;
    cfg
}

/// `run_relay_ocean`'s deterministic message payload.
fn message_payload(seed: u64, src: u16, dst: u16, msg: usize, len: usize) -> Vec<u8> {
    let mut s = derive(
        seed ^ ((src as u64) << 32) ^ ((dst as u64) << 16),
        msg as u64,
    );
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 56) as u8
        })
        .collect()
}

/// Per-call timers of the relay engine.
#[derive(Default)]
struct RelayClock {
    in_hooks: Duration,
    next_frame: Duration,
    next_frame_calls: u64,
    on_frame: Duration,
    on_frame_calls: u64,
    wire: Duration,
    wire_calls: u64,
    reboot: Duration,
    flushes: u64,
    flushed: u64,
    overlap: u64,
    reboots: u64,
    frames_delivered: u64,
    transmissions: u64,
    custody_retries: u64,
    dup_suppressed: u64,
    journal_bytes: u64,
    journal_syncs: u64,
    journal_compactions: u64,
    journal_replayed: u64,
}

impl RelayClock {
    /// The `relay.*` and `journal.*` layer values.
    fn values(&self) -> Values {
        let us = |d: Duration, n: u64| ratio(d.as_secs_f64() * 1e6, n as f64);
        let mut v = Values::default();
        v.set(
            "relay.next_frame_us",
            us(self.next_frame, self.next_frame_calls),
        );
        v.set("relay.on_frame_us", us(self.on_frame, self.on_frame_calls));
        v.set("relay.wire_us", us(self.wire, self.wire_calls));
        v.set("relay.reboot_ms", self.reboot.as_secs_f64() * 1e3);
        v.set("relay.reboots", self.reboots as f64);
        v.set("relay.flushes", self.flushes as f64);
        v.set(
            "relay.batch_mean",
            ratio(self.flushed as f64, self.flushes as f64),
        );
        v.set(
            "relay.useful_frac",
            ratio(self.frames_delivered as f64, self.transmissions as f64),
        );
        v.set("relay.custody_retries", self.custody_retries as f64);
        v.set("relay.dup_suppressed", self.dup_suppressed as f64);
        v.set("journal.bytes", self.journal_bytes as f64);
        v.set("journal.syncs", self.journal_syncs as f64);
        v.set("journal.compactions", self.journal_compactions as f64);
        v.set("journal.replayed", self.journal_replayed as f64);
        v
    }
}

/// A relay's transmit decision, stashed between `on_transmit` and the
/// `dest` call that follows it: node, time, and target plus frame.
type Decision = (usize, f64, Option<(u16, Frame)>);

/// `run_relay_ocean`'s hooks, field for field, with the relay engine's
/// calls timed.
struct TracedHooks<'a> {
    medium: &'a GeoMedium,
    phy: &'a PhyResolver,
    pool: &'a TracedPool,
    churn: &'a ChurnSchedule,
    crash: &'a ChurnSchedule,
    crash_cursor: Vec<usize>,
    torn_salt: u64,
    slot_s: f64,
    packet_duration_s: f64,
    batch: usize,
    relays: Vec<RelayNode>,
    candidates: Vec<Vec<u16>>,
    in_flight: HashMap<(u32, u64), Frame>,
    decision: Option<Decision>,
    pending: Vec<Reception>,
    expected: HashMap<(u16, u16), Vec<u8>>,
    latencies_s: Vec<f64>,
    delivered_set: HashSet<(u16, u16)>,
    transmissions: u64,
    receptions: u64,
    frames_delivered: u64,
    churn_losses: u64,
    msgs_delivered: u64,
    dup_deliveries: u64,
    payload_mismatches: u64,
    reboots: u64,
    clock: RelayClock,
}

impl TracedHooks<'_> {
    fn catch_up(&mut self, node: usize, now_slot: u64) {
        while let Some(&(_, end)) = self.crash.intervals(node).get(self.crash_cursor[node]) {
            if end > now_slot {
                break;
            }
            let idx = self.crash_cursor[node];
            self.crash_cursor[node] += 1;
            let torn = derive(self.torn_salt ^ ((node as u64) << 20), idx as u64);
            let t0 = Instant::now();
            self.relays[node].crash_reboot(end as f64 * self.slot_s, torn);
            self.clock.reboot += t0.elapsed();
            self.reboots += 1;
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        self.clock.flushes += 1;
        self.clock.flushed += pending.len() as u64;
        let phy = self.phy;
        let outcomes = self.pool.par_map_slice(&pending, |rx| phy.resolve(rx));
        for (rx, out) in pending.iter().zip(outcomes) {
            self.receptions += 1;
            self.clock.overlap += u64::from(out.overlap);
            let frame = self.in_flight.remove(&(rx.tx, rx.start_s.to_bits()));
            if !out.delivered {
                continue;
            }
            self.frames_delivered += 1;
            let frame = frame.expect("delivered reception has a frame in flight");
            let t0 = Instant::now();
            let frame = Frame::try_from_bits(&frame.to_bits()).expect("wire roundtrip");
            self.clock.wire += t0.elapsed();
            self.clock.wire_calls += 1;
            let now_s = rx.arrival_s + self.packet_duration_s;
            let arrival_slot = (rx.arrival_s / self.slot_s).floor().max(0.0) as u64;
            self.catch_up(out.dest as usize, arrival_slot);
            let t0 = Instant::now();
            let delivered = self.relays[out.dest as usize].on_frame(rx.tx as u16, frame, now_s);
            self.clock.on_frame += t0.elapsed();
            self.clock.on_frame_calls += 1;
            for d in delivered {
                if !self.delivered_set.insert((d.src, d.seq)) {
                    self.dup_deliveries += 1;
                }
                match self.expected.get(&(d.src, d.seq)) {
                    Some(want) if *want == d.payload => {
                        self.msgs_delivered += 1;
                        self.latencies_s.push(now_s);
                    }
                    _ => self.payload_mismatches += 1,
                }
            }
        }
    }
}

impl SimHooks for TracedHooks<'_> {
    fn dest(&mut self, node: usize) -> Option<u32> {
        let (n, t_s, decision) = self.decision.take().expect("dest follows on_transmit");
        debug_assert_eq!(n, node);
        let (target, frame) = decision?;
        self.in_flight.insert((node as u32, t_s.to_bits()), frame);
        Some(target as u32)
    }
    fn prop_delay_s(&self, tx: usize, rx: usize) -> f64 {
        self.medium.prop_delay_s(tx, rx)
    }
    fn max_prop_delay_s(&self) -> f64 {
        self.medium.max_prop_delay_s()
    }
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        let t_hook = Instant::now();
        self.flush();
        self.catch_up(node, (t_s / self.slot_s).floor().max(0.0) as u64);
        self.transmissions += 1;
        let t0 = Instant::now();
        let decision = self.relays[node].next_frame(t_s, &self.candidates[node]);
        self.clock.next_frame += t0.elapsed();
        self.clock.next_frame_calls += 1;
        self.decision = Some((node, t_s, decision));
        self.clock.in_hooks += t_hook.elapsed();
    }
    fn on_reception(&mut self, rx: Reception) {
        let t_hook = Instant::now();
        let a = (rx.arrival_s / self.slot_s).floor().max(0.0) as u64;
        let b = ((rx.arrival_s + self.packet_duration_s) / self.slot_s).ceil() as u64;
        if self.churn.down_during(rx.dest as usize, a, b) {
            self.receptions += 1;
            self.churn_losses += 1;
            self.in_flight.remove(&(rx.tx, rx.start_s.to_bits()));
        } else {
            self.pending.push(rx);
            if self.pending.len() >= self.batch {
                self.flush();
            }
        }
        self.clock.in_hooks += t_hook.elapsed();
    }
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        self.churn.wake_at(node, slot)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Everything `run_relay_ocean` builds before its event loop.
pub struct Deployment {
    medium: GeoMedium,
    phy: PhyResolver,
    churn: ChurnSchedule,
    crash: ChurnSchedule,
    relays: Vec<RelayNode>,
    candidates: Vec<Vec<u16>>,
    expected: HashMap<(u16, u16), Vec<u8>>,
    msgs_offered: u64,
    max_slots: u64,
}

pub fn deploy(cfg: &RelayOceanConfig) -> Deployment {
    let rg = RangeGain::lake();
    let RelayTopology::Kind(kind) = &cfg.topology else {
        unreachable!("the benchmark deploys generated grids");
    };
    let positions = OceanTopology::generate(*kind, cfg.nodes, cfg.seed, &rg).positions;
    let medium = GeoMedium::new(positions, rg);
    let phy = PhyResolver::new(cfg.band, rg, cfg.mac.packet_duration_s, cfg.seed);
    let max_slots = (cfg.sim_duration_s / cfg.mac.slot_s).ceil() as u64;
    let sleep = ChurnSchedule::generate(
        &cfg.churn,
        cfg.nodes,
        max_slots,
        cfg.mac.slot_s,
        cfg.seed ^ 0xC08A_12D5,
    );
    let crash = ChurnSchedule::generate(
        &cfg.crash,
        cfg.nodes,
        max_slots,
        cfg.mac.slot_s,
        cfg.seed ^ 0xC4A5_11FE,
    );
    let churn = sleep.union(&crash);
    let mut relays: Vec<RelayNode> = (0..cfg.nodes)
        .map(|i| {
            let seed = derive(cfg.seed, i as u64);
            match cfg.journal {
                Some(jcfg) => RelayNode::with_journal(i as u16, cfg.relay.clone(), seed, jcfg),
                None => RelayNode::new(i as u16, cfg.relay.clone(), seed),
            }
        })
        .collect();
    let mut expected = HashMap::new();
    let mut msgs_offered = 0u64;
    let mut next_seq = vec![0u16; cfg.nodes];
    let copies = if cfg.relay.direct {
        1
    } else {
        cfg.relay.spray_copies
    };
    for &(src, dst) in &cfg.traffic.pairs {
        for m in 0..cfg.traffic.messages_per_pair {
            let seq = next_seq[src as usize];
            next_seq[src as usize] += 1;
            let payload = message_payload(cfg.seed, src, dst, m, cfg.traffic.payload_bytes);
            let bundles = fragment_message(
                src,
                dst,
                seq,
                cfg.traffic.priority,
                cfg.relay.custody,
                cfg.traffic.ttl_s,
                copies,
                &payload,
                cfg.traffic.frag_bytes,
            )
            .expect("benchmark traffic has valid fragmentation geometry");
            relays[src as usize].source(bundles, 0.0);
            expected.insert((src, seq), payload);
            msgs_offered += 1;
        }
    }
    let table = PerTable::recorded();
    let candidates = (0..cfg.nodes)
        .map(|i| {
            medium
                .neighbors_of(i)
                .iter()
                .filter(|&&j| table.per(cfg.band, medium.range_m(i, j as usize)) < 1.0)
                .map(|&j| j as u16)
                .collect()
        })
        .collect();
    Deployment {
        medium,
        phy,
        churn,
        crash,
        relays,
        candidates,
        expected,
        msgs_offered,
        max_slots,
    }
}

/// The deployment through the traced hooks: the result, the relay
/// engine's timers and counts, and the event core's totals.
fn traced_relay(
    cfg: &RelayOceanConfig,
    pool: &TracedPool,
) -> (RelayOceanResult, RelayClock, CoreTotals) {
    let d = deploy(cfg);
    let mut hooks = TracedHooks {
        medium: &d.medium,
        phy: &d.phy,
        pool,
        churn: &d.churn,
        crash: &d.crash,
        crash_cursor: vec![0; cfg.nodes],
        torn_salt: cfg.seed ^ 0x7042_5EED,
        slot_s: cfg.mac.slot_s,
        packet_duration_s: cfg.mac.packet_duration_s,
        batch: cfg.batch.max(1),
        relays: d.relays,
        candidates: d.candidates,
        in_flight: HashMap::new(),
        decision: None,
        pending: Vec::new(),
        expected: d.expected,
        latencies_s: Vec::new(),
        delivered_set: HashSet::new(),
        transmissions: 0,
        receptions: 0,
        frames_delivered: 0,
        churn_losses: 0,
        msgs_delivered: 0,
        dup_deliveries: 0,
        payload_mismatches: 0,
        reboots: 0,
        clock: RelayClock::default(),
    };
    let t0 = Instant::now();
    let core = EventCore::new(&cfg.mac, &d.medium, &mut hooks, cfg.seed).run(d.max_slots);
    let run = t0.elapsed();
    hooks.flush();
    for node in 0..cfg.nodes {
        hooks.catch_up(node, d.max_slots);
    }
    let mut c = std::mem::take(&mut hooks.clock);
    let totals = CoreTotals {
        run,
        hooks: c.in_hooks,
        events: core.events,
        peak_heap: core.peak_heap,
        flushes: c.flushes,
        flushed: c.flushed,
        overlap: c.overlap,
        probe_renders: d.phy.rendered_buckets(),
    };

    let mut relay = RelayStats::default();
    for r in &hooks.relays {
        let s = r.stats();
        relay.sourced += s.sourced;
        relay.beacons += s.beacons;
        relay.forwards += s.forwards;
        relay.custody_accepted += s.custody_accepted;
        relay.custody_transfers += s.custody_transfers;
        relay.custody_retries += s.custody_retries;
        relay.dup_suppressed += s.dup_suppressed;
        relay.dup_acks += s.dup_acks;
        relay.cured_acks += s.cured_acks;
        relay.stale_acks += s.stale_acks;
        relay.evictions_ttl += s.evictions_ttl;
        relay.evictions_cap += s.evictions_cap;
        relay.queue_rejects += s.queue_rejects;
        relay.hop_drops += s.hop_drops;
        relay.delivered_msgs += s.delivered_msgs;
    }
    let (mut journal_bytes, mut journal_syncs, mut journal_compactions) = (0u64, 0u64, 0u64);
    let mut journal_replayed = 0u64;
    for r in &hooks.relays {
        if let Some(js) = r.journal_stats() {
            journal_bytes += js.bytes;
            journal_syncs += js.syncs;
            journal_compactions += js.compactions;
        }
        for rb in r.reboot_log() {
            journal_replayed += rb.replayed;
        }
    }
    c.reboots = hooks.reboots;
    c.frames_delivered = hooks.frames_delivered;
    c.transmissions = hooks.transmissions;
    c.custody_retries = relay.custody_retries;
    c.dup_suppressed = relay.dup_suppressed;
    c.journal_bytes = journal_bytes;
    c.journal_syncs = journal_syncs;
    c.journal_compactions = journal_compactions;
    c.journal_replayed = journal_replayed;

    let result = RelayOceanResult {
        nodes: cfg.nodes,
        duration_s: core.duration_s,
        transmissions: hooks.transmissions,
        receptions: hooks.receptions,
        frames_delivered: hooks.frames_delivered,
        churn_losses: hooks.churn_losses,
        downtime_frac: d.churn.mean_downtime_frac(),
        msgs_offered: d.msgs_offered,
        msgs_delivered: hooks.msgs_delivered,
        delivery_ratio: if d.msgs_offered == 0 {
            1.0
        } else {
            hooks.msgs_delivered as f64 / d.msgs_offered as f64
        },
        payload_mismatches: hooks.payload_mismatches,
        latency_mean_s: mean(&hooks.latencies_s),
        latency_p50_s: quantile(&hooks.latencies_s, 0.5),
        latency_p90_s: quantile(&hooks.latencies_s, 0.9),
        relay,
        reboots: hooks.reboots,
        dup_deliveries: hooks.dup_deliveries,
        journal_bytes,
        journal_syncs,
        journal_compactions,
        journal_replayed,
        events: core.events,
        peak_heap: core.peak_heap,
    };
    (result, c, totals)
}

/// Inputs: the config plus the pre-built deployment, so `setup_s` times
/// the constructors `run_relay_ocean` calls before its event loop.
pub struct Inputs {
    pub cfg: RelayOceanConfig,
    pub deployment: Deployment,
}

impl Workload for Relay {
    const NAME: &'static str = "relay";
    type Inputs = Inputs;
    type Output = RelayOceanResult;

    fn setup(seed: u64, smoke: bool) -> Self::Inputs {
        let cfg = build(seed, smoke);
        let deployment = deploy(&cfg);
        Inputs { cfg, deployment }
    }

    fn run(inputs: &Self::Inputs, pool: &Pool, parts: &mut PartClock) -> Self::Output {
        parts.time(|| run_relay_ocean(&inputs.cfg, pool))
    }

    fn summarize(inputs: &Self::Inputs, r: &Self::Output) -> Summary {
        let mut sum = Summary {
            ops: r.msgs_offered,
            lost: r.msgs_offered - r.msgs_delivered.min(r.msgs_offered),
            packets: r.transmissions,
            events: r.events,
            ..Summary::default()
        };
        check(&inputs.deployment, r, &mut sum);
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
        let (out, clock, totals) =
            log.time("relay.deployment", 0, || traced_relay(&inputs.cfg, pool));
        let mut v = clock.values();
        v.extend(&totals.values(pool));
        (out, v)
    }

    /// The custody audit: `run_relay_ocean_audit` reproduces the run and
    /// `check_invariants` finds no conservation, at-most-once or journal
    /// violation.
    fn traced_checks(inputs: &Self::Inputs, pool: &Pool, out: &Self::Output) -> Vec<String> {
        match run_relay_ocean_audit(&inputs.cfg, pool) {
            Ok((r, audit)) => {
                let mut problems = Vec::new();
                if format!("{r:?}") != format!("{out:?}") {
                    problems.push("audited run differs from the measured run".into());
                }
                let violations = check_invariants(&audit);
                if !violations.is_empty() {
                    problems.push(format!(
                        "{} custody audit violations, first {:?}",
                        violations.len(),
                        violations[0]
                    ));
                }
                problems
            }
            Err(e) => vec![format!("audit run rejected the config: {e}")],
        }
    }
}

/// The output checks of one relay run.
fn check(dep: &Deployment, r: &RelayOceanResult, sum: &mut Summary) {
    if r.payload_mismatches != 0 {
        sum.problems.push(format!(
            "{} delivered payloads differ",
            r.payload_mismatches
        ));
    }
    if r.dup_deliveries != 0 {
        sum.problems
            .push(format!("{} messages delivered twice", r.dup_deliveries));
    }
    if r.msgs_offered != dep.msgs_offered {
        sum.problems.push("offered message count disagrees".into());
    }
    sum.digest.push(format!(
        "{} nodes {:.1} h: {}/{} messages delivered ({:.4}), p50 latency {:.0} s, \
             {} tx, {} frames delivered, {} reboots, {} journal bytes, {} events",
        r.nodes,
        r.duration_s / 3600.0,
        r.msgs_delivered,
        r.msgs_offered,
        r.delivery_ratio,
        r.latency_p50_s,
        r.transmissions,
        r.frames_delivered,
        r.reboots,
        r.journal_bytes,
        r.events
    ));
}
