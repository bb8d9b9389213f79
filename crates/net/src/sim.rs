//! The relay stack wired into the ocean-scale event simulator.
//!
//! [`run_relay_ocean`] runs one [`RelayNode`] per vessel as a
//! [`Scenario`] of the ocean driver ([`Deployment::drive`]), which owns
//! the medium, the PHY, the churn gate and the reception batch: when the
//! MAC grants a node airtime, the scenario asks the relay engine what to
//! say ([`RelayNode::next_frame`]) and keeps the answer — target and wire
//! frame — for the reception it becomes; when the PHY delivers the
//! reception, the frame is re-parsed from its own wire bits (the per-hop
//! round-trip the bundle CRCs exist for) and fed to the receiving relay.
//!
//! **Determinism contract.** A relay hears before it speaks, so the
//! driver resolves pending receptions *before every transmission
//! decision* as well as at the batch threshold — both
//! pool-size-independent points — and hands them back in emission order,
//! so a relay-enabled run is bit-identical across 1/2/4-worker pools
//! (`net/tests/relay_determinism.rs`) and pinned to recorded values
//! (`net/tests/relay_pinned.rs`). The event core's MAC trajectory and RNG
//! stream are the plain ocean scenario's
//! ([`aqua_mac::ocean::run_ocean`], `mac/tests/ocean_determinism.rs`).
//!
//! **Sleep vs crash** (DESIGN.md §15). Two independent downtime
//! schedules gate a node's availability (their union defers events and
//! drops receptions): the *sleep* schedule (`churn`) keeps all node
//! state across the outage — today's behavior, so sleep-only runs stay
//! bit-identical to the pre-crash baselines — while the *crash*
//! schedule (`crash`) power-cycles the relay at each wake edge:
//! volatile state dies and, if the node journals
//! ([`RelayOceanConfig::journal`]), the durable log is replayed. Crash
//! recovery is applied *lazily* at the node's next interaction — a down
//! node neither transmits nor receives, so deferring the reboot to the
//! first post-wake touch is observationally identical and keeps the
//! application point pool-size-independent.

use crate::audit::FleetAudit;
use crate::bundle::{fragment_message, BundleKey, Priority};
use crate::frame::Frame;
use crate::journal::JournalConfig;
use crate::relay::{RelayConfig, RelayNode, RelayStats};
use aqua_channel::geometry::Pos;
use aqua_mac::netsim::MacConfig;
use aqua_mac::ocean::churn::ChurnSchedule;
use aqua_mac::ocean::event::{Medium, Reception};
use aqua_mac::ocean::phy::RxOutcome;
use aqua_mac::ocean::topology::{OceanTopology, RangeGain};
use aqua_mac::ocean::{Band, ChurnConfig, Deployment, PerTable, Scenario, TopologyKind};
use aqua_par::Pool;
use aqua_proto::transfer::PlanError;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Where the fleet sits.
#[derive(Debug, Clone)]
pub enum RelayTopology {
    /// A generated deployment family (same generator as the plain ocean).
    Kind(TopologyKind),
    /// Explicit node positions (acceptance tests pin exact geometry).
    Explicit(Vec<Pos>),
}

/// The offered application traffic: every message is sourced at `t = 0`
/// (the store-and-forward queues hold it until the network can move it).
#[derive(Debug, Clone)]
pub struct RelayTraffic {
    /// `(src, dst)` message flows.
    pub pairs: Vec<(u16, u16)>,
    /// Messages per flow.
    pub messages_per_pair: usize,
    /// Payload bytes per message.
    pub payload_bytes: usize,
    /// Bundle fragment size in bytes.
    pub frag_bytes: u8,
    /// Priority class of the offered messages.
    pub priority: Priority,
    /// Bundle lifetime in seconds.
    pub ttl_s: u16,
}

impl Default for RelayTraffic {
    fn default() -> Self {
        Self {
            pairs: Vec::new(),
            messages_per_pair: 1,
            payload_bytes: 64,
            frag_bytes: 32,
            priority: Priority::Chat,
            ttl_s: 3600,
        }
    }
}

/// Configuration of one relay-enabled ocean run.
#[derive(Debug, Clone)]
pub struct RelayOceanConfig {
    /// Number of nodes (addresses `0..nodes`, must fit `u16`).
    pub nodes: usize,
    /// Deployment geometry.
    pub topology: RelayTopology,
    /// Simulated duration (seconds).
    pub sim_duration_s: f64,
    /// MAC parameters; the gap range sets how often relays get airtime.
    pub mac: MacConfig,
    /// Modulation scheme for the PER table.
    pub band: Band,
    /// Master seed (topology, MAC RNG, PHY draws, retry jitter).
    pub seed: u64,
    /// Receptions buffered before a parallel resolution flush.
    pub batch: usize,
    /// Node *sleep* model: downtime with state kept
    /// ([`ChurnConfig::none`] for an always-on fleet).
    pub churn: ChurnConfig,
    /// Exact per-node sleep intervals in slots, overriding `churn`
    /// (acceptance tests script precise outages, e.g. a gateway that
    /// surfaces on a duty cycle).
    pub churn_intervals: Option<Vec<Vec<(u64, u64)>>>,
    /// Node *crash* model: downtime that power-cycles the relay —
    /// volatile state dies at the down edge and the journal (if any) is
    /// replayed at the wake edge.
    pub crash: ChurnConfig,
    /// Exact per-node crash intervals in slots, overriding `crash`.
    pub crash_intervals: Option<Vec<Vec<(u64, u64)>>>,
    /// Custody journaling; `None` models fully volatile nodes (crashes
    /// then lose all custody state — the baseline `repro recovery`
    /// quantifies against).
    pub journal: Option<JournalConfig>,
    /// Relay engine knobs (set `direct` for the single-hop baseline).
    pub relay: RelayConfig,
    /// Offered application traffic.
    pub traffic: RelayTraffic,
}

impl RelayOceanConfig {
    /// A relay deployment skeleton: generated topology, relays getting
    /// airtime every 10–30 s, no churn, no traffic (callers add flows).
    pub fn deployment(
        topology: RelayTopology,
        nodes: usize,
        sim_duration_s: f64,
        seed: u64,
    ) -> Self {
        Self {
            nodes,
            topology,
            sim_duration_s,
            mac: MacConfig {
                max_packets: usize::MAX,
                initial_delay_s: (0.0, 10.0),
                inter_packet_gap_s: (10.0, 30.0),
                ..MacConfig::default()
            },
            band: Band::Adaptive,
            seed,
            batch: 256,
            churn: ChurnConfig::none(),
            churn_intervals: None,
            crash: ChurnConfig::none(),
            crash_intervals: None,
            journal: None,
            relay: RelayConfig::default(),
            traffic: RelayTraffic::default(),
        }
    }
}

/// Why a relay-ocean configuration cannot run
/// ([`try_run_relay_ocean`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimConfigError {
    /// `nodes` was 0 or exceeded the `u16` address space.
    BadNodeCount {
        /// The offending node count.
        nodes: usize,
    },
    /// Explicit positions did not match `nodes`.
    PositionCount {
        /// Configured node count.
        expected: usize,
        /// Positions supplied.
        got: usize,
    },
    /// Scripted downtime intervals did not cover exactly `nodes` nodes.
    IntervalNodes {
        /// Configured node count.
        expected: usize,
        /// Interval lists supplied.
        got: usize,
    },
    /// A scripted downtime interval was empty, reversed, not after its
    /// predecessor, or past the horizon.
    BadInterval {
        /// Node the interval belongs to.
        node: usize,
        /// First down slot.
        start: u64,
        /// First slot up again.
        end: u64,
    },
    /// A traffic flow named a node outside `0..nodes`.
    FlowAddress {
        /// Source of the offending flow.
        src: u16,
        /// Destination of the offending flow.
        dst: u16,
    },
    /// A source offered more messages than its `u16` sequence numbers
    /// tell apart (all of them are live at once from `t = 0`).
    SeqSpace {
        /// The source.
        src: u16,
        /// Messages it offered.
        messages: usize,
    },
    /// The offered traffic has degenerate fragmentation geometry.
    Traffic(PlanError),
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadNodeCount { nodes } => write!(f, "node count {nodes} outside 1..=65535"),
            Self::PositionCount { expected, got } => {
                write!(f, "{got} explicit positions for {expected} nodes")
            }
            Self::IntervalNodes { expected, got } => {
                write!(f, "{got} downtime interval lists for {expected} nodes")
            }
            Self::BadInterval { node, start, end } => {
                write!(
                    f,
                    "node {node} outage ({start}, {end}) empty, overlapping or past the end"
                )
            }
            Self::FlowAddress { src, dst } => {
                write!(f, "flow ({src} -> {dst}) names a node outside the fleet")
            }
            Self::SeqSpace { src, messages } => {
                write!(f, "source {src} offers {messages} messages, over 65536")
            }
            Self::Traffic(e) => write!(f, "traffic geometry: {e}"),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Aggregate result of a relay-enabled ocean run.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayOceanResult {
    /// Nodes simulated.
    pub nodes: usize,
    /// Simulated time covered (seconds).
    pub duration_s: f64,
    /// MAC transmissions (frames put on the water, beacons included).
    pub transmissions: u64,
    /// Reception windows resolved.
    pub receptions: u64,
    /// Frames that survived the PHY and reached their target relay.
    pub frames_delivered: u64,
    /// Receptions lost to a failed or sleeping destination.
    pub churn_losses: u64,
    /// Fraction of the run the average node spent unavailable.
    pub downtime_frac: f64,
    /// Application messages offered at `t = 0`.
    pub msgs_offered: u64,
    /// Application messages reassembled complete at their destination.
    pub msgs_delivered: u64,
    /// `msgs_delivered / msgs_offered` (1.0 when nothing was offered).
    pub delivery_ratio: f64,
    /// Delivered messages whose reassembled payload differed from the
    /// sourced payload. Always 0 — pinned by the acceptance suite.
    pub payload_mismatches: u64,
    /// Mean message latency (seconds from sourcing to reassembly).
    pub latency_mean_s: f64,
    /// Median message latency (seconds).
    pub latency_p50_s: f64,
    /// 90th-percentile message latency (seconds).
    pub latency_p90_s: f64,
    /// Protocol counters summed over all relays.
    pub relay: RelayStats,
    /// Crash-reboots applied across the fleet.
    pub reboots: u64,
    /// Messages handed to an application more than once, fleet-wide.
    /// Always 0 — pinned by the chaos harness's at-most-once invariant.
    pub dup_deliveries: u64,
    /// Journal bytes appended across the fleet (live writes).
    pub journal_bytes: u64,
    /// Journal sync operations across the fleet.
    pub journal_syncs: u64,
    /// Snapshot compactions across the fleet.
    pub journal_compactions: u64,
    /// Journal records replayed by crash recovery across the fleet.
    pub journal_replayed: u64,
    /// Events processed by the core.
    pub events: u64,
    /// Peak pending events in the core's queue.
    pub peak_heap: usize,
}

/// The relay fleet as a [`Scenario`]: a transmission carries the frame
/// its relay decides on, and a delivered reception hands that frame to
/// the receiving relay.
struct Relays<'a> {
    /// Crash intervals only: each wake edge power-cycles the relay.
    crash: &'a ChurnSchedule,
    /// Next unapplied crash interval per node (lazy reboot application).
    crash_cursor: Vec<usize>,
    /// Salt for the deterministic per-reboot torn-write draw.
    torn_salt: u64,
    slot_s: f64,
    packet_duration_s: f64,
    relays: Vec<RelayNode>,
    /// Physically audible neighbors per node, as relay addresses.
    candidates: Vec<Vec<u16>>,
    /// The frame decided at each transmission, keyed by
    /// `(tx, start time bits)` — the resolve event's identity.
    in_flight: HashMap<(u32, u64), Frame>,
    expected: HashMap<(u16, u16), Vec<u8>>,
    /// Exact per-message latencies: DTN deliveries run hours, far past
    /// the MAC latency histogram's 1000 s top bucket.
    latencies_s: Vec<f64>,
    /// Every application hand-up in resolution order (dups included —
    /// the audit's at-most-once oracle reads this raw).
    deliveries: Vec<(u16, u16)>,
    delivered_set: HashSet<(u16, u16)>,
    frames_delivered: u64,
    msgs_delivered: u64,
    dup_deliveries: u64,
    payload_mismatches: u64,
    reboots: u64,
}

impl Relays<'_> {
    /// Applies every crash whose outage has fully elapsed by `now_slot`
    /// to `node`'s relay, in schedule order. Called before the node's
    /// next interaction (transmit decision or frame application) — a
    /// down node neither transmits nor receives, so deferring the
    /// power-cycle from the wake edge to the first post-wake touch is
    /// observationally identical, and both call sites are pool-size-
    /// independent points.
    fn catch_up(&mut self, node: usize, now_slot: u64) {
        while let Some(&(_, end)) = self.crash.intervals(node).get(self.crash_cursor[node]) {
            if end > now_slot {
                break;
            }
            let idx = self.crash_cursor[node];
            self.crash_cursor[node] += 1;
            let torn = node_seed(self.torn_salt ^ ((node as u64) << 20), idx);
            self.relays[node].crash_reboot(end as f64 * self.slot_s, torn);
            self.reboots += 1;
        }
    }
}

impl Scenario for Relays<'_> {
    /// Everything that physically arrived before a grant is heard before
    /// the relay decides what to say.
    const FLUSH_BEFORE_TRANSMIT: bool = true;

    fn transmit(&mut self, node: usize, t_s: f64) -> Option<u32> {
        // The node is awake here (the core defers grants on the merged
        // schedule), so every crash outage that ended by now reboots the
        // relay before it decides what to say.
        self.catch_up(node, (t_s / self.slot_s).floor().max(0.0) as u64);
        let (target, frame) = self.relays[node].next_frame(t_s, &self.candidates[node])?;
        self.in_flight.insert((node as u32, t_s.to_bits()), frame);
        Some(target as u32)
    }

    fn lost(&mut self, rx: &Reception) {
        self.in_flight.remove(&(rx.tx, rx.start_s.to_bits()));
    }

    fn resolved(&mut self, rx: &Reception, out: RxOutcome) {
        let frame = self.in_flight.remove(&(rx.tx, rx.start_s.to_bits()));
        if !out.delivered {
            return;
        }
        self.frames_delivered += 1;
        // SAFETY of the expects: every reception the core emits comes from
        // a transmission whose `transmit()` inserted the frame under the
        // same `(tx, start_s)` key — and a frame built by the engine
        // round-trips its own wire bits by construction (pinned by
        // `net/tests/frame_fuzz.rs`). Neither can fail without a bug in
        // this file, which is exactly when a loud panic beats a silently
        // dropped frame.
        let frame = frame.expect("delivered reception has a frame in flight");
        let frame = Frame::try_from_bits(&frame.to_bits()).expect("wire roundtrip");
        let now_s = rx.arrival_s + self.packet_duration_s;
        // Any crash outage that ended before this frame physically
        // arrived is applied first (the reception passed the churn
        // gate, so no outage overlaps the arrival window itself).
        let arrival_slot = (rx.arrival_s / self.slot_s).floor().max(0.0) as u64;
        self.catch_up(out.dest as usize, arrival_slot);
        for d in self.relays[out.dest as usize].on_frame(rx.tx as u16, frame, now_s) {
            self.deliveries.push((d.src, d.seq));
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

/// Mean of the samples, 0 when empty.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Exact quantile by linear interpolation on sorted samples, 0 when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    // Total order over floats: immune to NaN, no panic path.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - rank.floor())
}

/// Deterministic per-node seed derivation (splitmix64 finalizer).
fn node_seed(seed: u64, node: usize) -> u64 {
    rand::mix64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic message payload: pseudo-random bytes keyed by flow.
fn message_payload(seed: u64, src: u16, dst: u16, msg: usize, len: usize) -> Vec<u8> {
    let mut s = node_seed(seed ^ ((src as u64) << 32) ^ ((dst as u64) << 16), msg);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 56) as u8
        })
        .collect()
}

/// Runs one relay-enabled ocean deployment on the given pool.
/// Deterministic in `cfg.seed`; bit-identical for every pool size
/// (`net/tests/relay_determinism.rs`). Panics on an invalid config —
/// every call site in this workspace builds configs programmatically;
/// externally-sourced configs go through [`try_run_relay_ocean`].
pub fn run_relay_ocean(cfg: &RelayOceanConfig, pool: &Pool) -> RelayOceanResult {
    match try_run_relay_ocean(cfg, pool) {
        Ok(r) => r,
        Err(e) => panic!("invalid relay ocean config: {e}"),
    }
}

/// Fallible variant of [`run_relay_ocean`]: configuration problems come
/// back as a typed [`SimConfigError`] instead of a panic.
pub fn try_run_relay_ocean(
    cfg: &RelayOceanConfig,
    pool: &Pool,
) -> Result<RelayOceanResult, SimConfigError> {
    run_inner(cfg, pool, false).map(|(r, _)| r)
}

/// Runs the deployment *and* snapshots the fleet for the conservation
/// invariants ([`crate::audit::check_invariants`]). The audit's custody-
/// conservation oracle is only sound when custody is on, relaying is
/// enabled, and no bundle can lawfully expire or be priority-evicted
/// mid-run — this function checks those preconditions loudly.
pub fn run_relay_ocean_audit(
    cfg: &RelayOceanConfig,
    pool: &Pool,
) -> Result<(RelayOceanResult, FleetAudit), SimConfigError> {
    assert!(cfg.relay.custody, "audit runs need custody transfer on");
    assert!(!cfg.relay.direct, "audit runs need relaying enabled");
    assert!(
        cfg.traffic.ttl_s as f64 >= cfg.sim_duration_s + 2.0 * cfg.mac.slot_s,
        "audit runs need TTLs covering the whole run with slack (expiry lawfully \
         ends custody, and the final reboot pass lands up to a slot past the \
         horizon, so ttl == duration can expire t=0 bundles at the boundary)"
    );
    let (result, audit) = run_inner(cfg, pool, true)?;
    // SAFETY of the expect: `run_inner` returns `Some` audit iff called
    // with `audit = true`, which this line does — a `None` here is a bug
    // in this file, not a runtime condition.
    let audit = audit.expect("audit requested");
    // Uniform-priority traffic cannot be priority-evicted (eviction
    // requires a strictly lower-priority victim) and run-spanning TTLs
    // cannot expire; any eviction here would silently void the
    // conservation oracle's premise.
    assert_eq!(
        (result.relay.evictions_ttl, result.relay.evictions_cap),
        (0, 0),
        "audit premise violated: custody lawfully dropped by eviction"
    );
    Ok((result, audit))
}

fn run_inner(
    cfg: &RelayOceanConfig,
    pool: &Pool,
    want_audit: bool,
) -> Result<(RelayOceanResult, Option<FleetAudit>), SimConfigError> {
    if cfg.nodes < 1 || cfg.nodes > u16::MAX as usize {
        return Err(SimConfigError::BadNodeCount { nodes: cfg.nodes });
    }
    let mut per_src = vec![0usize; cfg.nodes];
    for &(src, dst) in &cfg.traffic.pairs {
        if src as usize >= cfg.nodes || dst as usize >= cfg.nodes {
            return Err(SimConfigError::FlowAddress { src, dst });
        }
        let messages = &mut per_src[src as usize];
        *messages = messages.saturating_add(cfg.traffic.messages_per_pair);
    }
    // Identity is `(src, u16 seq)` and every message is live from t = 0.
    if let Some((src, &messages)) = per_src.iter().enumerate().find(|(_, &m)| m > 1 << 16) {
        let src = src as u16;
        return Err(SimConfigError::SeqSpace { src, messages });
    }
    let positions = match &cfg.topology {
        RelayTopology::Kind(kind) => {
            OceanTopology::generate(*kind, cfg.nodes, cfg.seed, &RangeGain::lake()).positions
        }
        RelayTopology::Explicit(p) => {
            if p.len() != cfg.nodes {
                return Err(SimConfigError::PositionCount {
                    expected: cfg.nodes,
                    got: p.len(),
                });
            }
            p.clone()
        }
    };
    let lake = Deployment::lake(positions, &cfg.mac, cfg.band, cfg.sim_duration_s, cfg.seed);
    let scripted = |down: &Vec<Vec<(u64, u64)>>| {
        if down.len() != cfg.nodes {
            let (expected, got) = (cfg.nodes, down.len());
            return Err(SimConfigError::IntervalNodes { expected, got });
        }
        ChurnSchedule::from_intervals(down.clone(), lake.max_slots)
            .map_err(|(node, start, end)| SimConfigError::BadInterval { node, start, end })
    };
    let sleep = match &cfg.churn_intervals {
        Some(down) => scripted(down)?,
        None => lake.sleep(&cfg.churn),
    };
    let crash = match &cfg.crash_intervals {
        Some(down) => scripted(down)?,
        // A salt of its own: crash timing aliases neither MAC/PHY draws
        // nor the sleep schedule.
        None => ChurnSchedule::generate(
            &cfg.crash,
            cfg.nodes,
            lake.max_slots,
            cfg.mac.slot_s,
            cfg.seed ^ 0xC4A5_11FE,
        ),
    };
    // Availability is gated on sleep ∪ crash; union with an empty crash
    // schedule reproduces the sleep schedule exactly, preserving the
    // sleep-only bit-identity contract.
    let down = sleep.union(&crash);
    let mut relays: Vec<RelayNode> = (0..cfg.nodes)
        .map(|i| {
            let seed = node_seed(cfg.seed, i);
            match cfg.journal {
                Some(jcfg) => RelayNode::with_journal(i as u16, cfg.relay.clone(), seed, jcfg),
                None => RelayNode::new(i as u16, cfg.relay.clone(), seed),
            }
        })
        .collect();
    // Offer all traffic at t = 0; the DTN queues do the waiting.
    let mut expected = HashMap::new();
    let mut offered: Vec<(BundleKey, u16)> = Vec::new();
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
            // Validated above: the 65 536th message's increment wraps unused.
            next_seq[src as usize] = seq.wrapping_add(1);
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
            .map_err(SimConfigError::Traffic)?;
            if want_audit {
                offered.extend(bundles.iter().map(|b| (b.key(), dst)));
            }
            let frags = bundles.len();
            let stored = relays[src as usize].source(bundles, 0.0);
            if want_audit {
                // A source-time reject would mean custody was never
                // accepted — the offered list would lie. Size queues to
                // the offered load in audit runs.
                assert_eq!(stored, frags, "audit runs must store all offered fragments");
            }
            expected.insert((src, seq), payload);
            msgs_offered += 1;
        }
    }
    // A relay's candidate list is its *link-viable* neighborhood: audible
    // nodes whose clean-channel PER is below 1.0 at this range. The
    // hearing radius (~123 m) reaches well past the recorded PER curves'
    // 60 m wall, and beaconing at physically dead links would just burn
    // the round-robin's revisit time on frames that can never arrive.
    let table = PerTable::recorded();
    let candidates = (0..cfg.nodes)
        .map(|i| {
            lake.medium
                .neighbors_of(i)
                .iter()
                .filter(|&&j| table.per(cfg.band, lake.medium.range_m(i, j as usize)) < 1.0)
                .map(|&j| j as u16)
                .collect()
        })
        .collect();
    let relays = Relays {
        crash: &crash,
        crash_cursor: vec![0; cfg.nodes],
        torn_salt: cfg.seed ^ 0x7042_5EED,
        slot_s: cfg.mac.slot_s,
        packet_duration_s: cfg.mac.packet_duration_s,
        relays,
        candidates,
        in_flight: HashMap::new(),
        expected,
        latencies_s: Vec::new(),
        deliveries: Vec::new(),
        delivered_set: HashSet::new(),
        frames_delivered: 0,
        msgs_delivered: 0,
        dup_deliveries: 0,
        payload_mismatches: 0,
        reboots: 0,
    };
    let (run, core) = lake.drive(&down, cfg.batch, pool, relays);
    let mut net = run.scenario;
    // Crashes whose outage outlived the node's last interaction still
    // happened: apply them so end-of-run state (and the audit snapshot)
    // reflects every scheduled power-cycle.
    for node in 0..cfg.nodes {
        net.catch_up(node, lake.max_slots);
    }
    let mut relay = RelayStats::default();
    let (mut journal_bytes, mut journal_syncs) = (0u64, 0u64);
    let (mut journal_compactions, mut journal_replayed) = (0u64, 0u64);
    for r in &net.relays {
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
        if let Some(js) = r.journal_stats() {
            journal_bytes += js.bytes;
            journal_syncs += js.syncs;
            journal_compactions += js.compactions;
        }
        for rb in r.reboot_log() {
            journal_replayed += rb.replayed;
        }
    }
    let audit = want_audit.then(|| {
        let mut a = FleetAudit {
            offered,
            deliveries: net.deliveries.clone(),
            ..FleetAudit::default()
        };
        for r in &net.relays {
            let n = r.addr();
            for k in r.queue_keys() {
                a.held.entry(k).or_default().push(n);
            }
            let frags: BTreeSet<BundleKey> = r.pending_frag_keys().into_iter().collect();
            if !frags.is_empty() {
                a.dest_frags.insert(n, frags);
            }
            let delivered: BTreeSet<(u16, u16)> = r.delivered_message_ids().into_iter().collect();
            if !delivered.is_empty() {
                a.delivered.insert(n, delivered);
            }
            for rb in r.reboot_log() {
                a.reboots.push((n, rb.durable, rb.replayed));
            }
        }
        a
    });
    let result = RelayOceanResult {
        nodes: cfg.nodes,
        duration_s: core.duration_s,
        transmissions: run.transmissions,
        receptions: run.receptions,
        frames_delivered: net.frames_delivered,
        churn_losses: run.churn_losses,
        downtime_frac: down.mean_downtime_frac(),
        msgs_offered,
        msgs_delivered: net.msgs_delivered,
        delivery_ratio: if msgs_offered == 0 {
            1.0
        } else {
            net.msgs_delivered as f64 / msgs_offered as f64
        },
        payload_mismatches: net.payload_mismatches,
        latency_mean_s: mean(&net.latencies_s),
        latency_p50_s: quantile(&net.latencies_s, 0.5),
        latency_p90_s: quantile(&net.latencies_s, 0.9),
        relay,
        reboots: net.reboots,
        dup_deliveries: net.dup_deliveries,
        journal_bytes,
        journal_syncs,
        journal_compactions,
        journal_replayed,
        events: core.events,
        peak_heap: core.peak_heap,
    };
    Ok((result, audit))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line of nodes spaced `gap_m` apart at diver depth.
    pub(crate) fn line(n: usize, gap_m: f64) -> Vec<Pos> {
        (0..n)
            .map(|i| Pos::new(i as f64 * gap_m, 0.0, 2.0))
            .collect()
    }

    #[test]
    fn adjacent_pair_delivers_a_message() {
        let mut cfg =
            RelayOceanConfig::deployment(RelayTopology::Explicit(line(2, 30.0)), 2, 1800.0, 7);
        cfg.traffic.pairs = vec![(0, 1)];
        cfg.traffic.payload_bytes = 48;
        let r = run_relay_ocean(&cfg, &Pool::new(1));
        assert_eq!(r.msgs_offered, 1);
        assert_eq!(r.msgs_delivered, 1, "{r:?}");
        assert_eq!(r.payload_mismatches, 0);
        assert!(r.latency_mean_s > 0.0);
        assert!(
            r.relay.custody_transfers >= 2,
            "both fragments acked: {r:?}"
        );
    }

    #[test]
    fn reruns_are_exactly_reproducible() {
        let mut cfg =
            RelayOceanConfig::deployment(RelayTopology::Explicit(line(4, 30.0)), 4, 1200.0, 3);
        cfg.traffic.pairs = vec![(0, 3)];
        let a = run_relay_ocean(&cfg, &Pool::new(1));
        let b = run_relay_ocean(&cfg, &Pool::new(1));
        assert_eq!(a, b);
    }
}
