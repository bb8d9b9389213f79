//! Event-driven core of the ocean-scale simulator.
//!
//! [`crate::netsim::simulate`] steps *every node through every 80 ms slot*
//! and recomputes every node's sensed energy per slot — O(slots × n²),
//! fine for the paper's 2–3 transmitter dive site, hopeless for a
//! simulated ocean. This module re-expresses the **same state machine** as
//! events in a slot-bucketed queue: a node is only touched at the slots
//! where the slot-stepped simulator would actually *change its state or
//! draw from the RNG* (wait expiry, backoff ticks, transmission end), and
//! sensed energy is answered from an index of live transmissions instead
//! of a global per-slot scan.
//!
//! **Slot buckets.** Every event the core schedules lands strictly after
//! the slot it is processing: a state set at slot `t` is acted on at
//! `t + 1` or later, and a reception resolves one slot past the end of
//! its window. So pending events wait unsorted in one bucket per slot, in
//! a window running from the next slot to the farthest one scheduled
//! (about 6 000 slots for 2–8 min inter-packet gaps, whatever the
//! horizon), and a bucket is complete when the core reaches it: sorting
//! it by `(node, kind, seq)` yields the order a binary heap keyed
//! `(slot, node, kind, seq)` would. Buckets chain their events through
//! one arena whose cells are reused once their slot is reached, so the
//! queue holds about as many cells as there are pending events. Events at
//! or past the run's horizon stay in their buckets for the capped drain.
//!
//! **Live-transmission index.** Every transmission `(start, until, node)`
//! is appended to the deque of its sender's spatial cell
//! ([`Medium::cell_of`]); cells fill in start order, and an entry is
//! pruned once it is older than any pending reception window can reach.
//! A carrier-sense check or a reception resolve scans only the cells that
//! can hold the node's neighbours ([`Medium::cells_near`]), from the
//! newest entry back to the oldest one that could still be audible or
//! overlap, locates each hit in the node's sorted neighbour list by
//! binary search and reads its power at that position
//! ([`Medium::gain_at`]). Hits are sorted by node index before anything
//! is summed, so a sensed power or an interferer list has the same terms
//! in the same order as a walk over every neighbour would give. A node is
//! on air for a small fraction of the time, so a scan visits a handful of
//! entries where a walk visits the node's whole degree.
//!
//! **Oracle equivalence.** On the dense gain-matrix inputs of
//! [`crate::netsim::simulate`], [`simulate_events`] is **bit-identical** to
//! the slot-stepped oracle: same `tx_times`, same collision stats, same
//! `duration_s`. That holds because
//!
//! - events are taken in `(slot, node, kind)` order, so decisions are made
//!   in exactly the oracle's slot-major, node-index-minor order, and the
//!   single shared `StdRng` is therefore consumed in the same sequence;
//! - a transmission started at slot `s` with end slot `u` is audible at
//!   slots `t` with `s < t < u` — the oracle's start-of-slot snapshot
//!   semantics (the starting slot itself and the end slot are silent);
//! - sensed power is accumulated as `noise + Σ gains` over active
//!   transmitters sorted by node index, the oracle's exact float
//!   summation order;
//! - a state set at slot `t` is first acted on at slot `max(when, t+1)`,
//!   matching the oracle's examine-next-slot behavior.
//!
//! The equivalence is pinned by the property suite in
//! `mac/tests/ocean_equivalence.rs`.
//!
//! On top of the MAC state machine the core supports the ocean extensions
//! through [`SimHooks`]: per-node destinations, propagation-delay-adjusted
//! reception windows (scheduled as extra queued events after the packet has
//! fully arrived), and interference capture for the PHY dispatch layer
//! ([`crate::ocean::phy`]). In oracle mode the hooks are inert and the
//! extensions vanish.

use crate::netsim::{collision_stats, MacConfig, MacResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Sound speed used for propagation-delay-adjusted arrival times (m/s).
pub const SOUND_SPEED: f64 = 1500.0;

/// How a receiver hears the rest of the network.
///
/// The dense oracle mode wraps the full gain matrix; the ocean mode backs
/// this with spatial-hash neighbor lists and an analytic range-gain fit.
/// The defaulted cell methods describe a single cell holding every node,
/// which is exact for any medium and fast for a small one.
pub trait Medium {
    /// Number of nodes.
    fn nodes(&self) -> usize;
    /// In-band ambient noise power at receiver `rx`.
    fn noise_floor(&self, rx: usize) -> f64;
    /// Candidate transmitters audible at `rx`, in strictly ascending node
    /// index, excluding `rx` itself. The event core finds a transmitter's
    /// position here by binary search.
    fn neighbors_of(&self, rx: usize) -> &[u32];
    /// Sensed linear power at `rx` while `tx` transmits (transmit power
    /// already folded in).
    fn gain(&self, tx: usize, rx: usize) -> f64;
    /// [`Medium::gain`] from the `k`-th entry of `rx`'s neighbor list.
    fn gain_at(&self, rx: usize, k: usize) -> f64 {
        self.gain(self.neighbors_of(rx)[k] as usize, rx)
    }
    /// Number of spatial cells; [`Medium::cell_of`] is below it.
    fn cell_count(&self) -> usize {
        1
    }
    /// The spatial cell `node` lies in.
    fn cell_of(&self, node: usize) -> usize {
        let _ = node;
        0
    }
    /// Distinct cells that together hold every neighbor of `node` (and
    /// `node` itself).
    fn cells_near(&self, node: usize) -> &[u32] {
        let _ = node;
        &[0]
    }
}

/// Dense-matrix medium: the exact inputs of [`crate::netsim::simulate`].
#[derive(Debug, Clone)]
pub struct DenseMedium {
    gains: Vec<Vec<f64>>,
    noise: Vec<f64>,
    neighbors: Vec<Vec<u32>>,
}

impl DenseMedium {
    /// Wraps `gains[i][j]` (linear power gain from transmitter `i` to node
    /// `j`, diagonal unused) and per-node noise floors.
    pub fn new(gains: Vec<Vec<f64>>, noise: Vec<f64>) -> Self {
        let n = gains.len();
        assert!(n >= 1 && noise.len() == n);
        let neighbors = (0..n)
            .map(|i| (0..n as u32).filter(|&j| j as usize != i).collect())
            .collect();
        Self {
            gains,
            noise,
            neighbors,
        }
    }
}

impl Medium for DenseMedium {
    fn nodes(&self) -> usize {
        self.gains.len()
    }
    fn noise_floor(&self, rx: usize) -> f64 {
        self.noise[rx]
    }
    fn neighbors_of(&self, rx: usize) -> &[u32] {
        &self.neighbors[rx]
    }
    fn gain(&self, tx: usize, rx: usize) -> f64 {
        self.gains[tx][rx]
    }
}

/// One interfering transmission overlapping a reception window.
#[derive(Debug, Clone, Copy)]
pub struct Interferer {
    /// Interfering transmitter.
    pub node: u32,
    /// Sensed linear power of the interferer at the destination.
    pub power: f64,
    /// Length of the overlap with the reception window (seconds).
    pub overlap_s: f64,
}

/// A completed reception window at a destination, emitted once the packet
/// plus its propagation delay has fully arrived.
#[derive(Debug, Clone)]
pub struct Reception {
    /// Transmitting node.
    pub tx: u32,
    /// Destination node.
    pub dest: u32,
    /// MAC-level transmission start time (seconds).
    pub start_s: f64,
    /// First-sample arrival time at the destination (seconds).
    pub arrival_s: f64,
    /// MAC access delay the packet paid before its transmission started
    /// (carrier-sense backoff; 0 without carrier sense).
    pub access_delay_s: f64,
    /// Whether the destination was itself transmitting during the window
    /// (half-duplex loss).
    pub dest_busy: bool,
    /// Transmissions from other nodes overlapping the window at the
    /// destination, ascending node index.
    pub interferers: Vec<Interferer>,
}

/// Scenario hooks layered over the MAC state machine. The oracle mode
/// uses the inert defaults; the ocean mode supplies destinations,
/// propagation delays and stats sinks.
pub trait SimHooks {
    /// Destination node for the packet `node` starts transmitting *now*
    /// (`None`: broadcast-only, no reception tracking — the oracle mode).
    /// Called exactly once per transmission, immediately after
    /// [`SimHooks::on_transmit`]; the answer is captured into the resolve
    /// event, so a relay layer may choose a different destination per
    /// packet. Takes `&mut self` for exactly that reason — static
    /// implementations simply ignore the mutability.
    fn dest(&mut self, node: usize) -> Option<u32> {
        let _ = node;
        None
    }
    /// One-way propagation delay between two nodes (seconds).
    fn prop_delay_s(&self, tx: usize, rx: usize) -> f64 {
        let _ = (tx, rx);
        0.0
    }
    /// Upper bound on [`SimHooks::prop_delay_s`] over pairs that can
    /// interact: sizes the live-transmission prune horizon and bounds the
    /// interferer scan, so a pair above it may be missed.
    fn max_prop_delay_s(&self) -> f64 {
        0.0
    }
    /// A packet transmission started at `t_s` after `access_delay_s` of
    /// carrier-sense backoff.
    fn on_transmit(&mut self, node: usize, t_s: f64, access_delay_s: f64);
    /// A reception window closed at the destination.
    fn on_reception(&mut self, rx: Reception) {
        let _ = rx;
    }
    /// If `node` is unavailable (failed or duty-cycle asleep) at `slot`,
    /// the slot at which it next becomes available; `None` when the node
    /// is up. A state event for an unavailable node is *deferred* to the
    /// wake slot — no node state mutates and no RNG is drawn — so an
    /// always-`None` implementation is bit-identical to not having the
    /// hook at all (the oracle-equivalence contract).
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        let _ = (node, slot);
        None
    }
}

/// Aggregate facts about one event-driven run.
#[derive(Debug, Clone, Copy)]
pub struct CoreStats {
    /// Total simulated time, matching the oracle's `duration_s`.
    pub duration_s: f64,
    /// Events processed.
    pub events: u64,
    /// Peak pending events, sampled after each processed event
    /// (memory-bound witness).
    pub peak_heap: usize,
}

#[derive(Debug, Clone, Copy)]
enum NState {
    Waiting { when: u64 },
    Backoff { rem: u64 },
    Transmitting { until: u64 },
    Done,
}

struct NodeCtx {
    state: NState,
    sent: usize,
    /// Slot at which the current wait was meant to end (access-delay base).
    intended: u64,
}

const KIND_STATE: u8 = 0;
const KIND_RESOLVE: u8 = 1;

/// Queued event. Ordering is `(slot, node, kind, seq)` — slot-major and
/// node-index-minor inside a slot, the oracle's processing order.
#[derive(Debug, Clone, Copy)]
struct Ev {
    slot: u64,
    node: u32,
    kind: u8,
    seq: u64,
    /// Resolve payload: transmission start slot.
    start_slot: u64,
    /// Resolve payload: destination captured at transmission start.
    dest: u32,
    /// Resolve payload: access delay of that transmission (seconds).
    access_s: f64,
}

impl Ev {
    fn key(&self) -> (u64, u32, u8, u64) {
        (self.slot, self.node, self.kind, self.seq)
    }
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Pending events bucketed by slot, popped in `(slot, node, kind, seq)`
/// order.
///
/// The core pushes every event strictly after the slot it is processing
/// (a state event at `t + 1` or later, a resolve one slot past its
/// reception window), so a slot's bucket is complete when the queue
/// reaches it, and sorting that one bucket by `(node, kind, seq)` gives
/// the total order. The window holds one bucket per slot from the next
/// slot to the farthest one pushed: its length follows the lookahead
/// actually scheduled, not the horizon, and events past the horizon wait
/// in their buckets for the capped drain. A bucket is a chain of cells in
/// one arena, and the cells of a slot the queue has reached are reused by
/// later pushes, so the arena holds no more cells than the peak of
/// pending events.
struct SlotQueue {
    /// Event cells, each in one bucket's chain or on the free list.
    cells: Vec<Cell>,
    /// First free cell.
    free: u32,
    /// `window[k]`: first cell of slot `base + k`'s bucket, or [`NIL`].
    window: VecDeque<u32>,
    base: u64,
    /// The events of the slot being processed, sorted; `cur[next..]` are
    /// still pending.
    cur: Vec<Ev>,
    next: usize,
    /// Pending events in the buckets and `cur` together.
    len: usize,
}

/// An [`Ev`] in its bucket, which gives its slot, with the link to the
/// next cell of the bucket or of the free list: 40 bytes against the
/// `Ev`'s 48.
#[derive(Clone, Copy)]
struct Cell {
    seq: u64,
    start_slot: u64,
    access_s: f64,
    node: u32,
    dest: u32,
    next: u32,
    kind: u8,
}

/// End of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

impl SlotQueue {
    fn new() -> Self {
        Self {
            cells: Vec::new(),
            free: NIL,
            window: VecDeque::new(),
            base: 0,
            cur: Vec::new(),
            next: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, ev: Ev) {
        let k = ev
            .slot
            .checked_sub(self.base)
            .expect("event scheduled at or before the slot being processed")
            as usize;
        if k >= self.window.len() {
            self.window.resize(k + 1, NIL);
        }
        let cell = Cell {
            seq: ev.seq,
            start_slot: ev.start_slot,
            access_s: ev.access_s,
            node: ev.node,
            dest: ev.dest,
            next: self.window[k],
            kind: ev.kind,
        };
        self.window[k] = if self.free == NIL {
            self.cells.push(cell);
            u32::try_from(self.cells.len() - 1).expect("pending events fit u32")
        } else {
            let c = self.free;
            self.free = self.cells[c as usize].next;
            self.cells[c as usize] = cell;
            c
        };
        self.len += 1;
    }

    /// The next pending event if its slot is below `end`.
    fn pop_before(&mut self, end: u64) -> Option<Ev> {
        while self.next == self.cur.len() {
            if self.base >= end {
                return None;
            }
            let mut c = self.window.pop_front()?;
            let slot = self.base;
            self.base += 1;
            self.cur.clear();
            self.next = 0;
            while c != NIL {
                let cell = &mut self.cells[c as usize];
                self.cur.push(Ev {
                    slot,
                    node: cell.node,
                    kind: cell.kind,
                    seq: cell.seq,
                    start_slot: cell.start_slot,
                    dest: cell.dest,
                    access_s: cell.access_s,
                });
                let next = std::mem::replace(&mut cell.next, self.free);
                self.free = c;
                c = next;
            }
            self.cur.sort_unstable();
        }
        let ev = self.cur[self.next];
        self.next += 1;
        self.len -= 1;
        Some(ev)
    }
}

/// The event-driven MAC core, generic over medium and scenario hooks.
pub struct EventCore<'a, M: Medium, H: SimHooks> {
    cfg: &'a MacConfig,
    medium: &'a M,
    hooks: &'a mut H,
    rng: StdRng,
    nodes: Vec<NodeCtx>,
    queue: SlotQueue,
    packet_slots: u64,
    /// Per spatial cell: the transmissions `(start_slot, until_slot,
    /// node)` of the cell's nodes in start order. Every transmission lasts
    /// `packet_slots`, so `until_slot` ascends too.
    live: Vec<VecDeque<(u64, u64, u32)>>,
    /// Entries with `until_slot < now - prune_h` can no longer overlap
    /// any pending reception window and are dropped.
    prune_h: u64,
    /// [`SimHooks::max_prop_delay_s`], bounding the resolve scan.
    max_prop_s: f64,
    /// Scratch for the hits of one scan: `(node, start_slot, position in
    /// the neighbor list)`.
    hits: Vec<(u32, u64, usize)>,
    seq: u64,
    events: u64,
    peak_heap: usize,
}

impl<'a, M: Medium, H: SimHooks> EventCore<'a, M, H> {
    /// Builds the core and seeds the initial-delay events (consuming the
    /// same leading RNG draws, in node order, as the oracle).
    pub fn new(cfg: &'a MacConfig, medium: &'a M, hooks: &'a mut H, seed: u64) -> Self {
        let n = medium.nodes();
        assert!(n >= 1, "simulation needs at least one node");
        let mut rng = StdRng::seed_from_u64(seed);
        let packet_slots = (cfg.packet_duration_s / cfg.slot_s).ceil() as u64;
        // Horizon: a pending reception window reaches back at most one
        // packet duration plus two propagation delays (tx→dest and
        // interferer→dest) from the current slot, with slack for the
        // ceil-quantized resolve slot.
        let max_prop_s = hooks.max_prop_delay_s();
        let prune_h = packet_slots
            + 3
            + ((cfg.packet_duration_s + 2.0 * max_prop_s) / cfg.slot_s).ceil() as u64;
        let mut queue = SlotQueue::new();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let when = to_slots(cfg.initial_delay_s, cfg.slot_s, &mut rng);
            nodes.push(NodeCtx {
                state: NState::Waiting { when },
                sent: 0,
                intended: when,
            });
            queue.push(Ev {
                slot: when,
                node: i as u32,
                kind: KIND_STATE,
                seq: 0,
                start_slot: 0,
                dest: 0,
                access_s: 0.0,
            });
        }
        let peak_heap = queue.len();
        Self {
            cfg,
            medium,
            hooks,
            rng,
            nodes,
            queue,
            packet_slots,
            live: vec![VecDeque::new(); medium.cell_count()],
            prune_h,
            max_prop_s,
            hits: Vec::new(),
            seq: 0,
            events: 0,
            peak_heap,
        }
    }

    /// Runs to completion or to the `max_slots` horizon (the oracle's
    /// safety cap; the ocean mode's simulated duration). Reception windows
    /// already in flight at the horizon are still resolved against the
    /// frozen live-transmission index.
    pub fn run(mut self, max_slots: u64) -> CoreStats {
        let mut last_slot = 0u64;
        while let Some(ev) = self.queue.pop_before(max_slots) {
            self.events += 1;
            last_slot = ev.slot;
            match ev.kind {
                KIND_STATE => self.process_state(ev.slot, ev.node as usize),
                _ => self.process_resolve(
                    ev.node as usize,
                    ev.dest as usize,
                    ev.start_slot,
                    ev.access_s,
                ),
            }
            self.peak_heap = self.peak_heap.max(self.queue.len());
        }
        let capped = self.queue.len() > 0;
        // MAC activity stops at the horizon, but packets fully transmitted
        // before it still complete their flight.
        while let Some(ev) = self.queue.pop_before(u64::MAX) {
            if ev.kind == KIND_RESOLVE {
                self.events += 1;
                self.process_resolve(
                    ev.node as usize,
                    ev.dest as usize,
                    ev.start_slot,
                    ev.access_s,
                );
            }
        }
        let duration_s = if capped {
            max_slots as f64 * self.cfg.slot_s
        } else {
            (last_slot + 1) as f64 * self.cfg.slot_s
        };
        CoreStats {
            duration_s,
            events: self.events,
            peak_heap: self.peak_heap,
        }
    }

    fn push_state(&mut self, slot: u64, node: usize) {
        self.queue.push(Ev {
            slot,
            node: node as u32,
            kind: KIND_STATE,
            seq: 0,
            start_slot: 0,
            dest: 0,
            access_s: 0.0,
        });
    }

    /// The oracle's sensed-energy test: noise plus the gains of the
    /// neighbors audible at `t` accumulated in ascending node index,
    /// against the margin. A transmission started at slot `s` and ending
    /// at `u` is audible at slots `s < t < u` (the oracle's start-of-slot
    /// snapshot rule).
    fn busy(&mut self, node: usize, t: u64) -> bool {
        let near = self.medium.neighbors_of(node);
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        for &c in self.medium.cells_near(node) {
            for &(s, u, j) in self.live[c as usize].iter().rev() {
                if u <= t {
                    break;
                }
                if s < t {
                    if let Ok(k) = near.binary_search(&j) {
                        hits.push((j, s, k));
                    }
                }
            }
        }
        hits.sort_unstable();
        let noise = self.medium.noise_floor(node);
        let mut p = noise;
        for &(_, _, k) in &hits {
            p += self.medium.gain_at(node, k);
        }
        self.hits = hits;
        p > noise * self.cfg.threshold_margin
    }

    fn process_state(&mut self, t: u64, i: usize) {
        // A churned-out node sleeps through its event: defer to the wake
        // slot untouched (no state change, no RNG draw), so a no-churn
        // hook leaves the trajectory bit-identical.
        if let Some(wake) = self.hooks.wake_at(i, t) {
            self.push_state(wake.max(t + 1), i);
            return;
        }
        match self.nodes[i].state {
            NState::Waiting { when } => {
                debug_assert!(t >= when);
                let busy = self.busy(i, t);
                if self.cfg.carrier_sense && busy {
                    let packets: u32 = self
                        .rng
                        .gen_range(self.cfg.cs_backoff_packets.0..=self.cfg.cs_backoff_packets.1);
                    self.nodes[i].state = NState::Backoff {
                        rem: packets as u64 * self.packet_slots,
                    };
                    self.push_state(t + 1, i);
                } else {
                    self.start_tx(i, t);
                }
            }
            NState::Backoff { rem } => {
                let busy = self.busy(i, t);
                let mut rem = rem.saturating_sub(1);
                if busy && rem < self.packet_slots {
                    rem += self.packet_slots;
                }
                if rem == 0 {
                    if busy {
                        rem = self.packet_slots;
                    } else {
                        self.start_tx(i, t);
                        return;
                    }
                }
                self.nodes[i].state = NState::Backoff { rem };
                self.push_state(t + 1, i);
            }
            NState::Transmitting { until } => {
                debug_assert!(t >= until);
                if self.nodes[i].sent >= self.cfg.max_packets {
                    self.nodes[i].state = NState::Done;
                } else {
                    let when =
                        t + to_slots(self.cfg.inter_packet_gap_s, self.cfg.slot_s, &mut self.rng);
                    self.nodes[i].state = NState::Waiting { when };
                    self.nodes[i].intended = when;
                    self.push_state(when.max(t + 1), i);
                }
            }
            NState::Done => unreachable!("Done nodes schedule no events"),
        }
    }

    fn start_tx(&mut self, i: usize, t: u64) {
        let t_s = t as f64 * self.cfg.slot_s;
        let access_s = (t - self.nodes[i].intended) as f64 * self.cfg.slot_s;
        self.hooks.on_transmit(i, t_s, access_s);
        self.nodes[i].sent += 1;
        let until = t + self.packet_slots;
        self.nodes[i].state = NState::Transmitting { until };
        self.push_state(until.max(t + 1), i);
        // Index the transmission in its sender's cell and prune the
        // cell's entries no pending reception window can reach.
        let cell = &mut self.live[self.medium.cell_of(i)];
        cell.push_back((t, until, i as u32));
        let horizon = t.saturating_sub(self.prune_h);
        while cell.front().is_some_and(|&(_, u, _)| u < horizon) {
            cell.pop_front();
        }
        // Schedule the reception resolve after the packet has fully
        // arrived at the destination (propagation-delay-adjusted).
        if let Some(d) = self.hooks.dest(i) {
            if d as usize != i {
                let prop = self.hooks.prop_delay_s(i, d as usize);
                let window_end = t_s + prop + self.cfg.packet_duration_s;
                let resolve_slot = (window_end / self.cfg.slot_s).ceil() as u64 + 1;
                self.seq += 1;
                self.queue.push(Ev {
                    slot: resolve_slot,
                    node: i as u32,
                    kind: KIND_RESOLVE,
                    seq: self.seq,
                    start_slot: t,
                    dest: d,
                    access_s,
                });
            }
        }
    }

    /// Closes the reception window of `i`'s transmission started at
    /// `start_slot` toward the destination `d` captured at transmission
    /// start: captures half-duplex state and every overlapping interferer
    /// at the destination, then hands off to the hooks.
    fn process_resolve(&mut self, i: usize, d: usize, start_slot: u64, access_s: f64) {
        let (dur, slot_s) = (self.cfg.packet_duration_s, self.cfg.slot_s);
        let start_s = start_slot as f64 * slot_s;
        let prop = self.hooks.prop_delay_s(i, d);
        let (a, b) = (start_s + prop, start_s + prop + dur);
        // A transmission overlapping [a, b) at `d` started after
        // a - max_prop - dur; one slot of slack keeps float rounding from
        // ever dropping a real overlap (the exact test below decides).
        let lo = ((a - self.max_prop_s - dur) / slot_s).floor() - 1.0;
        let lo = lo.max(0.0) as u64;
        let near = self.medium.neighbors_of(d);
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        // Half-duplex: the destination cannot receive while transmitting.
        let mut dest_busy = false;
        for &c in self.medium.cells_near(d) {
            for &(s, _, j) in self.live[c as usize].iter().rev() {
                if s < lo {
                    break;
                }
                if j as usize == d {
                    let s_s = s as f64 * slot_s;
                    dest_busy |= s_s < b && a < s_s + dur;
                } else if j as usize != i {
                    if let Ok(k) = near.binary_search(&j) {
                        hits.push((j, s, k));
                    }
                }
            }
        }
        // By node, then start: each interferer's overlaps sum oldest
        // first.
        hits.sort_unstable();
        let mut interferers = Vec::new();
        for group in hits.chunk_by(|x, y| x.0 == y.0) {
            let (j, _, k) = group[0];
            let pd = self.hooks.prop_delay_s(j as usize, d);
            let mut power = 0.0;
            let mut overlap = 0.0f64;
            for &(_, s, _) in group {
                let aj = s as f64 * slot_s + pd;
                let bj = aj + dur;
                if aj < b && a < bj {
                    power = self.medium.gain_at(d, k);
                    overlap += b.min(bj) - a.max(aj);
                }
            }
            if power > 0.0 && overlap > 0.0 {
                interferers.push(Interferer {
                    node: j,
                    power,
                    overlap_s: overlap.min(dur),
                });
            }
        }
        self.hits = hits;
        self.hooks.on_reception(Reception {
            tx: i as u32,
            dest: d as u32,
            start_s,
            arrival_s: a,
            access_delay_s: access_s,
            dest_busy,
            interferers,
        });
    }
}

/// The oracle's `to_slots`: a uniform draw in seconds, rounded up to whole
/// slots. Bit-for-bit the same draw and conversion as the slot-stepped
/// simulator.
fn to_slots(range: (f64, f64), slot_s: f64, rng: &mut StdRng) -> u64 {
    let s: f64 = rng.gen_range(range.0..=range.1);
    (s / slot_s).ceil() as u64
}

/// Inert hooks for the oracle mode: collect transmission start times only.
struct OracleHooks {
    tx_times: Vec<Vec<f64>>,
}

impl SimHooks for OracleHooks {
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        self.tx_times[node].push(t_s);
    }
}

/// Event-driven drop-in for [`crate::netsim::simulate`]: same inputs, same
/// outputs, bit for bit — but O(events) instead of O(slots × n²).
///
/// The oracle's 1 M-slot safety cap is reproduced so capped runs truncate
/// identically. Pinned by the `mac/tests/ocean_equivalence.rs` property
/// suite.
pub fn simulate_events(
    cfg: &MacConfig,
    gains: &[Vec<f64>],
    noise_floor: &[f64],
    seed: u64,
) -> MacResult {
    let medium = DenseMedium::new(gains.to_vec(), noise_floor.to_vec());
    let mut hooks = OracleHooks {
        tx_times: vec![Vec::new(); medium.nodes()],
    };
    let stats = EventCore::new(cfg, &medium, &mut hooks, seed).run(1_000_000);
    let (collision_fraction, per_tx) = collision_stats(&hooks.tx_times, cfg.packet_duration_s);
    MacResult {
        tx_times: hooks.tx_times,
        collision_fraction,
        per_tx_collision_fraction: per_tx,
        duration_s: stats.duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::simulate;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    /// The slot queue and the binary heap it replaced, fed the same
    /// pushes.
    struct BothQueues {
        queue: SlotQueue,
        heap: BinaryHeap<Reverse<Ev>>,
        keys: HashSet<(u64, u32, u8, u64)>,
    }

    impl BothQueues {
        /// Pushes an event at `slot` into both unless its key is taken.
        /// Node, kind and seq come from small ranges, so same-slot ties
        /// on each key field are common; the payload numbers the event,
        /// so a misplaced or garbled one shows.
        fn push(&mut self, slot: u64, rng: &mut StdRng) {
            let id = self.keys.len() as u64;
            let ev = Ev {
                slot,
                node: rng.gen_range(0..4),
                kind: rng.gen_range(0..2),
                seq: rng.gen_range(0..3),
                start_slot: id,
                dest: id as u32 ^ 0x5a5a,
                access_s: id as f64 * 0.25,
            };
            if self.keys.insert(ev.key()) {
                self.queue.push(ev);
                self.heap.push(Reverse(ev));
            }
        }
    }

    fn same(a: &Ev, b: &Ev) -> bool {
        a.key() == b.key()
            && (a.start_slot, a.dest, a.access_s.to_bits())
                == (b.start_slot, b.dest, b.access_s.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random schedules pushed the way the core pushes (initial
        /// events from slot 0, then after each pop up to two events 1 to
        /// 10^5 slots past the popped one, some at or past the horizon)
        /// pop in the heap's `(slot, node, kind, seq)` order with the
        /// heap's pending count after every pop, and the capped drain
        /// yields the heap's remaining events in its order.
        #[test]
        fn slot_queue_pops_in_heap_order(seed in 0u64..1_000_000, cap in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let horizon = match cap {
                0 => u64::MAX,
                1 => rng.gen_range(0..300),
                _ => rng.gen_range(1..300_000),
            };
            let mut q = BothQueues {
                queue: SlotQueue::new(),
                heap: BinaryHeap::new(),
                keys: HashSet::new(),
            };
            for _ in 0..rng.gen_range(1..60) {
                q.push(rng.gen_range(0..6_000), &mut rng);
            }
            let mut budget = 1_500;
            while let Some(ev) = q.queue.pop_before(horizon) {
                let Reverse(want) = q.heap.pop().expect("heap ran out first");
                prop_assert!(same(&ev, &want), "popped {:?}, heap {:?}", ev, want);
                prop_assert!(ev.slot < horizon);
                prop_assert_eq!(q.queue.len(), q.heap.len());
                for _ in 0..rng.gen_range(0..=2) {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                    let ahead = match rng.gen_range(0..4) {
                        0 => 1,
                        1 => rng.gen_range(1..=30),
                        2 => rng.gen_range(1..=6_000),
                        _ => rng.gen_range(1..=100_000),
                    };
                    q.push(ev.slot + ahead, &mut rng);
                }
                prop_assert_eq!(q.queue.len(), q.heap.len());
            }
            prop_assert!(q.heap.peek().is_none_or(|Reverse(e)| e.slot >= horizon));
            while let Some(ev) = q.queue.pop_before(u64::MAX) {
                let Reverse(want) = q.heap.pop().expect("heap ran out first");
                prop_assert!(same(&ev, &want), "drained {:?}, heap {:?}", ev, want);
                prop_assert_eq!(q.queue.len(), q.heap.len());
            }
            prop_assert!(q.heap.is_empty());
            prop_assert_eq!(q.queue.len(), 0);
        }
    }

    fn easy(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        (vec![vec![1e-4; n]; n], vec![1e-6; n])
    }

    fn assert_results_identical(a: &MacResult, b: &MacResult) {
        assert_eq!(a.tx_times, b.tx_times);
        assert_eq!(
            a.collision_fraction.to_bits(),
            b.collision_fraction.to_bits()
        );
        assert_eq!(
            a.per_tx_collision_fraction.len(),
            b.per_tx_collision_fraction.len()
        );
        for (x, y) in a
            .per_tx_collision_fraction
            .iter()
            .zip(&b.per_tx_collision_fraction)
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
    }

    #[test]
    fn matches_oracle_with_carrier_sense() {
        let (g, nf) = easy(4);
        let cfg = MacConfig {
            max_packets: 25,
            ..MacConfig::default()
        };
        for seed in [1, 7, 42] {
            assert_results_identical(
                &simulate_events(&cfg, &g, &nf, seed),
                &simulate(&cfg, &g, &nf, seed),
            );
        }
    }

    #[test]
    fn matches_oracle_without_carrier_sense() {
        let (g, nf) = easy(3);
        let cfg = MacConfig {
            carrier_sense: false,
            max_packets: 40,
            ..MacConfig::default()
        };
        assert_results_identical(
            &simulate_events(&cfg, &g, &nf, 9),
            &simulate(&cfg, &g, &nf, 9),
        );
    }

    #[test]
    fn matches_oracle_with_hidden_terminal() {
        let mut gains = vec![vec![1e-4; 3]; 3];
        gains[0][1] = 1e-9;
        gains[1][0] = 1e-9;
        let noise = vec![1e-6; 3];
        let cfg = MacConfig {
            max_packets: 30,
            ..MacConfig::default()
        };
        assert_results_identical(
            &simulate_events(&cfg, &gains, &noise, 5),
            &simulate(&cfg, &gains, &noise, 5),
        );
    }

    #[test]
    fn single_node_never_backs_off() {
        let cfg = MacConfig {
            max_packets: 5,
            ..MacConfig::default()
        };
        let r = simulate_events(&cfg, &[vec![0.0]], &[1e-6], 3);
        assert_eq!(r.tx_times[0].len(), 5);
        assert_eq!(r.collision_fraction, 0.0);
        assert_results_identical(&r, &simulate(&cfg, &[vec![0.0]], &[1e-6], 3));
    }
}
