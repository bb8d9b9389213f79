//! The DTN relay engine: beacon-driven neighbor discovery, spray-and-wait
//! forwarding, per-hop custody transfer with RFC 6298 retry timers, and
//! duplicate suppression — one [`RelayNode`] per vessel.
//!
//! The engine is a pure state machine over `(frame in, now)` and
//! `(transmit opportunity, now)`: it owns no clock and no radio. The MAC
//! (or the ocean simulator's event core) asks [`RelayNode::next_frame`]
//! what to say when the node wins airtime, and feeds every reception to
//! [`RelayNode::on_frame`]. That keeps the whole protocol deterministic —
//! identical inputs in identical order produce identical outputs — which
//! is what the parallel ≡ serial simulator contract needs.
//!
//! Forwarding is binary spray-and-wait (Spyropoulos et al.): a bundle
//! carries a copy budget; a custodian grants `ceil(c/2)` copies to the
//! next relay and keeps `floor(c/2)`, so copies spread geometrically and
//! a single-copy holder waits for the destination itself. Copies only
//! move on a custody ACK — a lost transfer costs a retry, never a copy.
//!
//! **Crash-fault tolerance** (DESIGN.md §15). A node built with
//! [`RelayNode::with_journal`] write-ahead-logs every custody-state
//! mutation to a [`Journal`] and syncs it at the two irreversible
//! commitments — before any custody ACK leaves (the ACK *is* the
//! durability promise the upstream hop releases its copy on) and at
//! every application hand-up. [`RelayNode::crash_reboot`] models a
//! power-cycle: all volatile state dies, the journal is replayed
//! ([`crate::recovery::recover`]), retry timers re-arm fresh under
//! Karn's rule, and the recovered custody re-announces itself through
//! the ordinary forwarding path (recovered entries are `Idle` and
//! least-recently-sent, so they lead the next transmit opportunity).

use crate::beacon::{Beacon, NeighborTable};
use crate::bundle::{Bundle, BundleKey, BundleReassembler, Priority};
use crate::custody::CustodyAck;
use crate::frame::Frame;
use crate::journal::{Journal, JournalConfig, JournalStats, Record};
use crate::queue::{CustodyState, DupFilter, InsertOutcome, StoreQueue, StoredBundle};
use crate::recovery::recover;
use aqua_proto::transfer::PlanError;
use aquapp::arq::RttEstimator;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Relay engine knobs.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Store-and-forward queue capacity (bundles).
    pub queue_cap: usize,
    /// Spray-and-wait copy budget for sourced messages.
    pub spray_copies: u8,
    /// Whether hops take custody and ACK it (per-hop reliability).
    pub custody: bool,
    /// Direct mode: transmit only to the final destination, never relay —
    /// the single-hop baseline the `repro relay` experiment compares
    /// against.
    pub direct: bool,
    /// Neighbor freshness window (seconds of silence before stale).
    pub neighbor_expiry_s: f64,
    /// Custody retry timer floor (seconds).
    pub min_rto_s: f64,
    /// Custody retry timer ceiling (seconds).
    pub max_rto_s: f64,
    /// Bundles whose hop count reaches this are dropped, not re-forwarded.
    pub max_hops: u8,
    /// Duplicate-suppression window (bundle keys remembered).
    pub seen_cap: usize,
    /// Spray-and-focus: a holder that has not moved a bundle for this
    /// long hands its copies onward past the spray exclusions (the copy
    /// *moves* rather than duplicating once down to one). Pure
    /// spray-and-wait deadlocks on a static fleet — without mobility no
    /// copy ever drifts toward the destination — so stuck custodians
    /// resume forwarding at this cadence. `f64::INFINITY` restores pure
    /// wait behavior.
    pub focus_after_s: f64,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            spray_copies: 4,
            custody: true,
            direct: false,
            neighbor_expiry_s: 180.0,
            min_rto_s: 60.0,
            max_rto_s: 900.0,
            max_hops: 16,
            seen_cap: 4096,
            focus_after_s: 900.0,
        }
    }
}

/// A message handed to the application at its final destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Originating node.
    pub src: u16,
    /// Source's message sequence number.
    pub seq: u16,
    /// Reassembled payload, bit-exact.
    pub payload: Vec<u8>,
}

/// Per-node protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Bundles accepted into the local queue by [`RelayNode::source`].
    pub sourced: u64,
    /// Beacons transmitted.
    pub beacons: u64,
    /// Bundle transmissions (first sends and custody retries).
    pub forwards: u64,
    /// Fresh bundles stored on behalf of an upstream hop.
    pub custody_accepted: u64,
    /// Custody ACKs received that released or halved a stored bundle.
    pub custody_transfers: u64,
    /// Custody retry timer expirations.
    pub custody_retries: u64,
    /// Duplicate bundle receptions suppressed by the seen-set.
    pub dup_suppressed: u64,
    /// Custody ACKs re-sent for duplicate deliveries (lost-ACK recovery).
    pub dup_acks: u64,
    /// Delivered-ACKs sent for bundles known already delivered (the
    /// anti-packet that kills lingering upstream copies).
    pub cured_acks: u64,
    /// Custody ACKs received for bundles no longer (or never) held.
    pub stale_acks: u64,
    /// Bundles dropped by TTL expiry in the local queue.
    pub evictions_ttl: u64,
    /// Bundles evicted by a higher-priority arrival at capacity.
    pub evictions_cap: u64,
    /// Incoming bundles refused because the queue was full of
    /// equal-or-better traffic (upstream keeps custody).
    pub queue_rejects: u64,
    /// Bundles dropped at the hop-count ceiling.
    pub hop_drops: u64,
    /// Complete messages delivered to the application here.
    pub delivered_msgs: u64,
}

/// One crash-reboot of a node, as observed by its own ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebootRecord {
    /// Journal bytes that were durable (synced) at the crash instant.
    pub durable: u64,
    /// Records recovered by replay (durable + torn-tail prefix).
    pub replayed: u64,
    /// Recovered queue entries dropped because their TTL passed during
    /// the outage.
    pub expired: u64,
}

/// Destination-side fragment buffer for one in-progress message.
///
/// Fragments are kept whole (not folded into a [`BundleReassembler`]
/// eagerly) so the buffer round-trips through the journal: replaying
/// `FragIn` records reconstructs it bit-exactly.
#[derive(Debug, Default)]
struct PartialMessage {
    frags: BTreeMap<u16, Bundle>,
}

/// Assembles a complete fragment set into the original payload.
/// Returns `None` only if the fragments disagree on geometry — which
/// parse validation already excludes for wire-received bundles.
fn assemble_frags(frags: &BTreeMap<u16, Bundle>) -> Option<Vec<u8>> {
    let first = frags.values().next()?;
    let mut r = BundleReassembler::new(first).ok()?;
    for b in frags.values() {
        r.accept(b);
    }
    r.assemble()
}

/// One node's delay-tolerant relay stack.
#[derive(Debug)]
pub struct RelayNode {
    addr: u16,
    cfg: RelayConfig,
    queue: StoreQueue,
    seen: DupFilter,
    /// Fragment keys known delivered end-to-end: any custody offer for
    /// one is answered with a delivered-ACK instead of storage, so the
    /// "this is done" signal propagates backward hop by hop and kills
    /// every lingering spray copy it meets.
    cured: DupFilter,
    neighbors: NeighborTable,
    rtt: RttEstimator,
    acks_out: VecDeque<(u16, CustodyAck)>,
    reassembly: BTreeMap<(u16, u16), PartialMessage>,
    /// Messages already handed to the application here. Unlike the
    /// FIFO-bounded `cured` filter this set is exact: at-most-once
    /// delivery must not decay under memory pressure (the set costs
    /// 4 bytes per delivered message, a far cheaper promise than the
    /// duplicate hand-up it prevents).
    delivered_here: BTreeSet<(u16, u16)>,
    /// Write-ahead journal; `None` models a volatile node.
    journal: Option<Journal>,
    base_seed: u64,
    reboot_log: Vec<RebootRecord>,
    beacon_seq: u16,
    rr_cursor: usize,
    stats: RelayStats,
}

impl RelayNode {
    /// A fresh volatile node at `addr`; `seed` randomizes only its retry
    /// jitter.
    pub fn new(addr: u16, cfg: RelayConfig, seed: u64) -> Self {
        Self::build(addr, cfg, seed, None)
    }

    /// A node whose custody state is journaled to simulated flash and
    /// survives [`Self::crash_reboot`].
    pub fn with_journal(addr: u16, cfg: RelayConfig, seed: u64, jcfg: JournalConfig) -> Self {
        Self::build(addr, cfg, seed, Some(Journal::new(jcfg)))
    }

    fn build(addr: u16, cfg: RelayConfig, seed: u64, journal: Option<Journal>) -> Self {
        let rtt = RttEstimator::new(seed, cfg.min_rto_s, cfg.max_rto_s);
        Self {
            addr,
            cfg: cfg.clone(),
            queue: StoreQueue::new(cfg.queue_cap),
            seen: DupFilter::new(cfg.seen_cap),
            cured: DupFilter::new(cfg.seen_cap),
            neighbors: NeighborTable::new(cfg.neighbor_expiry_s),
            rtt,
            acks_out: VecDeque::new(),
            reassembly: BTreeMap::new(),
            delivered_here: BTreeSet::new(),
            journal,
            base_seed: seed,
            reboot_log: Vec::new(),
            beacon_seq: 0,
            rr_cursor: 0,
            stats: RelayStats::default(),
        }
    }

    /// This node's address.
    pub fn addr(&self) -> u16 {
        self.addr
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// Bundles currently in custody.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Keys of the bundles currently in custody (audit snapshot).
    pub fn queue_keys(&self) -> Vec<BundleKey> {
        self.queue
            .entries()
            .iter()
            .map(|e| e.bundle.key())
            .collect()
    }

    /// `(key, copies)` for every custody entry, in queue order
    /// (recovery-equivalence tests compare this across a crash).
    pub fn queue_snapshot(&self) -> Vec<(BundleKey, u8)> {
        self.queue
            .entries()
            .iter()
            .map(|e| (e.bundle.key(), e.copies))
            .collect()
    }

    /// Fragment keys sitting in this node's reassembly buffers (audit
    /// snapshot: custody of these has been accepted by the destination
    /// even though no queue entry exists).
    pub fn pending_frag_keys(&self) -> Vec<BundleKey> {
        self.reassembly
            .values()
            .flat_map(|p| p.frags.values().map(|b| b.key()))
            .collect()
    }

    /// `(src, seq)` of every message delivered to the application here.
    pub fn delivered_message_ids(&self) -> Vec<(u16, u16)> {
        self.delivered_here.iter().copied().collect()
    }

    /// Crash-reboots survived so far, with their recovery ledgers.
    pub fn reboot_log(&self) -> &[RebootRecord] {
        &self.reboot_log
    }

    /// Journal counters, if this node journals.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Appends one record to the journal (no-op on volatile nodes) and
    /// compacts when the log exceeds its budget.
    fn jot(&mut self, rec: Record) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        j.append(&rec);
        if j.wants_compaction() {
            let snap = snapshot_records(
                &self.queue,
                &self.seen,
                &self.cured,
                &self.reassembly,
                &self.delivered_here,
            );
            j.compact(&snap);
        }
    }

    /// Accepts locally-sourced bundles into the queue; returns how many
    /// were stored (the rest were refused by a full queue).
    pub fn source(&mut self, bundles: Vec<Bundle>, now_s: f64) -> usize {
        let mut stored = 0;
        for b in bundles {
            let key = b.key();
            let expires_s = now_s + b.ttl_s as f64;
            let entry = StoredBundle {
                came_from: self.addr,
                copies: b.copies,
                bundle: b,
                expires_s,
                last_sent_s: 0.0,
                state: CustodyState::Idle,
                retries: 0,
                sprayed_to: Vec::new(),
            };
            let copies = entry.copies;
            let bundle = entry.bundle.clone();
            match self.queue.insert(entry) {
                outcome @ (InsertOutcome::Stored | InsertOutcome::StoredEvicting(_)) => {
                    if let InsertOutcome::StoredEvicting(victim) = outcome {
                        self.stats.evictions_cap += 1;
                        self.jot(Record::Release { key: victim });
                    }
                    self.seen.insert(key);
                    self.jot(Record::Accept {
                        came_from: self.addr,
                        copies,
                        expires_s,
                        bundle,
                    });
                    stored += 1;
                }
                InsertOutcome::Rejected => self.stats.queue_rejects += 1,
            }
        }
        // Accepting application traffic is the third irreversible
        // commitment (besides ACK emission and delivery): the app hands
        // the message down exactly once and will not re-offer it, so its
        // custody must be durable before `source` returns.
        if stored > 0 {
            if let Some(j) = self.journal.as_mut() {
                j.sync();
            }
        }
        self.stats.sourced += stored as u64;
        stored
    }

    /// Advances timers: TTL expiry and custody retry deadlines. Called
    /// implicitly by [`Self::next_frame`]; callers with no airtime can
    /// invoke it directly.
    pub fn tick(&mut self, now_s: f64) {
        let dead = self.queue.expire(now_s);
        self.stats.evictions_ttl += dead.len() as u64;
        for key in dead {
            self.jot(Record::Release { key });
        }
        self.neighbors.prune(now_s);
        let mut losses = 0u32;
        for e in self.queue.entries_mut() {
            if let CustodyState::AwaitingAck { deadline_s, .. } = e.state {
                if deadline_s <= now_s {
                    e.state = CustodyState::Idle;
                    e.retries += 1;
                    losses += 1;
                    self.stats.custody_retries += 1;
                }
            }
        }
        for _ in 0..losses {
            self.rtt.observe_loss();
        }
    }

    /// What to transmit when this node wins airtime at `now_s`:
    /// pending custody ACKs first, then the most urgent forwardable
    /// bundle, else a discovery beacon round-robined over `candidates`
    /// (the physical nodes in range — broadcast emulated as unicast).
    pub fn next_frame(&mut self, now_s: f64, candidates: &[u16]) -> Option<(u16, Frame)> {
        self.tick(now_s);
        if let Some((hop, ack)) = self.acks_out.pop_front() {
            // Sync-before-ACK: the custody ACK is the durability promise
            // the upstream hop releases its copy on, so every record
            // behind it must hit stable storage before the ACK can leave.
            // A crash *before* this point means no promise was made (the
            // upstream retries); a crash after replays the acceptance.
            if let Some(j) = self.journal.as_mut() {
                j.sync();
            }
            return Some((hop, Frame::CustodyAck(ack)));
        }
        if let Some((idx, target)) = self.select_bundle(now_s, candidates) {
            return Some(self.transmit_bundle(idx, target, now_s));
        }
        if self.cfg.direct || candidates.is_empty() {
            return None;
        }
        let dest = candidates[self.rr_cursor % candidates.len()];
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        self.beacon_seq = self.beacon_seq.wrapping_add(1);
        self.stats.beacons += 1;
        Some((
            dest,
            Frame::Beacon(Beacon {
                node: self.addr,
                seq: self.beacon_seq,
                backlog: self.queue.len().min(255) as u8,
            }),
        ))
    }

    /// Most urgent forwardable bundle and its next hop: keyed by
    /// `(priority, least recently sent, closest expiry, key)` —
    /// deterministic, and rotation over equal-priority bundles is built
    /// into the second component.
    fn select_bundle(&self, now_s: f64, candidates: &[u16]) -> Option<(usize, u16)> {
        self.queue
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == CustodyState::Idle)
            .filter_map(|(i, e)| self.target_for(e, now_s, candidates).map(|t| (i, e, t)))
            .min_by_key(|(i, e, _)| {
                (
                    e.bundle.priority,
                    e.last_sent_s.to_bits(),
                    e.expires_s.to_bits(),
                    e.bundle.key(),
                    *i,
                )
            })
            .map(|(i, _, t)| (i, t))
    }

    /// Where a stored bundle can go right now: the destination if the
    /// radio reports a viable link to it (`candidates`) or it is a fresh
    /// neighbor (always, in direct mode) — spray-and-wait's wait phase
    /// "encountering" the destination — else, with at least two copies
    /// and hop budget left, the first fresh neighbor not yet sprayed and
    /// not the hop it came from.
    fn target_for(&self, e: &StoredBundle, now_s: f64, candidates: &[u16]) -> Option<u16> {
        let dst = e.bundle.dst;
        if self.cfg.direct {
            return Some(dst);
        }
        if candidates.contains(&dst) || self.neighbors.is_fresh(dst, now_s) {
            return Some(dst);
        }
        if e.bundle.hops >= self.cfg.max_hops {
            return None;
        }
        // The focus phase ignores the spray exclusions: a custodian that
        // has sat on the bundle past the focus timeout may push copies
        // at neighbors it already sprayed (the receiver's duplicate
        // filter arbitrates).
        let focused = now_s - e.last_sent_s >= self.cfg.focus_after_s;
        if e.copies < 2 && !focused {
            return None;
        }
        // Rotate over the eligible fresh neighbors rather than always
        // taking the lowest address: the table iterates ascending, and a
        // fixed pick would diffuse every spray wave toward node 0's
        // corner of the deployment instead of outward.
        let mut eligible: Vec<u16> = self
            .neighbors
            .fresh(now_s)
            .filter(|&n| {
                n != self.addr && n != dst && n != e.came_from && !e.sprayed_to.contains(&n)
            })
            .collect();
        if eligible.is_empty() && focused {
            // Focus fallback: every unsprayed neighbor is exhausted, so
            // recycle sprayed ones — the receiver absorbs the copies if
            // it still holds the bundle, or walks them onward if not.
            eligible = self
                .neighbors
                .fresh(now_s)
                .filter(|&n| n != self.addr && n != dst && n != e.came_from)
                .collect();
        }
        if eligible.is_empty() {
            return None;
        }
        Some(eligible[self.rr_cursor % eligible.len()])
    }

    /// Emits the entry at `idx` toward `target`, arming the custody timer.
    fn transmit_bundle(&mut self, idx: usize, target: u16, now_s: f64) -> (u16, Frame) {
        let rto = self.rtt.next_wait_s();
        // Sprays consume a rotation step so the next spray (of any
        // bundle) starts from a different point in the fresh list.
        if target != self.queue.entries()[idx].bundle.dst {
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
        }
        let e = &mut self.queue.entries_mut()[idx];
        let mut wire = e.bundle.clone();
        // Remaining lifetime travels on the wire so the next custodian
        // inherits the same absolute deadline (±1 s of rounding).
        wire.ttl_s = ((e.expires_s - now_s).ceil().max(1.0) as u64).min(u16::MAX as u64) as u16;
        wire.custody = self.cfg.custody && e.bundle.custody;
        wire.copies = if target == e.bundle.dst {
            e.copies
        } else {
            e.copies.div_ceil(2)
        };
        e.last_sent_s = now_s;
        self.stats.forwards += 1;
        if wire.custody {
            e.state = CustodyState::AwaitingAck {
                hop: target,
                sent_s: now_s,
                deadline_s: now_s + rto,
            };
        } else {
            // Fire-and-forget spray: copies move on transmission.
            if target == wire.dst || e.copies <= 1 {
                self.queue.remove(idx);
            } else {
                e.copies -= wire.copies;
                e.sprayed_to.push(target);
            }
        }
        (target, Frame::Bundle(wire))
    }

    /// Feeds one received frame; returns any messages completed for the
    /// application at this node.
    pub fn on_frame(&mut self, from: u16, frame: Frame, now_s: f64) -> Vec<Delivered> {
        self.neighbors.hear(from, now_s);
        match frame {
            Frame::Beacon(b) => {
                self.neighbors.hear(b.node, now_s);
                Vec::new()
            }
            Frame::CustodyAck(a) => {
                self.on_ack(a, now_s);
                Vec::new()
            }
            Frame::Bundle(b) => self.on_bundle(from, b, now_s),
        }
    }

    fn on_ack(&mut self, a: CustodyAck, now_s: f64) {
        if a.delivered {
            // End-to-end completion is global knowledge: remember it even
            // when the ACK is stale here, and pass it on when anyone
            // offers this fragment again.
            if !self.cured.contains(a.key()) {
                self.jot(Record::Cure { key: a.key() });
            }
            self.cured.insert(a.key());
        }
        let Some(idx) = self.queue.position(a.key()) else {
            self.stats.stale_acks += 1;
            return;
        };
        let e = &mut self.queue.entries_mut()[idx];
        let CustodyState::AwaitingAck { hop, sent_s, .. } = e.state else {
            self.stats.stale_acks += 1;
            return;
        };
        if hop != a.custodian {
            self.stats.stale_acks += 1;
            return;
        }
        // Karn's rule: only un-retried transfers feed the RTT estimator.
        if e.retries == 0 {
            self.rtt.observe_rtt(now_s - sent_s);
        }
        self.stats.custody_transfers += 1;
        if a.delivered || hop == e.bundle.dst {
            self.queue.remove(idx);
            self.jot(Record::Release { key: a.key() });
            return;
        }
        // Binary spray: the new custodian took ceil(c/2); keep the rest.
        let granted = e.copies.div_ceil(2);
        let kept = e.copies - granted;
        if kept == 0 {
            self.queue.remove(idx);
            self.jot(Record::Release { key: a.key() });
        } else {
            e.copies = kept;
            e.sprayed_to.push(hop);
            e.state = CustodyState::Idle;
            self.jot(Record::Copies {
                key: a.key(),
                copies: kept,
            });
        }
    }

    fn on_bundle(&mut self, from: u16, b: Bundle, now_s: f64) -> Vec<Delivered> {
        if b.dst == self.addr {
            return self.deliver_local(from, b);
        }
        if self.cfg.direct {
            // Direct mode never relays third-party traffic.
            return Vec::new();
        }
        let key = b.key();
        if self.cured.contains(key) {
            // Known delivered end-to-end: the anti-packet. Answer with a
            // delivered-ACK so the sender drops its copies outright —
            // without this, spray copies of finished fragments circulate
            // until TTL, crowding live traffic off the channel.
            if b.custody {
                self.stats.cured_acks += 1;
                self.push_ack(from, &b, true);
            }
            return Vec::new();
        }
        if self.seen.contains(key) {
            if let Some(idx) = self.queue.position(key) {
                // Still holding this bundle: absorb the copies the sender
                // is granting (conservation — it releases them on our
                // ACK) and answer again; custody acceptance is
                // idempotent. Without the absorb, a retry or focus walk
                // into a live custodian would quietly shrink the
                // bundle's global copy budget.
                self.stats.dup_suppressed += 1;
                let new_copies = self.queue.entries_mut()[idx]
                    .copies
                    .saturating_add(b.copies);
                self.queue.entries_mut()[idx].copies = new_copies;
                self.jot(Record::Copies {
                    key,
                    copies: new_copies,
                });
                if b.custody {
                    self.stats.dup_acks += 1;
                    self.push_ack(from, &b, false);
                }
                return Vec::new();
            }
            // Seen but moved on: fall through and take custody *again*.
            // Staying silent here blackholes the bundle — on a sparse cut
            // (one surfacing gateway bridging a partition) every copy
            // eventually routes back through a node that has already
            // relayed it once, and a node that neither stores nor ACKs
            // leaves the sender retrying into the void forever. Re-
            // acceptance conserves copies exactly like a first
            // acceptance: the sender releases the grant on our ACK.
        }
        if b.hops >= self.cfg.max_hops || b.ttl_s == 0 {
            self.stats.hop_drops += 1;
            return Vec::new();
        }
        let custody = b.custody;
        let expires_s = now_s + b.ttl_s as f64;
        let stored = Bundle {
            hops: b.hops + 1,
            ..b.clone()
        };
        let entry = StoredBundle {
            came_from: from,
            copies: b.copies,
            expires_s,
            bundle: stored.clone(),
            last_sent_s: now_s,
            state: CustodyState::Idle,
            retries: 0,
            sprayed_to: Vec::new(),
        };
        match self.queue.insert(entry) {
            outcome @ (InsertOutcome::Stored | InsertOutcome::StoredEvicting(_)) => {
                if let InsertOutcome::StoredEvicting(victim) = outcome {
                    self.stats.evictions_cap += 1;
                    self.jot(Record::Release { key: victim });
                }
                self.seen.insert(key);
                self.jot(Record::Accept {
                    came_from: from,
                    copies: b.copies,
                    expires_s,
                    bundle: stored,
                });
                self.stats.custody_accepted += 1;
                if custody {
                    self.push_ack(from, &b, false);
                }
            }
            InsertOutcome::Rejected => {
                // Full of equal-or-better traffic: refuse custody (no
                // ACK); the upstream holder keeps the bundle and retries.
                self.stats.queue_rejects += 1;
            }
        }
        Vec::new()
    }

    /// Destination-side handling: always ACK (idempotently, even for
    /// duplicates — the sender's ACK may have drowned), reassemble, and
    /// hand completed messages up exactly once.
    ///
    /// At-most-once is enforced by the exact `delivered_here` set, not
    /// the FIFO-bounded `cured` filter: a delivered key evicted from
    /// `cured` under pressure could otherwise let a lingering spray copy
    /// re-open the reassembly buffer and hand the message up twice.
    fn deliver_local(&mut self, from: u16, b: Bundle) -> Vec<Delivered> {
        let slot = (b.src, b.seq);
        if self.delivered_here.contains(&slot) {
            self.stats.dup_suppressed += 1;
            if b.custody {
                self.push_ack(from, &b, true);
            }
            return Vec::new();
        }
        if b.custody {
            self.push_ack(from, &b, true);
        }
        let partial = self.reassembly.entry(slot).or_default();
        if partial.frags.contains_key(&b.frag_index) {
            self.stats.dup_suppressed += 1;
            return Vec::new();
        }
        partial.frags.insert(b.frag_index, b.clone());
        let ready = partial.frags.len() == b.frag_count as usize;
        self.jot(Record::FragIn { bundle: b.clone() });
        if !ready {
            return Vec::new();
        }
        // Safe to unwrap-free assemble: a complete set of parse-valid
        // fragments always reconstructs (geometry is CRC-validated per
        // fragment); a disagreeing set is dropped, never panicked on.
        let done = self
            .reassembly
            .get(&slot)
            .and_then(|p| assemble_frags(&p.frags));
        let Some(payload) = done else {
            return Vec::new();
        };
        self.reassembly.remove(&slot);
        self.delivered_here.insert(slot);
        self.jot(Record::Deliver {
            src: b.src,
            seq: b.seq,
        });
        // Delivery is irreversible at the application layer: make the
        // journal agree before anything else can happen.
        if let Some(j) = self.journal.as_mut() {
            j.sync();
        }
        self.stats.delivered_msgs += 1;
        vec![Delivered {
            src: b.src,
            seq: b.seq,
            payload,
        }]
    }

    /// Power-cycles the node at `now_s`: every volatile structure dies,
    /// then (if journaling) the stable log plus the torn tail prefix
    /// selected by `torn_seed` is replayed into fresh state.
    ///
    /// What deliberately does *not* survive, even with a journal:
    /// - retry state — recovered entries come back `Idle` with zero
    ///   retries; an ACK for a pre-crash transmission arrives as stale
    ///   (idempotent at both ends);
    /// - the RTT estimator — Karn's rule across reboot: no sample that
    ///   straddles the outage may feed the filter, so a fresh
    ///   reboot-salted estimator is seeded instead;
    /// - neighbors, pending ACKs, beacon/rotation cursors — all
    ///   re-learned or re-offered through the ordinary protocol.
    pub fn crash_reboot(&mut self, now_s: f64, torn_seed: u64) {
        let n = self.reboot_log.len() as u64 + 1;
        self.queue = StoreQueue::new(self.cfg.queue_cap);
        self.seen = DupFilter::new(self.cfg.seen_cap);
        self.cured = DupFilter::new(self.cfg.seen_cap);
        self.neighbors = NeighborTable::new(self.cfg.neighbor_expiry_s);
        self.rtt = RttEstimator::new(
            self.base_seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.cfg.min_rto_s,
            self.cfg.max_rto_s,
        );
        self.acks_out.clear();
        self.reassembly.clear();
        self.delivered_here.clear();
        self.beacon_seq = 0;
        self.rr_cursor = 0;
        let Some(j) = self.journal.as_mut() else {
            self.reboot_log.push(RebootRecord {
                durable: 0,
                replayed: 0,
                expired: 0,
            });
            return;
        };
        let (durable, records) = j.crash(torn_seed);
        let rec = recover(&records, now_s);
        for key in &rec.seen_ops {
            self.seen.insert(*key);
        }
        for key in &rec.cured_ops {
            self.cured.insert(*key);
        }
        for entry in rec.entries {
            // Replaying into an empty queue of the same capacity cannot
            // reject: the journal never holds more live entries than the
            // queue did.
            self.queue.insert(entry);
        }
        for ((src, seq), frags) in rec.frags {
            self.reassembly.insert((src, seq), PartialMessage { frags });
        }
        self.delivered_here = rec.delivered;
        self.stats.evictions_ttl += rec.expired as u64;
        self.reboot_log.push(RebootRecord {
            durable,
            replayed: records.len() as u64,
            expired: rec.expired as u64,
        });
    }

    fn push_ack(&mut self, hop: u16, b: &Bundle, delivered: bool) {
        self.acks_out.push_back((
            hop,
            CustodyAck {
                custodian: self.addr,
                src: b.src,
                seq: b.seq,
                frag_index: b.frag_index,
                delivered,
            },
        ));
    }
}

/// Flattens live relay state into a compacted record chain: replaying
/// it through [`recover`] reproduces the state exactly. Free function
/// (not a method) so [`RelayNode::jot`] can borrow the fields disjointly
/// from the journal it is writing to.
fn snapshot_records(
    queue: &StoreQueue,
    seen: &DupFilter,
    cured: &DupFilter,
    reassembly: &BTreeMap<(u16, u16), PartialMessage>,
    delivered_here: &BTreeSet<(u16, u16)>,
) -> Vec<Record> {
    let mut out = Vec::new();
    // Seen keys first, in FIFO order, so replay reproduces the filter's
    // eviction horizon; Accept records re-push held keys harmlessly
    // (DupFilter re-insert of a present key is a no-op).
    for key in seen.iter() {
        out.push(Record::Seen { key: *key });
    }
    for key in cured.iter() {
        out.push(Record::Cure { key: *key });
    }
    for e in queue.entries() {
        out.push(Record::Accept {
            came_from: e.came_from,
            copies: e.copies,
            expires_s: e.expires_s,
            bundle: e.bundle.clone(),
        });
    }
    for p in reassembly.values() {
        for b in p.frags.values() {
            out.push(Record::FragIn { bundle: b.clone() });
        }
    }
    for (src, seq) in delivered_here {
        out.push(Record::Deliver {
            src: *src,
            seq: *seq,
        });
    }
    out
}

/// Convenience: sources one application message into `node` with the
/// node's configured spray budget. Returns how many bundles the queue
/// stored, or the fragmentation error (an empty or oversized payload, a
/// zero fragment size) with nothing queued.
#[allow(clippy::too_many_arguments)]
pub fn source_message(
    node: &mut RelayNode,
    dst: u16,
    seq: u16,
    priority: Priority,
    ttl_s: u16,
    payload: &[u8],
    frag_bytes: u8,
    now_s: f64,
) -> Result<usize, PlanError> {
    let copies = if node.cfg.direct {
        1
    } else {
        node.cfg.spray_copies
    };
    let bundles = crate::bundle::fragment_message(
        node.addr,
        dst,
        seq,
        priority,
        node.cfg.custody,
        ttl_s,
        copies,
        payload,
        frag_bytes,
    )?;
    Ok(node.source(bundles, now_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RelayConfig {
        RelayConfig {
            min_rto_s: 10.0,
            max_rto_s: 40.0,
            ..RelayConfig::default()
        }
    }

    fn pump(from: &mut RelayNode, to: &mut RelayNode, now: f64, cands: &[u16]) -> Vec<Delivered> {
        let Some((dest, frame)) = from.next_frame(now, cands) else {
            return Vec::new();
        };
        assert_eq!(dest, to.addr());
        // Per-hop wire round-trip, as the simulator does.
        let frame = Frame::try_from_bits(&frame.to_bits()).expect("wire roundtrip");
        to.on_frame(from.addr(), frame, now + 1.0)
    }

    #[test]
    fn two_node_custody_handoff_delivers_and_releases() {
        let mut a = RelayNode::new(0, cfg(), 1);
        let mut b = RelayNode::new(1, cfg(), 2);
        // A hears B, so B is a fresh neighbor (and the destination).
        a.on_frame(
            1,
            Frame::Beacon(Beacon {
                node: 1,
                seq: 0,
                backlog: 0,
            }),
            0.0,
        );
        assert_eq!(
            source_message(&mut a, 1, 0, Priority::Chat, 600, &[1, 2, 3, 4, 5], 4, 0.0),
            Ok(2)
        );
        let got = pump(&mut a, &mut b, 10.0, &[1]);
        assert!(got.is_empty(), "one fragment is not a message");
        // B's delivered-ACK releases A's first fragment.
        let acked = pump(&mut b, &mut a, 12.0, &[0]);
        assert!(acked.is_empty());
        assert_eq!(a.queue_len(), 1);
        let got = pump(&mut a, &mut b, 20.0, &[1]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![1, 2, 3, 4, 5]);
        pump(&mut b, &mut a, 22.0, &[0]);
        assert_eq!(a.queue_len(), 0, "custody fully released");
        assert_eq!(b.stats().delivered_msgs, 1);
    }

    #[test]
    fn empty_payload_is_a_typed_error_and_queues_nothing() {
        let mut a = RelayNode::new(0, cfg(), 1);
        assert_eq!(
            source_message(&mut a, 1, 0, Priority::Chat, 600, &[], 4, 0.0),
            Err(PlanError::EmptyTransfer)
        );
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn lost_ack_triggers_rto_retry_and_duplicate_is_reacked() {
        let mut a = RelayNode::new(0, cfg(), 1);
        let mut b = RelayNode::new(1, cfg(), 2);
        a.on_frame(
            1,
            Frame::Beacon(Beacon {
                node: 1,
                seq: 0,
                backlog: 0,
            }),
            0.0,
        );
        source_message(&mut a, 1, 0, Priority::Sos, 600, &[7; 3], 4, 0.0).expect("valid payload");
        let (_, f1) = a.next_frame(0.0, &[1]).unwrap();
        let got = b.on_frame(0, f1, 1.0);
        assert_eq!(got.len(), 1, "single-fragment message completes");
        // B's ACK is lost at sea. A times out (max_rto 40 s) and resends.
        let (dest, f2) = a.next_frame(50.0, &[1]).expect("retry after RTO");
        assert_eq!(dest, 1);
        assert!(matches!(f2, Frame::Bundle(_)));
        assert_eq!(a.stats().custody_retries, 1);
        // B sees a duplicate delivery: no second hand-up, but a fresh ACK.
        let got = b.on_frame(0, f2, 51.0);
        assert!(got.is_empty(), "duplicate never re-delivers");
        assert_eq!(b.stats().delivered_msgs, 1);
        let (_, ack1) = b.next_frame(52.0, &[0]).unwrap();
        let (_, ack2) = b.next_frame(53.0, &[0]).unwrap();
        assert!(matches!(ack1, Frame::CustodyAck(_)));
        assert!(matches!(ack2, Frame::CustodyAck(_)));
        a.on_frame(1, ack1, 54.0);
        assert_eq!(a.queue_len(), 0);
        // The second (duplicate) ACK is stale at A, harmlessly.
        a.on_frame(1, ack2, 55.0);
        assert_eq!(a.stats().stale_acks, 1);
    }

    #[test]
    fn spray_halves_copies_and_skips_sprayed_neighbors() {
        let mut a = RelayNode::new(0, cfg(), 1);
        // Destination 9 is NOT a neighbor; relays 1 and 2 are.
        for n in [1, 2] {
            a.on_frame(
                n,
                Frame::Beacon(Beacon {
                    node: n,
                    seq: 0,
                    backlog: 0,
                }),
                0.0,
            );
        }
        source_message(&mut a, 9, 0, Priority::Chat, 600, &[1], 4, 0.0).expect("valid payload");
        let (dest, f) = a.next_frame(1.0, &[1, 2]).unwrap();
        assert_eq!(dest, 1, "first fresh neighbor in address order");
        let Frame::Bundle(w) = f else {
            panic!("expected bundle")
        };
        assert_eq!(w.copies, 2, "ceil(4/2) granted");
        // ACK from 1: A keeps floor(4/2) = 2 and marks 1 sprayed.
        a.on_ack(
            CustodyAck {
                custodian: 1,
                src: 0,
                seq: 0,
                frag_index: 0,
                delivered: false,
            },
            2.0,
        );
        assert_eq!(a.queue_len(), 1);
        let (dest, _) = a.next_frame(3.0, &[1, 2]).unwrap();
        assert_eq!(dest, 2, "neighbor 1 already sprayed");
        a.on_ack(
            CustodyAck {
                custodian: 2,
                src: 0,
                seq: 0,
                frag_index: 0,
                delivered: false,
            },
            4.0,
        );
        // One copy left: wait for the destination, beacon meanwhile.
        let (_, f) = a.next_frame(5.0, &[1, 2]).unwrap();
        assert!(matches!(f, Frame::Beacon(_)), "single copy waits for dst");
    }

    #[test]
    fn crash_reboot_keeps_acked_custody_and_volatile_loses_it() {
        let b = crate::bundle::fragment_message(0, 9, 0, Priority::Chat, true, 600, 4, &[7; 5], 4)
            .unwrap()
            .remove(0);
        let mut r = RelayNode::with_journal(5, cfg(), 3, JournalConfig::default());
        r.on_frame(0, Frame::Bundle(b.clone()), 1.0);
        assert_eq!(r.queue_len(), 1);
        // The custody ACK pops — syncing the journal before it leaves.
        let (_, f) = r.next_frame(2.0, &[0]).unwrap();
        assert!(matches!(f, Frame::CustodyAck(_)));
        r.crash_reboot(10.0, 0xDEAD);
        assert_eq!(r.queue_len(), 1, "acked custody survives the reboot");
        assert_eq!(r.reboot_log().len(), 1);
        assert!(r.reboot_log()[0].durable >= 1);
        assert!(r.reboot_log()[0].replayed >= r.reboot_log()[0].durable);

        let mut v = RelayNode::new(5, cfg(), 3);
        v.on_frame(0, Frame::Bundle(b), 1.0);
        v.next_frame(2.0, &[0]);
        v.crash_reboot(10.0, 0xDEAD);
        assert_eq!(v.queue_len(), 0, "volatile node loses custody");
        assert_eq!(
            v.reboot_log(),
            &[RebootRecord {
                durable: 0,
                replayed: 0,
                expired: 0
            }]
        );
    }

    #[test]
    fn delivery_memory_survives_crash_without_double_delivery() {
        let mut d = RelayNode::with_journal(9, cfg(), 4, JournalConfig::default());
        let frags =
            crate::bundle::fragment_message(0, 9, 0, Priority::Chat, true, 600, 1, &[1; 6], 4)
                .unwrap();
        assert_eq!(frags.len(), 2);
        let mut got = Vec::new();
        for f in &frags {
            got.extend(d.on_frame(0, Frame::Bundle(f.clone()), 1.0));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(d.stats().delivered_msgs, 1);
        // Delivery syncs the journal, so the crash cannot unwind it.
        d.crash_reboot(50.0, 7);
        let again = d.on_frame(0, Frame::Bundle(frags[0].clone()), 60.0);
        assert!(
            again.is_empty(),
            "post-reboot duplicate must not re-deliver"
        );
        assert_eq!(d.stats().delivered_msgs, 1);
        assert_eq!(d.delivered_message_ids(), vec![(0, 0)]);
    }

    #[test]
    fn direct_mode_never_relays() {
        let mut r = RelayNode::new(
            5,
            RelayConfig {
                direct: true,
                ..cfg()
            },
            3,
        );
        let b = crate::bundle::fragment_message(0, 9, 0, Priority::Chat, true, 60, 1, &[1], 4)
            .unwrap()
            .remove(0);
        r.on_frame(0, Frame::Bundle(b), 1.0);
        assert_eq!(r.queue_len(), 0);
        assert!(
            r.next_frame(2.0, &[0]).is_none(),
            "no beacons in direct mode"
        );
    }
}
