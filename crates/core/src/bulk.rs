//! Bulk transfer engine: selective-repeat ARQ over the packet trial stack.
//!
//! Chat messages ride stop-and-wait ([`crate::arq`]); a file or image
//! cannot — one round trip per 16-bit packet would take minutes per
//! kilobyte. This module drives the [`aqua_proto::transfer`] data plane
//! (segmentation + Reed–Solomon outer code + reassembly) through full
//! sample-level packet exchanges:
//!
//! - Alice sends a *window* of fragments back to back, each one a complete
//!   OFDM packet exchange ([`run_trial`]) carrying `seq | payload | crc16`.
//! - Bob parses each decoded payload with [`Fragment::from_bits`]; a CRC
//!   failure (or a lost packet) is an *erasure* the outer RS code can
//!   absorb without any retransmission.
//! - After the window Bob answers with a **block ACK** on the reverse
//!   link: a short frame of single-tone symbols (the paper's ACK
//!   primitive, §2.3) carrying a done flag, the lowest sequence number he
//!   still needs, and a bitmap of needs over the next window. A CRC-16
//!   plus a checksum tone guard the frame; any undecodable, checksum- or
//!   CRC-failing frame discards the whole block ACK, and Alice simply
//!   resends — the receiver's duplicate suppression absorbs the overlap.
//! - Alice retires acknowledged fragments and refills the window with the
//!   lowest still-pending sequence numbers (selective repeat: only what
//!   the receiver actually needs is retransmitted, and fragments of
//!   RS-complete generations are never chased at all).
//!
//! One sender round loop drives that machinery (DESIGN.md §13). A round
//! releases parity, sends the burst, and solicits the block ACK; a
//! suspend probe is the same burst-then-ACK exchange with one fragment and
//! one ACK try. Two engines are that loop with adaptation on or off:
//!
//! - [`run_adaptive_transfer`] — the robust engine: a
//!   [`DegradationLadder`] shrinks the window and releases per-generation
//!   parity as the measured per-round erasure rate climbs (and recovers
//!   when it clears); an [`RttEstimator`] paces everything with capped,
//!   jittered backoff; and **suspend/resume** parks the transfer when the
//!   link goes fully dead (a blackout), probing at backed-off intervals
//!   instead of burning the round budget, then resuming the window where
//!   it left off.
//! - [`run_bulk_transfer`] — the static engine: adaptation off.
//!   Predictable, and the baseline the fault experiments compare against.
//!   It differs from the adaptive engine in four places only: every
//!   parity fragment is released at the start (so parity release is a
//!   no-op and the ladder's level-0 window is the configured one); each
//!   round tries its block ACK once; seeds are keyed by round rather than
//!   by a per-exchange counter; and there is no ladder, dead-round or
//!   suspend logic.
//!
//! Time-varying impairments come from the [`aqua_channel::fault`] layer:
//! the loop advances one session clock (airtime + suspension waits) and
//! evaluates the configured [`FaultSchedule`] on it, so a 30 s blackout in
//! schedule time covers exactly the packets whose exchanges overlap it.
//!
//! A burst without a fault schedule fans its fragment exchanges out across
//! a [`Pool`] sized from `AQUA_PAR_THREADS` (every core when unset), one
//! pool per transfer. With no schedule an exchange is a pure function of
//! its fragment and seed, and the results are booked on the session clock
//! in send order, so every output is bit-identical at any worker count. A
//! scheduled burst stays a chain: each packet starts when the previous
//! one ends, and that instant depends on the previous packet's outcome.
//!
//! Airtime accounting matches [`crate::arq`]: every forward attempt pays
//! header + gap (+ data section when transmitted), every block ACK pays
//! its tone symbols. Suspension waits accrue separately
//! ([`BulkOutcome::suspended_s`]) — a parked radio is not airtime.

use crate::arq::{attempt_airtime_s, RttEstimator};
use crate::trial::{run_trial, TrialConfig};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_coding::bits::{bits_to_bytes, bits_to_value, value_to_bits};
use aqua_coding::crc::crc16;
use aqua_par::Pool;
use aqua_phy::feedback::{decode_tone, encode_tone};
use aqua_phy::params::OfdmParams;
use aqua_proto::transfer::{
    Accept, Fragment, PlanError, Reassembler, TransferParams, TransferPlan,
};

/// Payload bits carried per block-ACK tone symbol. The tone alphabet has
/// `num_bins` = 60 symbols; 5 bits (32 values) leaves headroom so a
/// slightly mistuned decode cannot alias into a valid symbol.
pub const ACK_TONE_BITS: usize = 5;

/// Bin offset of the second (frequency-diversity) copy of each block-ACK
/// tone: 28 bins = 1.4 kHz, the largest shift that keeps the shifted
/// alphabet (`31 + 28 = 59`) inside the 60 usable bins.
pub const ACK_DIVERSITY_SHIFT: usize = 28;

/// CRC bits appended to the block-ACK content before tone packing. The
/// per-tone XOR checksum alone admits compensating two-tone corruptions;
/// the CRC-16 makes a falsely *accepted* frame (and in particular a
/// corrupted frame parsing as a valid `done` ACK) astronomically
/// unlikely — the property the ACK fuzz suite pins.
pub const ACK_CRC_BITS: usize = 16;

/// All-erasure rounds with no decodable block ACK before the adaptive
/// sender declares the link dead and suspends.
pub const SUSPEND_AFTER_DEAD_ROUNDS: usize = 2;

/// Total resume probes an adaptive transfer may spend across all
/// suspensions before giving up with [`BulkReason::Blackout`].
pub const PROBE_BUDGET: usize = 24;

/// Floor/ceiling of the adaptive engine's retransmission timeout.
const MIN_RTO_S: f64 = 1.0;
const MAX_RTO_S: f64 = 16.0;

/// Configuration of one bulk transfer run.
#[derive(Debug, Clone)]
pub struct BulkConfig {
    /// Link/scheme template; `payload` and `frame.payload_bits` are
    /// overridden per fragment.
    pub base: TrialConfig,
    /// Fragment/generation geometry (see [`TransferParams`]).
    pub params: TransferParams,
    /// Fragments sent back to back between block ACKs (the adaptive
    /// engine may shrink below this under degradation).
    pub window: usize,
    /// Round budget before the sender gives up.
    pub max_rounds: usize,
    /// Time-varying channel impairments, evaluated on the transfer's
    /// session clock. `None` is the exact zero-fault pipeline.
    pub faults: Option<FaultSchedule>,
}

/// Why a bulk transfer rejected its configuration before transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkError {
    /// The transfer geometry itself is degenerate.
    Plan(PlanError),
    /// `window` was 0.
    ZeroWindow,
    /// `max_rounds` was 0.
    ZeroRounds,
}

impl std::fmt::Display for BulkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Plan(e) => write!(f, "transfer plan: {e}"),
            Self::ZeroWindow => write!(f, "window must be positive"),
            Self::ZeroRounds => write!(f, "round budget must be positive"),
        }
    }
}

impl std::error::Error for BulkError {}

impl From<PlanError> for BulkError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}

/// How a bulk transfer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkReason {
    /// The receiver reassembled the full payload (bit-exact).
    Completed,
    /// The sender burned its round budget without completing.
    RoundBudget,
    /// The adaptive sender suspended on a dead link and exhausted its
    /// probe budget without ever hearing the receiver again.
    Blackout,
}

/// Result of a bulk transfer run.
#[derive(Debug, Clone)]
pub struct BulkOutcome {
    /// Reassembled payload when the receiver completed (bit-exact), `None`
    /// otherwise.
    pub delivered: Option<Vec<u8>>,
    /// Why the transfer ended (explicit — no inferring failure modes from
    /// round counts).
    pub reason: BulkReason,
    /// Window rounds used (suspend-mode probes are not rounds).
    pub rounds: usize,
    /// Forward packet transmissions (including resume probes).
    pub packets_sent: usize,
    /// Transmissions that reached the reassembler as *fresh* fragments.
    pub packets_delivered: usize,
    /// Transmissions lost, CRC-failed, or force-dropped (outer-code
    /// erasures).
    pub erasures: usize,
    /// Retransmissions the receiver suppressed as duplicates.
    pub duplicates: usize,
    /// Block-ACK frames the sender could not decode.
    pub acks_lost: usize,
    /// Times the adaptive sender suspended on a dead link.
    pub suspensions: usize,
    /// Resume probes sent while suspended.
    pub probes: usize,
    /// Seconds spent parked in suspension waits (not airtime).
    pub suspended_s: f64,
    /// Total airtime in seconds (forward packets + block-ACK tones).
    pub airtime_s: f64,
    /// `total_bytes * 8 / airtime_s` when delivered, else 0.
    pub goodput_bps: f64,
}

impl BulkOutcome {
    fn start() -> Self {
        Self {
            delivered: None,
            reason: BulkReason::RoundBudget,
            rounds: 0,
            packets_sent: 0,
            packets_delivered: 0,
            erasures: 0,
            duplicates: 0,
            acks_lost: 0,
            suspensions: 0,
            probes: 0,
            suspended_s: 0.0,
            airtime_s: 0.0,
            goodput_bps: 0.0,
        }
    }
}

/// Block-ACK frame content: done flag, cumulative base, per-seq need
/// bits. Public so the fuzz suite can drive the tone codec directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAck {
    /// Receiver has reassembled the full payload.
    pub done: bool,
    /// Lowest sequence number the receiver still needs (cumulative ACK
    /// of everything below).
    pub base: u16,
    /// Need bitmap over `base..base + window`.
    pub need: Vec<bool>,
}

impl BlockAck {
    /// The semantic content bits: done(1) | base(16) | need(window).
    fn content_bits(&self) -> Vec<u8> {
        let mut bits: Vec<u8> = vec![u8::from(self.done)];
        bits.extend((0..16).rev().map(|i| ((self.base >> i) & 1) as u8));
        bits.extend(self.need.iter().map(|&n| u8::from(n)));
        bits
    }

    /// Serializes to tone symbols: content bits + CRC-16 over the packed
    /// content, zero-padded to a tone boundary, plus one XOR checksum
    /// tone.
    pub fn to_tones(&self) -> Vec<usize> {
        let mut bits = self.content_bits();
        let crc = crc16(&bits_to_bytes(&bits));
        bits.extend(value_to_bits(crc as u64, ACK_CRC_BITS));
        while !bits.len().is_multiple_of(ACK_TONE_BITS) {
            bits.push(0);
        }
        let mut tones: Vec<usize> = bits
            .chunks(ACK_TONE_BITS)
            .map(|c| c.iter().fold(0usize, |v, &b| (v << 1) | b as usize))
            .collect();
        let check = tones.iter().fold(0usize, |a, &t| a ^ t);
        tones.push(check);
        tones
    }

    /// Parses tone symbols for the given window size. Returns `None` on
    /// any length mismatch, XOR-checksum failure, nonzero padding, or
    /// CRC-16 mismatch — a corrupted or truncated frame must never
    /// surface as a valid block ACK.
    pub fn from_tones(tones: &[usize], window: usize) -> Option<Self> {
        let content_len = 17 + window;
        let payload_tones = (content_len + ACK_CRC_BITS).div_ceil(ACK_TONE_BITS);
        if tones.len() != payload_tones + 1 {
            return None;
        }
        if tones.iter().any(|&t| t >= 1 << ACK_TONE_BITS) {
            return None;
        }
        let (body, check) = tones.split_at(payload_tones);
        if body.iter().fold(0usize, |a, &t| a ^ t) != check[0] {
            return None;
        }
        let bits: Vec<u8> = body
            .iter()
            .flat_map(|&t| (0..ACK_TONE_BITS).rev().map(move |i| ((t >> i) & 1) as u8))
            .collect();
        // zero padding between the CRC and the tone boundary is part of
        // the frame: a flipped padding bit is corruption, not slack
        if bits[content_len + ACK_CRC_BITS..].iter().any(|&b| b != 0) {
            return None;
        }
        let content = &bits[..content_len];
        let crc = bits_to_value(&bits[content_len..content_len + ACK_CRC_BITS]) as u16;
        if crc16(&bits_to_bytes(content)) != crc {
            return None;
        }
        let done = content[0] == 1;
        let base = content[1..17]
            .iter()
            .fold(0u16, |v, &b| (v << 1) | b as u16);
        let need = content[17..].iter().map(|&b| b == 1).collect();
        Some(Self { done, base, need })
    }

    /// Tone symbols in a block-ACK frame for a given window size.
    pub fn frame_tones(window: usize) -> usize {
        (17 + window + ACK_CRC_BITS).div_ceil(ACK_TONE_BITS) + 1
    }
}

/// The receiver's current block ACK.
fn build_ack(reasm: &Reassembler, window: usize, total_frags: u16) -> BlockAck {
    let needed = reasm.missing();
    let base = needed.first().copied().unwrap_or(total_frags);
    BlockAck {
        done: reasm.complete(),
        base,
        need: (0..window as u16)
            .map(|i| needed.binary_search(&(base + i)).is_ok())
            .collect(),
    }
}

/// The block-ACK exchange on the reverse link at session time `now_s`.
///
/// Each tone goes out twice with FREQUENCY diversity: copy 0 on bin `v`,
/// copy 1 on bin `v + ACK_DIVERSITY_SHIFT`. The lake channel is static,
/// so a multipath notch on one subcarrier is permanent — retransmitting
/// the same bin can never recover it, but a notch at both bins 1.4 kHz
/// apart is rare. The decoder takes the highest-quality copy that maps
/// back to a valid symbol; the CRC and checksum tone still guard the
/// whole frame. Returns the decoded ACK (if any) and the airtime paid.
fn block_ack_exchange(
    cfg: &BulkConfig,
    ack: &BlockAck,
    link_seed: u64,
    now_s: f64,
) -> (Option<BlockAck>, f64) {
    let params: OfdmParams = cfg.base.frame.params;
    let faults = cfg.faults.as_ref().map(|f| (f, now_s));
    let mut back = Link::new(LinkConfig {
        fs: SAMPLE_RATE,
        env: cfg.base.env.clone(),
        tx_device: cfg.base.bob_device,
        rx_device: cfg.base.alice_device,
        tx_traj: cfg.base.bob_traj.clone(),
        rx_traj: cfg.base.alice_traj.clone(),
        noise: true,
        impulses: false,
        seed: link_seed,
    });
    let mut airtime_s = 0.0;
    let mut rx_tones = Vec::new();
    for (i, &tone) in ack.to_tones().iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for copy in 0..2usize {
            let bin = tone + copy * ACK_DIVERSITY_SHIFT;
            let t0 = (2 * i + copy) as f64 * params.symbol_duration_s();
            let rx = back.transmit_with_faults(&encode_tone(&params, bin), t0, faults);
            airtime_s += params.symbol_duration_s();
            let decoded = decode_tone(&params, &rx, 0.25).and_then(|(b, q)| {
                let v = b.checked_sub(copy * ACK_DIVERSITY_SHIFT)?;
                (v < 1 << ACK_TONE_BITS).then_some((v, q))
            });
            if let Some(d) = decoded {
                if best.map(|b| d.1 > b.1).unwrap_or(true) {
                    best = Some(d);
                }
            }
        }
        match best {
            Some((bin, _)) => rx_tones.push(bin),
            None => break,
        }
    }
    let decoded = (rx_tones.len() == BlockAck::frame_tones(cfg.window))
        .then(|| BlockAck::from_tones(&rx_tones, cfg.window))
        .flatten();
    (decoded, airtime_s)
}

/// Applies a decoded block ACK to the sender's pending set: cumulative
/// retire below `base`, bitmap retire/keep inside the window, and
/// re-insertion of receiver-demanded sequence numbers — but only ones
/// the sender has *released* (the receiver's `missing()` view includes
/// parity of every incomplete generation; demand alone must not defeat
/// the ladder's parity withholding on a clean link).
fn apply_ack(pending: &mut Vec<u16>, ack: &BlockAck, total_frags: u16, released: &[bool]) {
    pending.retain(|&s| {
        if s < ack.base {
            return false; // cumulative: nothing below base is needed
        }
        let i = (s - ack.base) as usize;
        // inside the reported bitmap: keep only if still needed;
        // beyond it: no information, keep pending
        i >= ack.need.len() || ack.need[i]
    });
    for (i, &needed) in ack.need.iter().enumerate() {
        if !needed {
            continue;
        }
        let s = ack.base + i as u16;
        if s >= total_frags {
            break;
        }
        if !released[s as usize] {
            continue;
        }
        if let Err(pos) = pending.binary_search(&s) {
            pending.insert(pos, s);
        }
    }
}

/// Runs a bulk transfer of `data` with the static engine and returns the
/// outcome, or a typed error on degenerate configuration.
pub fn run_bulk_transfer(cfg: &BulkConfig, data: &[u8]) -> Result<BulkOutcome, BulkError> {
    run_bulk_transfer_with_faults(cfg, data, |_, _| false)
}

/// [`run_bulk_transfer`] with a loss hook: `lose(round, seq)` forces that
/// forward transmission to vanish (a packet erasure), independent of the
/// channel — the deterministic loss patterns the RS-vs-no-FEC experiments
/// and tests are built on. (Time-varying channel impairments are the
/// [`BulkConfig::faults`] schedule instead.)
pub fn run_bulk_transfer_with_faults(
    cfg: &BulkConfig,
    data: &[u8],
    lose: impl Fn(usize, u16) -> bool,
) -> Result<BulkOutcome, BulkError> {
    run_rounds(cfg, data, false, &lose, &Pool::from_env())
}

/// Graceful-degradation ladder: maps the measured per-round erasure rate
/// (EWMA, with a lost block ACK counting as a fully erased round) to a
/// degradation level that shrinks the send window and releases more
/// per-generation RS parity. Two consecutive clean observations step one
/// level back down — the ladder recovers when the channel clears.
#[derive(Debug, Clone, Default)]
pub struct DegradationLadder {
    level: usize,
    ewma: f64,
    clear_streak: usize,
}

/// Highest degradation level (smallest window, all parity eager).
pub const MAX_DEGRADATION_LEVEL: usize = 3;

/// EWMA erasure rate above which the ladder climbs a level. Above half
/// the window erased, *sustained*: one bad boundary round (a blackout
/// edge, a burst landing in a window) must not shrink the window.
const RAISE_THRESHOLD: f64 = 0.5;
/// EWMA erasure rate below which a round counts toward recovery.
const CLEAR_THRESHOLD: f64 = 0.15;

impl DegradationLadder {
    /// A fresh ladder at level 0 (full window, no eager parity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current degradation level, `0..=MAX_DEGRADATION_LEVEL`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Feeds one round's measurement: the fraction of the burst that was
    /// erased, and whether the block ACK was decodable. A lost ACK is
    /// indistinguishable from total loss and is treated as such.
    fn observe_round(&mut self, erasure_rate: f64, ack_ok: bool) {
        let rate = if ack_ok { erasure_rate } else { 1.0 };
        self.ewma = 0.5 * self.ewma + 0.5 * rate;
        if self.ewma > RAISE_THRESHOLD {
            self.level = (self.level + 1).min(MAX_DEGRADATION_LEVEL);
            self.clear_streak = 0;
        } else if self.ewma < CLEAR_THRESHOLD {
            self.clear_streak += 1;
            if self.clear_streak >= 2 && self.level > 0 {
                self.level -= 1;
                self.clear_streak = 0;
            }
        } else {
            self.clear_streak = 0;
        }
    }

    /// The send window at the current level: halved per level, floor 2
    /// (never above the configured base).
    pub fn window(&self, base: usize) -> usize {
        (base >> self.level).clamp(2.min(base.max(1)), base.max(1))
    }

    /// Parity fragments per generation released *eagerly* at the current
    /// level: none when clean (parity only on receiver demand), half at
    /// level 1, all of them at level 2+.
    fn eager_parity(&self, parity: usize) -> usize {
        match self.level {
            0 => 0,
            1 => parity.div_ceil(2),
            _ => parity,
        }
    }
}

/// Runs a bulk transfer of `data` with the adaptive engine: degradation
/// ladder, estimator-paced backoff, and suspend/resume across blackouts.
/// See the module docs for the protocol; [`BulkOutcome::reason`] reports
/// how the run ended.
pub fn run_adaptive_transfer(cfg: &BulkConfig, data: &[u8]) -> Result<BulkOutcome, BulkError> {
    run_rounds(cfg, data, true, &|_, _| false, &Pool::from_env())
}

/// One forward fragment exchange: a full packet trial carrying `frag`
/// with `seed`, starting at session time `start_s`. Returns the decoded
/// payload bits (if any) and the airtime the attempt paid.
fn fragment_exchange(
    cfg: &BulkConfig,
    frag: &Fragment,
    seed: u64,
    start_s: f64,
) -> (Option<Vec<u8>>, f64) {
    let mut t = cfg.base.clone();
    t.payload = frag.to_bits();
    t.frame.payload_bits = t.payload.len();
    t.seed = seed;
    t.faults = cfg.faults.clone();
    t.start_s = start_s;
    let trial = run_trial(&t);
    let band_bins = trial.band.map(|b| b.len()).unwrap_or(1);
    let air = attempt_airtime_s(&t.frame, band_bins, trial.data_phase);
    (trial.bits, air)
}

/// The sender's side of one transfer, shared by window rounds and
/// suspend probes.
struct Sender<'a> {
    cfg: &'a BulkConfig,
    /// The loss hook of [`run_bulk_transfer_with_faults`].
    lose: &'a dyn Fn(usize, u16) -> bool,
    /// Runs the fragment exchanges of a burst without a fault schedule.
    pool: &'a Pool,
    plan: TransferPlan,
    frags: Vec<Fragment>,
    /// Released sequence numbers not yet acknowledged, ascending.
    pending: Vec<u16>,
    /// Every data fragment, and parity once released.
    released: Vec<bool>,
    /// Forward transmissions per sequence number.
    sent: Vec<u32>,
    reasm: Reassembler,
    est: RttEstimator,
    out: BulkOutcome,
    /// The session clock the fault schedule is evaluated on: airtime plus
    /// suspension waits, summed in send order.
    now_s: f64,
    /// A decoded block ACK reported the payload complete.
    done: bool,
    /// The adaptive engine's per-exchange seed counter, so no seed repeats
    /// across rounds, probes or ladder reshuffles; `None` keys every seed
    /// by round (the static engine).
    seed_counter: Option<u64>,
}

impl Sender<'_> {
    /// Seed key of the next exchange: the next counter value, or the
    /// static engine's `round_key`.
    fn seed_key(&mut self, round_key: u64) -> u64 {
        match &mut self.seed_counter {
            Some(n) => {
                *n += 1;
                *n
            }
            None => round_key,
        }
    }

    /// Releases parity into `pending`: the ladder's `eager` share of each
    /// incomplete generation, or all of its parity once one of its pending
    /// fragments has been sent twice — that fragment keeps dying on this
    /// channel, so answer with seed and placement diversity instead of more
    /// identical copies. A no-op once all parity is released.
    fn release_parity(&mut self, eager: usize) {
        let parity = self.cfg.params.parity;
        for s in self.pending.clone() {
            let Some((g, _)) = self.plan.locate(s as usize) else {
                continue;
            };
            let want = if self.sent[s as usize] < 2 {
                eager
            } else {
                parity
            };
            let pstart = self.plan.gen_start(g) + self.plan.gen_data_count(g);
            for seq in pstart..pstart + want {
                if !self.released[seq] {
                    self.released[seq] = true;
                    let s = seq as u16;
                    if let Err(pos) = self.pending.binary_search(&s) {
                        self.pending.insert(pos, s);
                    }
                }
            }
        }
    }

    /// Books one forward exchange of fragment `seq` in round `round` on
    /// the session clock and feeds its bits to the reassembler unless the
    /// loss hook drops them. Returns 1 if the receiver heard it (fresh or
    /// duplicate), else 0.
    fn book(&mut self, seq: u16, round: usize, (bits, air): (Option<Vec<u8>>, f64)) -> usize {
        let lost = (self.lose)(round, seq);
        self.out.packets_sent += 1;
        self.out.airtime_s += air;
        self.now_s += air;
        self.sent[seq as usize] += 1;
        let accept = bits
            .filter(|_| !lost)
            .and_then(|b| Fragment::from_bits(&b))
            .map(|f| self.reasm.accept(&f));
        match accept {
            Some(Accept::Fresh) => self.out.packets_delivered += 1,
            Some(Accept::Duplicate) => self.out.duplicates += 1,
            Some(Accept::Invalid) | None => self.out.erasures += 1,
        }
        usize::from(matches!(accept, Some(Accept::Fresh | Accept::Duplicate)))
    }

    /// A forward burst, then up to `ack_tries` block-ACK exchanges on the
    /// reverse link: what every window round and every suspend probe is
    /// made of. Returns how many burst fragments the receiver heard and
    /// whether a block ACK decoded.
    ///
    /// The burst's seeds are drawn in send order before any exchange
    /// runs. Without a fault schedule `run_trial` never reads the start
    /// time, so each exchange is a pure function of its fragment and seed:
    /// the burst runs through the pool and is booked in send order. With a
    /// schedule each packet starts when the previous one ends, which
    /// depends on that packet's outcome, so the burst runs as a chain on
    /// the calling thread. The block-ACK tones share one link's noise
    /// stream and always run in order.
    fn exchange(&mut self, burst: &[u16], ack_tries: usize, round: usize) -> (usize, bool) {
        let start_s = self.now_s;
        let seeds: Vec<u64> = burst
            .iter()
            .map(|&seq| {
                let key = self.seed_key(round as u64 + 1);
                (self.cfg.base.seed)
                    .wrapping_add(0x9E37_79B9u64.wrapping_mul(key))
                    .wrapping_add(7919 * seq as u64)
            })
            .collect();
        let mut heard = 0;
        if self.cfg.faults.is_some() {
            for (&seq, &seed) in burst.iter().zip(&seeds) {
                let sent = fragment_exchange(self.cfg, &self.frags[seq as usize], seed, self.now_s);
                heard += self.book(seq, round, sent);
            }
        } else {
            // Borrow the fields, not `self`: the loss hook is not `Sync`.
            let (cfg, frags) = (self.cfg, &self.frags);
            let sent = self.pool.par_map(burst.len(), |i| {
                fragment_exchange(cfg, &frags[burst[i] as usize], seeds[i], start_s)
            });
            for (&seq, sent) in burst.iter().zip(sent) {
                heard += self.book(seq, round, sent);
            }
        }
        let total = self.plan.total_frags() as u16;
        let ack = build_ack(&self.reasm, self.cfg.window, total);
        let mut decoded = None;
        for _ in 0..ack_tries {
            let link_seed = self.cfg.base.seed ^ 0xB10C ^ (self.seed_key(round as u64) << 17);
            let (d, air) = block_ack_exchange(self.cfg, &ack, link_seed, self.now_s);
            self.out.airtime_s += air;
            self.now_s += air;
            decoded = d;
            if decoded.is_some() {
                break;
            }
            self.out.acks_lost += 1;
        }
        match &decoded {
            Some(a) => {
                self.est.observe_rtt(self.now_s - start_s);
                self.done |= a.done;
                apply_ack(&mut self.pending, a, total, &self.released);
            }
            None => self.est.observe_loss(),
        }
        (heard, decoded.is_some())
    }
}

/// The sender round loop behind both engines. The static engine is this
/// loop with `adaptive` off: all parity released up front, one block-ACK
/// try per round, seeds keyed by round, and no ladder, dead-round or
/// suspend logic. `pool` runs the bursts that have no fault schedule.
fn run_rounds(
    cfg: &BulkConfig,
    data: &[u8],
    adaptive: bool,
    lose: &dyn Fn(usize, u16) -> bool,
    pool: &Pool,
) -> Result<BulkOutcome, BulkError> {
    if cfg.window == 0 {
        return Err(BulkError::ZeroWindow);
    }
    if cfg.max_rounds == 0 {
        return Err(BulkError::ZeroRounds);
    }
    let plan = TransferPlan::try_new(data.len(), cfg.params)?;
    // The adaptive engine starts with the data fragments only: parity is
    // released by the ladder (eagerly, under degradation) or by explicit
    // receiver demand through the ACK need bitmap.
    let mut released = vec![!adaptive; plan.total_frags()];
    for g in 0..plan.generations() {
        let s = plan.gen_start(g);
        released[s..s + plan.gen_data_count(g)].fill(true);
    }
    let mut tx = Sender {
        cfg,
        lose,
        pool,
        plan,
        frags: plan.segment(data),
        pending: (0..plan.total_frags() as u16)
            .filter(|&s| released[s as usize])
            .collect(),
        released,
        sent: vec![0; plan.total_frags()],
        reasm: Reassembler::new(plan),
        est: RttEstimator::new(cfg.base.seed ^ 0xADA7, MIN_RTO_S, MAX_RTO_S),
        out: BulkOutcome::start(),
        now_s: 0.0,
        done: false,
        seed_counter: adaptive.then_some(0),
    };
    // A lost ACK wastes the whole round (the window gets resent to a
    // receiver that already has it); the adaptive engine's one retry costs
    // two orders of magnitude less airtime than that.
    let ack_tries = if adaptive { 2 } else { 1 };
    let mut ladder = DegradationLadder::new();
    let mut dead_rounds = 0usize;
    let mut blackout = false;

    while !tx.done && !tx.pending.is_empty() && tx.out.rounds < cfg.max_rounds {
        let round = tx.out.rounds;
        tx.out.rounds += 1;
        tx.release_parity(ladder.eager_parity(cfg.params.parity));
        // After a fully dead round, the next round is a 2-fragment
        // canary: confirming the outage costs 2 packets, not a window.
        let win = if dead_rounds > 0 {
            2
        } else {
            ladder.window(cfg.window)
        };
        let burst: Vec<u16> = tx.pending.iter().take(win).copied().collect();
        let (heard, ack_ok) = tx.exchange(&burst, ack_tries, round);
        if !adaptive {
            continue;
        }

        // ---- dead-link detection → suspend/resume ----
        // A fully dead round (nothing heard, no ACK) is an *outage*, not
        // congestion: it feeds the suspension logic, never the ladder —
        // otherwise a blackout would crush the window and the transfer
        // would crawl long after the link came back.
        if heard == 0 && !ack_ok {
            dead_rounds += 1;
        } else {
            dead_rounds = 0;
            ladder.observe_round(1.0 - heard as f64 / burst.len().max(1) as f64, ack_ok);
        }
        if dead_rounds >= SUSPEND_AFTER_DEAD_ROUNDS {
            tx.out.suspensions += 1;
            let mut resumed = false;
            while !resumed && tx.out.probes < PROBE_BUDGET {
                // park: no airtime, just a backed-off, jittered wait; then
                // probe with one fragment and one block-ACK try
                let wait = tx.est.next_wait_s();
                tx.now_s += wait;
                tx.out.suspended_s += wait;
                tx.out.probes += 1;
                let seq = tx.pending[0];
                resumed = tx.exchange(&[seq], 1, round).1;
            }
            if !resumed {
                blackout = true;
                break;
            }
            dead_rounds = 0;
        }
    }

    let mut out = tx.out;
    out.delivered = tx.reasm.assemble();
    out.reason = if out.delivered.is_some() {
        out.goodput_bps = data.len() as f64 * 8.0 / out.airtime_s;
        BulkReason::Completed
    } else if blackout {
        BulkReason::Blackout
    } else {
        BulkReason::RoundBudget
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_channel::environments::{Environment, Site};
    use aqua_channel::geometry::Pos;

    fn demo_payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 197 + 31) as u8).collect()
    }

    fn bridge_cfg(params: TransferParams) -> BulkConfig {
        BulkConfig {
            base: TrialConfig::standard(
                Environment::preset(Site::Bridge),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(5.0, 0.0, 1.0),
                4242,
            ),
            params,
            window: 6,
            max_rounds: 20,
            faults: None,
        }
    }

    #[test]
    fn block_ack_tone_frame_roundtrip() {
        for (done, base, pattern) in [
            (false, 0u16, 0b101010u32),
            (true, 137, 0),
            (false, 999, 0b111111),
        ] {
            let ack = BlockAck {
                done,
                base,
                need: (0..6).map(|i| (pattern >> i) & 1 == 1).collect(),
            };
            let tones = ack.to_tones();
            assert_eq!(tones.len(), BlockAck::frame_tones(6));
            assert!(tones.iter().all(|&t| t < 32));
            let back = BlockAck::from_tones(&tones, 6).expect("roundtrip");
            assert_eq!(back.done, done);
            assert_eq!(back.base, base);
            assert_eq!(back.need, ack.need);
        }
    }

    #[test]
    fn block_ack_rejects_corrupted_tones() {
        let ack = BlockAck {
            done: false,
            base: 42,
            need: vec![true, false, true, true, false, false],
        };
        let tones = ack.to_tones();
        for i in 0..tones.len() {
            let mut bad = tones.clone();
            bad[i] ^= 0b00100; // flip one bit of one tone
            assert!(
                BlockAck::from_tones(&bad, 6).is_none(),
                "corrupted tone {i} accepted"
            );
        }
        assert!(BlockAck::from_tones(&tones[..tones.len() - 1], 6).is_none());
    }

    #[test]
    fn block_ack_crc_catches_xor_compensating_corruptions() {
        // Flip the same bit in two different body tones: the per-frame
        // XOR checksum cancels, so only the CRC-16 stands between a
        // two-tone corruption and a forged ACK. Exhaustive over all tone
        // pairs and all 31 flip patterns — deterministic, so a pass here
        // is a permanent property of these frame constants.
        let ack = BlockAck {
            done: false,
            base: 913,
            need: vec![true, false, false, true, true, false],
        };
        let tones = ack.to_tones();
        let body = tones.len() - 1;
        let mut forged = 0usize;
        for i in 0..body {
            for j in i + 1..body {
                for flip in 1..(1usize << ACK_TONE_BITS) {
                    let mut bad = tones.clone();
                    bad[i] ^= flip;
                    bad[j] ^= flip;
                    if let Some(parsed) = BlockAck::from_tones(&bad, 6) {
                        assert_eq!(parsed, ack, "differing parse accepted");
                        forged += 1;
                    }
                }
            }
        }
        assert_eq!(
            forged, 0,
            "{forged} compensating corruptions forged past the CRC"
        );
    }

    #[test]
    fn degenerate_configs_are_typed_errors_not_panics() {
        let mut cfg = bridge_cfg(TransferParams::default_rs());
        cfg.window = 0;
        assert_eq!(
            run_bulk_transfer(&cfg, &demo_payload(64)).unwrap_err(),
            BulkError::ZeroWindow
        );
        cfg.window = 6;
        cfg.max_rounds = 0;
        assert_eq!(
            run_adaptive_transfer(&cfg, &demo_payload(64)).unwrap_err(),
            BulkError::ZeroRounds
        );
        cfg.max_rounds = 20;
        assert_eq!(
            run_bulk_transfer(&cfg, &[]).unwrap_err(),
            BulkError::Plan(PlanError::EmptyTransfer)
        );
        assert_eq!(
            format!("{}", BulkError::Plan(PlanError::EmptyTransfer)),
            "transfer plan: empty transfer"
        );
    }

    #[test]
    fn ladder_degrades_and_recovers() {
        let mut l = DegradationLadder::new();
        assert_eq!(l.level(), 0);
        assert_eq!(l.window(12), 12);
        assert_eq!(l.eager_parity(4), 0);
        // one bad round is a transient — the ladder must not flinch
        l.observe_round(0.9, true);
        assert_eq!(l.level(), 0, "single bad round must not shrink the window");
        // sustained loss climbs it
        l.observe_round(1.0, false);
        assert!(l.level() >= 1, "level {} after sustained loss", l.level());
        l.observe_round(1.0, false);
        let peak = l.level();
        assert!(peak >= 2);
        assert!(l.window(12) < 12);
        assert_eq!(l.eager_parity(4), 4);
        // sustained clean rounds walk it back down to 0
        for _ in 0..30 {
            l.observe_round(0.0, true);
        }
        assert_eq!(l.level(), 0, "ladder must recover on a clean channel");
        assert_eq!(l.window(12), 12);
    }

    #[test]
    fn ladder_window_never_collapses_below_two() {
        let mut l = DegradationLadder::new();
        for _ in 0..10 {
            l.observe_round(1.0, false);
        }
        assert_eq!(l.level(), MAX_DEGRADATION_LEVEL);
        assert_eq!(l.window(12), 2);
        assert_eq!(l.window(2), 2);
        assert_eq!(l.window(1), 1);
    }

    #[test]
    fn clean_link_transfers_in_one_round_per_window() {
        // 120 bytes / 10 per frag = 12 data frags; RS(8+2) adds 4 parity
        let cfg = bridge_cfg(TransferParams {
            frag_bytes: 10,
            gen_data: 8,
            parity: 2,
        });
        let payload = demo_payload(120);
        let out = run_bulk_transfer(&cfg, &payload).expect("valid config");
        assert_eq!(out.delivered.as_deref(), Some(&payload[..]), "bit-exact");
        assert_eq!(out.reason, BulkReason::Completed);
        assert_eq!(out.erasures, 0, "clean link");
        assert_eq!(out.duplicates, 0);
        assert!(out.goodput_bps > 0.0);
        // 16 fragments through a window of 6 = 3 rounds minimum
        assert_eq!(out.rounds, 3);
        assert_eq!(out.packets_sent, 16);
    }

    #[test]
    fn adaptive_engine_skips_parity_on_a_clean_link() {
        // Level 0 sends no eager parity: a clean link moves only the 12
        // data fragments (vs 16 for the static engine) and still
        // completes — parity is pure overhead the ladder avoids paying.
        let cfg = bridge_cfg(TransferParams {
            frag_bytes: 10,
            gen_data: 8,
            parity: 2,
        });
        let payload = demo_payload(120);
        let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
        assert_eq!(out.delivered.as_deref(), Some(&payload[..]), "bit-exact");
        assert_eq!(out.reason, BulkReason::Completed);
        assert_eq!(out.packets_sent, 12, "data only, no eager parity");
        assert_eq!(out.suspensions, 0);
        assert_eq!(out.probes, 0);
        assert_eq!(out.suspended_s, 0.0);
    }

    #[test]
    fn outer_code_absorbs_persistent_erasures_where_no_fec_fails() {
        // A persistent erasure pattern: every 5th fragment vanishes on
        // EVERY transmission (a fragment whose band placement sits in a
        // stable fade). Per generation that is at most 2 losses — within
        // the RS(10, 8) budget — so the outer code delivers regardless;
        // the ARQ-only baseline keeps chasing the same two fragments and
        // never completes.
        let with_fec = bridge_cfg(TransferParams {
            frag_bytes: 10,
            gen_data: 8,
            parity: 2,
        });
        let mut no_fec = BulkConfig {
            params: with_fec.params.without_fec(),
            ..with_fec.clone()
        };
        no_fec.max_rounds = 6;
        let payload = demo_payload(120);
        let lose = |_round: usize, seq: u16| seq % 5 == 3;

        let rs = run_bulk_transfer_with_faults(&with_fec, &payload, lose).expect("valid config");
        assert_eq!(rs.delivered.as_deref(), Some(&payload[..]), "bit-exact");
        assert_eq!(rs.reason, BulkReason::Completed);
        assert!(rs.erasures >= 3, "forced losses surfaced as erasures");
        // 16 fragments through a window of 6 need 3 rounds even lossless:
        // the parity fragments, not extra rounds, absorb the losses
        assert_eq!(rs.rounds, 3, "no extra rounds over the lossless minimum");

        let plain = run_bulk_transfer_with_faults(&no_fec, &payload, lose).expect("valid config");
        assert_eq!(plain.delivered, None, "ARQ alone cannot finish");
        assert_eq!(
            plain.reason,
            BulkReason::RoundBudget,
            "failure mode is explicit"
        );
        assert!(
            plain.packets_sent > plain_data_frags(&no_fec, &payload),
            "kept retransmitting the lost fragments"
        );
    }

    fn plain_data_frags(cfg: &BulkConfig, payload: &[u8]) -> usize {
        payload.len().div_ceil(cfg.params.frag_bytes)
    }

    /// Every `BulkOutcome` field, floats by bit pattern. The destructuring
    /// names each field, so a new one must be added here.
    fn outcome_bits(out: &BulkOutcome) -> (Option<Vec<u8>>, BulkReason, [usize; 8], [u64; 3]) {
        let BulkOutcome {
            delivered,
            reason,
            rounds,
            packets_sent,
            packets_delivered,
            erasures,
            duplicates,
            acks_lost,
            suspensions,
            probes,
            suspended_s,
            airtime_s,
            goodput_bps,
        } = out;
        (
            delivered.clone(),
            *reason,
            [
                *rounds,
                *packets_sent,
                *packets_delivered,
                *erasures,
                *duplicates,
                *acks_lost,
                *suspensions,
                *probes,
            ],
            [
                suspended_s.to_bits(),
                airtime_s.to_bits(),
                goodput_bps.to_bits(),
            ],
        )
    }

    /// Runs one 120 B transfer (16 fragments, window 6) through the round
    /// loop on a serial pool and on a 4-worker pool that hands out one
    /// exchange per grab, requires the two outcomes to match field for
    /// field, and returns the serial one.
    fn pool_size_outcome(
        cfg: &BulkConfig,
        adaptive: bool,
        lose: &dyn Fn(usize, u16) -> bool,
    ) -> BulkOutcome {
        let payload = demo_payload(120);
        let serial =
            run_rounds(cfg, &payload, adaptive, lose, &Pool::new(1)).expect("valid config");
        let wide = run_rounds(cfg, &payload, adaptive, lose, &Pool::new(4).with_chunk(1))
            .expect("valid config");
        assert_eq!(outcome_bits(&serial), outcome_bits(&wide));
        assert_eq!(serial.delivered.as_deref(), Some(&payload[..]));
        serial
    }

    fn pool_size_cfg() -> BulkConfig {
        bridge_cfg(TransferParams {
            frag_bytes: 10,
            gen_data: 8,
            parity: 2,
        })
    }

    #[test]
    fn pool_size_leaves_the_static_engine_under_a_loss_hook_unchanged() {
        let out = pool_size_outcome(&pool_size_cfg(), false, &|_, seq| seq % 5 == 3);
        assert!(out.erasures >= 3, "the loss hook dropped fragments");
    }

    #[test]
    fn pool_size_leaves_the_adaptive_engine_unchanged() {
        pool_size_outcome(&pool_size_cfg(), true, &|_, _| false);
    }

    #[test]
    fn pool_size_leaves_a_scheduled_chain_unchanged() {
        // A blackout from 3 s to 13 s of session time: the first window
        // runs into it, so the sender suspends and probes. A scheduled
        // burst never reaches the pool.
        let mut cfg = pool_size_cfg();
        cfg.faults = Some(FaultSchedule::seeded(7).with_blackout(3.0, 10.0));
        let out = pool_size_outcome(&cfg, true, &|_, _| false);
        assert_eq!(out.suspensions, 1, "the blackout parked the transfer");
    }
}
