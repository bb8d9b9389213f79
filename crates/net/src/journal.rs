//! The durable custody journal: a write-ahead log for
//! [`crate::relay::RelayNode`] custody state over a simulated flash
//! device (DESIGN.md §15).
//!
//! Custody means "I am now responsible for this bundle" — a promise
//! that must survive the node it lives on. Every custody-state mutation
//! (accept, release, copies change, cure, destination fragment,
//! delivery) is appended here as a CRC-16'd, length-prefixed record
//! *before* the node makes any externally-visible commitment; replaying
//! the log after a crash reconstructs the queue, duplicate filters,
//! reassembly buffers and delivered-set exactly
//! ([`crate::recovery::recover`]).
//!
//! **Flash model.** Appends land in a volatile *staged* buffer and
//! become durable only on [`Journal::sync`] — explicitly (the relay
//! syncs before emitting any custody ACK and at every application
//! hand-up, the two irreversible commitments) or automatically when the
//! staged buffer reaches [`JournalConfig::sync_every_bytes`]. A crash
//! keeps all synced bytes plus a deterministic *torn prefix* of the
//! staged buffer; replay parses records until the first incomplete or
//! corrupt frame and discards the tail. So recovery always yields a
//! prefix of the appended records that is a superset of the synced ones
//! — the **journal-bounded loss** invariant the chaos harness checks.
//!
//! **Compaction.** When the log outgrows its budget, the relay writes a
//! snapshot of its live state and the journal swaps it in atomically
//! (modeling a flash segment swap sealed by a commit record — the swap
//! either completes or the old segment remains). The budget adapts to
//! twice the last snapshot size so a node whose live state exceeds the
//! configured budget compacts geometrically, not on every append.
//!
//! **Record framing** (bytes, not acoustic bits — this is local
//! storage, not the wire):
//!
//! ```text
//! len(2, big-endian, over type+payload) type(1) payload(len-1) crc16(2)
//! ```
//!
//! The CRC covers the length prefix and the body, so a truncated,
//! bit-flipped or misframed tail never parses as a record
//! (`net/tests/journal_fuzz.rs`).

use crate::bundle::{Bundle, BundleKey, MIN_BUNDLE_BITS};
use crate::queue::{CustodyState, StoredBundle};
use aqua_coding::bits::{bits_to_bytes, bytes_to_bits};
use aqua_coding::crc::crc16;

/// Journal knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalConfig {
    /// Staged bytes that force an automatic sync. Smaller values lose
    /// less on a crash and cost more flash writes; the relay's
    /// correctness-critical syncs (before ACK emission, at delivery)
    /// happen regardless.
    pub sync_every_bytes: usize,
    /// Log size that triggers snapshot + compaction (adaptively raised
    /// to twice the last snapshot when live state outgrows it).
    pub compact_budget_bytes: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            sync_every_bytes: 256,
            compact_budget_bytes: 64 * 1024,
        }
    }
}

/// Record type tags (byte 0 of every record body).
const TAG_ACCEPT: u8 = 0;
const TAG_RELEASE: u8 = 1;
const TAG_COPIES: u8 = 2;
const TAG_CURE: u8 = 3;
const TAG_SEEN: u8 = 4;
const TAG_FRAG_IN: u8 = 5;
const TAG_DELIVER: u8 = 6;

/// One custody-state mutation, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A bundle entered the store-and-forward queue (sourced or
    /// accepted from `came_from`) with this copy budget and absolute
    /// expiry. Implies a seen-filter insert, exactly as the live paths
    /// do.
    Accept {
        /// The hop the bundle was received from (self for sourced).
        came_from: u16,
        /// Spray copies held.
        copies: u8,
        /// Absolute expiry time (seconds).
        expires_s: f64,
        /// The stored bundle, header as this node re-transmits it.
        bundle: Bundle,
    },
    /// The bundle left the queue (custody transferred, delivered
    /// upstream, TTL-expired, or evicted for a higher priority).
    Release {
        /// Fragment identity released.
        key: BundleKey,
    },
    /// The held copy budget changed (spray halving, duplicate absorb).
    Copies {
        /// Fragment identity.
        key: BundleKey,
        /// New copy count.
        copies: u8,
    },
    /// The fragment is known delivered end-to-end (anti-packet state).
    Cure {
        /// Fragment identity cured.
        key: BundleKey,
    },
    /// Seen-filter insert with no queue change (snapshot use: preserves
    /// the FIFO eviction order of keys whose bundles have moved on).
    Seen {
        /// Fragment identity remembered.
        key: BundleKey,
    },
    /// A fragment of a message addressed *to this node* entered the
    /// reassembly buffer.
    FragIn {
        /// The received fragment.
        bundle: Bundle,
    },
    /// A complete message was handed to the application here.
    Deliver {
        /// Message source address.
        src: u16,
        /// Source's message sequence number.
        seq: u16,
    },
}

fn push_key(out: &mut Vec<u8>, k: BundleKey) {
    out.extend_from_slice(&k.src.to_be_bytes());
    out.extend_from_slice(&k.seq.to_be_bytes());
    out.extend_from_slice(&k.frag.to_be_bytes());
}

fn read_u16(b: &[u8], i: usize) -> u16 {
    u16::from_be_bytes([b[i], b[i + 1]])
}

fn read_key(b: &[u8]) -> BundleKey {
    BundleKey {
        src: read_u16(b, 0),
        seq: read_u16(b, 2),
        frag: read_u16(b, 4),
    }
}

/// Serializes a bundle for storage: its canonical wire bits, packed to
/// bytes. The wire frame is always a whole number of bytes, so the
/// packing is exact and the parse re-validates the CRC on replay.
fn bundle_to_bytes(b: &Bundle) -> Vec<u8> {
    bits_to_bytes(&b.to_bits())
}

fn bundle_from_bytes(bytes: &[u8]) -> Option<Bundle> {
    if bytes.len() * 8 < MIN_BUNDLE_BITS {
        return None;
    }
    Bundle::try_from_bits(&bytes_to_bits(bytes)).ok()
}

impl Record {
    /// Body bytes: type tag, then the type-specific payload.
    fn body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Accept {
                came_from,
                copies,
                expires_s,
                bundle,
            } => {
                out.push(TAG_ACCEPT);
                out.extend_from_slice(&came_from.to_be_bytes());
                out.push(*copies);
                out.extend_from_slice(&expires_s.to_bits().to_be_bytes());
                out.extend_from_slice(&bundle_to_bytes(bundle));
            }
            Self::Release { key } => {
                out.push(TAG_RELEASE);
                push_key(&mut out, *key);
            }
            Self::Copies { key, copies } => {
                out.push(TAG_COPIES);
                push_key(&mut out, *key);
                out.push(*copies);
            }
            Self::Cure { key } => {
                out.push(TAG_CURE);
                push_key(&mut out, *key);
            }
            Self::Seen { key } => {
                out.push(TAG_SEEN);
                push_key(&mut out, *key);
            }
            Self::FragIn { bundle } => {
                out.push(TAG_FRAG_IN);
                out.extend_from_slice(&bundle_to_bytes(bundle));
            }
            Self::Deliver { src, seq } => {
                out.push(TAG_DELIVER);
                out.extend_from_slice(&src.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
            }
        }
        out
    }

    /// Encodes one framed record: length prefix, body, CRC-16 over both.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.body();
        debug_assert!(body.len() <= u16::MAX as usize);
        let mut out = Vec::with_capacity(body.len() + 4);
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        out.extend_from_slice(&body);
        let crc = crc16(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes a CRC-validated body (`tag` = body byte 0, `p` = rest).
    /// `None` on any unknown tag or incoherent payload — the parser
    /// treats that as the torn tail.
    fn decode(tag: u8, p: &[u8]) -> Option<Self> {
        match tag {
            TAG_ACCEPT if p.len() > 11 => Some(Self::Accept {
                came_from: read_u16(p, 0),
                copies: p[2],
                expires_s: f64::from_bits(u64::from_be_bytes(p[3..11].try_into().ok()?)),
                bundle: bundle_from_bytes(&p[11..])?,
            }),
            TAG_RELEASE if p.len() == 6 => Some(Self::Release { key: read_key(p) }),
            TAG_COPIES if p.len() == 7 => Some(Self::Copies {
                key: read_key(p),
                copies: p[6],
            }),
            TAG_CURE if p.len() == 6 => Some(Self::Cure { key: read_key(p) }),
            TAG_SEEN if p.len() == 6 => Some(Self::Seen { key: read_key(p) }),
            TAG_FRAG_IN if !p.is_empty() => Some(Self::FragIn {
                bundle: bundle_from_bytes(p)?,
            }),
            TAG_DELIVER if p.len() == 4 => Some(Self::Deliver {
                src: read_u16(p, 0),
                seq: read_u16(p, 2),
            }),
            _ => None,
        }
    }

    /// The live queue entry an `Accept` record reconstructs: transient
    /// custody state (retry timers, spray exclusions, send times) is
    /// deliberately *not* durable — recovery re-arms it fresh.
    pub fn to_stored(came_from: u16, copies: u8, expires_s: f64, bundle: Bundle) -> StoredBundle {
        StoredBundle {
            bundle,
            came_from,
            copies,
            expires_s,
            last_sent_s: 0.0,
            state: CustodyState::Idle,
            retries: 0,
            sprayed_to: Vec::new(),
        }
    }
}

/// Parses a record chain from raw log bytes, stopping at the first
/// incomplete, corrupt or incoherent frame (the torn tail). Every
/// prefix of a valid chain parses to a prefix of its records.
pub fn parse_records(bytes: &[u8]) -> Vec<Record> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while bytes.len() - i >= 5 {
        let len = read_u16(bytes, i) as usize;
        if len == 0 || bytes.len() - i < len + 4 {
            break;
        }
        let framed = &bytes[i..i + 2 + len];
        let crc = read_u16(bytes, i + 2 + len);
        if crc16(framed) != crc {
            break;
        }
        let Some(rec) = Record::decode(framed[2], &framed[3..]) else {
            break;
        };
        out.push(rec);
        i += len + 4;
    }
    out
}

/// Cumulative journal counters (surfaced per node by the simulator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since boot (live writes, snapshots excluded).
    pub records: u64,
    /// Bytes appended since boot (live writes, snapshots excluded).
    pub bytes: u64,
    /// Sync operations that made staged bytes durable.
    pub syncs: u64,
    /// Snapshot + segment-swap compactions.
    pub compactions: u64,
}

/// The write-ahead journal over its simulated flash device.
#[derive(Debug, Clone)]
pub struct Journal {
    cfg: JournalConfig,
    /// Durable bytes: survive a crash in full.
    stable: Vec<u8>,
    /// Staged bytes: volatile write cache; a crash keeps only a
    /// deterministic torn prefix.
    staged: Vec<u8>,
    /// Complete records currently durable (the journal-bounded-loss
    /// floor a crash may never go below).
    stable_records: u64,
    staged_records: u64,
    /// Snapshot size at the last compaction (adaptive budget base).
    last_compact_bytes: usize,
    stats: JournalStats,
}

impl Journal {
    /// An empty journal on a blank flash device.
    pub fn new(cfg: JournalConfig) -> Self {
        Self {
            cfg,
            stable: Vec::new(),
            staged: Vec::new(),
            stable_records: 0,
            staged_records: 0,
            last_compact_bytes: 0,
            stats: JournalStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Total log bytes on flash (durable + staged).
    fn len_bytes(&self) -> usize {
        self.stable.len() + self.staged.len()
    }

    /// Complete records guaranteed to survive a crash right now.
    pub fn durable_records(&self) -> u64 {
        self.stable_records
    }

    /// Appends one record to the staged buffer, auto-syncing at the
    /// configured granularity.
    pub fn append(&mut self, rec: &Record) {
        let frame = rec.encode();
        self.stats.records += 1;
        self.stats.bytes += frame.len() as u64;
        self.staged.extend_from_slice(&frame);
        self.staged_records += 1;
        if self.staged.len() >= self.cfg.sync_every_bytes {
            self.sync();
        }
    }

    /// Flushes the staged buffer to durable storage.
    pub fn sync(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        self.stable.append(&mut self.staged);
        self.stable_records += self.staged_records;
        self.staged_records = 0;
        self.stats.syncs += 1;
    }

    /// Whether the log has outgrown its (adaptive) compaction budget.
    pub fn wants_compaction(&self) -> bool {
        self.len_bytes()
            > self
                .cfg
                .compact_budget_bytes
                .max(2 * self.last_compact_bytes)
    }

    /// Replaces the whole log with a snapshot of live state. Atomic by
    /// construction: this models a flash segment swap sealed by a
    /// commit record — the new segment is complete before the old one
    /// is retired, so a crash lands on one or the other, never between.
    pub fn compact(&mut self, snapshot: &[Record]) {
        self.stable.clear();
        for rec in snapshot {
            self.stable.extend_from_slice(&rec.encode());
        }
        self.staged.clear();
        self.stable_records = snapshot.len() as u64;
        self.staged_records = 0;
        self.last_compact_bytes = self.stable.len();
        self.stats.compactions += 1;
    }

    /// Crashes the device: durable bytes survive, the staged buffer is
    /// torn at a deterministic point (`torn_seed` picks the surviving
    /// prefix length), and the log is replayed. Returns the records
    /// that were durable at the crash and everything recovered —
    /// recovery is a prefix of the appended records and always covers
    /// the durable ones (`recovered.len() >= durable`).
    pub fn crash(&mut self, torn_seed: u64) -> (u64, Vec<Record>) {
        let durable = self.stable_records;
        let keep = (torn_seed % (self.staged.len() as u64 + 1)) as usize;
        self.stable.extend_from_slice(&self.staged[..keep]);
        self.staged.clear();
        self.staged_records = 0;
        let recovered = parse_records(&self.stable);
        // Seal the torn tail: rewrite the log as exactly the recovered
        // chain so post-reboot appends extend a clean prefix.
        self.stable.clear();
        for rec in &recovered {
            self.stable.extend_from_slice(&rec.encode());
        }
        self.stable_records = recovered.len() as u64;
        debug_assert!(self.stable_records >= durable, "synced records lost");
        (durable, recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{fragment_message, Priority};

    fn demo_bundle(seq: u16) -> Bundle {
        fragment_message(3, 9, seq, Priority::Chat, true, 600, 4, &[1, 2, 3, 4, 5], 4)
            .expect("valid geometry")
            .remove(0)
    }

    fn demo_records() -> Vec<Record> {
        let b = demo_bundle(7);
        let key = b.key();
        vec![
            Record::Accept {
                came_from: 2,
                copies: 4,
                expires_s: 612.5,
                bundle: b.clone(),
            },
            Record::Copies { key, copies: 2 },
            Record::Seen { key },
            Record::Cure { key },
            Record::FragIn { bundle: b },
            Record::Deliver { src: 3, seq: 7 },
            Record::Release { key },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in demo_records() {
            let got = parse_records(&rec.encode());
            assert_eq!(got, vec![rec]);
        }
        let all = demo_records();
        let bytes: Vec<u8> = all.iter().flat_map(|r| r.encode()).collect();
        assert_eq!(parse_records(&bytes), all);
    }

    #[test]
    fn truncation_recovers_a_prefix() {
        let all = demo_records();
        let bytes: Vec<u8> = all.iter().flat_map(|r| r.encode()).collect();
        for cut in 0..=bytes.len() {
            let got = parse_records(&bytes[..cut]);
            assert!(got.len() <= all.len());
            assert_eq!(got[..], all[..got.len()], "cut at {cut} must be a prefix");
        }
    }

    #[test]
    fn corruption_stops_the_chain() {
        let all = demo_records();
        let bytes: Vec<u8> = all.iter().flat_map(|r| r.encode()).collect();
        let mut bad = bytes.clone();
        bad[0] ^= 0x40; // wreck the first length prefix
        assert!(parse_records(&bad).len() < all.len());
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        let got = parse_records(&bad);
        assert!(got.len() < all.len(), "a mid-log flip cannot parse clean");
        assert_eq!(got[..], all[..got.len()], "prefix before the flip survives");
    }

    #[test]
    fn crash_keeps_synced_records_and_a_torn_prefix() {
        let mut j = Journal::new(JournalConfig {
            sync_every_bytes: usize::MAX,
            compact_budget_bytes: usize::MAX,
        });
        let all = demo_records();
        for r in &all[..3] {
            j.append(r);
        }
        j.sync();
        for r in &all[3..] {
            j.append(r);
        }
        assert_eq!(j.durable_records(), 3);
        // Torn mid-way through the staged tail: the synced three always
        // survive; whatever staged prefix parses rides along.
        for torn in [0u64, 1, 7, 1000, u64::MAX] {
            let mut crashed = j.clone();
            let (durable, rec) = crashed.crash(torn);
            assert_eq!(durable, 3);
            assert!(rec.len() >= 3, "synced records must survive");
            assert_eq!(rec[..], all[..rec.len()], "recovery is a prefix");
        }
    }

    #[test]
    fn auto_sync_honors_the_granularity() {
        let mut j = Journal::new(JournalConfig {
            sync_every_bytes: 1,
            compact_budget_bytes: usize::MAX,
        });
        for r in demo_records() {
            j.append(&r);
        }
        let n = j.stats().records;
        assert_eq!(
            j.durable_records(),
            n,
            "1-byte granularity syncs every append"
        );
        let (durable, rec) = j.crash(12345);
        assert_eq!(durable, n);
        assert_eq!(rec.len() as u64, n, "nothing staged, nothing lost");
    }

    #[test]
    fn compaction_swaps_in_the_snapshot_atomically() {
        let mut j = Journal::new(JournalConfig {
            sync_every_bytes: 64,
            compact_budget_bytes: 128,
        });
        for _ in 0..16 {
            for r in demo_records() {
                j.append(&r);
            }
        }
        assert!(j.wants_compaction());
        let snap = vec![Record::Deliver { src: 1, seq: 2 }];
        j.compact(&snap);
        assert!(!j.wants_compaction());
        assert_eq!(j.durable_records(), 1);
        let (_, rec) = j.crash(99);
        assert_eq!(rec, snap, "post-compaction log is exactly the snapshot");
        assert_eq!(j.stats().compactions, 1);
    }
}
