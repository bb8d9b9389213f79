//! Reception-outcome resolution: the PER-table fast path and the
//! sample-level slow path, plus the dispatch rule between them.
//!
//! **Dispatch rule** (DESIGN.md §11): a reception with **no** overlapping
//! transmission at its destination is decided straight from the
//! [`PerTable`] — its fate depends only on link SNR, which the recorded
//! range/PER curves already measure. Only receptions with actual
//! time-overlap at the receiver — where no single-link curve applies —
//! invoke the sample-level machinery: received powers are *rendered*
//! through the real [`aqua_channel::link::Link`] (a seeded wideband probe
//! through the same multipath + device chain as every dive-site
//! experiment, riding the PR 4 bit-exact geometry-keyed FIR memo), the
//! SINR over the overlap is formed, and the equivalent interference-free
//! range at that SINR indexes the same PER table. Probe powers live in
//! one process-wide table of 0.5 m range buckets behind [`ProbeCache`]:
//! each bucket is rendered sample-level once per process, on first read,
//! so every run, repetition and relay simulation in a process shares at
//! most a few hundred renders (the lake hearing radius spans 246
//! buckets), and reads take no lock.
//!
//! Every outcome is a pure function of `(reception, seed)`: the Bernoulli
//! draw comes from a per-reception `StdRng` keyed by
//! `(seed, tx, dest, start time)`, never from a shared stream — which is
//! what lets the ocean simulator fan reception batches across
//! [`aqua_par::Pool`] workers with bit-identical results in any order
//! (`mac/tests/ocean_determinism.rs`).

use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use super::event::Reception;
use super::per_table::{Band, PerTable};
use super::topology::{RangeGain, TX_POWER};

/// Range quantization of the probe cache (meters per bucket).
pub const PROBE_BUCKET_M: f64 = 0.5;
const PROBE_SEED: u64 = 0x0CEA_0CEA;
const PROBE_SAMPLES: usize = 4800; // 0.1 s at 48 kHz

/// Buckets in the process-wide probe table: ranges up to 256 m, about
/// twice the lake hearing radius (~123 m, bucket 246).
const PROBE_TABLE_BUCKETS: usize = 512;

/// Lake probe power per bucket, rendered on first read and never again
/// in this process. Each value is a pure function of its bucket (fixed
/// probe seed, fixed geometry), so which thread or run fills a slot
/// cannot change it.
static PROBE_TABLE: [OnceLock<f64>; PROBE_TABLE_BUCKETS] =
    [const { OnceLock::new() }; PROBE_TABLE_BUCKETS];

/// Mean-square received power of the standard wideband probe, rendered
/// sample-level through the real lake channel at the centre of `bucket`.
fn render_probe(bucket: u32) -> f64 {
    let r = bucket as f64 * PROBE_BUCKET_M;
    let mut cfg = LinkConfig::s9_pair(
        Environment::preset(Site::Lake),
        Pos::new(0.0, 0.0, 2.0),
        Pos::new(r, 0.0, 2.0),
        PROBE_SEED,
    );
    cfg.noise = false;
    cfg.impulses = false;
    let mut link = Link::new(cfg);
    let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ bucket as u64);
    // Uniform white probe scaled to the standard TX_POWER band
    // power (rms² = 0.04): uniform on [-1, 1] has power 1/3.
    let scale = (TX_POWER * 3.0).sqrt();
    let probe: Vec<f64> = (0..PROBE_SAMPLES)
        .map(|_| rng.gen_range(-1.0..=1.0) * scale)
        .collect();
    let rx = link.transmit(&probe, 0.0);
    rx.iter().map(|&x| x * x).sum::<f64>() / rx.len().max(1) as f64
}

/// One run's view of the process-wide lake probe table: mean-square
/// received power of the standard wideband probe, rendered sample-level
/// through the real channel at 0.5 m range buckets at 2 m depth.
///
/// Reads take no lock: the powers live in a `static` table of
/// `OnceLock`s that the first reader of a bucket fills, whichever run or
/// pool worker it belongs to. The cache itself only records which
/// buckets it read (an atomic bitset), so [`Self::rendered_buckets`]
/// counts this run's buckets however warm the table already was. A range
/// whose bucket lies past the table (about 256 m and beyond) is rendered
/// on every read and stored nowhere.
pub struct ProbeCache {
    /// Bit `b` is set once bucket `b` was read. Both counters are
    /// statistics that publish no other data, so `Relaxed` suffices: the
    /// run reads them after its pool calls have joined.
    read: [AtomicU64; PROBE_TABLE_BUCKETS / 64],
    /// Reads past the table, each of which rendered.
    past_table: AtomicUsize,
}

impl ProbeCache {
    /// A cache over the lake table (the calibration environment of the
    /// PER knots) that has read nothing yet.
    pub fn lake() -> Self {
        Self {
            read: [const { AtomicU64::new(0) }; PROBE_TABLE_BUCKETS / 64],
            past_table: AtomicUsize::new(0),
        }
    }

    fn bucket(range_m: f64) -> u32 {
        (range_m.max(1.0) / PROBE_BUCKET_M).round() as u32
    }

    /// Rendered received power (mean square) at `range_m`, quantized to
    /// the cache bucket.
    pub fn power(&self, range_m: f64) -> f64 {
        let b = Self::bucket(range_m);
        let Some(slot) = PROBE_TABLE.get(b as usize) else {
            self.past_table.fetch_add(1, Ordering::Relaxed);
            return render_probe(b);
        };
        let (word, bit) = (&self.read[b as usize / 64], 1u64 << (b % 64));
        // Load first: once a bucket is marked, reads leave the word's
        // cache line shared between workers.
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
        *slot.get_or_init(|| render_probe(b))
    }

    /// Distinct table buckets this cache read, plus one for every read
    /// past the table (each of which renders). Every table bucket is
    /// rendered at most once per process, so this is the count of
    /// sample-level renders the run would pay in a fresh process.
    pub fn rendered_buckets(&self) -> usize {
        let in_table: u32 = self
            .read
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum();
        in_table as usize + self.past_table.load(Ordering::Relaxed)
    }
}

/// Fate of one reception after PHY resolution.
#[derive(Debug, Clone, Copy)]
pub struct RxOutcome {
    /// Transmitting node.
    pub tx: u32,
    /// Destination node.
    pub dest: u32,
    /// Whether the packet was delivered.
    pub delivered: bool,
    /// Whether resolution went through the sample-level overlap path.
    pub overlap: bool,
    /// Whether the destination was transmitting (half-duplex loss).
    pub dest_busy: bool,
    /// End-to-end latency: carrier-sense access delay + propagation +
    /// packet duration (seconds).
    pub latency_s: f64,
}

/// The dispatcher: owns the PER table, the probe cache and the RNG
/// keying. Shared immutably across pool workers.
pub struct PhyResolver {
    table: PerTable,
    band: Band,
    rg: RangeGain,
    probe: ProbeCache,
    packet_duration_s: f64,
    seed: u64,
}

impl PhyResolver {
    /// A resolver for the given band using the recorded PER table, the
    /// process-wide lake probe table and per-reception RNG keyed by
    /// `seed`.
    pub fn new(band: Band, rg: RangeGain, packet_duration_s: f64, seed: u64) -> Self {
        Self {
            table: PerTable::recorded(),
            band,
            rg,
            probe: ProbeCache::lake(),
            packet_duration_s,
            seed,
        }
    }

    /// Distinct probe buckets this resolver read so far (see
    /// [`ProbeCache::rendered_buckets`]): the sample-level renders it
    /// would pay in a fresh process.
    pub fn rendered_buckets(&self) -> usize {
        self.probe.rendered_buckets()
    }

    /// Resolves one reception. Pure in `(rx, self.seed)`: the probe
    /// table's values are themselves pure functions of their buckets.
    pub fn resolve(&self, rx: &Reception) -> RxOutcome {
        let prop = rx.arrival_s - rx.start_s;
        let range = (prop * super::event::SOUND_SPEED).max(1.0);
        let latency_s = rx.access_delay_s + prop + self.packet_duration_s;
        let base = RxOutcome {
            tx: rx.tx,
            dest: rx.dest,
            delivered: false,
            overlap: !rx.interferers.is_empty(),
            dest_busy: rx.dest_busy,
            latency_s,
        };
        if rx.dest_busy {
            // Half-duplex: receiver was transmitting during the window.
            return base;
        }
        let per = if rx.interferers.is_empty() {
            // Fast path: clean reception, recorded curve applies.
            self.table.per(self.band, range)
        } else {
            // Slow path: render signal and interferer powers sample-level
            // and fold the SINR back into an equivalent clean range.
            let p_sig = self.probe.power(range);
            let mut interference = 0.0;
            for itf in &rx.interferers {
                let r_itf = self.rg.range_for_sensed(itf.power);
                let frac = (itf.overlap_s / self.packet_duration_s).clamp(0.0, 1.0);
                interference += self.probe.power(r_itf) * frac;
            }
            // Rendered powers and the budget noise floor share units
            // (in-band power relative to the 0.04 transmit band power),
            // so the SINR composes directly; the calibrated fit then
            // inverts it into the clean range with the same SNR, which
            // indexes the recorded PER curve.
            let noise = self.rg.noise;
            let sinr = p_sig / (noise + interference);
            let r_eff = self
                .rg
                .range_for_sensed((sinr * noise).max(f64::MIN_POSITIVE));
            self.table.per(self.band, r_eff)
        };
        let mut rng = StdRng::seed_from_u64(reception_key(
            self.seed,
            rx.tx,
            rx.dest,
            rx.start_s.to_bits(),
        ));
        let u: f64 = rng.gen_range(0.0..1.0);
        RxOutcome {
            delivered: u >= per,
            ..base
        }
    }
}

/// SplitMix64-style mixing of the reception identity into an RNG seed:
/// decorrelated across `(tx, dest, start)` while fully deterministic.
fn reception_key(seed: u64, tx: u32, dest: u32, start_bits: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for w in [tx as u64, dest as u64, start_bits] {
        h = rand::mix64((h ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocean::event::Interferer;

    fn clean_rx(range_m: f64) -> Reception {
        let prop = range_m / super::super::event::SOUND_SPEED;
        Reception {
            tx: 0,
            dest: 1,
            start_s: 10.0,
            arrival_s: 10.0 + prop,
            access_delay_s: 0.16,
            dest_busy: false,
            interferers: vec![],
        }
    }

    #[test]
    fn clean_reception_at_close_range_delivers() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        // Adaptive PER at 5 m is exactly 0: always delivered.
        let out = phy.resolve(&clean_rx(5.0));
        assert!(out.delivered && !out.overlap && !out.dest_busy);
        assert!((out.latency_s - (0.16 + 5.0 / 1500.0 + 0.55)).abs() < 1e-12);
        assert_eq!(phy.rendered_buckets(), 0, "fast path renders nothing");
    }

    #[test]
    fn dest_busy_always_loses() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        let mut rx = clean_rx(5.0);
        rx.dest_busy = true;
        assert!(!phy.resolve(&rx).delivered);
    }

    #[test]
    fn heavy_overlap_hurts_delivery() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        let mut delivered_clean = 0;
        let mut delivered_jammed = 0;
        for k in 0..40 {
            // Vary the Bernoulli key; the arrival moves with the start,
            // so every reception crosses the same 25 m link.
            let mut rx = clean_rx(25.0);
            rx.start_s = k as f64;
            rx.arrival_s = rx.start_s + 25.0 / super::super::event::SOUND_SPEED;
            if phy.resolve(&rx).delivered {
                delivered_clean += 1;
            }
            // Equal-power interferer overlapping the full window.
            rx.interferers = vec![Interferer {
                node: 2,
                power: rg.sensed(25.0),
                overlap_s: 0.55,
            }];
            if phy.resolve(&rx).delivered {
                delivered_jammed += 1;
            }
        }
        assert!(
            delivered_jammed < delivered_clean,
            "jammed {delivered_jammed} vs clean {delivered_clean}"
        );
        assert!(phy.rendered_buckets() >= 1, "slow path rendered probes");
    }

    #[test]
    fn outcomes_are_deterministic() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 42);
        let mut rx = clean_rx(28.0);
        rx.interferers = vec![Interferer {
            node: 3,
            power: rg.sensed(40.0),
            overlap_s: 0.2,
        }];
        let a = phy.resolve(&rx);
        let b = phy.resolve(&rx);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
    }

    #[test]
    fn probe_power_falls_with_range() {
        let probe = ProbeCache::lake();
        let near = probe.power(5.0);
        let far = probe.power(40.0);
        assert!(near > far, "{near} vs {far}");
        assert_eq!(probe.rendered_buckets(), 2);
        // Memoized: same bucket, no third render.
        let again = probe.power(5.1);
        assert_eq!(again.to_bits(), probe.power(5.0).to_bits());
        assert_eq!(probe.rendered_buckets(), 2);
    }

    // The probe_table_* tests are the shared table's contract; ci.sh runs
    // them in release, where the first one covers every bucket.

    #[test]
    fn probe_table_matches_fresh_renders() {
        // Buckets 2..=246 span the lake hearing radius (1-123 m). Reads
        // land off the bucket centre, so a table keyed by the first range
        // read instead of by bucket shows.
        let stride = if cfg!(debug_assertions) { 8 } else { 1 };
        let probe = ProbeCache::lake();
        for b in (2..=246u32).step_by(stride) {
            let r = b as f64 * PROBE_BUCKET_M + 0.2;
            assert_eq!(
                probe.power(r).to_bits(),
                render_probe(b).to_bits(),
                "bucket {b}"
            );
        }
    }

    #[test]
    fn probe_table_reads_agree_across_threads() {
        // Buckets 300..332 (150-166 m) lie past the hearing radius, so no
        // other test or run fills them: the four threads race to render.
        let buckets: Vec<u32> = (300..332).collect();
        let probe = ProbeCache::lake();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<(u32, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (probe, start, buckets) = (&probe, &start, &buckets);
                    s.spawn(move || {
                        let mut order: Vec<u32> = buckets.clone();
                        order.rotate_left(t * 8);
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        start.wait();
                        let mut got: Vec<(u32, u64)> = order
                            .iter()
                            .map(|&b| (b, probe.power(b as f64 * PROBE_BUCKET_M).to_bits()))
                            .collect();
                        got.sort_unstable();
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &seen[1..] {
            assert_eq!(got, &seen[0]);
        }
        for &(b, bits) in &seen[0] {
            assert_eq!(bits, render_probe(b).to_bits(), "bucket {b}");
        }
        assert_eq!(probe.rendered_buckets(), buckets.len());
    }

    #[test]
    fn probe_table_counts_only_this_caches_reads() {
        let warm = ProbeCache::lake();
        for r in [10.0, 20.0, 30.0] {
            warm.power(r);
        }
        assert_eq!(warm.rendered_buckets(), 3);
        // A later cache starts from zero however warm the table is, and
        // counts a bucket once however often it reads it.
        let fresh = ProbeCache::lake();
        assert_eq!(fresh.rendered_buckets(), 0);
        fresh.power(20.0);
        fresh.power(20.1);
        fresh.power(40.0);
        assert_eq!(fresh.rendered_buckets(), 2);
        assert_eq!(warm.rendered_buckets(), 3);
    }

    #[test]
    fn probe_table_past_the_end_renders_fresh() {
        let probe = ProbeCache::lake();
        let last = (PROBE_TABLE_BUCKETS - 1) as u32;
        let past = PROBE_TABLE_BUCKETS as u32;
        let last_r = last as f64 * PROBE_BUCKET_M;
        let past_r = past as f64 * PROBE_BUCKET_M;
        assert_eq!(probe.power(last_r).to_bits(), render_probe(last).to_bits());
        assert_eq!(probe.power(past_r).to_bits(), render_probe(past).to_bits());
        // Past the table nothing is stored: each read renders and counts.
        assert_eq!(probe.power(past_r).to_bits(), render_probe(past).to_bits());
        assert_eq!(probe.rendered_buckets(), 3);
    }
}
