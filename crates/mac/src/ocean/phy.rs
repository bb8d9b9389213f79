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
//! range at that SINR indexes the same PER table. Probe renders are
//! memoized per 0.5 m range bucket in [`ProbeCache`], so a 10 000-node
//! run performs a few hundred sample-level renders, not millions.
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
use std::collections::HashMap;
use std::sync::Mutex;

use super::event::Reception;
use super::per_table::{Band, PerTable};
use super::topology::{RangeGain, TX_POWER};

/// Probe-power cache: mean-square received power of the standard wideband
/// probe, rendered sample-level through the real channel at quantized
/// ranges.
///
/// Renders are lazy and memoized per 0.5 m bucket behind a mutex; the
/// cached value is a pure function of the bucket (fixed probe seed, fixed
/// geometry), so concurrent fills from pool workers cannot perturb
/// results — only who pays the render.
pub struct ProbeCache {
    env: Environment,
    cells: Mutex<HashMap<u32, f64>>,
}

/// Range quantization of the probe cache (meters per bucket).
pub const PROBE_BUCKET_M: f64 = 0.5;
const PROBE_SEED: u64 = 0x0CEA_0CEA;
const PROBE_SAMPLES: usize = 4800; // 0.1 s at 48 kHz

impl ProbeCache {
    /// A cache rendering probes in the given environment at 2 m depth.
    pub fn new(env: Environment) -> Self {
        Self {
            env,
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The lake cache (the calibration environment of the PER knots).
    pub fn lake() -> Self {
        Self::new(Environment::preset(Site::Lake))
    }

    fn bucket(range_m: f64) -> u32 {
        (range_m.max(1.0) / PROBE_BUCKET_M).round() as u32
    }

    /// Rendered received power (mean square) at `range_m`, quantized to
    /// the cache bucket.
    pub fn power(&self, range_m: f64) -> f64 {
        let b = Self::bucket(range_m);
        let mut cells = self.cells.lock().expect("probe cache poisoned");
        *cells.entry(b).or_insert_with(|| {
            let r = b as f64 * PROBE_BUCKET_M;
            let mut cfg = LinkConfig::s9_pair(
                self.env.clone(),
                Pos::new(0.0, 0.0, 2.0),
                Pos::new(r, 0.0, 2.0),
                PROBE_SEED,
            );
            cfg.noise = false;
            cfg.impulses = false;
            let mut link = Link::new(cfg);
            let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ b as u64);
            // Uniform white probe scaled to the standard TX_POWER band
            // power (rms² = 0.04): uniform on [-1, 1] has power 1/3.
            let scale = (TX_POWER * 3.0).sqrt();
            let probe: Vec<f64> = (0..PROBE_SAMPLES)
                .map(|_| rng.gen_range(-1.0..=1.0) * scale)
                .collect();
            let rx = link.transmit(&probe, 0.0);
            rx.iter().map(|&x| x * x).sum::<f64>() / rx.len().max(1) as f64
        })
    }

    /// Number of distinct range buckets rendered so far (the count of
    /// sample-level link renders the whole run paid).
    pub fn rendered_buckets(&self) -> usize {
        self.cells.lock().expect("probe cache poisoned").len()
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
    /// lake probe cache and per-reception RNG keyed by `seed`.
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

    /// Sample-level renders performed so far.
    pub fn rendered_buckets(&self) -> usize {
        self.probe.rendered_buckets()
    }

    /// Resolves one reception. Pure in `(rx, self.seed)` up to the
    /// memoized probe renders (whose values are themselves pure).
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
            let mut rx = clean_rx(25.0);
            rx.start_s = k as f64; // vary the Bernoulli key
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
}
