//! Streaming statistics for ocean-scale runs: collision accounting,
//! latency histogram and delivery fairness, all with memory bounded by
//! O(nodes + concurrent packets) — never O(transmissions). A 24 h
//! 10 000-node deployment emits millions of packets; storing per-packet
//! timestamps (what [`crate::netsim::collision_stats`] consumes) is
//! exactly what the ocean simulator must not do.
//!
//! [`CollisionWindow`] replicates the batch `collision_stats` semantics
//! one packet at a time: the simulator feeds transmission starts in
//! non-decreasing time order (the event queue guarantees it), a sliding
//! window keeps only starts within one packet duration, and a packet's
//! collided flag is final once it slides out. On identical input streams
//! the fractions are **bit-identical** to the batch pass — pinned by the
//! unit tests below across the same edge cases the batch fix covers.

use std::collections::VecDeque;

/// Streaming equivalent of [`crate::netsim::collision_stats`]: packets
/// whose start times fall within one packet duration of each other — from
/// different transmitters — collide.
#[derive(Debug, Clone)]
pub struct CollisionWindow {
    dur: f64,
    /// Starts within `dur` of the newest packet: `(tx, t, collided)`.
    window: VecDeque<(u32, f64, bool)>,
    total: u64,
    collided: u64,
    per_node_sent: Vec<u64>,
    per_node_collided: Vec<u64>,
    last_t: f64,
}

impl CollisionWindow {
    /// A window for `n` nodes and the given packet duration.
    pub fn new(n: usize, packet_duration_s: f64) -> Self {
        Self {
            dur: packet_duration_s,
            window: VecDeque::new(),
            total: 0,
            collided: 0,
            per_node_sent: vec![0; n],
            per_node_collided: vec![0; n],
            last_t: f64::NEG_INFINITY,
        }
    }

    /// Feeds one transmission start. Starts must arrive in non-decreasing
    /// time order.
    pub fn push(&mut self, tx: u32, t: f64) {
        debug_assert!(t >= self.last_t, "starts must be time-ordered");
        self.last_t = t;
        // Everything at least one packet duration old can no longer
        // collide with this or any future start: retire it. (`>=`
        // mirrors the batch pass's `break` condition, which also makes a
        // zero or negative duration mean "nothing ever collides".)
        while let Some(&(ftx, ft, fc)) = self.window.front() {
            if t - ft >= self.dur {
                self.retire(ftx, fc);
                self.window.pop_front();
            } else {
                break;
            }
        }
        let mut collided = false;
        for &mut (wtx, _, ref mut wc) in self.window.iter_mut() {
            if wtx != tx {
                *wc = true;
                collided = true;
            }
        }
        self.window.push_back((tx, t, collided));
    }

    fn retire(&mut self, tx: u32, collided: bool) {
        self.total += 1;
        self.per_node_sent[tx as usize] += 1;
        if collided {
            self.collided += 1;
            self.per_node_collided[tx as usize] += 1;
        }
    }

    /// Retires everything still in flight and returns
    /// `(collision_fraction, per_node_collision_fraction)` — the same
    /// numbers the batch pass computes from the full timestamp list.
    pub fn finish(mut self) -> (f64, Vec<f64>) {
        while let Some((tx, _, c)) = self.window.pop_front() {
            self.retire(tx, c);
        }
        let frac = self.collided as f64 / self.total.max(1) as f64;
        let per: Vec<f64> = self
            .per_node_sent
            .iter()
            .zip(&self.per_node_collided)
            .map(|(&s, &c)| if s == 0 { 0.0 } else { c as f64 / s as f64 })
            .collect();
        (frac, per)
    }

    /// Current window length — the memory high-water mark driver.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

/// Fixed-size logarithmic latency histogram (bounded memory, no
/// per-packet storage). Buckets span 10 ms to 1000 s.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const LAT_LO: f64 = 0.01;
const LAT_HI: f64 = 1000.0;

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one latency sample (seconds).
    pub fn record(&mut self, latency_s: f64) {
        let l = latency_s.max(0.0);
        self.count += 1;
        self.sum += l;
        self.min = self.min.min(l);
        self.max = self.max.max(l);
        let pos = (l.max(LAT_LO) / LAT_LO).ln() / (LAT_HI / LAT_LO).ln();
        let b = ((pos * 64.0) as usize).min(63);
        self.buckets[b] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile: the geometric center of the bucket holding
    /// the `q`-quantile sample (resolution ~±10 %, enough for a latency
    /// table row). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = LAT_LO * (LAT_HI / LAT_LO).powf(b as f64 / 64.0);
                let hi = LAT_LO * (LAT_HI / LAT_LO).powf((b as f64 + 1.0) / 64.0);
                return (lo * hi).sqrt();
            }
        }
        self.max
    }
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Jain's fairness index over per-node delivered-packet counts:
/// `(Σx)² / (m·Σx²)`, 1.0 for perfectly even delivery, → 1/m when one
/// node gets everything. Empty or all-zero input is defined as 1.0.
pub fn jain_fairness(counts: &[u64]) -> f64 {
    let m = counts.len();
    if m == 0 {
        return 1.0;
    }
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (m as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::collision_stats;

    /// Feeds a tx_times schedule through the window in global time order
    /// (ties by node index — the event-queue order) and compares against
    /// the batch oracle bit-for-bit.
    fn assert_matches_batch(tx_times: &[Vec<f64>], dur: f64) {
        let mut all: Vec<(u32, f64)> = Vec::new();
        for (tx, ts) in tx_times.iter().enumerate() {
            for &t in ts {
                all.push((tx as u32, t));
            }
        }
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut w = CollisionWindow::new(tx_times.len(), dur);
        for &(tx, t) in &all {
            w.push(tx, t);
        }
        let (sf, sp) = w.finish();
        let (bf, bp) = collision_stats(tx_times, dur);
        assert_eq!(sf.to_bits(), bf.to_bits(), "fraction {sf} vs {bf}");
        assert_eq!(sp.len(), bp.len());
        for (a, b) in sp.iter().zip(&bp) {
            assert_eq!(a.to_bits(), b.to_bits(), "per-node {a} vs {b}");
        }
    }

    #[test]
    fn matches_batch_on_edge_cases() {
        // empty schedules
        assert_matches_batch(&[vec![], vec![]], 0.55);
        assert_matches_batch(&[], 0.55);
        // zero duration: nothing collides
        assert_matches_batch(&[vec![0.0, 0.1], vec![0.05]], 0.0);
        // single node never collides with itself
        assert_matches_batch(&[vec![0.0, 0.1, 0.2, 0.3]], 0.55);
        // simultaneous timestamps across nodes
        assert_matches_batch(&[vec![1.0, 2.0], vec![1.0], vec![1.0, 5.0]], 0.55);
        // dense overlap chain
        assert_matches_batch(&[vec![0.0, 0.5, 1.0], vec![0.25, 0.75], vec![0.4]], 0.55);
        // well separated
        assert_matches_batch(&[vec![0.0, 10.0], vec![5.0, 15.0]], 0.55);
    }

    #[test]
    fn matches_batch_on_random_schedules() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let n = rng.gen_range(1..5);
            let tx_times: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let k = rng.gen_range(0..12);
                    let mut ts: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..8.0)).collect();
                    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    ts
                })
                .collect();
            assert_matches_batch(&tx_times, 0.55);
        }
    }

    #[test]
    fn window_memory_stays_bounded() {
        let mut w = CollisionWindow::new(2, 0.55);
        for i in 0..10_000 {
            w.push((i % 2) as u32, i as f64 * 0.1);
        }
        assert!(w.window_len() <= 6, "window {}", w.window_len());
    }

    #[test]
    fn latency_hist_quantiles_and_mean() {
        let mut h = LatencyHist::new();
        for i in 1..=100 {
            h.record(i as f64 * 0.1); // 0.1 .. 10.0 s
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 5.05).abs() < 1e-9);
        let med = h.quantile(0.5);
        assert!((4.0..6.5).contains(&med), "median bucket {med}");
        assert!(h.quantile(0.9) > med);
        assert_eq!(LatencyHist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0]), 1.0);
        assert_eq!(jain_fairness(&[7, 7, 7, 7]), 1.0);
        let skew = jain_fairness(&[100, 0, 0, 0]);
        assert!((skew - 0.25).abs() < 1e-12);
        let mild = jain_fairness(&[3, 4, 5]);
        assert!(mild > 0.9 && mild < 1.0);
    }
}
