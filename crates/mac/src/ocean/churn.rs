//! Node churn for ocean deployments: hard failures with recovery, and
//! duty-cycle sleep.
//!
//! Real deployed nodes are not always-on: batteries brown out, moorings
//! drag, firmware watchdogs reboot, and long-lived sensors spend most of
//! their duty cycle asleep. Churn enters the event core through the
//! [`super::event::SimHooks::wake_at`] seam: a state event landing on an
//! unavailable node is *deferred* to its wake slot — no node state is
//! touched and no RNG is drawn, so a schedule with no downtime is
//! bit-identical to no churn at all (the oracle-equivalence contract the
//! event core is built on). A sleeping destination loses receptions at
//! resolve time instead.
//!
//! The whole schedule is precomputed from its own splitmix stream,
//! independent of the MAC RNG: churn timing never perturbs MAC draws, and
//! the same seed gives the same outages whatever the traffic does.

/// Churn model parameters. [`ChurnConfig::none`] disables everything.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Mean time between failures per node (seconds); `0` disables
    /// failures.
    pub mtbf_s: f64,
    /// Mean outage duration after a failure (seconds).
    pub mttr_s: f64,
    /// Fraction of each duty period a node is awake; `1.0` disables
    /// duty-cycle sleep.
    pub duty_cycle: f64,
    /// Duty period length (seconds); per-node phase is randomized.
    pub duty_period_s: f64,
}

impl ChurnConfig {
    /// No churn: every node up for the whole run.
    pub fn none() -> Self {
        Self {
            mtbf_s: 0.0,
            mttr_s: 0.0,
            duty_cycle: 1.0,
            duty_period_s: 0.0,
        }
    }

    /// True when this config produces no downtime at all.
    pub fn is_none(&self) -> bool {
        (self.mtbf_s <= 0.0 || self.mttr_s <= 0.0) && self.duty_cycle >= 1.0
    }
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self::none()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    rand::mix64(*state)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential draw with the given mean (seconds).
fn exp_draw(state: &mut u64, mean_s: f64) -> f64 {
    let u = unit(state);
    -mean_s * (1.0 - u).ln()
}

/// Precomputed per-node downtime intervals in slot units.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    /// Per node: disjoint `(down_start, down_end)` slot intervals,
    /// ascending. A node is unavailable at slot `t` iff some interval has
    /// `start <= t < end`.
    down: Vec<Vec<(u64, u64)>>,
    max_slots: u64,
}

impl ChurnSchedule {
    /// Generates the schedule for `nodes` nodes over `max_slots` slots of
    /// `slot_s` seconds. Deterministic in `(cfg, seed)`; the RNG stream is
    /// private to the schedule (per node, salted by index), so generation
    /// order never matters.
    pub fn generate(
        cfg: &ChurnConfig,
        nodes: usize,
        max_slots: u64,
        slot_s: f64,
        seed: u64,
    ) -> Self {
        let dur_s = max_slots as f64 * slot_s;
        let mut down = vec![Vec::new(); nodes];
        if cfg.is_none() {
            return Self { down, max_slots };
        }
        for (i, intervals) in down.iter_mut().enumerate() {
            let mut sec: Vec<(f64, f64)> = Vec::new();
            // hard failures: exponential uptime, exponential outage
            if cfg.mtbf_s > 0.0 && cfg.mttr_s > 0.0 {
                let mut st = seed ^ 0xFA11_0000u64.wrapping_add(i as u64).wrapping_mul(0x9E37);
                let mut t = exp_draw(&mut st, cfg.mtbf_s);
                while t < dur_s {
                    let outage = exp_draw(&mut st, cfg.mttr_s);
                    sec.push((t, (t + outage).min(dur_s)));
                    t += outage + exp_draw(&mut st, cfg.mtbf_s);
                }
            }
            // duty-cycle sleep: awake for the head of each period,
            // asleep for the tail, with per-node phase
            if cfg.duty_cycle < 1.0 && cfg.duty_period_s > 0.0 {
                let mut st = seed ^ 0xD1D0u64 ^ (i as u64).wrapping_mul(0x9E37_79B9);
                let phase = unit(&mut st) * cfg.duty_period_s;
                let awake_s = cfg.duty_cycle.max(0.0) * cfg.duty_period_s;
                let mut cycle = -cfg.duty_period_s + phase;
                while cycle < dur_s {
                    let (a, b) = (cycle + awake_s, cycle + cfg.duty_period_s);
                    if b > 0.0 && a < dur_s {
                        sec.push((a.max(0.0), b.min(dur_s)));
                    }
                    cycle += cfg.duty_period_s;
                }
            }
            *intervals = merge_to_slots(&mut sec, slot_s, max_slots);
        }
        Self { down, max_slots }
    }

    /// A schedule from explicit per-node downtime intervals in slot units
    /// (scenario scripts: a single duty-cycled gateway in an otherwise
    /// always-on fleet, a relay failing mid-custody). Intervals must be
    /// non-empty, disjoint, ascending and within `max_slots`; the first
    /// one that is not comes back as `(node, start, end)`.
    pub fn from_intervals(
        down: Vec<Vec<(u64, u64)>>,
        max_slots: u64,
    ) -> Result<Self, (usize, u64, u64)> {
        for (node, iv) in down.iter().enumerate() {
            let mut free_from = 0;
            for &(s, e) in iv {
                if s < free_from || s >= e || e > max_slots {
                    return Err((node, s, e));
                }
                free_from = e.saturating_add(1);
            }
        }
        Ok(Self { down, max_slots })
    }

    /// If `node` is unavailable at `slot`, the slot at which it next
    /// wakes; `None` when available.
    pub fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        let iv = &self.down[node];
        let idx = iv.partition_point(|&(s, _)| s <= slot);
        if idx > 0 {
            let (_, end) = iv[idx - 1];
            if slot < end {
                return Some(end);
            }
        }
        None
    }

    /// True when `node` is unavailable anywhere in `[a_slot, b_slot]`.
    pub fn down_during(&self, node: usize, a_slot: u64, b_slot: u64) -> bool {
        self.down[node]
            .iter()
            .any(|&(s, e)| s <= b_slot && a_slot < e)
    }

    /// The downtime intervals of one node, in slot units.
    pub fn intervals(&self, node: usize) -> &[(u64, u64)] {
        &self.down[node]
    }

    /// Number of nodes the schedule covers.
    pub fn nodes(&self) -> usize {
        self.down.len()
    }

    /// Merges two schedules over the same fleet and horizon: a node is
    /// down in the union iff it is down in either (sleep ∪ crash — the
    /// simulator defers events on the union but applies crash recovery
    /// only at crash wake edges). Union with an all-empty schedule
    /// reproduces `self` interval-for-interval, so adding a disabled
    /// crash model never perturbs a sleep-only run.
    pub fn union(&self, other: &ChurnSchedule) -> ChurnSchedule {
        assert_eq!(self.down.len(), other.down.len(), "fleet size mismatch");
        assert_eq!(self.max_slots, other.max_slots, "horizon mismatch");
        let down = self
            .down
            .iter()
            .zip(&other.down)
            .map(|(a, b)| {
                let mut iv: Vec<(u64, u64)> = a.iter().chain(b.iter()).copied().collect();
                iv.sort_unstable();
                let mut out: Vec<(u64, u64)> = Vec::new();
                for (s, e) in iv {
                    match out.last_mut() {
                        Some(last) if s <= last.1 => last.1 = last.1.max(e),
                        _ => out.push((s, e)),
                    }
                }
                out
            })
            .collect();
        ChurnSchedule {
            down,
            max_slots: self.max_slots,
        }
    }

    /// Fraction of the run the average node spends down.
    pub fn mean_downtime_frac(&self) -> f64 {
        if self.max_slots == 0 || self.down.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .down
            .iter()
            .flat_map(|iv| iv.iter().map(|&(s, e)| e - s))
            .sum();
        total as f64 / (self.max_slots as f64 * self.down.len() as f64)
    }
}

/// Sorts, merges and slot-quantizes second-domain downtime intervals.
fn merge_to_slots(sec: &mut [(f64, f64)], slot_s: f64, max_slots: u64) -> Vec<(u64, u64)> {
    sec.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite interval bounds"));
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &(a, b) in sec.iter() {
        if b <= a {
            continue;
        }
        let s = (a / slot_s).floor() as u64;
        let e = ((b / slot_s).ceil() as u64).min(max_slots);
        if e <= s {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_schedule_never_defers() {
        let sched = ChurnSchedule::generate(&ChurnConfig::none(), 8, 10_000, 0.05, 42);
        for node in 0..8 {
            for slot in [0, 1, 999, 9_999] {
                assert_eq!(sched.wake_at(node, slot), None);
                assert!(!sched.down_during(node, 0, 9_999));
            }
        }
        assert_eq!(sched.mean_downtime_frac(), 0.0);
    }

    #[test]
    fn failure_schedule_is_disjoint_ascending_and_seed_stable() {
        let cfg = ChurnConfig {
            mtbf_s: 60.0,
            mttr_s: 20.0,
            duty_cycle: 0.8,
            duty_period_s: 30.0,
        };
        let a = ChurnSchedule::generate(&cfg, 6, 20_000, 0.05, 7);
        let b = ChurnSchedule::generate(&cfg, 6, 20_000, 0.05, 7);
        assert_eq!(a.down, b.down, "same seed, same outages");

        let c = ChurnSchedule::generate(&cfg, 6, 20_000, 0.05, 8);
        assert_ne!(a.down, c.down, "different seed, different outages");

        let frac = a.mean_downtime_frac();
        assert!(
            frac > 0.05 && frac < 0.8,
            "downtime fraction should be moderate, got {frac:.3}"
        );
        for iv in &a.down {
            for w in iv.windows(2) {
                assert!(w[0].1 < w[1].0, "intervals disjoint and ascending");
            }
            for &(s, e) in iv {
                assert!(s < e && e <= 20_000);
            }
        }
    }

    #[test]
    fn union_merges_overlaps_and_empty_is_identity() {
        let a = ChurnSchedule::from_intervals(vec![vec![(10, 20), (40, 50)]], 100).unwrap();
        let empty = ChurnSchedule::from_intervals(vec![Vec::new()], 100).unwrap();
        assert_eq!(
            a.union(&empty).down,
            a.down,
            "union with no crash schedule must not perturb sleep intervals"
        );
        assert_eq!(empty.union(&a).down, a.down);

        let b = ChurnSchedule::from_intervals(vec![vec![(15, 30), (50, 60)]], 100).unwrap();
        let u = a.union(&b);
        // (10,20)∪(15,30) merge; (40,50) touches (50,60) and merges too.
        assert_eq!(u.down[0], vec![(10, 30), (40, 60)]);
        assert_eq!(u.wake_at(0, 12), Some(30));
        assert!(u.down_during(0, 55, 55));
    }

    #[test]
    fn wake_at_points_past_the_outage() {
        let cfg = ChurnConfig {
            mtbf_s: 40.0,
            mttr_s: 15.0,
            ..ChurnConfig::none()
        };
        let sched = ChurnSchedule::generate(&cfg, 4, 40_000, 0.05, 3);
        let mut checked = 0;
        for node in 0..4 {
            for &(s, e) in &sched.down[node] {
                assert_eq!(sched.wake_at(node, s), Some(e));
                assert_eq!(sched.wake_at(node, (s + e) / 2), Some(e));
                assert_eq!(sched.wake_at(node, e), None);
                assert!(sched.down_during(node, s, s));
                checked += 1;
            }
        }
        assert!(checked > 0, "schedule must actually contain outages");
    }
}
