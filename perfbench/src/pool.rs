//! A traced wrapper around `aqua_par::Pool`: same calls, same results, plus
//! per-call wall time and per-item busy time.

use aqua_par::Pool;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Accumulated pool accounting over a traced run.
#[derive(Debug, Default, Clone)]
pub struct PoolStats {
    pub calls: u64,
    pub items: u64,
    /// Σ item busy time.
    pub busy_ns: f64,
    /// Σ (call wall − item busy / workers): spawn, join and merge cost
    /// plus load imbalance.
    pub overhead_ns: f64,
    /// Σ over parallel calls and workers of (first item − steady item
    /// time): the per-thread cache re-warm each spawned worker pays.
    pub cold_penalty_ns: f64,
    /// Σ call wall × workers (the busy-fraction denominator).
    pub capacity_ns: f64,
}

fn worker_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

pub struct TracedPool {
    pool: Pool,
    pub stats: RefCell<PoolStats>,
}

impl TracedPool {
    pub fn new(pool: Pool) -> Self {
        Self {
            pool,
            stats: RefCell::new(PoolStats::default()),
        }
    }

    /// `Pool::par_map` with each item and the whole call timed.
    pub fn par_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let t0 = Instant::now();
        let timed = self.pool.par_map(n, |i| {
            let s = Instant::now();
            let r = f(i);
            (r, s, s.elapsed(), worker_id())
        });
        let wall = t0.elapsed();
        self.account(wall, &timed);
        timed.into_iter().map(|(r, ..)| r).collect()
    }

    /// `Pool::par_map_slice` with each item and the whole call timed.
    pub fn par_map_slice<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.par_map(items.len(), |i| f(&items[i]))
    }

    fn account<R>(&self, wall: Duration, timed: &[(R, Instant, Duration, u64)]) {
        let workers = self.pool.threads().min(timed.len()).max(1);
        let busy: f64 = timed.iter().map(|t| t.2.as_nanos() as f64).sum();
        let wall_ns = wall.as_nanos() as f64;
        let mut st = self.stats.borrow_mut();
        st.calls += 1;
        st.items += timed.len() as u64;
        st.busy_ns += busy;
        st.capacity_ns += wall_ns * workers as f64;
        st.overhead_ns += wall_ns - busy / workers as f64;
        if workers > 1 {
            // Each spawned worker's first item versus the call's other
            // items (the steady state once its thread-local caches are warm).
            let mut firsts: Vec<(u64, Instant, f64)> = Vec::new();
            for t in timed {
                let d = t.2.as_nanos() as f64;
                match firsts.iter_mut().find(|f| f.0 == t.3) {
                    Some(f) if t.1 < f.1 => *f = (t.3, t.1, d),
                    Some(_) => {}
                    None => firsts.push((t.3, t.1, d)),
                }
            }
            let steady: Vec<f64> = timed
                .iter()
                .filter(|t| !firsts.iter().any(|f| f.0 == t.3 && f.1 == t.1))
                .map(|t| t.2.as_nanos() as f64)
                .collect();
            if !steady.is_empty() {
                let s = crate::util::median(&steady);
                st.cold_penalty_ns += firsts.iter().map(|f| f.2 - s).sum::<f64>();
            }
        }
    }
}
