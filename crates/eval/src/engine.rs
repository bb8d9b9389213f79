//! Parallel deterministic trial-execution engine.
//!
//! Every experiment in this crate reduces to fan-outs of independent,
//! seeded work items — packet trials, channel soundings, capture
//! detections. The engine runs those fan-outs on an [`aqua_par::Pool`]
//! with a contract the recorded results depend on (DESIGN.md §8):
//!
//! **Determinism.** Each item derives everything random from its own seed,
//! and every shared plan or table is a pure function of its key, so item
//! results are pure functions of `(config, seed)`. `par_map` preserves
//! input order, so every parallel experiment is **bit-identical** to its
//! serial run — parallelism decides wall-clock, never results. The test
//! `eval/tests/determinism.rs` compares a full `fig9`-style series field
//! by field.
//!
//! **Sizing.** Worker count comes from [`aqua_par::THREADS_ENV`]
//! (`AQUA_PAR_THREADS`), defaulting to all available cores; `1` forces the
//! serial fallback (no threads spawned at all), and `repro` rejects a
//! value that is not a worker count. A fan-out starts on the calling
//! thread, which works beside its spawned workers once the items have run
//! past [`aqua_par::FORK_AFTER`], about one thread spawn; after a fan-out
//! that ran that long, the next one forks before its first item.
//!
//! **Accounting.** The engine counts trials executed so the `repro` binary
//! can report per-figure throughput (trials/s) next to wall-clock.

use aqua_par::Pool;
use aquapp::trial::{run_trial, TrialConfig, TrialResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The shared trial-execution engine.
pub struct ExperimentEngine {
    pool: Pool,
    trials: AtomicUsize,
}

impl ExperimentEngine {
    /// An engine running on the given pool (tests use explicit pool sizes;
    /// everything else goes through [`global`]).
    pub fn with_pool(pool: Pool) -> Self {
        Self {
            pool,
            trials: AtomicUsize::new(0),
        }
    }

    /// Number of workers the engine fans out to.
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `n` packet trials built by `make` (one seed per packet) in
    /// parallel, returning results in seed order — bit-identical to the
    /// serial `(0..n).map(|i| run_trial(&make(i)))`.
    pub fn trial_series(
        &self,
        n: usize,
        make: impl Fn(u64) -> TrialConfig + Sync,
    ) -> Vec<TrialResult> {
        self.trials.fetch_add(n, Ordering::Relaxed);
        self.pool.par_map(n, |i| run_trial(&make(i as u64)))
    }

    /// Order-preserving parallel map for non-trial experiment fan-outs
    /// (soundings, captures, PSD rows). Not counted as trials.
    pub fn par_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.pool.par_map(n, f)
    }

    /// Slice form of [`ExperimentEngine::par_map`] for fan-outs over a
    /// fixed row set (sites, device pairs, distances).
    pub fn par_map_slice<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.pool.par_map_slice(items, f)
    }

    /// Total packet trials executed since engine creation (monotonic;
    /// `repro` diffs it around each figure for throughput reporting).
    pub fn trials_run(&self) -> usize {
        self.trials.load(Ordering::Relaxed)
    }
}

/// The process-wide engine, sized from the environment on first use.
pub fn global() -> &'static ExperimentEngine {
    static ENGINE: OnceLock<ExperimentEngine> = OnceLock::new();
    ENGINE.get_or_init(|| ExperimentEngine::with_pool(Pool::from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_channel::environments::{Environment, Site};
    use aqua_channel::geometry::Pos;

    #[test]
    fn trial_series_counts_and_orders() {
        let engine = ExperimentEngine::with_pool(Pool::new(2));
        let before = engine.trials_run();
        let results = engine.trial_series(3, |seed| {
            TrialConfig::standard(
                Environment::preset(Site::Bridge),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(5.0, 0.0, 1.0),
                2000 + seed,
            )
        });
        assert_eq!(results.len(), 3);
        assert_eq!(engine.trials_run() - before, 3);
    }

    #[test]
    fn par_map_preserves_order() {
        let engine = ExperimentEngine::with_pool(Pool::new(4));
        assert_eq!(engine.par_map(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        assert_eq!(engine.trials_run(), 0);
    }
}
