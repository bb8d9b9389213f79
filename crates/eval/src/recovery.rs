//! The `recovery` experiment: crash-fault tolerance of the DTN relay
//! stack — volatile custody vs the durable journal as nodes power-cycle.
//!
//! A grid deployment offers multi-hop flows at `t = 0` (the `relay`
//! experiment's geometry), then crash-reboots nodes at rising intensity.
//! A **crash** is not a sleep: volatile state — queues, duplicate
//! filters, reassembly buffers, delivery memory — is lost at the power
//! cycle, and only what the custody journal replays survives. Each
//! intensity runs twice over identical geometry, traffic, seed and
//! crash schedule:
//!
//! - **volatile**: no journal. Custody held by a crashing node simply
//!   vanishes; the conservation oracle counts every vanished fragment.
//! - **durable**: the write-ahead journal of DESIGN.md §15. Reboots
//!   replay custody exactly; the oracle must stay silent.
//!
//! Every run executes under [`aqua_net::run_relay_ocean_audit`], so the
//! table's `violations` column is the number of custody-conservation /
//! at-most-once / journal-loss breaches the oracle found — the point of
//! the experiment is that it is zero for `durable` at every intensity
//! and grows with crash rate for `volatile`.
//!
//! Sizes:
//!
//! | size     | nodes | simulated | flows |
//! |----------|-------|-----------|-------|
//! | quick    | 36    | 3 h       | 4     |
//! | standard | 400   | 4 h       | 40    |
//! | full     | 1 600 | 8 h       | 160   |
//!
//! EXPERIMENTS.md records the quick/standard tables; the quick size runs
//! in `ci.sh`'s one `repro all quick` gate.

use crate::relay::grid_config;
use crate::runner::RunSize;
use crate::table::{pct, Table};
use aqua_mac::ocean::ChurnConfig;
use aqua_net::{check_invariants, run_relay_ocean_audit, JournalConfig};
use aqua_par::Pool;

/// Node count, simulated seconds and flow count for a run size.
pub fn scale(size: RunSize) -> (usize, f64, usize) {
    match size {
        RunSize::Quick => (36, 10_800.0, 4),
        RunSize::Standard => (400, 14_400.0, 40),
        RunSize::Full => (1600, 28_800.0, 160),
    }
}

/// Crash intensities swept by the experiment, mildest first. Pure
/// crash-reboot churn: no duty-cycle sleep, so every outage is a power
/// cycle that drops volatile state.
fn intensities() -> [(&'static str, ChurnConfig); 3] {
    let crash = |mtbf_s: f64, mttr_s: f64| ChurnConfig {
        mtbf_s,
        mttr_s,
        duty_cycle: 1.0,
        duty_period_s: 0.0,
    };
    [
        ("none", ChurnConfig::none()),
        ("moderate", crash(1800.0, 300.0)),
        ("heavy", crash(600.0, 180.0)),
    ]
}

/// Runs the crash sweep, volatile vs durable custody, on identical
/// geometry, traffic, seed and crash schedule.
pub fn recovery(size: RunSize) -> String {
    let (nodes, sim_s, flow_count) = scale(size);
    let pool = Pool::from_env();
    let mut results = Table::new(
        &format!(
            "Crash recovery — {nodes}-node grid, {:.1} h simulated, {flow_count} \
             flows offered at t=0, conservation-audited (seed 42)",
            sim_s / 3600.0
        ),
        &[
            "crash",
            "mode",
            "downtime",
            "reboots",
            "delivered",
            "ratio",
            "dup rx",
            "violations",
            "journal",
            "replayed",
        ],
    );
    for (label, crash) in intensities() {
        for durable in [false, true] {
            let mut cfg = grid_config(nodes, sim_s, flow_count);
            cfg.crash = crash;
            cfg.journal = durable.then(JournalConfig::default);
            // TTLs must outlive the run with slack — expiry lawfully
            // ends custody and would blind the conservation oracle.
            cfg.traffic.ttl_s = (sim_s + 3600.0).min(f64::from(u16::MAX)) as u16;
            let (r, audit) =
                run_relay_ocean_audit(&cfg, &pool).expect("deployment config is valid");
            let violations = check_invariants(&audit);
            results.row(vec![
                label.to_string(),
                if durable { "durable" } else { "volatile" }.to_string(),
                pct(r.downtime_frac),
                r.reboots.to_string(),
                format!("{}/{}", r.msgs_delivered, r.msgs_offered),
                pct(r.delivery_ratio),
                r.dup_deliveries.to_string(),
                violations.len().to_string(),
                format!("{} KiB", r.journal_bytes / 1024),
                r.journal_replayed.to_string(),
            ]);
            assert_eq!(
                r.payload_mismatches, 0,
                "delivered payloads must be bit-exact"
            );
            if durable {
                assert!(
                    violations.is_empty(),
                    "durable custody must satisfy the conservation oracle: {violations:?}"
                );
                assert_eq!(r.dup_deliveries, 0, "at-most-once must hold under crashes");
            }
        }
    }
    results.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_and_ttl_fits_u16() {
        let (qn, qs, qf) = scale(RunSize::Quick);
        let (sn, ss, sf) = scale(RunSize::Standard);
        let (fname, fs, ff) = scale(RunSize::Full);
        assert!(qn < sn && qs < ss && qf < sf);
        assert!(sn < fname && ss < fs && sf < ff);
        for (_, s, _) in [
            scale(RunSize::Quick),
            scale(RunSize::Standard),
            scale(RunSize::Full),
        ] {
            assert!(s + 3600.0 <= f64::from(u16::MAX), "TTL slack must fit u16");
        }
    }

    #[test]
    fn crash_intensities_never_duty_cycle() {
        for (_, c) in intensities() {
            assert!(c.duty_cycle >= 1.0, "crash churn must not add sleep");
        }
    }
}
