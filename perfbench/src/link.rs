//! `link`: a closed-loop sequence of 40-trial `trial_series` calls, the
//! shape every paper figure uses.

use crate::pool::TracedPool;
use crate::report::Values;
use crate::trial::{layer_values, traced_trial};
use crate::util::{derive, SpanLog};
use crate::workload::{PartClock, Summary, Workload};
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::mobility::Trajectory;
use aqua_eval::engine::ExperimentEngine;
use aqua_par::Pool;
use aqua_phy::bandselect::Band;
use aquapp::trial::{run_trial, Scheme, TrialConfig, TrialResult};

/// Trials per `trial_series` call (the figures' standard size).
const SERIES_LEN: usize = 40;

pub struct Link;

/// One `trial_series` call: its configs, built at set-up.
pub struct Series {
    pub label: String,
    pub configs: Vec<TrialConfig>,
}

/// A series of exchanges on one link. The channel realization of trial `i`
/// (noise, device rigs) is fixed by `channel_seed + i`; the payload bits
/// come from the run seed.
fn series(
    label: String,
    site: Site,
    dist: f64,
    scheme: Scheme,
    mobile: bool,
    channel_seed: u64,
    payload_seed: u64,
) -> Series {
    let alice = Pos::new(0.0, 0.0, 1.0);
    let configs = (0..SERIES_LEN as u64)
        .map(|i| {
            let mut c = TrialConfig::standard(
                Environment::preset(site),
                alice,
                Pos::new(dist, 0.0, 1.0),
                channel_seed + i,
            );
            let bits = derive(payload_seed, i);
            c.payload = (0..c.frame.payload_bits)
                .map(|b| ((bits >> b) & 1) as u8)
                .collect();
            c.scheme = scheme;
            if mobile {
                c.alice_traj = Trajectory::slow(alice, channel_seed ^ i);
            }
            c
        })
        .collect();
    Series { label, configs }
}

/// Bridge/Park/Lake × 5/15/25 m × adaptive vs fixed 1–4 kHz, plus a slow-
/// mobility slice so `render_moving` runs. The seed picks every packet's
/// payload; the channel of each exchange is part of the fixed scenario.
pub fn build(seed: u64, smoke: bool) -> Vec<Series> {
    let full = Band::new(0, 59);
    let sites = [
        ("bridge", Site::Bridge),
        ("park", Site::Park),
        ("lake", Site::Lake),
    ];
    let mut out = Vec::new();
    let mut k = 0u64;
    for (name, site) in sites {
        for dist in [5.0, 15.0, 25.0] {
            for (scheme_name, scheme) in [
                ("adaptive", Scheme::Adaptive),
                ("fixed", Scheme::Fixed(full)),
            ] {
                k += 1;
                let label = format!("{name} {dist:.0} m {scheme_name}");
                out.push(series(
                    label,
                    site,
                    dist,
                    scheme,
                    false,
                    1000 * k,
                    derive(seed, k),
                ));
            }
        }
    }
    for (name, site, dist) in [("bridge", Site::Bridge, 5.0), ("lake", Site::Lake, 15.0)] {
        k += 1;
        let label = format!("{name} {dist:.0} m adaptive slow-mobility");
        out.push(series(
            label,
            site,
            dist,
            Scheme::Adaptive,
            true,
            1000 * k,
            derive(seed, k),
        ));
    }
    if smoke {
        // one static and one moving series, a few trials each
        out = vec![out.swap_remove(0), out.pop().expect("mobility series")];
        for s in &mut out {
            s.configs.truncate(4);
        }
    }
    out
}

/// Seed of the set-up exchanges (fixed, so set-up cost does not depend on
/// the run seed).
const WARM_UP_SEED: u64 = 0x5EED_0B0B;

/// The modem's first-use set-up on the calling thread: one exchange per
/// (site, range, mobility) fills the per-thread plan caches, the streaming
/// detector and the site's noise-floor calibration before timing starts.
pub fn warm_up(links: &[(Site, f64, bool)]) {
    for &(site, dist, mobile) in links {
        let alice = Pos::new(0.0, 0.0, 1.0);
        let mut c = TrialConfig::standard(
            Environment::preset(site),
            alice,
            Pos::new(dist, 0.0, 1.0),
            WARM_UP_SEED,
        );
        if mobile {
            c.alice_traj = Trajectory::slow(alice, WARM_UP_SEED);
        }
        std::hint::black_box(run_trial(&c));
    }
}

impl Workload for Link {
    const NAME: &'static str = "link";
    type Inputs = Vec<Series>;
    type Output = Vec<Vec<TrialResult>>;

    fn setup(seed: u64, smoke: bool) -> Self::Inputs {
        let series = build(seed, smoke);
        warm_up(&[
            (Site::Bridge, 5.0, false),
            (Site::Park, 5.0, false),
            (Site::Lake, 5.0, false),
            (Site::Bridge, 5.0, true),
        ]);
        series
    }

    fn run(inputs: &Self::Inputs, pool: &Pool, parts: &mut PartClock) -> Self::Output {
        let engine = ExperimentEngine::with_pool(pool.clone());
        inputs
            .iter()
            .map(|s| {
                parts.time(|| {
                    engine.trial_series(s.configs.len(), |i| s.configs[i as usize].clone())
                })
            })
            .collect()
    }

    fn summarize(inputs: &Self::Inputs, out: &Self::Output) -> Summary {
        let mut sum = Summary::default();
        for (s, results) in inputs.iter().zip(out) {
            let mut ok = 0;
            for (cfg, r) in s.configs.iter().zip(results) {
                sum.ops += 1;
                sum.packets += 1;
                if r.packet_ok {
                    ok += 1;
                    if r.bits.as_deref() != Some(cfg.payload.as_slice()) {
                        sum.problems.push(format!(
                            "{}: packet_ok trial did not decode its payload",
                            s.label
                        ));
                    }
                } else {
                    sum.lost += 1;
                }
            }
            sum.digest.push(format!(
                "{}: PER {:.3} ({} of {} decoded)",
                s.label,
                1.0 - ok as f64 / results.len() as f64,
                ok,
                results.len()
            ));
        }
        sum
    }

    fn fingerprint(out: &Self::Output) -> String {
        format!("{out:?}")
    }

    fn traced(
        inputs: &Self::Inputs,
        pool: &TracedPool,
        log: &mut SpanLog,
    ) -> (Self::Output, Values) {
        let origin = log.origin();
        let mut traces = Vec::new();
        let mut out = Vec::new();
        let mut unit = 0u64;
        for s in inputs {
            let base = unit;
            let results = pool.par_map(s.configs.len(), |i| {
                traced_trial(&s.configs[i].clone(), base + i as u64, origin)
            });
            unit += s.configs.len() as u64;
            let (rs, ts): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            out.push(rs);
            traces.extend(ts);
        }
        (out, layer_values(traces, log))
    }
}
