//! `transfer`: 2 KB bulk transfers over Lake, static-RS and adaptive
//! engines, one of them under a burst/blackout fault schedule. Transfers
//! run one at a time on the calling thread; no pool is involved.

use crate::bulk::traced_static_transfer;
use crate::pool::TracedPool;
use crate::report::Values;
use crate::trial::layer_values;
use crate::util::{derive, ratio, SpanLog};
use crate::workload::{PartClock, Summary, Workload};
use aqua_channel::environments::{Environment, Site};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::geometry::Pos;
use aqua_par::Pool;
use aqua_proto::transfer::TransferParams;
use aquapp::bulk::{run_adaptive_transfer, run_bulk_transfer, BulkConfig, BulkOutcome, BulkReason};
use aquapp::trial::TrialConfig;

const TRANSFER_BYTES: usize = 2048;

pub struct Transfer;

pub struct Job {
    pub label: String,
    pub adaptive: bool,
    pub cfg: BulkConfig,
    pub data: Vec<u8>,
}

fn payload(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The transfers of one repetition. The seed picks the transferred bytes;
/// each job's link realization and the storm are part of the fixed
/// scenario.
pub fn build(seed: u64, smoke: bool) -> Vec<Job> {
    let bytes = if smoke { 96 } else { TRANSFER_BYTES };
    // A storm: a shrimp-burst train over the session and a 30 s blackout
    // landing mid-transfer (the `faults` experiment's worst level).
    let storm = FaultSchedule::seeded(0xFA17)
        .with_burst_train(0.0, 600.0, 0.1, 0.7)
        .with_blackout(if smoke { 4.0 } else { 25.0 }, 30.0);
    let plan: [(&str, f64, bool, Option<FaultSchedule>); 5] = [
        ("static RS 15 m", 15.0, false, None),
        ("adaptive 15 m", 15.0, true, None),
        ("static RS 30 m", 30.0, false, None),
        ("adaptive 30 m", 30.0, true, None),
        ("adaptive 15 m storm", 15.0, true, Some(storm)),
    ];
    let mut jobs: Vec<Job> = plan
        .into_iter()
        .enumerate()
        .map(|(k, (label, range_m, adaptive, faults))| Job {
            label: label.to_string(),
            adaptive,
            cfg: BulkConfig {
                base: TrialConfig::standard(
                    Environment::preset(Site::Lake),
                    Pos::new(0.0, 0.0, 1.0),
                    Pos::new(range_m, 0.0, 1.0),
                    3000 + 77 * k as u64,
                ),
                params: TransferParams::default_rs(),
                window: 12,
                max_rounds: 24,
                faults,
            },
            data: payload(bytes, derive(seed, 100 + k as u64)),
        })
        .collect();
    if smoke {
        jobs.truncate(2);
    }
    jobs
}

fn run_job(job: &Job) -> BulkOutcome {
    let out = if job.adaptive {
        run_adaptive_transfer(&job.cfg, &job.data)
    } else {
        run_bulk_transfer(&job.cfg, &job.data)
    };
    out.expect("benchmark transfer configs are non-degenerate")
}

impl Workload for Transfer {
    const NAME: &'static str = "transfer";
    type Inputs = Vec<Job>;
    type Output = Vec<BulkOutcome>;

    fn setup(seed: u64, smoke: bool) -> Self::Inputs {
        let jobs = build(seed, smoke);
        crate::link::warm_up(&[(Site::Lake, 15.0, false), (Site::Lake, 30.0, false)]);
        jobs
    }

    fn run(inputs: &Self::Inputs, _pool: &Pool, parts: &mut PartClock) -> Self::Output {
        inputs
            .iter()
            .map(|job| parts.time(|| run_job(job)))
            .collect()
    }

    fn summarize(inputs: &Self::Inputs, out: &Self::Output) -> Summary {
        let mut sum = Summary::default();
        for (job, o) in inputs.iter().zip(out) {
            sum.ops += o.packets_sent as u64;
            sum.packets += o.packets_sent as u64;
            sum.lost += o.erasures as u64;
            let completed = o.reason == BulkReason::Completed;
            if completed != o.delivered.is_some() {
                sum.problems.push(format!(
                    "{}: reason {:?} disagrees with the delivery",
                    job.label, o.reason
                ));
            }
            if let Some(d) = &o.delivered {
                if *d != job.data {
                    sum.problems.push(format!(
                        "{}: completed transfer returned different bytes",
                        job.label
                    ));
                }
            }
            sum.digest.push(format!(
                "{}: {:?}, {} rounds, {} packets ({} erased), goodput {:.1} bps",
                job.label, o.reason, o.rounds, o.packets_sent, o.erasures, o.goodput_bps
            ));
        }
        sum
    }

    fn fingerprint(out: &Self::Output) -> String {
        format!("{out:?}")
    }

    /// Static-engine transfers run through the traced round loop (every
    /// fragment exchange traced stage by stage); adaptive transfers are
    /// timed as whole calls.
    fn traced(
        inputs: &Self::Inputs,
        _pool: &TracedPool,
        log: &mut SpanLog,
    ) -> (Self::Output, Values) {
        let mut traces = Vec::new();
        let mut out = Vec::with_capacity(inputs.len());
        for (k, job) in inputs.iter().enumerate() {
            let t0 = std::time::Instant::now();
            out.push(if job.adaptive {
                run_job(job)
            } else {
                traced_static_transfer(&job.cfg, &job.data, log, &mut traces)
            });
            log.push("bulk.transfer", k as u64, t0);
        }
        let mut v = layer_values(traces, log);
        let sum = |f: fn(&BulkOutcome) -> usize| out.iter().map(f).sum::<usize>() as f64;
        let packets = sum(|o| o.packets_sent);
        v.set("bulk.rounds", sum(|o| o.rounds));
        v.set("bulk.packets", packets);
        v.set(
            "bulk.useful_frac",
            ratio(sum(|o| o.packets_delivered), packets),
        );
        v.set("bulk.acks_lost", sum(|o| o.acks_lost));
        v.set(
            "bulk.ms_per_packet",
            ratio(log.total_ms("bulk.transfer"), packets),
        );
        (out, v)
    }
}
