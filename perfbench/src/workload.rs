//! The measurement harness shared by the four workloads.

use crate::pool::{PoolStats, TracedPool};
use crate::report::Values;
use crate::util::{median, peak_rss_mb, ratio, reset_peak_rss, secs, SpanLog};
use aqua_par::Pool;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of the fixed work at least, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Set-up samples per run, however many repetitions fit.
const SETUP_SAMPLES: usize = 9;

/// What one repetition of a workload's fixed work produced, reduced to
/// the numbers the metrics and checks need.
#[derive(Debug, Default)]
pub struct Summary {
    /// Operations attempted: the base of `fail_frac` (`attempted` in the
    /// result line).
    pub ops: u64,
    /// Operations the system under test lost (undecoded packets, erased
    /// fragments, undelivered receptions or messages): a result, not a
    /// benchmark failure.
    pub lost: u64,
    /// Packet exchanges: the `trials_per_s` numerator.
    pub packets: u64,
    /// Event-core heap events (0 where no event core runs).
    pub events: u64,
    /// Output checks that failed (`failed` in the result line).
    pub problems: Vec<String>,
    /// Result digest lines (PER, delivered counts, goodput).
    pub digest: Vec<String>,
}

pub trait Workload {
    const NAME: &'static str;
    type Inputs;
    type Output;

    /// Builds the inputs of the fixed work from the seed.
    fn setup(seed: u64, smoke: bool) -> Self::Inputs;
    /// One repetition of the fixed work through the program's own entry
    /// points (tracing off). Each independent part of it (a trial series, a
    /// transfer, a deployment) runs through `parts.time`, in the same order
    /// on every repetition.
    fn run(inputs: &Self::Inputs, pool: &Pool, parts: &mut PartClock) -> Self::Output;
    /// Checks the outputs and reduces them to a summary.
    fn summarize(inputs: &Self::Inputs, out: &Self::Output) -> Summary;
    /// Exact text form of every output field, for the determinism and
    /// traced-equivalence checks.
    fn fingerprint(out: &Self::Output) -> String;
    /// The same work through the benchmark's traced re-assembly: returns the
    /// output (which must equal the untraced one) and the layer values.
    fn traced(
        inputs: &Self::Inputs,
        pool: &TracedPool,
        log: &mut SpanLog,
    ) -> (Self::Output, Values);
    /// Checks only the traced run makes (returns problems found).
    fn traced_checks(_inputs: &Self::Inputs, _pool: &Pool, _out: &Self::Output) -> Vec<String> {
        Vec::new()
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    pub smoke: bool,
}

/// Everything one workload run reports.
pub struct Outcome {
    pub values: Values,
    pub ops: u64,
    pub failed: u64,
    pub lines: Vec<String>,
    pub spans: Option<SpanLog>,
}

/// Wall times of the parts of one repetition, in the order they ran.
#[derive(Default)]
pub struct PartClock(Vec<f64>);

impl PartClock {
    /// Runs one part of the fixed work and records its wall time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = black_box(f());
        self.0.push(secs(t));
        r
    }
}

/// Time of one set-up on a freshly spawned thread, so that every sample
/// pays the per-thread caches the program fills on first use, as the
/// first set-up on the calling thread did.
fn cold_setup_s<W: Workload>(opts: &Opts) -> f64 {
    std::thread::scope(|s| {
        s.spawn(|| {
            let t = Instant::now();
            let inputs = black_box(W::setup(opts.seed, opts.smoke));
            let took = secs(t);
            drop(inputs);
            took
        })
        .join()
        .expect("set-up does not panic")
    })
}

/// Sets up, times the fixed work for `opts.seconds`, checks the outputs
/// and, when tracing, re-runs the work through the traced re-assembly.
pub fn measure<W: Workload>(opts: &Opts) -> Outcome {
    let pool = Pool::new(opts.workers);
    // The first set-up fills the calling thread's caches for the timed
    // phase. Further samples run on fresh threads, one before each timed
    // repetition (so they sample the whole run rather than the machine's
    // state at start-up) and the rest after the last one.
    let t = Instant::now();
    let inputs = black_box(W::setup(opts.seed, opts.smoke));
    let mut setup_times = vec![secs(t)];

    let t_run = Instant::now();
    let mut walls = Vec::new();
    // part_walls[k]: part k's wall time on every repetition.
    let mut part_walls: Vec<Vec<f64>> = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(W::Output, String)> = None;
    let mut nondeterministic = 0u64;
    // Stop at the repetition that ends nearest `--seconds`.
    while walls.len() < MIN_REPS || secs(t_run) + median(&walls) / 2.0 < opts.seconds {
        if setup_times.len() < SETUP_SAMPLES {
            setup_times.push(cold_setup_s::<W>(opts));
        }
        reset_peak_rss();
        let mut parts = PartClock::default();
        let out = black_box(W::run(&inputs, &pool, &mut parts));
        walls.push(parts.0.iter().sum());
        part_walls.resize(parts.0.len(), Vec::new());
        for (k, w) in parts.0.into_iter().enumerate() {
            part_walls[k].push(w);
        }
        peaks.push(peak_rss_mb());
        let fp = W::fingerprint(&out);
        match &first {
            None => first = Some((out, fp)),
            Some((_, want)) if *want != fp => nondeterministic += 1,
            Some(_) => {}
        }
    }
    while setup_times.len() < SETUP_SAMPLES {
        setup_times.push(cold_setup_s::<W>(opts));
    }
    let (out, fingerprint) = first.expect("at least one timed repetition");
    let mut summary = W::summarize(&inputs, &out);
    if nondeterministic > 0 {
        summary.problems.push(format!(
            "{nondeterministic} repetition(s) produced different outputs from the same inputs"
        ));
    }
    // The fixed work's wall time: the sum of its parts' median times, so a
    // slow spell of the machine during one part of one repetition does not
    // set the result.
    let part_medians: Vec<f64> = part_walls.iter().map(|w| median(w)).collect();
    let wall_s: f64 = part_medians.iter().sum();

    let mut values = Values::default();
    values.set("setup_s", median(&setup_times));
    values.set("wall_s", wall_s);
    values.set("trials_per_s", ratio(summary.packets as f64, wall_s));
    values.set("fail_frac", ratio(summary.lost as f64, summary.ops as f64));

    let fmt = |xs: &[f64], digits: usize| -> Vec<String> {
        xs.iter().map(|x| format!("{x:.digits$}")).collect()
    };
    let mut lines = vec![format!(
        "{}: {} timed repetitions {:?} s; {} parts, medians {:?} s, sum (wall_s) {:.4} s; \
         setup_s samples {:?} s; peak RSS per repetition {:?} MiB",
        W::NAME,
        walls.len(),
        fmt(&walls, 4),
        part_walls.len(),
        fmt(&part_medians, 4),
        wall_s,
        fmt(&setup_times, 4),
        fmt(&peaks, 1)
    )];
    if summary.events > 0 {
        lines.push(format!(
            "{}: events_per_s {:.0} ({} event-core events per repetition)",
            W::NAME,
            ratio(summary.events as f64, wall_s),
            summary.events
        ));
    }
    lines.extend(
        summary
            .digest
            .iter()
            .map(|d| format!("{}: digest {d}", W::NAME)),
    );
    lines.push(format!(
        "{}: outputs fingerprint {:016x}",
        W::NAME,
        fnv1a(&fingerprint)
    ));

    let mut spans = None;
    if opts.trace {
        let traced_pool = TracedPool::new(Pool::new(opts.workers));
        let mut log = SpanLog::new(Instant::now());
        let t = Instant::now();
        let (traced_out, layer) = W::traced(&inputs, &traced_pool, &mut log);
        let traced_wall = secs(t);
        if W::fingerprint(&traced_out) != fingerprint {
            summary
                .problems
                .push("traced run did not reproduce the untraced outputs exactly".into());
        }
        summary
            .problems
            .extend(W::traced_checks(&inputs, &pool, &traced_out));
        values.extend(&layer);
        put_pool(&mut values, &traced_pool.stats.borrow());
        values.set("trace.wall_s", traced_wall);
        values.set("trace.overhead_frac", traced_wall / wall_s - 1.0);
        lines.push(format!(
            "{}: traced run {traced_wall:.4} s vs untraced wall_s {wall_s:.4} s, {} spans",
            W::NAME,
            log.spans.len()
        ));
        spans = Some(log);
    }
    for p in &summary.problems {
        lines.push(format!("{}: CHECK FAILED: {p}", W::NAME));
    }
    Outcome {
        values,
        ops: summary.ops,
        failed: summary.problems.len() as u64,
        lines,
        spans,
    }
}

/// FNV-1a hash: a short name for an output fingerprint.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `par.*` layer values from the traced pool's accounting.
fn put_pool(v: &mut Values, st: &PoolStats) {
    v.set("par.calls", st.calls as f64);
    v.set(
        "par.items_per_call",
        ratio(st.items as f64, st.calls as f64),
    );
    v.set("par.busy_frac", ratio(st.busy_ns, st.capacity_ns));
    v.set("par.overhead_ms", st.overhead_ns / 1e6);
    v.set("par.cold_penalty_ms", st.cold_penalty_ns / 1e6);
}

/// Sets every per-layer metric the workload did not measure to 0: the
/// layer did no work on this workload.
pub fn zero_fill_layers(v: &mut Values) {
    for m in crate::report::PER_LAYER {
        v.0.entry(m.name).or_insert(0.0);
    }
}
