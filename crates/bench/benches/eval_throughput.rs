//! Experiment-layer throughput: how fast the harness burns through packet
//! trials — the number that decides whether a paper-scale figure takes
//! minutes or hours. `trials_per_second` exercises the full exchange
//! (streaming detection, estimation, band selection, feedback, data
//! decode) over the channel renderer on the parallel engine; the printed
//! mean is for a 4-trial series, so trials/s = 4 / mean.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_eval::engine::ExperimentEngine;
use aqua_eval::runner::{packet_series, summarize};
use aqua_par::Pool;
use aquapp::trial::TrialConfig;

fn cfg(seed: u64) -> TrialConfig {
    TrialConfig::standard(
        Environment::preset(Site::Bridge),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(5.0, 0.0, 1.0),
        1000 + seed,
    )
}

fn trials_per_second(c: &mut Criterion) {
    // engine path (worker count from AQUA_PAR_THREADS / cores)
    c.bench_function("trials_per_second", |b| {
        b.iter(|| black_box(packet_series(4, cfg).per))
    });
    // single-thread reference for the speedup ratio: a 1-worker pool runs
    // every trial on the calling thread
    let serial = ExperimentEngine::with_pool(Pool::new(1));
    c.bench_function("trials_per_second_serial", |b| {
        b.iter(|| black_box(summarize(serial.trial_series(4, cfg)).per))
    });
}

fn link_transmit_cached(c: &mut Criterion) {
    // Steady-state cost of one 0.25 s static render on a warm link: the
    // fused device ∗ multipath FIR and its padded spectra are cached, so
    // each call is one planned convolution plus the noise synthesis —
    // what every packet after the first pays per transmission.
    let mut link = Link::new(LinkConfig::s9_pair(
        Environment::preset(Site::Bridge),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(5.0, 0.0, 1.0),
        42,
    ));
    let tx: Vec<f64> = (0..12_000).map(|i| (i as f64 * 0.29).sin()).collect();
    link.transmit(&tx, 0.0); // warm the FIR memo and spectra
    c.bench_function("link_transmit_cached", |b| {
        b.iter(|| black_box(link.transmit(black_box(&tx), 0.0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = trials_per_second, link_transmit_cached
}
criterion_main!(benches);
