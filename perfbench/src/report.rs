//! The metric catalogue (names and units; the self-tests check it against
//! `BENCHMARK.json`) and the result line every run ends with.

use std::collections::BTreeMap;

/// One reported metric. Its direction and regression bound live in
/// `BENCHMARK.json` only.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("trials_per_s", "1/s"),
    m("fail_frac", "ratio"),
];

/// Metrics of single layers, measured by the traced run.
pub const PER_LAYER: &[Metric] = &[
    // aqua-channel
    m("channel.render_ms", "ms/trial"),
    m("channel.render_calls", "calls/trial"),
    // aquapp::trial and aqua-phy
    m("core.front_end_ms", "ms/trial"),
    m("phy.detect_ms", "ms/trial"),
    m("phy.id_ms", "ms/trial"),
    m("phy.estimate_ms", "ms/trial"),
    m("phy.select_ms", "ms/trial"),
    m("phy.feedback_ms", "ms/trial"),
    m("phy.modulate_ms", "ms/trial"),
    m("phy.locate_ms", "ms/trial"),
    m("phy.demodulate_ms", "ms/trial"),
    m("rx.adapt_ms", "ms"),
    m("rx.decode_ms", "ms"),
    m("trial.sim_ms", "ms/trial"),
    m("trial.rx_ms", "ms/trial"),
    m("trial.p50_ms", "ms"),
    m("trial.p99_ms", "ms"),
    m("trial.stage_coverage", "ratio"),
    m("fail.preamble", "count"),
    m("fail.no_band", "count"),
    m("fail.feedback_lost", "count"),
    m("fail.feedback_mismatch", "count"),
    m("fail.locate", "count"),
    m("fail.bits", "count"),
    m("phy.id_miss", "count"),
    // aqua-eval::engine + aqua-par
    m("par.calls", "count"),
    m("par.items_per_call", "items"),
    m("par.busy_frac", "ratio"),
    m("par.overhead_ms", "ms"),
    m("par.cold_penalty_ms", "ms"),
    // aquapp::bulk
    m("bulk.rounds", "count"),
    m("bulk.packets", "count"),
    m("bulk.useful_frac", "ratio"),
    m("bulk.acks_lost", "count"),
    m("bulk.ms_per_packet", "ms"),
    // aqua-mac::ocean
    m("ocean.core_ms", "ms"),
    m("ocean.events", "count"),
    m("ocean.peak_heap", "count"),
    m("ocean.resolve_calls", "count"),
    m("ocean.resolve_us", "us"),
    m("ocean.overlap_frac", "ratio"),
    m("ocean.probe_renders", "count"),
    m("ocean.flushes", "count"),
    m("ocean.batch_mean", "items"),
    // aqua-net
    m("relay.next_frame_us", "us"),
    m("relay.on_frame_us", "us"),
    m("relay.wire_us", "us"),
    m("relay.reboot_ms", "ms"),
    m("relay.reboots", "count"),
    m("relay.flushes", "count"),
    m("relay.batch_mean", "items"),
    m("relay.useful_frac", "ratio"),
    m("relay.custody_retries", "count"),
    m("relay.dup_suppressed", "count"),
    m("journal.bytes", "bytes"),
    m("journal.syncs", "count"),
    m("journal.compactions", "count"),
    m("journal.replayed", "count"),
    // the tracing itself
    m("trace.wall_s", "s"),
    m("trace.overhead_frac", "ratio"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every value into `self`, overwriting.
    pub fn extend(&mut self, other: &Values) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

/// The catalogue a run must print: end-to-end without tracing, per-layer
/// with it.
pub fn catalogue(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A finite JSON number with every digit `{}` prints (non-finite values
/// have no JSON form and never describe a measurement; they print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Picks the catalogue's metrics out of `values`, in catalogue order.
/// Every catalogue entry must have been measured: a missing one is a bug
/// in a workload.
pub fn select(values: &Values, trace: bool) -> Vec<(String, f64, &'static str)> {
    catalogue(trace)
        .iter()
        .map(|m| {
            let v = values
                .0
                .get(m.name)
                .unwrap_or_else(|| panic!("workload did not measure {}", m.name));
            (m.name.to_string(), *v, m.unit)
        })
        .collect()
}
