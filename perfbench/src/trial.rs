//! The traced packet exchange: `aquapp::trial::run_trial` re-assembled
//! from the same public stage functions, with every stage call timed.
//!
//! The sequence, constants and arguments mirror `run_trial` line for line;
//! the harness's traced-equivalence check (every `TrialResult` field
//! compared bit for bit) keeps the two from drifting apart.

use crate::util::SpanLog;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_coding::bits::bit_error_rate;
use aqua_coding::conv::{encode as conv_encode, Rate};
use aqua_phy::bandselect::{best_single_bin, select_band};
use aqua_phy::chanest::estimate;
use aqua_phy::feedback::{decode_feedback_whitened, decode_tone, encode_feedback, noise_bin_power};
use aqua_phy::frame::{build_header, locate_training};
use aqua_phy::ofdm::{demodulate_data, modulate_data, DecodeOptions};
use aqua_phy::preamble::{detect_streaming, Preamble};
use aquapp::trial::{front_end, Scheme, TrialConfig, TrialResult};
use std::time::Instant;

/// Silence prepended to transmissions (`run_trial`'s lead).
const LEAD_SAMPLES: usize = 2400;
/// Seed of the pre-dive noise-floor calibration recording.
const CALIBRATION_SEED: u64 = 0xCA11_B007;

/// Stage span names, in exchange order. Their sum over a trial is the
/// trial's stage coverage.
pub const STAGES: [&str; 11] = [
    "channel.render",
    "core.front_end",
    "phy.detect",
    "phy.id",
    "phy.estimate",
    "phy.select",
    "phy.feedback_encode",
    "phy.feedback_decode",
    "phy.modulate",
    "phy.locate",
    "phy.demodulate",
];

/// Why a traced exchange lost its packet (first failing step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    Ok,
    Preamble,
    NoBand,
    FeedbackLost,
    FeedbackMismatch,
    Locate,
    Bits,
}

/// Per-trial trace: spans, failure cause and channel render count.
pub struct TrialTrace {
    pub log: SpanLog,
    pub cause: Cause,
    pub renders: u32,
    pub id_miss: bool,
}

/// The pre-dive noise-floor calibration, cached per thread exactly like
/// `run_trial`'s: a pure function of the site's noise profile.
fn calibrated_noise_floor(
    params: &aqua_phy::params::OfdmParams,
    env: &aqua_channel::environments::Environment,
) -> std::rc::Rc<Vec<f64>> {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;
    thread_local! {
        static CACHE: RefCell<HashMap<Vec<u64>, Rc<Vec<f64>>>> = RefCell::new(HashMap::new());
    }
    let mut key: Vec<u64> = vec![
        env.noise.rms.to_bits(),
        params.n_fft as u64,
        params.first_bin as u64,
        params.num_bins as u64,
        params.fs.to_bits(),
    ];
    for &(f, db) in &env.noise.anchors {
        key.push(f.to_bits());
        key.push(db.to_bits());
    }
    CACHE.with(|cache| {
        cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| {
                let mut cal = aqua_channel::noise::NoiseGenerator::new(
                    env.noise.clone(),
                    SAMPLE_RATE,
                    CALIBRATION_SEED,
                );
                let ambient = front_end(&cal.generate(8 * params.n_fft));
                Rc::new(noise_bin_power(params, &ambient))
            })
            .clone()
    })
}

fn failed() -> TrialResult {
    TrialResult {
        preamble_detected: false,
        id_ok: false,
        channel: None,
        band: None,
        feedback_ok: false,
        bits: None,
        packet_ok: false,
        data_phase: false,
        coded_ber: 0.5,
        coded_bitrate_bps: 0.0,
    }
}

/// Runs one packet exchange with every stage timed. `unit` tags the spans
/// (the trial's index in the run); `origin` is the run's span clock.
pub fn traced_trial(cfg: &TrialConfig, unit: u64, origin: Instant) -> (TrialResult, TrialTrace) {
    let t_trial = Instant::now();
    let mut tr = TrialTrace {
        log: SpanLog::new(origin),
        cause: Cause::Ok,
        renders: 0,
        id_miss: false,
    };
    let result = exchange(cfg, unit, &mut tr);
    tr.log.push("trial", unit, t_trial);
    if result.preamble_detected && !result.id_ok {
        tr.id_miss = true;
    }
    if tr.cause == Cause::Ok && !result.packet_ok {
        tr.cause = if result.feedback_ok {
            Cause::Bits
        } else {
            Cause::FeedbackMismatch
        };
    }
    (result, tr)
}

fn exchange(cfg: &TrialConfig, u: u64, tr: &mut TrialTrace) -> TrialResult {
    let log = &mut tr.log;
    let params = cfg.frame.params;
    let fs = SAMPLE_RATE;
    let preamble = log.time("phy.modulate", u, || Preamble::new(params));

    let (mut forward, mut backward) = log.time("channel.render", u, || {
        let forward = Link::new(LinkConfig {
            fs,
            env: cfg.env.clone(),
            tx_device: cfg.alice_device,
            rx_device: cfg.bob_device,
            tx_traj: cfg.alice_traj.clone(),
            rx_traj: cfg.bob_traj.clone(),
            noise: true,
            impulses: false,
            seed: cfg.seed ^ 0xF0,
        });
        let backward = Link::new(LinkConfig {
            fs,
            env: cfg.env.clone(),
            tx_device: cfg.bob_device,
            rx_device: cfg.alice_device,
            tx_traj: cfg.bob_traj.clone(),
            rx_traj: cfg.alice_traj.clone(),
            noise: true,
            impulses: false,
            seed: cfg.seed ^ 0x0B,
        });
        (forward, backward)
    });
    let faults = cfg.faults.as_ref().map(|f| (f, cfg.start_s));

    // ---- 1. header: preamble + receiver ID ----
    let header_tx = log.time("phy.modulate", u, || {
        let mut header_tx = vec![0.0; LEAD_SAMPLES];
        header_tx.extend(build_header(&cfg.frame, &preamble, cfg.bob_id));
        header_tx
    });
    tr.renders += 1;
    let rendered = log.time("channel.render", u, || {
        forward.transmit_with_faults(&header_tx, 0.0, faults)
    });
    let header_rx = log.time("core.front_end", u, || front_end(&rendered));

    // ---- 2. Bob: detect, check ID, estimate, select ----
    let Some(detection) = log.time("phy.detect", u, || {
        detect_streaming(&header_rx, &preamble, &cfg.detector)
    }) else {
        tr.cause = Cause::Preamble;
        return failed();
    };
    let preamble_offset = detection.offset;
    let id_start = preamble_offset + preamble.len();
    let id_ok = log.time("phy.id", u, || {
        header_rx
            .get(id_start..)
            .filter(|w| w.len() >= params.symbol_len())
            .and_then(|w| {
                let end = (params.symbol_len() + params.cp).min(w.len());
                decode_tone(&params, &w[..end], 0.3)
            })
            .map(|(bin, _)| bin == cfg.bob_id as usize)
            .unwrap_or(false)
    });
    let est = log.time("phy.estimate", u, || {
        estimate(&params, &preamble, &header_rx[preamble_offset..])
    });
    let header_end_s = (preamble_offset + preamble.len() + params.symbol_len()) as f64 / fs;

    // ---- 3/4. band decision and (for adaptive) the feedback exchange ----
    let (bob_band, alice_band, feedback_ok) = match cfg.scheme {
        Scheme::Fixed(band) | Scheme::Stale(band) => (band, band, true),
        Scheme::Adaptive => {
            let selected = log.time("phy.select", u, || {
                select_band(&est.snr_db, &cfg.band_cfg).or_else(|| best_single_bin(&est.snr_db))
            });
            let Some(selected) = selected else {
                tr.cause = Cause::NoBand;
                return TrialResult {
                    preamble_detected: true,
                    id_ok,
                    channel: Some(est),
                    ..failed()
                };
            };
            let fb_tx = log.time("phy.feedback_encode", u, || {
                encode_feedback(&params, selected)
            });
            let noise_psd = log.time("core.front_end", u, || {
                calibrated_noise_floor(&params, &cfg.env)
            });
            tr.renders += 1;
            let rendered = log.time("channel.render", u, || {
                backward.transmit_with_faults(&fb_tx, header_end_s + 0.002, faults)
            });
            let fb_rx = log.time("core.front_end", u, || front_end(&rendered));
            let decoded = log.time("phy.feedback_decode", u, || {
                decode_feedback_whitened(&params, &fb_rx, 0.3, Some(noise_psd.as_slice()))
            });
            match decoded {
                Some(decoded) => (selected, decoded.band, decoded.band == selected),
                None => {
                    tr.cause = Cause::FeedbackLost;
                    return TrialResult {
                        preamble_detected: true,
                        id_ok,
                        channel: Some(est),
                        band: Some(selected),
                        feedback_ok: false,
                        bits: None,
                        packet_ok: false,
                        data_phase: false,
                        coded_ber: 0.5,
                        coded_bitrate_bps: 0.0,
                    };
                }
            }
        }
    };

    // ---- 5. data section on Alice's symbol clock (her decoded band) ----
    let (coded_payload, data_tx) = log.time("phy.modulate", u, || {
        let coded_payload = conv_encode(&cfg.payload, Rate::TwoThirds);
        let data_tx = if cfg.differential {
            modulate_data(&params, alice_band, &cfg.payload)
        } else {
            aqua_phy::ofdm::modulate_coded(&params, alice_band, &coded_payload, false)
        };
        (coded_payload, data_tx)
    });
    let data_start_s = (LEAD_SAMPLES + cfg.frame.data_start_offset()) as f64 / fs;
    tr.renders += 1;
    let rendered = log.time("channel.render", u, || {
        forward.transmit_with_faults(&data_tx, data_start_s, faults)
    });
    let data_rx = log.time("core.front_end", u, || front_end(&rendered));

    // ---- 6. Bob locates the training symbol and decodes ----
    let expected = preamble_offset.saturating_sub(LEAD_SAMPLES);
    let located = log.time("phy.locate", u, || {
        locate_training(&params, &data_rx, expected, 2 * params.cp, 0.2)
    });
    let needed = aqua_phy::ofdm::data_section_len(&params, bob_band, cfg.payload.len());
    let train_at = match located {
        Some(t) if data_rx.len() >= t + needed => t,
        _ => {
            tr.cause = if feedback_ok {
                Cause::Locate
            } else {
                Cause::FeedbackMismatch
            };
            return TrialResult {
                preamble_detected: true,
                id_ok,
                channel: Some(est),
                band: Some(bob_band),
                feedback_ok,
                bits: None,
                packet_ok: false,
                data_phase: true,
                coded_ber: 0.5,
                coded_bitrate_bps: params.coded_bitrate_bps(bob_band.len()),
            };
        }
    };
    let opts = DecodeOptions {
        bandpass: false,
        differential: cfg.differential && cfg.decode.differential,
        ..cfg.decode
    };
    let (decoded, coded_ber) = log.time("phy.demodulate", u, || {
        let decoded = demodulate_data(
            &params,
            bob_band,
            &data_rx[train_at..],
            cfg.payload.len(),
            &opts,
        );
        let coded_ber = bit_error_rate(&coded_payload, &decoded.coded_hard);
        (decoded, coded_ber)
    });
    let packet_ok = decoded.bits == cfg.payload;
    TrialResult {
        preamble_detected: true,
        id_ok,
        channel: Some(est),
        band: Some(bob_band),
        feedback_ok,
        bits: Some(decoded.bits),
        packet_ok,
        data_phase: true,
        coded_ber,
        coded_bitrate_bps: params.coded_bitrate_bps(bob_band.len()),
    }
}

/// Reduces the traces of every traced exchange to the `channel.*`,
/// `core.*`, `phy.*`, `rx.*`, `trial.*` and `fail.*` layer values, and
/// moves their spans into the run's log.
pub fn layer_values(traces: Vec<TrialTrace>, log: &mut SpanLog) -> crate::report::Values {
    use crate::util::{quantile, ratio};
    let n = traces.len() as f64;
    let mut v = crate::report::Values::default();
    let mut stage_ms = [0.0f64; STAGES.len()];
    let mut walls = Vec::with_capacity(traces.len());
    let (mut adapt, mut adapt_n, mut decode, mut decode_n) = (0.0, 0.0, 0.0, 0.0);
    let mut causes = [0u64; 7];
    let (mut renders, mut id_miss) = (0u64, 0u64);
    for t in traces {
        let mut per = [0.0f64; STAGES.len()];
        for s in &t.log.spans {
            let ms = s.dur_ns as f64 / 1e6;
            match STAGES.iter().position(|&name| name == s.name) {
                Some(k) => per[k] += ms,
                None => walls.push(ms),
            }
        }
        let at = |name: &str| per[STAGES.iter().position(|&s| s == name).expect("stage")];
        if t.log.count("phy.feedback_encode") > 0 {
            adapt += at("phy.estimate") + at("phy.select") + at("phy.feedback_encode");
            adapt_n += 1.0;
        }
        if t.log.count("phy.demodulate") > 0 {
            decode += at("phy.locate") + at("phy.demodulate");
            decode_n += 1.0;
        }
        for (acc, x) in stage_ms.iter_mut().zip(per) {
            *acc += x;
        }
        causes[t.cause as usize] += 1;
        renders += t.renders as u64;
        id_miss += t.id_miss as u64;
        log.spans.extend(t.log.spans);
    }
    let stage = |name: &str| stage_ms[STAGES.iter().position(|&s| s == name).expect("stage")];
    let per_trial = |ms: f64| ratio(ms, n);
    v.set("channel.render_ms", per_trial(stage("channel.render")));
    v.set("channel.render_calls", ratio(renders as f64, n));
    v.set("core.front_end_ms", per_trial(stage("core.front_end")));
    v.set("phy.detect_ms", per_trial(stage("phy.detect")));
    v.set("phy.id_ms", per_trial(stage("phy.id")));
    v.set("phy.estimate_ms", per_trial(stage("phy.estimate")));
    v.set("phy.select_ms", per_trial(stage("phy.select")));
    v.set(
        "phy.feedback_ms",
        per_trial(stage("phy.feedback_encode") + stage("phy.feedback_decode")),
    );
    v.set("phy.modulate_ms", per_trial(stage("phy.modulate")));
    v.set("phy.locate_ms", per_trial(stage("phy.locate")));
    v.set("phy.demodulate_ms", per_trial(stage("phy.demodulate")));
    v.set("rx.adapt_ms", ratio(adapt, adapt_n));
    v.set("rx.decode_ms", ratio(decode, decode_n));
    let all: f64 = stage_ms.iter().sum();
    v.set("trial.sim_ms", per_trial(stage("channel.render")));
    v.set("trial.rx_ms", per_trial(all - stage("channel.render")));
    v.set("trial.p50_ms", quantile(&walls, 0.5));
    v.set("trial.p99_ms", quantile(&walls, 0.99));
    v.set("trial.stage_coverage", ratio(all, walls.iter().sum()));
    v.set("fail.preamble", causes[Cause::Preamble as usize] as f64);
    v.set("fail.no_band", causes[Cause::NoBand as usize] as f64);
    v.set(
        "fail.feedback_lost",
        causes[Cause::FeedbackLost as usize] as f64,
    );
    v.set(
        "fail.feedback_mismatch",
        causes[Cause::FeedbackMismatch as usize] as f64,
    );
    v.set("fail.locate", causes[Cause::Locate as usize] as f64);
    v.set("fail.bits", causes[Cause::Bits as usize] as f64);
    v.set("phy.id_miss", id_miss as f64);
    v
}
