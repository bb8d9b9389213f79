//! The traced static bulk engine: `aquapp::bulk::run_bulk_transfer`'s
//! round loop re-assembled from public pieces (`TransferPlan`,
//! `Reassembler`, `BlockAck`, the tone codec, `attempt_airtime_s`) with
//! every fragment exchange run through the traced exchange.
//!
//! Seeds, clocks and accounting mirror `run_bulk_transfer` line for line;
//! the harness's traced-equivalence check compares the `BulkOutcome`s.

use crate::trial::{traced_trial, TrialTrace};
use crate::util::SpanLog;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_phy::feedback::{decode_tone, encode_tone};
use aqua_proto::transfer::{Accept, Fragment, Reassembler, TransferPlan};
use aquapp::arq::attempt_airtime_s;
use aquapp::bulk::{
    BlockAck, BulkConfig, BulkOutcome, BulkReason, ACK_DIVERSITY_SHIFT, ACK_TONE_BITS,
};
use std::time::Instant;

fn build_ack(reasm: &Reassembler, window: usize, total_frags: u16) -> BlockAck {
    let needed = reasm.missing();
    let base = needed.first().copied().unwrap_or(total_frags);
    BlockAck {
        done: reasm.complete(),
        base,
        need: (0..window as u16)
            .map(|i| needed.binary_search(&(base + i)).is_ok())
            .collect(),
    }
}

fn block_ack_exchange(
    cfg: &BulkConfig,
    ack: &BlockAck,
    link_seed: u64,
    now_s: f64,
) -> (Option<BlockAck>, f64) {
    let params = cfg.base.frame.params;
    let faults = cfg.faults.as_ref().map(|f| (f, now_s));
    let mut back = Link::new(LinkConfig {
        fs: SAMPLE_RATE,
        env: cfg.base.env.clone(),
        tx_device: cfg.base.bob_device,
        rx_device: cfg.base.alice_device,
        tx_traj: cfg.base.bob_traj.clone(),
        rx_traj: cfg.base.alice_traj.clone(),
        noise: true,
        impulses: false,
        seed: link_seed,
    });
    let mut airtime_s = 0.0;
    let mut rx_tones = Vec::new();
    for (i, &tone) in ack.to_tones().iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for copy in 0..2usize {
            let bin = tone + copy * ACK_DIVERSITY_SHIFT;
            let t0 = (2 * i + copy) as f64 * params.symbol_duration_s();
            let rx = back.transmit_with_faults(&encode_tone(&params, bin), t0, faults);
            airtime_s += params.symbol_duration_s();
            let decoded = decode_tone(&params, &rx, 0.25).and_then(|(b, q)| {
                let v = b.checked_sub(copy * ACK_DIVERSITY_SHIFT)?;
                (v < 1 << ACK_TONE_BITS).then_some((v, q))
            });
            if let Some(d) = decoded {
                if best.map(|b| d.1 > b.1).unwrap_or(true) {
                    best = Some(d);
                }
            }
        }
        match best {
            Some((bin, _)) => rx_tones.push(bin),
            None => break,
        }
    }
    let decoded = (rx_tones.len() == BlockAck::frame_tones(cfg.window))
        .then(|| BlockAck::from_tones(&rx_tones, cfg.window))
        .flatten();
    (decoded, airtime_s)
}

fn apply_ack(pending: &mut Vec<u16>, ack: &BlockAck, total_frags: u16) {
    pending.retain(|&s| {
        if s < ack.base {
            return false;
        }
        let i = (s - ack.base) as usize;
        i >= ack.need.len() || ack.need[i]
    });
    for (i, &needed) in ack.need.iter().enumerate() {
        if !needed {
            continue;
        }
        let s = ack.base + i as u16;
        if s >= total_frags {
            break;
        }
        if let Err(pos) = pending.binary_search(&s) {
            pending.insert(pos, s);
        }
    }
}

/// Runs one static-engine transfer with every fragment exchange traced.
/// Exchange traces are appended to `traces`; block-ACK exchanges are
/// logged as `bulk.ack` spans.
pub fn traced_static_transfer(
    cfg: &BulkConfig,
    data: &[u8],
    log: &mut SpanLog,
    traces: &mut Vec<TrialTrace>,
) -> BulkOutcome {
    let plan = TransferPlan::try_new(data.len(), cfg.params)
        .expect("benchmark transfer configs are non-degenerate");
    let frags = plan.segment(data);
    let total = plan.total_frags() as u16;
    let mut pending: Vec<u16> = (0..total).collect();
    let mut reasm = Reassembler::new(plan);
    let mut out = BulkOutcome {
        delivered: None,
        reason: BulkReason::RoundBudget,
        rounds: 0,
        packets_sent: 0,
        packets_delivered: 0,
        erasures: 0,
        duplicates: 0,
        acks_lost: 0,
        suspensions: 0,
        probes: 0,
        suspended_s: 0.0,
        airtime_s: 0.0,
        goodput_bps: 0.0,
    };
    let mut sender_done = false;
    while out.rounds < cfg.max_rounds && !sender_done && !pending.is_empty() {
        let round = out.rounds;
        out.rounds += 1;
        let burst: Vec<u16> = pending.iter().take(cfg.window).copied().collect();
        for &seq in &burst {
            let mut t = cfg.base.clone();
            t.payload = frags[seq as usize].to_bits();
            t.frame.payload_bits = t.payload.len();
            t.seed = cfg
                .base
                .seed
                .wrapping_add(0x9E37_79B9 * (1 + round as u64))
                .wrapping_add(7919 * seq as u64);
            t.faults = cfg.faults.clone();
            t.start_s = out.airtime_s;
            let (trial, trace) = traced_trial(&t, traces.len() as u64, log.origin());
            traces.push(trace);
            out.packets_sent += 1;
            out.airtime_s += attempt_airtime_s(
                &t.frame,
                trial.band.map(|b| b.len()).unwrap_or(1),
                trial.data_phase,
            );
            match trial.bits.and_then(|b| Fragment::from_bits(&b)) {
                Some(f) => match reasm.accept(&f) {
                    Accept::Fresh => out.packets_delivered += 1,
                    Accept::Duplicate => out.duplicates += 1,
                    Accept::Invalid => out.erasures += 1,
                },
                None => out.erasures += 1,
            }
        }
        let ack = build_ack(&reasm, cfg.window, total);
        let t0 = Instant::now();
        let (decoded, ack_air) = block_ack_exchange(
            cfg,
            &ack,
            cfg.base.seed ^ 0xB10C ^ ((round as u64) << 17),
            out.airtime_s,
        );
        log.push("bulk.ack", round as u64, t0);
        out.airtime_s += ack_air;
        match decoded {
            Some(ack) => {
                if ack.done {
                    sender_done = true;
                }
                apply_ack(&mut pending, &ack, total);
            }
            None => out.acks_lost += 1,
        }
    }
    out.delivered = reasm.assemble();
    if let Some(d) = &out.delivered {
        out.goodput_bps = d.len() as f64 * 8.0 / out.airtime_s;
        out.reason = BulkReason::Completed;
    }
    out
}
