//! Hot-path microbenches against the paper's §3 runtime budget:
//! channel estimation / frequency adaptation / feedback decode ≈ 1–2 ms
//! each on a Galaxy S9, and per-symbol equalization + Viterbi < 20 ms
//! (one OFDM symbol duration).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aqua_coding::conv::{encode as conv_encode, Rate};
use aqua_coding::viterbi::decode_soft;
use aqua_phy::bandselect::Band;
use aqua_phy::bandselect::{select_band, BandSelectConfig};
use aqua_phy::chanest::estimate;
use aqua_phy::equalizer::{design_fd, DEFAULT_EQ_LEN};
use aqua_phy::feedback::{decode_feedback_batch, decode_feedback_whitened, encode_feedback};
use aqua_phy::params::OfdmParams;
use aqua_phy::preamble::{detect, DetectorConfig, Preamble, StreamingDetector};

fn fft_960(c: &mut Criterion) {
    let plan = aqua_dsp::fft::Fft::new(960);
    let buf: Vec<aqua_dsp::Complex> = (0..960)
        .map(|i| aqua_dsp::Complex::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    c.bench_function("fft_960_forward", |b| {
        b.iter(|| {
            let mut data = buf.clone();
            plan.forward(black_box(&mut data));
            black_box(data)
        })
    });
    // The real-input fast path at the 10 Hz-spacing symbol size: one
    // half-size complex FFT + untangling vs the full complex transform.
    let plan_real = aqua_dsp::fft::RealFft::new(4800);
    let signal: Vec<f64> = (0..4800).map(|i| (i as f64 * 0.211).sin()).collect();
    c.bench_function("real_fft_4800", |b| {
        b.iter(|| black_box(plan_real.forward_half(black_box(&signal))))
    });

    // The renderer's noise block for any render of 16 385–32 768 samples
    // (and the 0.5 s render's convolution size): one real forward plus one
    // real inverse at 32 768 through the buffer-reusing paths.
    let plan_32k = aqua_dsp::fft::RealFft::new(32_768);
    let block: Vec<f64> = (0..32_768).map(|i| (i as f64 * 0.173).sin()).collect();
    let (mut spec, mut back) = (Vec::new(), Vec::new());
    c.bench_function("real_fft_32768_roundtrip", |b| {
        b.iter(|| {
            plan_32k.forward_half_into(black_box(&block), &mut spec);
            plan_32k.inverse_half_into(black_box(&spec), &mut back);
            black_box(back.len())
        })
    });

    // The channel renderer's dominant cost: one 0.5 s transmission
    // convolved with a multipath+device FIR (both real → the real-FFT
    // convolution path; next_power_of_two lands on a 32768-point plan).
    let tx: Vec<f64> = (0..24_000).map(|i| (i as f64 * 0.13).sin()).collect();
    let fir: Vec<f64> = (0..2_048)
        .map(|i| (i as f64 * 0.71).sin() / (i + 1) as f64)
        .collect();
    c.bench_function("fft_convolve_0.5s_render", |b| {
        b.iter(|| black_box(aqua_dsp::fir::fft_convolve(black_box(&tx), black_box(&fir))))
    });

    // Same convolution through the planned path: the filter spectrum is
    // cached and all scratch is reused, leaving one forward + one inverse
    // transform per call — the renderer/front-end steady state.
    let planned = aqua_dsp::fir::PlannedConvolver::new(fir.clone());
    let mut out = Vec::new();
    c.bench_function("planned_convolve_0.5s_render", |b| {
        b.iter(|| {
            planned.convolve_into(black_box(&tx), &mut out);
            black_box(out.len())
        })
    });
}

fn preamble_pipeline(c: &mut Criterion) {
    let params = OfdmParams::default();
    let preamble = Preamble::new(params);
    let mut rx = vec![0.0; 4000];
    rx.extend_from_slice(&preamble.samples);
    rx.extend(vec![0.0; 4000]);
    // modest noise so the detector does real work
    let mut s = 1u64;
    for v in rx.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v += ((s as f64 / u64::MAX as f64) - 0.5) * 0.02;
    }
    // the live path: a long-lived streaming detector (template spectrum
    // cached) scanning one 0.33 s buffer; `reset` keeps the plan between
    // iterations like a real receiver keeps it between buffers
    let mut streaming = StreamingDetector::new(preamble.clone(), DetectorConfig::default());
    c.bench_function("preamble_detect_0.33s_buffer", |b| {
        b.iter(|| {
            streaming.reset();
            let mut found = streaming.push(black_box(&rx));
            found.extend(streaming.flush());
            black_box(found)
        })
    });

    // same buffer chopped into 20 ms audio callbacks with the receiver's
    // one-symbol latency bound — the realtime duty-cycle number
    c.bench_function("preamble_scan_20ms_callbacks", |b| {
        b.iter(|| {
            streaming.reset();
            let mut found = Vec::new();
            for chunk in rx.chunks(960) {
                found.extend(streaming.push(black_box(chunk)));
                found.extend(streaming.poll(params.n_fft));
            }
            black_box(found)
        })
    });

    // the batch rescan kept as the reference oracle
    c.bench_function("preamble_detect_batch_reference", |b| {
        b.iter(|| {
            black_box(detect(
                black_box(&rx),
                &preamble,
                &DetectorConfig::default(),
            ))
        })
    });

    let aligned = &rx[4000..4000 + preamble.len()];
    c.bench_function("channel_estimation_8_symbols", |b| {
        b.iter(|| black_box(estimate(&params, &preamble, black_box(aligned))))
    });

    let est = estimate(&params, &preamble, aligned);
    c.bench_function("band_selection_60_bins", |b| {
        b.iter(|| {
            black_box(select_band(
                black_box(&est.snr_db),
                &BandSelectConfig::default(),
            ))
        })
    });
}

fn feedback_pipeline(c: &mut Criterion) {
    let params = OfdmParams::default();
    let sym = encode_feedback(&params, Band::new(5, 48));
    let mut rx = vec![0.0; 1920]; // max RTT at 30 m ≈ 40 ms window
    rx.extend_from_slice(&sym);
    rx.extend(vec![0.0; 500]);
    // the live path: sliding-Goertzel bank, O(num_bins) per sample
    c.bench_function("feedback_decode_rtt_window", |b| {
        b.iter(|| black_box(decode_feedback_whitened(&params, black_box(&rx), 0.3, None)))
    });
    // the FFT-per-window oracle the sliding path is tested against
    c.bench_function("feedback_decode_batch_reference", |b| {
        b.iter(|| black_box(decode_feedback_batch(&params, black_box(&rx), 0.3, None)))
    });
}

fn decoder_pipeline(c: &mut Criterion) {
    let params = OfdmParams::default();
    let train = aqua_phy::ofdm::training_symbol(&params);
    let core = &train[params.cp..];
    c.bench_function("equalizer_design_480_taps", |b| {
        b.iter(|| {
            black_box(design_fd(
                &params,
                black_box(core),
                black_box(core),
                100.0,
                DEFAULT_EQ_LEN,
            ))
        })
    });

    let data = conv_encode(&[1u8; 16], Rate::TwoThirds);
    let soft: Vec<f64> = data
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("viterbi_24_coded_bits", |b| {
        b.iter(|| black_box(decode_soft(black_box(&soft), Rate::TwoThirds)))
    });

    // Packet-scale decode (the fig14 64-bit payload at rate 2/3) through
    // the flat trellis: static branch table, swapped metric buffers,
    // one-word-per-step packed survivors.
    let payload: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
    let coded = conv_encode(&payload, Rate::TwoThirds);
    let soft_packet: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("viterbi_decode_packet", |b| {
        b.iter(|| black_box(decode_soft(black_box(&soft_packet), Rate::TwoThirds)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = fft_960, preamble_pipeline, feedback_pipeline, decoder_pipeline
}
criterion_main!(benches);
