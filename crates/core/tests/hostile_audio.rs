//! Hostile audio on the receive path: NaN, ±inf, ±1e308 and the smallest
//! subnormal written into a clean packet stream — in the lead-in, inside
//! the preamble, in the receiver-ID symbol and in the data section — must
//! not panic the streaming receiver or any receive-path stage it is built
//! from. For most values only the absence of a panic is asserted: what a
//! stage returns for such input is its own business. NaN and ±inf are
//! silenced where audio enters the receiver and both preamble detectors,
//! so runs of them must also leave the packet delivered and the preamble
//! found.
//!
//! Release builds run the full grid of 6 values × 4 places × runs of 1
//! and 64 samples. Debug builds run a 12-stream subset that writes each
//! value in two places and still covers every place at both run widths.

use aqua_phy::bandselect::{best_single_bin, select_band, Band, BandSelectConfig};
use aqua_phy::chanest::estimate;
use aqua_phy::feedback::{decode_feedback_whitened, decode_tone};
use aqua_phy::frame::{build_header, locate_training, FrameConfig};
use aqua_phy::ofdm::{demodulate_data, modulate_data, DecodeOptions};
use aqua_phy::preamble::{detect, detect_streaming, DetectorConfig, Preamble};
use aquapp::receiver::{RxEvent, StreamingReceiver};

const ID: u8 = 9;
/// Silence before the header.
const LEAD: usize = 5000;
const HOSTILE: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e308,
    -1e308,
    5e-324,
];
const WIDTHS: [usize; 2] = [1, 64];

struct Fixture {
    frame: FrameConfig,
    preamble: Preamble,
    payload: Vec<u8>,
    stream: Vec<f64>,
}

/// A clean full-band packet addressed to [`ID`], as the receiver hears it
/// on a perfect channel.
fn fixture() -> Fixture {
    let frame = FrameConfig::default();
    let preamble = Preamble::new(frame.params);
    let payload: Vec<u8> = (0..frame.payload_bits).map(|i| (i % 2) as u8).collect();
    let mut stream = vec![0.0; LEAD];
    stream.extend(build_header(&frame, &preamble, ID));
    stream.resize(LEAD + frame.data_start_offset(), 0.0);
    stream.extend(modulate_data(&frame.params, Band::new(0, 59), &payload));
    stream.extend(vec![0.0; 20_000]);
    Fixture {
        frame,
        preamble,
        payload,
        stream,
    }
}

/// The first corrupted sample of each of the four places.
fn places(f: &Fixture) -> [(&'static str, usize); 4] {
    let sym = f.frame.params.symbol_len();
    let id_start = LEAD + f.preamble.len();
    [
        ("lead-in", LEAD / 2),
        ("preamble", LEAD + f.preamble.len() / 2),
        ("ID symbol", id_start + sym / 2),
        ("data", LEAD + f.frame.data_start_offset() + sym + sym / 2),
    ]
}

/// Start of a `len`-sample window of `stream` that holds sample `at`.
fn around(stream: &[f64], at: usize, len: usize) -> usize {
    at.saturating_sub(len / 2).min(stream.len() - len)
}

fn push_blocks(frame: FrameConfig, stream: &[f64]) -> Vec<RxEvent> {
    let mut rx = StreamingReceiver::new(frame, ID);
    stream.chunks(480).flat_map(|b| rx.push(b)).collect()
}

/// Runs `stream` through the streaming receiver and through every stage
/// it is built from, each stage once on its natural window and once on a
/// window holding sample `at`.
fn run_every_stage(f: &Fixture, stream: &[f64], at: usize) {
    let params = f.frame.params;
    let n = params.n_fft;
    let sym = params.symbol_len();
    let _ = push_blocks(f.frame, stream);

    let det_cfg = DetectorConfig::default();
    let _ = detect(stream, &f.preamble, &det_cfg);
    let _ = detect_streaming(stream, &f.preamble, &det_cfg);

    let id_start = LEAD + f.preamble.len();
    let noise = vec![1e-6; params.num_bins];
    for start in [id_start, around(stream, at, sym)] {
        let _ = decode_tone(&params, &stream[start..start + sym], 0.2);
    }
    for start in [id_start - sym, around(stream, at, 4 * sym)] {
        let window = &stream[start..start + 4 * sym];
        let _ = decode_feedback_whitened(&params, window, 0.3, None);
        let _ = decode_feedback_whitened(&params, window, 0.3, Some(&noise));
    }

    let band_cfg = BandSelectConfig::default();
    for start in [LEAD, around(stream, at, 8 * n)] {
        let est = estimate(&params, &f.preamble, &stream[start..]);
        let _ = select_band(&est.snr_db, &band_cfg).or_else(|| best_single_bin(&est.snr_db));
        let _ = best_single_bin(&est.snr_db);
    }

    let band = Band::new(0, 59);
    let opts = DecodeOptions::default();
    let data_due = LEAD + f.frame.data_start_offset();
    for expected in [data_due, at.saturating_sub(sym / 2)] {
        let start =
            locate_training(&params, stream, expected, 2 * params.cp, 0.2).unwrap_or(expected);
        let _ = demodulate_data(&params, band, &stream[start..], f.frame.payload_bits, &opts);
    }
}

/// Every stream of the non-finite grid, with its label: a NaN, +inf or
/// −inf run, 1 or 64 samples wide, at each of the four places.
fn non_finite_streams(f: &Fixture) -> Vec<(String, Vec<f64>)> {
    let mut streams = Vec::new();
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (place, at) in places(f) {
            for width in WIDTHS {
                let mut stream = f.stream.clone();
                stream[at..at + width].fill(value);
                let label = format!("{value} × {width} in the {place} (sample {at})");
                streams.push((label, stream));
            }
        }
    }
    streams
}

/// The payload of the first packet the receiver decodes from `stream`.
fn delivered(frame: FrameConfig, stream: &[f64]) -> Option<Vec<u8>> {
    push_blocks(frame, stream)
        .into_iter()
        .find_map(|e| match e {
            RxEvent::Packet { bits, .. } => Some(bits),
            _ => None,
        })
}

#[test]
fn clean_stream_delivers_the_packet() {
    let f = fixture();
    assert_eq!(delivered(f.frame, &f.stream), Some(f.payload.clone()));
}

/// `StreamingReceiver::push` silences NaN and ±inf where audio enters the
/// receiver, so a run of them 1 or 64 samples wide, in the lead-in, the
/// preamble, the ID symbol or the data section, costs no more than a
/// dropout as long: all 24 such streams still deliver the payload.
/// ±1e308 is finite, passes the front end unchanged and still loses the
/// packet at every place but the lead-in; nothing here covers it.
#[test]
fn non_finite_runs_still_deliver_the_packet() {
    let f = fixture();
    for (label, stream) in non_finite_streams(&f) {
        assert_eq!(
            delivered(f.frame, &stream),
            Some(f.payload.clone()),
            "{label}"
        );
    }
}

/// `detect` and `detect_streaming` silence NaN and ±inf too, so on each of
/// those 24 streams both find the preamble where the clean stream has it,
/// at the end of the lead-in. Unsilenced, `detect`'s one-shot correlation
/// spreads the run over every lag, and the streaming correlator over every
/// output of the FFT block that holds it.
#[test]
fn non_finite_runs_leave_both_detectors_on_the_preamble() {
    let f = fixture();
    let cfg = DetectorConfig::default();
    let offsets = |stream: &[f64]| {
        (
            detect(stream, &f.preamble, &cfg).map(|d| d.offset),
            detect_streaming(stream, &f.preamble, &cfg).map(|d| d.offset),
        )
    };
    assert_eq!(offsets(&f.stream), (Some(LEAD), Some(LEAD)));
    for (label, stream) in non_finite_streams(&f) {
        assert_eq!(offsets(&stream), (Some(LEAD), Some(LEAD)), "{label}");
    }
}

#[test]
fn hostile_samples_never_panic_the_receive_path() {
    let f = fixture();
    let places = places(&f);
    let mut cases = Vec::new();
    for (v, &value) in HOSTILE.iter().enumerate() {
        for (p, &(place, at)) in places.iter().enumerate() {
            for (w, &width) in WIDTHS.iter().enumerate() {
                // debug keeps two places per value, one width per place
                let kept = (v + p + w) % 2 == 0 && (p + v) % 4 < 2;
                if kept || !cfg!(debug_assertions) {
                    cases.push((value, place, at, width));
                }
            }
        }
    }
    for (value, place, at, width) in cases {
        let mut stream = f.stream.clone();
        stream[at..at + width].fill(value);
        let run = std::panic::catch_unwind(|| run_every_stage(&f, &stream, at));
        assert!(
            run.is_ok(),
            "{value:e} × {width} in the {place} (sample {at}) panicked"
        );
    }
}
