//! Streaming receiver: the continuously-listening state machine a phone
//! runs (§3: "preamble detection running continuously in real-time").
//!
//! Audio arrives in blocks from the microphone; every filtered sample is
//! fed once through a [`StreamingDetector`] — the overlap-save front-end
//! that replaced the per-push batch rescans — and the receiver walks the
//! §2.2 sequence from each detection it emits: verify the receiver ID,
//! estimate SNR, select the band, emit the feedback waveform for the app
//! to play, and finally locate and decode the data section — emitting
//! events at each stage.

use aqua_coding::bits::bits_to_value;
use aqua_dsp::correlate::silence_non_finite;
use aqua_dsp::fir::{design_bandpass, StreamingFir};
use aqua_dsp::window::Window;
use aqua_phy::bandselect::{best_single_bin, select_band, Band, BandSelectConfig};
use aqua_phy::chanest::estimate;
use aqua_phy::feedback::{decode_tone, encode_feedback};
use aqua_phy::frame::{locate_training, FrameConfig};
use aqua_phy::ofdm::{demodulate_data, DecodeOptions};
use aqua_phy::preamble::{Detection, DetectorConfig, Preamble, StreamingDetector};
use std::collections::VecDeque;

/// Events emitted by the streaming receiver as a packet progresses.
#[derive(Debug, Clone, PartialEq)]
pub enum RxEvent {
    /// A preamble was detected (sliding-correlation metric attached).
    PreambleDetected {
        /// Detection metric (≈1 clean, ≥ accept threshold).
        metric: f64,
    },
    /// The header's ID symbol addressed someone else; the receiver went
    /// back to scanning.
    NotForUs {
        /// The ID that was decoded from the header.
        addressed: usize,
    },
    /// Band selected; the attached waveform is the feedback symbol the
    /// app must transmit now.
    FeedbackReady {
        /// The selected band.
        band: Band,
        /// Feedback symbol samples to play.
        waveform: Vec<f64>,
    },
    /// A packet decoded successfully.
    Packet {
        /// Payload bits.
        bits: Vec<u8>,
        /// Payload reinterpreted as a 16-bit value (two message IDs).
        value: u64,
    },
    /// The data section never arrived or failed to decode.
    DataLost,
}

enum State {
    Scanning,
    /// Waiting for the data section; `data_due` is the stream index where
    /// the training symbol is expected.
    AwaitingData {
        band: Band,
        data_due: usize,
        deadline: usize,
    },
}

/// Continuously-listening receiver. Feed audio blocks with
/// [`StreamingReceiver::push`]; collect events from the return value.
pub struct StreamingReceiver {
    frame: FrameConfig,
    preamble: Preamble,
    my_id: u8,
    band_cfg: BandSelectConfig,
    decode: DecodeOptions,
    /// Bandpassed stream history.
    buffer: Vec<f64>,
    /// Absolute stream index of `buffer[0]`.
    buffer_start: usize,
    front_end: StreamingFir,
    /// Streaming preamble front-end: every filtered sample is pushed once;
    /// detections arrive with absolute stream offsets.
    detector: StreamingDetector,
    /// Detections emitted by the detector, not yet consumed by the state
    /// machine (the detector keeps scanning while data is being decoded).
    detections: VecDeque<Detection>,
    state: State,
    /// Stream index below which detections are stale (already-handled
    /// headers, decoded data sections).
    scanned_to: usize,
}

impl StreamingReceiver {
    /// Creates a receiver listening for packets addressed to `my_id`.
    pub fn new(frame: FrameConfig, my_id: u8) -> Self {
        let params = frame.params;
        let taps = design_bandpass(129, 850.0, 4150.0, params.fs, Window::Hamming);
        let preamble = Preamble::new(params);
        Self {
            frame,
            detector: StreamingDetector::new(preamble.clone(), DetectorConfig::default()),
            preamble,
            my_id,
            band_cfg: BandSelectConfig::default(),
            decode: DecodeOptions {
                bandpass: false, // the streaming front end already filters
                ..DecodeOptions::default()
            },
            buffer: Vec::new(),
            buffer_start: 0,
            front_end: StreamingFir::new(taps),
            detections: VecDeque::new(),
            state: State::Scanning,
            scanned_to: 0,
        }
    }

    /// Feeds one audio block; returns any events it produced.
    ///
    /// NaN and ±inf samples are silenced before the front end
    /// ([`silence_non_finite`]): one of them would make every later output
    /// of the front-end filter and the detector non-finite and lose every
    /// packet after it.
    pub fn push(&mut self, block: &[f64]) -> Vec<RxEvent> {
        let filtered = self.front_end.process(&silence_non_finite(block));
        self.detections.extend(self.detector.push(&filtered));
        // the feedback protocol gives us only the inter-frame gap to
        // answer, so bound detection latency to one symbol core
        let poll_budget = self.frame.params.n_fft;
        self.detections.extend(self.detector.poll(poll_budget));
        self.buffer.extend(filtered);
        let mut events = Vec::new();
        loop {
            let before = events.len();
            self.step(&mut events);
            if events.len() == before {
                break;
            }
        }
        self.trim();
        events
    }

    fn step(&mut self, events: &mut Vec<RxEvent>) {
        match &self.state {
            State::Scanning => {
                let params = self.frame.params;
                // drop detections inside already-handled stream regions
                while self
                    .detections
                    .front()
                    .is_some_and(|d| d.offset < self.scanned_to.max(self.buffer_start))
                {
                    self.detections.pop_front();
                }
                let Some(det) = self.detections.front().copied() else {
                    return;
                };
                let offset = det.offset - self.buffer_start;
                // need the full header (preamble + ID symbol) in buffer
                if self.buffer.len() < offset + self.preamble.len() + params.symbol_len() {
                    return;
                }
                self.detections.pop_front();
                events.push(RxEvent::PreambleDetected { metric: det.metric });
                let id_start = offset + self.preamble.len();
                let id_window = &self.buffer[id_start..id_start + params.symbol_len()];
                let addressed = decode_tone(&params, id_window, 0.2).map(|(bin, _)| bin);
                if addressed != Some(self.my_id as usize) {
                    events.push(RxEvent::NotForUs {
                        addressed: addressed.unwrap_or(usize::MAX),
                    });
                    self.scanned_to = self.buffer_start + id_start;
                    return;
                }
                let est = estimate(&params, &self.preamble, &self.buffer[offset..]);
                let Some(band) = select_band(&est.snr_db, &self.band_cfg)
                    .or_else(|| best_single_bin(&est.snr_db))
                else {
                    self.scanned_to = self.buffer_start + id_start;
                    return;
                };
                let waveform = encode_feedback(&params, band);
                events.push(RxEvent::FeedbackReady { band, waveform });
                let data_due = self.buffer_start + offset + self.frame.data_start_offset();
                self.state = State::AwaitingData {
                    band,
                    data_due,
                    deadline: data_due + 8 * params.symbol_len(),
                };
                self.scanned_to = self.buffer_start + id_start;
            }
            State::AwaitingData {
                band,
                data_due,
                deadline,
            } => {
                let params = self.frame.params;
                let band = *band;
                let needed =
                    aqua_phy::ofdm::data_section_len(&params, band, self.frame.payload_bits);
                let stream_end = self.buffer_start + self.buffer.len();
                let search = 2 * params.cp;
                if stream_end < data_due + needed + search {
                    if stream_end > deadline + needed {
                        events.push(RxEvent::DataLost);
                        self.state = State::Scanning;
                    }
                    return;
                }
                let expected = data_due - self.buffer_start;
                let found = locate_training(&params, &self.buffer, expected, search, 0.2);
                match found {
                    Some(at) if self.buffer.len() >= at + needed => {
                        let decoded = demodulate_data(
                            &params,
                            band,
                            &self.buffer[at..],
                            self.frame.payload_bits,
                            &self.decode,
                        );
                        let value = bits_to_value(&decoded.bits);
                        events.push(RxEvent::Packet {
                            bits: decoded.bits,
                            value,
                        });
                        self.scanned_to = self.buffer_start + at + needed;
                        self.state = State::Scanning;
                    }
                    _ => {
                        events.push(RxEvent::DataLost);
                        self.state = State::Scanning;
                    }
                }
            }
        }
    }

    /// Drops history the state machine can no longer need: nothing below
    /// the detector's low watermark, the oldest queued detection, or the
    /// awaited data section may go.
    fn trim(&mut self) {
        let mut keep_from = self.detector.low_watermark();
        if let Some(d) = self.detections.front() {
            keep_from = keep_from.min(d.offset);
        }
        if let State::AwaitingData { data_due, .. } = &self.state {
            keep_from = keep_from.min(data_due.saturating_sub(4 * self.frame.params.cp));
        }
        if keep_from > self.buffer_start {
            let drop = (keep_from - self.buffer_start).min(self.buffer.len());
            self.buffer.drain(..drop);
            self.buffer_start += drop;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_phy::frame::build_header;
    use aqua_phy::ofdm::modulate_data;

    fn make_stream(frame: &FrameConfig, id: u8, payload: &[u8], band: Band) -> Vec<f64> {
        let preamble = Preamble::new(frame.params);
        let mut stream = vec![0.0; 5000];
        stream.extend(build_header(frame, &preamble, id));
        // silence until the data slot on the sender's symbol clock
        stream.resize(5000 + frame.data_start_offset(), 0.0);
        stream.extend(modulate_data(&frame.params, band, payload));
        stream.extend(vec![0.0; 20000]);
        stream
    }

    #[test]
    fn receives_a_packet_from_a_block_stream() {
        let frame = FrameConfig::default();
        let payload: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        // NOTE: the receiver will select its own band from the clean
        // channel (full band); transmit on the full band to match.
        let band = Band::new(0, 59);
        let stream = make_stream(&frame, 9, &payload, band);
        let mut rx = StreamingReceiver::new(frame, 9);
        let mut events = Vec::new();
        for block in stream.chunks(480) {
            events.extend(rx.push(block));
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RxEvent::PreambleDetected { .. })),
            "{events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::FeedbackReady { .. })));
        let packet = events.iter().find_map(|e| match e {
            RxEvent::Packet { bits, .. } => Some(bits.clone()),
            _ => None,
        });
        assert_eq!(packet, Some(payload));
    }

    #[test]
    fn ignores_packets_for_other_receivers() {
        let frame = FrameConfig::default();
        let stream = make_stream(&frame, 12, &[1u8; 16], Band::new(0, 59));
        let mut rx = StreamingReceiver::new(frame, 3); // listening as ID 3
        let mut events = Vec::new();
        for block in stream.chunks(1024) {
            events.extend(rx.push(block));
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::NotForUs { addressed: 12 })));
        assert!(!events.iter().any(|e| matches!(e, RxEvent::Packet { .. })));
    }

    #[test]
    fn reports_data_lost_when_sender_goes_silent() {
        let frame = FrameConfig::default();
        let preamble = Preamble::new(frame.params);
        let mut stream = vec![0.0; 3000];
        stream.extend(build_header(&frame, &preamble, 5));
        stream.extend(vec![0.0; frame.data_start_offset() + 40_000]); // no data follows
        let mut rx = StreamingReceiver::new(frame, 5);
        let mut events = Vec::new();
        for block in stream.chunks(480) {
            events.extend(rx.push(block));
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::FeedbackReady { .. })));
        assert!(events.iter().any(|e| matches!(e, RxEvent::DataLost)));
    }

    #[test]
    fn buffer_stays_bounded_during_long_silence() {
        let frame = FrameConfig::default();
        let mut rx = StreamingReceiver::new(frame, 1);
        for _ in 0..200 {
            rx.push(&vec![0.0; 4800]); // 20 s of silence
        }
        assert!(
            rx.buffer.len() < 100_000,
            "buffer grew to {}",
            rx.buffer.len()
        );
    }

    #[test]
    fn two_packets_back_to_back_both_decode() {
        let frame = FrameConfig::default();
        let p1: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        let p2: Vec<u8> = (0..16).map(|i| ((i / 2) % 2) as u8).collect();
        let band = Band::new(0, 59);
        let mut stream = make_stream(&frame, 7, &p1, band);
        stream.extend(make_stream(&frame, 7, &p2, band));
        let mut rx = StreamingReceiver::new(frame, 7);
        let mut packets = Vec::new();
        for block in stream.chunks(960) {
            for e in rx.push(block) {
                if let RxEvent::Packet { bits, .. } = e {
                    packets.push(bits);
                }
            }
        }
        assert_eq!(packets, vec![p1, p2]);
    }
}
