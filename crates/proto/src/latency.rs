//! Messaging latency accounting (§5 "Messaging latency").
//!
//! The paper argues the bit rates suffice for messaging: a 240-message
//! selection is ~8 bits (12 after coding), about half a second at 25 bps;
//! at 1 kbps a 50-character free-text message fits in half a second.
//! [`exchange_latency_s`] computes the airtime of either framing so the
//! app can show an ETA.

/// Airtime in seconds to move `payload_bits` at a coded bitrate of
/// `coded_bps` (the paper's bitrate metric already includes the 2/3 code).
fn payload_airtime_s(payload_bits: usize, coded_bps: f64) -> f64 {
    assert!(coded_bps > 0.0);
    payload_bits as f64 / (coded_bps * 2.0 / 3.0) * 1.0
}

/// Full exchange latency: protocol overhead (preamble, ID, feedback gap)
/// plus the data airtime. `overhead_s` comes from the frame layout
/// (`FrameConfig::data_start_offset` / sample rate ≈ 0.29 s by default).
pub fn exchange_latency_s(payload_bits: usize, coded_bps: f64, overhead_s: f64) -> f64 {
    overhead_s + payload_airtime_s(payload_bits, coded_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_hold() {
        // "It takes close to half a second to send this message at 25 bps"
        // (8-bit hand signal → 12 coded bits at 25 coded bps).
        let t = payload_airtime_s(8, 25.0);
        assert!((t - 0.48).abs() < 0.01, "{t}");
        // "At 1 kbps, we can even send a 50 character message in half a
        // second" (400 bits → 600 coded at 1000+ bps...)
        let t = payload_airtime_s(50 * 8, 1000.0);
        assert!(t < 0.7, "{t}");
    }

    #[test]
    fn sixteen_bit_packet_at_median_lake_rate() {
        // median 633 bps at 5 m: a two-signal packet flies in ~40 ms of
        // data airtime; the protocol overhead dominates.
        let data = payload_airtime_s(16, 633.3);
        assert!(data < 0.05, "{data}");
        let total = exchange_latency_s(16, 633.3, 0.29);
        assert!(total < 0.35, "{total}");
    }

    #[test]
    #[should_panic]
    fn zero_bitrate_panics() {
        let _ = payload_airtime_s(8, 0.0);
    }
}
