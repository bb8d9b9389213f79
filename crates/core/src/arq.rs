//! ACK-based retransmission (§2.3 "Encoding ID and ACKs").
//!
//! The paper encodes ACKs as a single tone — all transmit power on one
//! subcarrier, decodable without channel knowledge. This module wraps
//! packet trials in a stop-and-wait ARQ loop with an **alternating-bit
//! sequence number**: every transmission carries a 1-bit sequence in front
//! of the payload, and the ACK tone names the sequence it acknowledges
//! (bin 0 ↔ seq 0, bin 1 ↔ seq 1). Without the sequence bit, a decoded
//! payload whose ACK tone is lost would be retransmitted and *delivered
//! twice* with no way for the receiver to notice; with it, the retry is
//! recognized as a duplicate, suppressed, and simply re-ACKed.
//!
//! Airtime accounting covers what the channel actually carries: header +
//! feedback gap on every attempt, the data section when Alice transmitted
//! one, the ACK symbol when it was heard — and the full
//! [`ACK_TIMEOUT_SYMBOLS`] listen window on attempts where no ACK arrived
//! (that wait is real airtime a deployment pays before retrying).
//!
//! Bulk transfers use the selective-repeat window in [`crate::bulk`], and
//! a chat or SOS send ([`crate::node::Messenger::send`]) is a single
//! exchange without retry. [`ArqSession`] is the paper's §2.3 ACK loop,
//! kept as the reference for that design and pinned by this module's
//! tests; no experiment runs it.

use crate::trial::{run_trial, TrialConfig, TrialResult};
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_phy::feedback::{decode_tone, encode_tone};
use aqua_phy::frame::FrameConfig;
use aqua_phy::params::OfdmParams;

/// OFDM symbols Alice listens for the ACK tone before declaring the
/// attempt failed and retransmitting (propagation + Bob's decode time).
pub const ACK_TIMEOUT_SYMBOLS: usize = 3;

/// Seconds Alice spends waiting for an ACK that never arrives.
fn ack_timeout_s(params: &OfdmParams) -> f64 {
    ACK_TIMEOUT_SYMBOLS as f64 * params.symbol_duration_s()
}

/// Retry backoff exponent cap: timeouts never exceed `2^BACKOFF_CAP`
/// times the base RTO (before the absolute ceiling).
pub const BACKOFF_CAP: u32 = 6;

/// RTT / loss estimator feeding an adaptive retransmission timeout:
/// RFC 6298-style smoothed RTT and variance, capped exponential backoff
/// on loss, and *decorrelated jitter* on the emitted waits so repeated
/// retries of many senders (or many probe attempts of one sender) do not
/// synchronize. Fully deterministic for a given seed and observation
/// sequence — the timeout stream is part of the reproducibility contract.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_s: Option<f64>,
    rttvar_s: f64,
    backoff: u32,
    /// Previous emitted wait, the anchor of decorrelated jitter.
    prev_wait_s: f64,
    /// xorshift64 state for the jitter draws.
    rng: u64,
    min_rto_s: f64,
    max_rto_s: f64,
}

impl RttEstimator {
    /// A fresh estimator. `min_rto_s`/`max_rto_s` clamp every emitted
    /// timeout; `seed` drives the jitter stream.
    pub fn new(seed: u64, min_rto_s: f64, max_rto_s: f64) -> Self {
        Self {
            srtt_s: None,
            rttvar_s: 0.0,
            backoff: 0,
            prev_wait_s: min_rto_s,
            rng: seed | 1,
            min_rto_s,
            max_rto_s,
        }
    }

    /// Records a measured round-trip time (a delivery was acknowledged):
    /// RFC 6298 SRTT/RTTVAR update, and the loss backoff resets.
    pub fn observe_rtt(&mut self, rtt_s: f64) {
        match self.srtt_s {
            None => {
                self.srtt_s = Some(rtt_s);
                self.rttvar_s = rtt_s / 2.0;
            }
            Some(srtt) => {
                self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * (srtt - rtt_s).abs();
                self.srtt_s = Some(0.875 * srtt + 0.125 * rtt_s);
            }
        }
        self.backoff = 0;
        self.prev_wait_s = self.base_rto_s();
    }

    /// Records a loss (no ACK inside the window): the backoff exponent
    /// grows, capped at [`BACKOFF_CAP`].
    pub fn observe_loss(&mut self) {
        self.backoff = (self.backoff + 1).min(BACKOFF_CAP);
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The un-jittered retransmission timeout: `srtt + 4·rttvar` scaled
    /// by the backoff, clamped to the configured bounds.
    fn base_rto_s(&self) -> f64 {
        let rto = match self.srtt_s {
            Some(srtt) => srtt + 4.0 * self.rttvar_s,
            None => self.min_rto_s,
        };
        (rto * f64::from(1u32 << self.backoff)).clamp(self.min_rto_s, self.max_rto_s)
    }

    /// Draws the next wait: decorrelated jitter, `uniform(base, 3·prev)`
    /// clamped to `[base, max]`. Consecutive draws under sustained loss
    /// grow geometrically toward the cap without ever synchronizing.
    pub fn next_wait_s(&mut self) -> f64 {
        let base = self.base_rto_s();
        let hi = (self.prev_wait_s * 3.0).clamp(base, self.max_rto_s);
        // xorshift64 → uniform in [0, 1)
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        let wait = base + (hi - base) * u;
        self.prev_wait_s = wait;
        wait
    }
}

/// Airtime of one transmission attempt, excluding the ACK phase: header +
/// feedback gap, plus the data section when one was transmitted on a band
/// of `band_bins` subcarriers.
pub fn attempt_airtime_s(frame: &FrameConfig, band_bins: usize, data_phase: bool) -> f64 {
    let params = frame.params;
    let mut samples = frame.data_start_offset();
    if data_phase {
        let band = aqua_phy::bandselect::Band::new(0, band_bins.max(1) - 1);
        samples +=
            aqua_phy::ofdm::data_symbols(&params, band, frame.payload_bits) * params.symbol_len();
    }
    samples as f64 / params.fs
}

/// Result of an ARQ-protected delivery.
#[derive(Debug, Clone)]
pub struct ArqOutcome {
    /// Number of attempts used (1 = first try succeeded).
    pub attempts: usize,
    /// Whether the payload was delivered (and the ACK heard).
    pub delivered: bool,
    /// Times the receiver handed the payload to the application during this
    /// send (with duplicate suppression this is 0 or 1 — never 2, even when
    /// an ACK is lost and the packet is retransmitted).
    pub receiver_deliveries: usize,
    /// Retransmissions the receiver recognized as duplicates (sequence bit
    /// matched an already-delivered payload) and suppressed.
    pub duplicates: usize,
    /// Per-attempt trial results.
    pub trials: Vec<TrialResult>,
    /// Airtime spent across all attempts, in seconds: headers, gaps, data
    /// sections, heard ACK symbols, and the full ACK-listen timeout on
    /// every attempt that ended without an ACK.
    pub airtime_s: f64,
}

/// Stop-and-wait ARQ endpoint state: the sender's current sequence bit and
/// the receiver's next-expected bit. One session persists across
/// [`ArqSession::send`] calls so duplicate detection works *between*
/// messages too (the lost-ACK retry of message N must not shadow
/// message N+1).
#[derive(Debug, Clone, Default)]
pub struct ArqSession {
    tx_seq: u8,
    rx_expected: u8,
}

impl ArqSession {
    /// Fresh session: both ends start at sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs stop-and-wait ARQ: up to `max_attempts` packet exchanges, each
    /// followed by an ACK tone on the reverse link when Bob decodes the
    /// payload. Returns after the first acknowledged delivery.
    pub fn send(&mut self, base: &TrialConfig, max_attempts: usize) -> ArqOutcome {
        self.send_with_ack_faults(base, max_attempts, |_| false)
    }

    /// [`Self::send`] with a fault hook: `ack_lost(attempt)` forces the ACK
    /// tone of that attempt to vanish in the channel — the deterministic
    /// lost-ACK scenario the duplicate-suppression tests pin down.
    fn send_with_ack_faults(
        &mut self,
        base: &TrialConfig,
        max_attempts: usize,
        ack_lost: impl Fn(usize) -> bool,
    ) -> ArqOutcome {
        assert!(max_attempts >= 1);
        let seq = self.tx_seq;
        // the sequence bit rides in front of the payload bits
        let mut cfg_template = base.clone();
        cfg_template.payload = {
            let mut p = Vec::with_capacity(base.payload.len() + 1);
            p.push(seq);
            p.extend_from_slice(&base.payload);
            p
        };
        cfg_template.frame.payload_bits = cfg_template.payload.len();

        let params = cfg_template.frame.params;
        let mut trials = Vec::new();
        let mut airtime_s = 0.0;
        let mut receiver_deliveries = 0usize;
        let mut duplicates = 0usize;
        for attempt in 0..max_attempts {
            let mut cfg = cfg_template.clone();
            cfg.seed = base.seed.wrapping_add(attempt as u64 * 0x9E37_79B9);
            let trial = run_trial(&cfg);
            airtime_s += attempt_airtime_s(
                &cfg.frame,
                trial.band.map(|b| b.len()).unwrap_or(1),
                trial.data_phase,
            );

            // Bob's side: decoded payloads are delivered once per sequence
            // bit; a repeat of the just-delivered bit is a duplicate
            // (retransmission after a lost ACK) and only re-ACKed.
            // Checked access: a decoded-but-empty bit vector must surface
            // as "no sequence bit" (an undeliverable frame), never panic.
            let decoded_seq = trial
                .bits
                .as_ref()
                .and_then(|b| b.first().copied())
                .filter(|_| trial.packet_ok);
            let ok = trial.packet_ok;
            trials.push(trial);
            if let Some(rx_seq) = decoded_seq {
                if rx_seq == self.rx_expected {
                    receiver_deliveries += 1;
                    self.rx_expected ^= 1;
                } else {
                    duplicates += 1;
                }
            }
            if ok && !ack_lost(attempt) {
                // Bob sends the ACK tone naming the received sequence bit;
                // Alice accepts only an ACK for the sequence she sent.
                let mut back = Link::new(LinkConfig {
                    fs: SAMPLE_RATE,
                    env: cfg.env.clone(),
                    tx_device: cfg.bob_device,
                    rx_device: cfg.alice_device,
                    tx_traj: cfg.bob_traj.clone(),
                    rx_traj: cfg.alice_traj.clone(),
                    noise: true,
                    impulses: false,
                    seed: cfg.seed ^ 0xACC,
                });
                let ack_rx = back.transmit(&encode_tone(&params, seq as usize), 0.0);
                let heard = decode_tone(&params, &ack_rx, 0.25)
                    .map(|(bin, _)| bin == seq as usize)
                    .unwrap_or(false);
                if heard {
                    airtime_s += params.symbol_duration_s();
                    self.tx_seq ^= 1;
                    return ArqOutcome {
                        attempts: attempt + 1,
                        delivered: true,
                        receiver_deliveries,
                        duplicates,
                        trials,
                        airtime_s,
                    };
                }
            }
            // no ACK arrived (packet lost, ACK lost, or ACK misheard):
            // Alice sits through the whole listen window before retrying —
            // but only when she actually transmitted data and expected one.
            if trials.last().is_some_and(|t| t.data_phase) {
                airtime_s += ack_timeout_s(&params);
            }
        }
        ArqOutcome {
            attempts: max_attempts,
            delivered: false,
            receiver_deliveries,
            duplicates,
            trials,
            airtime_s,
        }
    }
}

/// One-shot stop-and-wait delivery on a fresh [`ArqSession`] (sequence 0).
/// Ongoing exchanges should hold a session so the alternating bit persists
/// across messages.
pub fn send_with_arq(base: &TrialConfig, max_attempts: usize) -> ArqOutcome {
    ArqSession::new().send(base, max_attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_channel::environments::{Environment, Site};
    use aqua_channel::geometry::Pos;

    #[test]
    fn good_link_delivers_first_try() {
        let cfg = TrialConfig::standard(
            Environment::preset(Site::Bridge),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(5.0, 0.0, 1.0),
            64,
        );
        let out = send_with_arq(&cfg, 3);
        assert!(out.delivered);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.receiver_deliveries, 1);
        assert_eq!(out.duplicates, 0);
        assert!(
            out.airtime_s > 0.2 && out.airtime_s < 2.0,
            "airtime {}",
            out.airtime_s
        );
        // exact accounting: one successful attempt = header + gap + data
        // symbols + the heard ACK symbol (no timeout)
        let t = &out.trials[0];
        let expected = attempt_airtime_s(
            &{
                let mut f = cfg.frame;
                f.payload_bits = cfg.payload.len() + 1;
                f
            },
            t.band.unwrap().len(),
            true,
        ) + cfg.frame.params.symbol_duration_s();
        assert!(
            (out.airtime_s - expected).abs() < 1e-12,
            "airtime {} != expected {expected}",
            out.airtime_s
        );
    }

    #[test]
    fn retries_are_bounded_and_failed_attempts_pay_the_ack_timeout() {
        // Hopeless link: 120 m on the noisy lake — must give up cleanly.
        let cfg = TrialConfig::standard(
            Environment::preset(Site::Lake).with_noise_gain_db(20.0),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(120.0, 0.0, 1.0),
            65,
        );
        let out = send_with_arq(&cfg, 2);
        assert!(!out.delivered);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.trials.len(), 2);
        assert_eq!(out.receiver_deliveries, 0);
        // exact accounting: every attempt pays header+gap (+data and the
        // full ACK-listen timeout when the data phase was reached)
        let mut frame = cfg.frame;
        frame.payload_bits = cfg.payload.len() + 1;
        let expected: f64 = out
            .trials
            .iter()
            .map(|t| {
                attempt_airtime_s(&frame, t.band.map(|b| b.len()).unwrap_or(1), t.data_phase)
                    + if t.data_phase {
                        ack_timeout_s(&frame.params)
                    } else {
                        0.0
                    }
            })
            .sum();
        assert!(
            (out.airtime_s - expected).abs() < 1e-12,
            "airtime {} != expected {expected}",
            out.airtime_s
        );
    }

    #[test]
    fn lost_ack_retry_is_recognized_as_duplicate() {
        // Good link, but the first ACK tone is swallowed by the channel:
        // Bob decodes the payload twice, delivers it once, and flags the
        // retry as a duplicate. Without the alternating bit this scenario
        // double-delivered with no way to detect it.
        let cfg = TrialConfig::standard(
            Environment::preset(Site::Bridge),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(5.0, 0.0, 1.0),
            64,
        );
        let mut session = ArqSession::new();
        let out = session.send_with_ack_faults(&cfg, 3, |attempt| attempt == 0);
        assert!(out.delivered, "retry should get through");
        assert_eq!(out.attempts, 2);
        assert_eq!(
            out.receiver_deliveries, 1,
            "payload must reach the app exactly once"
        );
        assert_eq!(out.duplicates, 1, "the retry must be flagged as duplicate");
        // lost-ACK attempt paid the listen timeout, heard attempt the ACK
        assert!(out.airtime_s > 0.0);

        // the session moved on: the next message uses the flipped bit and
        // is delivered fresh, not shadowed by the previous exchange
        let next = session.send(&cfg, 3);
        assert!(next.delivered);
        assert_eq!(next.receiver_deliveries, 1);
        assert_eq!(next.duplicates, 0);
    }

    #[test]
    fn rtt_estimator_tracks_and_backs_off() {
        let mut est = RttEstimator::new(42, 0.1, 16.0);
        // no samples yet: RTO sits at the floor
        assert!((est.base_rto_s() - 0.1).abs() < 1e-12);
        est.observe_rtt(1.0);
        // first sample: srtt = 1.0, rttvar = 0.5 ⇒ rto = 3.0
        assert!((est.base_rto_s() - 3.0).abs() < 1e-12);
        // losses double the RTO each time, capped
        est.observe_loss();
        assert!((est.base_rto_s() - 6.0).abs() < 1e-12);
        for _ in 0..20 {
            est.observe_loss();
        }
        assert_eq!(est.backoff(), BACKOFF_CAP);
        assert!((est.base_rto_s() - 16.0).abs() < 1e-12, "ceiling clamps");
        // a fresh RTT sample clears the backoff
        est.observe_rtt(1.0);
        assert_eq!(est.backoff(), 0);
        assert!(est.base_rto_s() < 4.0);
    }

    #[test]
    fn estimator_waits_are_jittered_deterministic_and_bounded() {
        let draw = |seed: u64| -> Vec<f64> {
            let mut est = RttEstimator::new(seed, 0.5, 16.0);
            est.observe_rtt(0.8);
            (0..8)
                .map(|_| {
                    est.observe_loss();
                    est.next_wait_s()
                })
                .collect()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed ⇒ identical wait stream");
        let c = draw(8);
        assert_ne!(a, c, "different seed ⇒ different jitter");
        for (i, &w) in a.iter().enumerate() {
            assert!((0.5..=16.0).contains(&w), "wait {i} out of bounds: {w}");
        }
        // sustained loss must grow the waits toward the cap overall
        assert!(
            a.last().unwrap() > a.first().unwrap(),
            "backoff must grow waits: {a:?}"
        );
    }

    #[test]
    fn retry_can_rescue_marginal_links() {
        // At 30 m in the lake single attempts fail regularly; ARQ with a
        // few retries should deliver more often than one-shot.
        let mut one_shot = 0;
        let mut with_arq = 0;
        let n = 4;
        for seed in 0..n {
            let cfg = TrialConfig::standard(
                Environment::preset(Site::Lake),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(30.0, 0.0, 1.0),
                900 + seed,
            );
            if run_trial(&cfg).packet_ok {
                one_shot += 1;
            }
            if send_with_arq(&cfg, 3).delivered {
                with_arq += 1;
            }
        }
        assert!(
            with_arq >= one_shot,
            "ARQ {with_arq}/{n} vs one-shot {one_shot}/{n}"
        );
    }
}
