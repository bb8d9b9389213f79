//! Viterbi decoding for the K=7 convolutional code.
//!
//! Supports hard decisions (Hamming metric) and soft decisions
//! (correlation metric on LLR-like inputs), with puncturing handled by
//! skipping metric contributions at punctured positions. The trellis is
//! truncated (starts in state 0, best end state wins), matching the
//! encoder's untailed 16→24-bit packets.

use crate::conv::{depuncture, Rate, CONSTRAINT_LENGTH, GENERATORS};
use std::sync::OnceLock;

const NUM_STATES: usize = 1 << (CONSTRAINT_LENGTH - 1); // 64

// The packed survivor words below hold one bit per state.
const _: () = assert!(NUM_STATES <= 64);

/// Static branch table, computed once per process: entry `state*2 + bit`
/// holds the two encoder output bits for that transition packed as
/// `o0·2 + o1` — an index into the four per-step branch gains.
fn branch_table() -> &'static [u8; NUM_STATES * 2] {
    static TABLE: OnceLock<[u8; NUM_STATES * 2]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u8; NUM_STATES * 2];
        for state in 0..NUM_STATES as u32 {
            for bit in 0..2u32 {
                let reg = ((state << 1) | bit) & 0x7F;
                let mut packed = 0u8;
                for &g in GENERATORS.iter() {
                    packed = (packed << 1) | ((reg & g).count_ones() & 1) as u8;
                }
                table[(state as usize) * 2 + bit as usize] = packed;
            }
        }
        table
    })
}

/// Decodes hard-decision coded bits (0/1) at the given rate, returning the
/// maximum-likelihood data bits.
pub fn decode_hard(coded: &[u8], rate: Rate) -> Vec<u8> {
    // Map hard bits to bipolar soft values: 0 -> +1, 1 -> -1.
    let soft: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    decode_soft(&soft, rate)
}

/// Decodes soft coded values at the given rate. Convention: positive values
/// favor bit 0, negative favor bit 1 (bipolar LLR); magnitude expresses
/// confidence. Punctured positions are reinserted internally.
pub fn decode_soft(coded: &[f64], rate: Rate) -> Vec<u8> {
    decode_soft_from(coded, rate, Some(0))
}

/// Decodes a **tail-biting** codeword (see `conv::encode_tailbiting`): the
/// unknown circular start state is handled by prepending a copy of the
/// stream's tail as trellis warm-up (a single-pass wrap-around Viterbi),
/// then discarding the warm-up decisions.
pub fn decode_soft_tailbiting(coded: &[f64], rate: Rate) -> Vec<u8> {
    let stream = depuncture(coded, rate);
    let steps = stream.len() / 2;
    if steps == 0 {
        return Vec::new();
    }
    // extend the trellis circularly on BOTH sides: the prefix copy gives
    // the first bits left-context, the suffix copy gives the last bits
    // right-context (without it the tail stays as weak as truncation)
    let warm_steps = (steps / 2).min(steps);
    let mut wrapped: Vec<Option<f64>> = Vec::with_capacity((steps + 2 * warm_steps) * 2);
    wrapped.extend_from_slice(&stream[(steps - warm_steps) * 2..]);
    wrapped.extend_from_slice(&stream);
    wrapped.extend_from_slice(&stream[..warm_steps * 2]);
    let bits = run_trellis(&wrapped, None);
    bits[warm_steps..warm_steps + steps].to_vec()
}

/// Hard-decision tail-biting decode.
pub fn decode_hard_tailbiting(coded: &[u8], rate: Rate) -> Vec<u8> {
    let soft: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    decode_soft_tailbiting(&soft, rate)
}

/// Core decode with a configurable start state (`None` = any).
fn decode_soft_from(coded: &[f64], rate: Rate, start_state: Option<usize>) -> Vec<u8> {
    let stream = depuncture(coded, rate);
    if stream.is_empty() {
        return Vec::new();
    }
    run_trellis(&stream, start_state)
}

/// Runs the Viterbi trellis over a depunctured stream (pairs of optional
/// soft values), returning the decided input bits.
///
/// Flat-trellis implementation: the branch table is a process-wide static,
/// the add-compare-select step ping-pongs between two stack-resident
/// metric buffers, and survivors pack into **one `u64` word per step** —
/// the decided input bit needs no storage at all (it is the new state's
/// LSB), so only the winning predecessor's dropped MSB is kept, one bit
/// per state. No per-step allocation remains; decisions are identical to
/// the original Vec-per-step trellis (pinned by the `reference_decoder`
/// equivalence tests).
fn run_trellis(stream: &[Option<f64>], start_state: Option<usize>) -> Vec<u8> {
    let steps = stream.len() / 2;
    if steps == 0 {
        return Vec::new();
    }
    let table = branch_table();

    const NEG_INF: f64 = f64::NEG_INFINITY;
    let mut metric = [NEG_INF; NUM_STATES];
    let mut next = [NEG_INF; NUM_STATES];
    match start_state {
        Some(s) => metric[s] = 0.0,
        None => metric.fill(0.0),
    }
    // survivors[t] bit `s` = dropped MSB of the predecessor that won
    // state `s` at step `t`.
    let mut survivors = vec![0u64; steps];

    for (t, surv_word) in survivors.iter_mut().enumerate() {
        // The four possible branch gains this step, one per output pair
        // `o0·2 + o1`, accumulated in the same order as the scalar loop
        // (punctured observations contribute nothing).
        let obs = [stream[2 * t], stream[2 * t + 1]];
        let mut gains = [0.0f64; 4];
        for (packed, g) in gains.iter_mut().enumerate() {
            if let Some(s) = obs[0] {
                *g += if packed >> 1 == 0 { s } else { -s };
            }
            if let Some(s) = obs[1] {
                *g += if packed & 1 == 0 { s } else { -s };
            }
        }
        next.fill(NEG_INF);
        let mut surv = 0u64;
        for state in 0..NUM_STATES {
            let m = metric[state];
            if m == NEG_INF {
                continue;
            }
            let msb = ((state >> (CONSTRAINT_LENGTH - 2)) & 1) as u64;
            for bit in 0..2usize {
                let gain = gains[table[state * 2 + bit] as usize];
                let ns = ((state << 1) | bit) & (NUM_STATES - 1);
                let cand = m + gain;
                if cand > next[ns] {
                    next[ns] = cand;
                    surv = (surv & !(1u64 << ns)) | (msb << ns);
                }
            }
        }
        std::mem::swap(&mut metric, &mut next);
        *surv_word = surv;
    }

    // Best end state (truncated trellis).
    let mut state = metric
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Traceback: the decided input bit is the state's LSB; the stored MSB
    // reconstructs the predecessor.
    let mut bits = vec![0u8; steps];
    for t in (0..steps).rev() {
        let old_msb = (survivors[t] >> state) & 1;
        bits[t] = (state & 1) as u8;
        state = (state >> 1) | ((old_msb as usize) << (CONSTRAINT_LENGTH - 2));
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode;

    fn rand_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 1) as u8
            })
            .collect()
    }

    #[test]
    fn decodes_clean_rate_half() {
        let data = rand_bits(64, 5);
        let coded = encode(&data, Rate::Half);
        assert_eq!(decode_hard(&coded, Rate::Half), data);
    }

    #[test]
    fn decodes_clean_rate_two_thirds() {
        let data = rand_bits(16, 9);
        let coded = encode(&data, Rate::TwoThirds);
        assert_eq!(coded.len(), 24);
        assert_eq!(decode_hard(&coded, Rate::TwoThirds), data);
    }

    #[test]
    fn corrects_scattered_bit_errors_rate_half() {
        let data = rand_bits(100, 77);
        let mut coded = encode(&data, Rate::Half);
        // flip well-separated bits — within free distance (d_free=10) limits
        for &i in &[5usize, 40, 80, 120, 160] {
            coded[i] ^= 1;
        }
        assert_eq!(decode_hard(&coded, Rate::Half), data);
    }

    #[test]
    fn corrects_single_error_in_packet_sized_two_thirds() {
        // The paper's packets are truncated (16 data bits -> exactly 24
        // coded bits, no tail), so the final few coded bits carry little
        // trellis redundancy. Single flips in the body must be corrected;
        // the unprotected tail region is documented by the test below.
        let data = rand_bits(16, 3);
        for flip in 0..18 {
            let mut coded = encode(&data, Rate::TwoThirds);
            coded[flip] ^= 1;
            assert_eq!(
                decode_hard(&coded, Rate::TwoThirds),
                data,
                "single flip at {flip} must be corrected"
            );
        }
    }

    #[test]
    fn truncated_tail_is_weaker_than_body() {
        // Flipping the very last coded bit flips the last data bit's only
        // evidence: the decode differs from the clean data. This is the
        // inherent cost of the paper's no-tail framing.
        let data = rand_bits(16, 3);
        let mut coded = encode(&data, Rate::TwoThirds);
        let last = coded.len() - 1;
        coded[last] ^= 1;
        let decoded = decode_hard(&coded, Rate::TwoThirds);
        assert_eq!(decoded[..12], data[..12], "body bits stay intact");
    }

    #[test]
    fn soft_decisions_beat_hard_on_weak_bits() {
        // Construct a case where two bits are flipped but the soft values
        // mark them as low confidence — soft decoding must recover.
        let data = rand_bits(32, 21);
        let coded = encode(&data, Rate::Half);
        let mut soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        soft[10] = -soft[10] * 0.05; // weakly wrong
        soft[11] = -soft[11] * 0.05;
        soft[30] = -soft[30] * 0.05;
        assert_eq!(decode_soft(&soft, Rate::Half), data);
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert!(decode_hard(&[], Rate::Half).is_empty());
        assert!(decode_soft(&[], Rate::TwoThirds).is_empty());
        assert!(decode_soft_tailbiting(&[], Rate::Half).is_empty());
    }

    #[test]
    fn tailbiting_roundtrip_both_rates() {
        use crate::conv::encode_tailbiting;
        for rate in [Rate::Half, Rate::TwoThirds] {
            for n in [16usize, 17, 40] {
                let data = rand_bits(n, n as u64 + 5);
                let coded = encode_tailbiting(&data, rate);
                assert_eq!(
                    decode_hard_tailbiting(&coded, rate),
                    data,
                    "rate {rate:?} n {n}"
                );
            }
        }
    }

    #[test]
    fn tailbiting_protects_the_tail() {
        // The exact weakness of the truncated mode: a flip in the LAST
        // coded bit must now be corrected, because the trellis wraps.
        use crate::conv::encode_tailbiting;
        let data = rand_bits(16, 3);
        let mut coded = encode_tailbiting(&data, Rate::TwoThirds);
        assert_eq!(coded.len(), 24, "16 bits still encode to 24 (no tail!)");
        let last = coded.len() - 1;
        coded[last] ^= 1;
        assert_eq!(
            decode_hard_tailbiting(&coded, Rate::TwoThirds),
            data,
            "tail flip must be corrected by the wrap-around trellis"
        );
    }

    #[test]
    fn tailbiting_corrects_scattered_errors() {
        use crate::conv::encode_tailbiting;
        let data = rand_bits(64, 9);
        let mut coded = encode_tailbiting(&data, Rate::Half);
        for &i in &[3usize, 50, 100] {
            coded[i] ^= 1;
        }
        assert_eq!(decode_hard_tailbiting(&coded, Rate::Half), data);
    }

    #[test]
    fn all_zero_codeword_decodes_to_zeros() {
        let coded = vec![0u8; 48];
        assert_eq!(decode_hard(&coded, Rate::Half), vec![0u8; 24]);
    }

    #[test]
    fn burst_error_beyond_capability_is_detected_by_mismatch() {
        // A long burst should defeat the code — this documents the failure
        // mode that motivates the paper's interleaver.
        let data = rand_bits(40, 55);
        let mut coded = encode(&data, Rate::Half);
        for bit in &mut coded[20..34] {
            *bit ^= 1;
        }
        let decoded = decode_hard(&coded, Rate::Half);
        assert_ne!(
            decoded, data,
            "14-bit burst should exceed correction capability"
        );
    }
}
