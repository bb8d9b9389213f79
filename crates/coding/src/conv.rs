//! Convolutional encoding with puncturing.
//!
//! The paper uses a rate-2/3 convolutional code with constraint length
//! K = 7 (§2.3.1), the classic construction used in GSM/satellite systems:
//! the rate-1/2 K=7 mother code with generators (133, 171)₈, punctured with
//! pattern `[[1,1],[1,0]]` to rate 2/3. A 16-bit payload encodes to exactly
//! 24 coded bits (truncated trellis, no tail bits), matching the paper's
//! "16 bits, 24 bits after applying a 2/3 convolutional code".

/// Constraint length of the mother code.
pub const CONSTRAINT_LENGTH: usize = 7;
/// Generator polynomials (octal 133, 171), LSB = newest input bit
/// convention: state holds the previous K-1 input bits.
pub const GENERATORS: [u32; 2] = [0o133, 0o171];

/// Puncturing pattern for rate 2/3: over two input bits, transmit
/// outputs (g0,g1) for the first and (g0) only for the second.
pub const PUNCTURE_2_3: [[bool; 2]; 2] = [[true, true], [true, false]];

/// Code rate selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// Mother code, rate 1/2.
    Half,
    /// Punctured to rate 2/3 (the paper's rate).
    TwoThirds,
}

impl Rate {
    /// Number of coded bits produced for `data_bits` input bits
    /// (truncated trellis, no tail).
    pub fn coded_len(self, data_bits: usize) -> usize {
        match self {
            Rate::Half => data_bits * 2,
            Rate::TwoThirds => {
                // pairs contribute 3 bits; an odd trailing bit contributes 2
                (data_bits / 2) * 3 + (data_bits % 2) * 2
            }
        }
    }
}

/// Computes the two mother-code output bits for an input bit entering the
/// given state (state = previous K-1 input bits, newest in the LSB).
#[inline]
fn mother_outputs(state: u32, bit: u8) -> [u8; 2] {
    // Register view: [newest input, state bits...] — 7 bits total.
    let reg = ((state << 1) | bit as u32) & 0x7F;
    let mut out = [0u8; 2];
    for (i, &g) in GENERATORS.iter().enumerate() {
        out[i] = ((reg & g).count_ones() & 1) as u8;
    }
    out
}

/// Advances the encoder state by one input bit.
#[inline]
fn next_state(state: u32, bit: u8) -> u32 {
    ((state << 1) | bit as u32) & 0x3F // keep K-1 = 6 bits
}

/// Encodes `data` bits (values 0/1) at the given rate. The trellis starts in
/// the all-zero state and is *not* terminated (truncated), matching the
/// paper's exact 16→24 bit packet arithmetic.
pub fn encode(data: &[u8], rate: Rate) -> Vec<u8> {
    let mut state = 0u32;
    let mut out = Vec::with_capacity(rate.coded_len(data.len()));
    for (i, &bit) in data.iter().enumerate() {
        debug_assert!(bit <= 1);
        let pair = mother_outputs(state, bit);
        state = next_state(state, bit);
        match rate {
            Rate::Half => out.extend_from_slice(&pair),
            Rate::TwoThirds => {
                let pattern = PUNCTURE_2_3[i % 2];
                for (j, &keep) in pattern.iter().enumerate() {
                    if keep {
                        out.push(pair[j]);
                    }
                }
            }
        }
    }
    out
}

/// Expands punctured coded bits back to mother-code positions, using `None`
/// for punctured (untransmitted) positions. Input length must match
/// `rate.coded_len(data_bits)` for some integer `data_bits`; returns the
/// depunctured stream of length `2 * data_bits`.
pub fn depuncture(coded: &[f64], rate: Rate) -> Vec<Option<f64>> {
    match rate {
        Rate::Half => coded.iter().map(|&c| Some(c)).collect(),
        Rate::TwoThirds => {
            let mut out = Vec::with_capacity(coded.len() * 4 / 3 + 2);
            let mut it = coded.iter();
            'outer: loop {
                for pattern in PUNCTURE_2_3 {
                    for &keep in &pattern {
                        if keep {
                            match it.next() {
                                Some(&c) => out.push(Some(c)),
                                None => break 'outer,
                            }
                        } else {
                            out.push(None);
                        }
                    }
                }
            }
            // A valid rate-2/3 stream always breaks on an even mother
            // position; trim a stray half-pair if the input was truncated.
            while out.len() % 2 != 0 {
                out.pop();
            }
            out
        }
    }
}

/// Encodes with **tail-biting**: the encoder starts in the state formed by
/// the last `K-1` data bits, so the trellis ends where it began and every
/// payload bit gets full protection (the truncated mode leaves the last
/// few bits weakly protected — see `viterbi::truncated_tail_is_weaker...`).
/// Requires `data.len() >= 6`.
pub fn encode_tailbiting(data: &[u8], rate: Rate) -> Vec<u8> {
    assert!(
        data.len() >= CONSTRAINT_LENGTH - 1,
        "tail-biting needs at least K-1 data bits"
    );
    // initial state = last K-1 bits, newest (last bit) in the LSB
    let mut state = 0u32;
    for &b in &data[data.len() - (CONSTRAINT_LENGTH - 1)..] {
        state = next_state(state, b);
    }
    let mut out = Vec::with_capacity(rate.coded_len(data.len()));
    for (i, &bit) in data.iter().enumerate() {
        let pair = mother_outputs(state, bit);
        state = next_state(state, bit);
        match rate {
            Rate::Half => out.extend_from_slice(&pair),
            Rate::TwoThirds => {
                let pattern = PUNCTURE_2_3[i % 2];
                for (j, &keep) in pattern.iter().enumerate() {
                    if keep {
                        out.push(pair[j]);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bits_encode_to_twenty_four() {
        let data = vec![1u8; 16];
        let coded = encode(&data, Rate::TwoThirds);
        assert_eq!(coded.len(), 24);
        assert_eq!(Rate::TwoThirds.coded_len(16), 24);
    }

    #[test]
    fn rate_half_doubles_length() {
        let data = vec![0, 1, 1, 0, 1];
        assert_eq!(encode(&data, Rate::Half).len(), 10);
    }

    #[test]
    fn known_mother_code_prefix() {
        // First input bit 1 from state 0: register = 1000000b reversed view:
        // reg = 0b0000001; g0 = 133o = 0b1011011 -> parity of reg&g0 = 1
        // g1 = 171o = 0b1111001 -> parity 1.
        let coded = encode(&[1], Rate::Half);
        assert_eq!(coded, vec![1, 1]);
        // Input 0 keeps everything zero.
        let coded = encode(&[0, 0, 0], Rate::Half);
        assert_eq!(coded, vec![0; 6]);
    }

    #[test]
    fn encoder_is_linear() {
        // conv codes are linear: enc(a xor b) = enc(a) xor enc(b)
        let a = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let b = vec![0, 1, 1, 0, 1, 0, 0, 1];
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        let ea = encode(&a, Rate::Half);
        let eb = encode(&b, Rate::Half);
        let ex = encode(&x, Rate::Half);
        for i in 0..ex.len() {
            assert_eq!(ex[i], ea[i] ^ eb[i]);
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let data = vec![1, 0, 1, 1];
        let coded = encode(&data, Rate::TwoThirds);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 1 { -1.0 } else { 1.0 })
            .collect();
        let depunct = depuncture(&soft, Rate::TwoThirds);
        assert_eq!(depunct.len(), 8); // 2 * data bits
                                      // punctured positions are the 2nd output of every odd input bit
        assert!(depunct[0].is_some() && depunct[1].is_some());
        assert!(depunct[2].is_some() && depunct[3].is_none());
        assert!(depunct[4].is_some() && depunct[5].is_some());
        assert!(depunct[6].is_some() && depunct[7].is_none());
    }
}
