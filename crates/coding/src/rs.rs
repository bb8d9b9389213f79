//! Reed–Solomon outer code over GF(2⁸) for bulk transfers (DESIGN.md §12).
//!
//! The inner rate-2/3 convolutional code ([`crate::conv`]/[`crate::viterbi`])
//! cleans up bit errors *within* a packet; whole packets still vanish when
//! the preamble is missed, the feedback is lost, or the CRC fails. The bulk
//! transfer pipeline therefore stripes an `RS(n, k)` code *across* packets:
//! byte `j` of the `n` packets in a generation forms one codeword, so a lost
//! packet is one erasure in every stripe and any `k` of the `n` packets
//! reconstruct the generation (AquaScope moves images over exactly this kind
//! of outer erasure code).
//!
//! The codec is a classic systematic RS over GF(2⁸) with primitive
//! polynomial `0x11D` and generator roots `α⁰..α^{n−k−1}`:
//!
//! - [`ReedSolomon::encode`] appends `n − k` parity bytes by polynomial
//!   long division.
//! - [`ReedSolomon::decode`] corrects both *erasures* (known positions —
//!   the transfer layer's CRC-failed packets) and *errors* (unknown
//!   positions) up to the design distance `2·errors + erasures ≤ n − k`,
//!   via Forney syndromes, Berlekamp–Massey, Chien search and the Forney
//!   magnitude formula. A decode that does not land on a valid codeword
//!   reports `None` instead of fabricating data.
//! - [`ReedSolomon::encode_stripes`] / [`ReedSolomon::recover_stripes`]
//!   apply the codec column-wise across equal-length packets.

use std::sync::OnceLock;

/// Primitive polynomial x⁸+x⁴+x³+x²+1 for GF(2⁸).
const PRIM: u16 = 0x11D;

/// exp/log tables for GF(2⁸) with generator α = 2. `exp` is doubled so
/// products of logs index without a modulo.
fn tables() -> &'static ([u8; 512], [u8; 256]) {
    static TABLES: OnceLock<([u8; 512], [u8; 256])> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().take(255).enumerate() {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIM;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        (exp, log)
    })
}

/// GF(2⁸) product.
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = tables();
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// GF(2⁸) quotient. Panics on division by zero.
fn gf_div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        return 0;
    }
    let (exp, log) = tables();
    exp[255 + log[a as usize] as usize - log[b as usize] as usize]
}

/// Multiplicative inverse.
fn gf_inv(a: u8) -> u8 {
    gf_div(1, a)
}

/// α^i for any integer exponent (reduced mod 255).
fn alpha_pow(i: i64) -> u8 {
    let (exp, _) = tables();
    exp[i.rem_euclid(255) as usize]
}

/// Evaluates a polynomial stored lowest-degree-first at `x`.
fn poly_eval_low(p: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in p.iter().rev() {
        acc = gf_mul(acc, x) ^ c;
    }
    acc
}

/// Product of two polynomials stored lowest-degree-first.
fn poly_mul_low(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] ^= gf_mul(ai, bj);
        }
    }
    out
}

/// Degree of a lowest-first polynomial (0 for the zero polynomial).
fn poly_deg_low(p: &[u8]) -> usize {
    p.iter().rposition(|&c| c != 0).unwrap_or(0)
}

/// A systematic Reed–Solomon code over GF(2⁸): `k` data bytes, `n − k`
/// parity bytes, codewords of `n ≤ 255` bytes laid out `[data | parity]`.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial Π_{i=0}^{n−k−1} (x − αⁱ), highest-degree-first,
    /// monic (leading 1 included).
    gen: Vec<u8>,
}

impl ReedSolomon {
    /// Builds an `RS(n, k)` codec. Requires `1 ≤ k < n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n && n <= 255, "invalid RS({n}, {k})");
        let mut gen = vec![1u8];
        for i in 0..(n - k) {
            // multiply by (x + αⁱ), highest-first
            let root = alpha_pow(i as i64);
            let mut next = vec![0u8; gen.len() + 1];
            for (j, &c) in gen.iter().enumerate() {
                next[j] ^= c;
                next[j + 1] ^= gf_mul(c, root);
            }
            gen = next;
        }
        Self { n, k, gen }
    }

    /// Codeword length in bytes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data bytes per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity bytes per codeword (the erasure budget).
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Encodes `k` data bytes into an `n`-byte codeword `[data | parity]`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "RS encode expects k = {} bytes", self.k);
        let nsym = self.parity();
        // long division of data(x)·x^nsym by the monic generator
        let mut rem = vec![0u8; nsym];
        for &d in data {
            let coef = d ^ rem[0];
            rem.rotate_left(1);
            rem[nsym - 1] = 0;
            if coef != 0 {
                for (r, &g) in rem.iter_mut().zip(&self.gen[1..]) {
                    *r ^= gf_mul(g, coef);
                }
            }
        }
        let mut out = data.to_vec();
        out.extend_from_slice(&rem);
        out
    }

    /// Syndromes S_j = c(α^j), j = 0..n−k−1, of a received word
    /// (highest-first polynomial: array index 0 is the x^{n−1} coefficient).
    fn syndromes(&self, word: &[u8]) -> Vec<u8> {
        (0..self.parity())
            .map(|j| {
                let x = alpha_pow(j as i64);
                word.iter().fold(0u8, |acc, &c| gf_mul(acc, x) ^ c)
            })
            .collect()
    }

    /// Locator of array position `a`: X_a = α^{n−1−a}.
    fn locator(&self, a: usize) -> u8 {
        alpha_pow((self.n - 1 - a) as i64)
    }

    /// Decodes a received word with optional known-erasure positions
    /// (indices into `word`). Corrects up to
    /// `2·errors + erasures ≤ n − k` and returns the corrected codeword, or
    /// `None` when decoding fails (the corruption exceeded the design
    /// distance or landed off any codeword).
    pub fn decode(&self, word: &[u8], erasures: &[usize]) -> Option<Vec<u8>> {
        assert_eq!(word.len(), self.n, "RS decode expects n = {} bytes", self.n);
        let nsym = self.parity();
        let f = erasures.len();
        if f > nsym {
            return None;
        }
        {
            let mut seen = vec![false; self.n];
            for &e in erasures {
                assert!(e < self.n, "erasure index {e} out of range");
                assert!(!seen[e], "duplicate erasure index {e}");
                seen[e] = true;
            }
        }
        let synd = self.syndromes(word);
        if synd.iter().all(|&s| s == 0) {
            return Some(word.to_vec());
        }

        // Erasure locator Γ(z) = Π (1 + X_e z), lowest-first.
        let mut gamma = vec![1u8];
        for &e in erasures {
            gamma = poly_mul_low(&gamma, &[1, self.locator(e)]);
        }

        // Forney syndromes T = S·Γ mod z^nsym; for j ≥ f the sequence is a
        // pure exponential sum over the *error* locators, so standard
        // Berlekamp–Massey on T_f.. finds the error locator Λ.
        let t_full = poly_mul_low(&synd, &gamma);
        let t: Vec<u8> = (0..nsym).map(|j| *t_full.get(j).unwrap_or(&0)).collect();
        let lambda = berlekamp_massey(&t[f..]);
        let max_errors = (nsym - f) / 2;
        if poly_deg_low(&lambda) > max_errors {
            return None;
        }

        // Full errata locator Ψ = Λ·Γ and its roots (Chien search).
        let psi = poly_mul_low(&lambda, &gamma);
        let deg = poly_deg_low(&psi);
        let positions: Vec<usize> = (0..self.n)
            .filter(|&a| poly_eval_low(&psi, gf_inv(self.locator(a))) == 0)
            .collect();
        if positions.len() != deg {
            return None;
        }

        // Evaluator Ω = S·Ψ mod z^nsym and Forney magnitudes
        // Y = X·Ω(X⁻¹)/Ψ'(X⁻¹)  (first consecutive root α⁰ ⇒ exponent 1).
        let omega_full = poly_mul_low(&synd, &psi);
        let omega: Vec<u8> = (0..nsym)
            .map(|j| *omega_full.get(j).unwrap_or(&0))
            .collect();
        // Formal derivative over GF(2): Ψ'(z) = Σ_{i odd} Ψ_i z^{i−1}.
        let mut psi_prime = vec![0u8; (psi.len() - 1).max(1)];
        for i in (1..psi.len()).step_by(2) {
            psi_prime[i - 1] = psi[i];
        }
        let mut corrected = word.to_vec();
        for &a in &positions {
            let x = self.locator(a);
            let xi = gf_inv(x);
            let denom = poly_eval_low(&psi_prime, xi);
            if denom == 0 {
                return None;
            }
            let y = gf_div(gf_mul(x, poly_eval_low(&omega, xi)), denom);
            corrected[a] ^= y;
        }
        // Accept only genuine codewords — a failed decode must surface.
        self.syndromes(&corrected)
            .iter()
            .all(|&s| s == 0)
            .then_some(corrected)
    }

    /// Decodes and returns only the `k` data bytes.
    pub fn decode_data(&self, word: &[u8], erasures: &[usize]) -> Option<Vec<u8>> {
        self.decode(word, erasures).map(|mut w| {
            w.truncate(self.k);
            w
        })
    }

    /// Encodes `n − k` parity packets across a generation of `k`
    /// equal-length data packets: byte `j` of the outputs completes the RS
    /// codeword formed by byte `j` of the inputs.
    pub fn encode_stripes(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(
            data.len(),
            self.k,
            "generation needs k = {} packets",
            self.k
        );
        let len = data[0].len();
        assert!(
            data.iter().all(|p| p.len() == len),
            "stripe packets must share a length"
        );
        let mut parity = vec![vec![0u8; len]; self.parity()];
        let mut col = vec![0u8; self.k];
        for j in 0..len {
            for (i, packet) in data.iter().enumerate() {
                col[i] = packet[j];
            }
            let word = self.encode(&col);
            for (p, byte) in parity.iter_mut().zip(&word[self.k..]) {
                p[j] = *byte;
            }
        }
        parity
    }

    /// Recovers the `k` data packets of a generation from any `≥ k` received
    /// packets. `slots[i]` holds packet `i` of the codeword (data first,
    /// then parity); `None` marks an erased (lost or CRC-failed) packet.
    /// Returns `None` when more than `n − k` packets are missing or a
    /// stripe fails to decode.
    pub fn recover_stripes(&self, slots: &[Option<Vec<u8>>], len: usize) -> Option<Vec<Vec<u8>>> {
        assert_eq!(slots.len(), self.n, "need n = {} slots", self.n);
        let erasures: Vec<usize> = (0..self.n).filter(|&i| slots[i].is_none()).collect();
        if erasures.len() > self.parity() {
            return None;
        }
        if let Some(bad) = slots.iter().flatten().find(|p| p.len() != len) {
            panic!(
                "stripe packet length {} does not match generation length {len}",
                bad.len()
            );
        }
        let mut out = vec![vec![0u8; len]; self.k];
        let mut word = vec![0u8; self.n];
        for j in 0..len {
            for (i, slot) in slots.iter().enumerate() {
                word[i] = slot.as_ref().map_or(0, |p| p[j]);
            }
            let fixed = self.decode(&word, &erasures)?;
            for (row, &byte) in out.iter_mut().zip(&fixed[..self.k]) {
                row[j] = byte;
            }
        }
        Some(out)
    }
}

/// Standard Berlekamp–Massey over GF(2⁸): returns the shortest LFSR
/// (lowest-first connection polynomial, Λ₀ = 1) generating `seq`.
fn berlekamp_massey(seq: &[u8]) -> Vec<u8> {
    let mut lambda = vec![1u8];
    let mut prev = vec![1u8];
    let mut l = 0usize;
    let mut b = 1u8;
    let mut m = 1usize;
    for r in 0..seq.len() {
        let mut delta = 0u8;
        for (i, &c) in lambda.iter().enumerate().take(r + 1) {
            delta ^= gf_mul(c, seq[r - i]);
        }
        if delta == 0 {
            m += 1;
        } else if 2 * l <= r {
            let keep = lambda.clone();
            let coef = gf_div(delta, b);
            if lambda.len() < prev.len() + m {
                lambda.resize(prev.len() + m, 0);
            }
            for (i, &c) in prev.iter().enumerate() {
                lambda[i + m] ^= gf_mul(coef, c);
            }
            l = r + 1 - l;
            prev = keep;
            b = delta;
            m = 1;
        } else {
            let coef = gf_div(delta, b);
            if lambda.len() < prev.len() + m {
                lambda.resize(prev.len() + m, 0);
            }
            for (i, &c) in prev.iter().enumerate() {
                lambda[i + m] ^= gf_mul(coef, c);
            }
            m += 1;
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_field_axioms_spot_check() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // α³·α⁴ = α⁷ = 128 under 0x11D before any reduction kicks in
        assert_eq!(gf_mul(8, 16), 128);
        // 2⁸ wraps through the primitive polynomial: α⁸ = 0x1D
        assert_eq!(gf_mul(128, 2), 0x1D);
    }

    #[test]
    fn generator_poly_nsym2() {
        // g(x) = (x + 1)(x + α) = x² + 3x + 2 with α = 2
        let rs = ReedSolomon::new(5, 3);
        assert_eq!(rs.gen, vec![1, 3, 2]);
    }

    #[test]
    fn encoded_words_have_zero_syndromes() {
        let rs = ReedSolomon::new(15, 9);
        let data: Vec<u8> = (0..9).map(|i| (i * 37 + 5) as u8).collect();
        let word = rs.encode(&data);
        assert_eq!(word.len(), 15);
        assert_eq!(&word[..9], &data[..]);
        assert!(rs.syndromes(&word).iter().all(|&s| s == 0));
    }

    #[test]
    fn corrects_errors_up_to_half_distance() {
        let rs = ReedSolomon::new(20, 12);
        let data: Vec<u8> = (0..12).map(|i| (i * i + 3) as u8).collect();
        let word = rs.encode(&data);
        let mut bad = word.clone();
        bad[0] ^= 0x5A;
        bad[7] ^= 0x01;
        bad[13] ^= 0xFF;
        bad[19] ^= 0x80; // 4 errors = (n-k)/2
        assert_eq!(rs.decode(&bad, &[]), Some(word));
    }

    #[test]
    fn corrects_full_parity_worth_of_erasures() {
        let rs = ReedSolomon::new(12, 8);
        let data = vec![9u8, 1, 1, 2, 3, 5, 8, 13];
        let word = rs.encode(&data);
        let mut bad = word.clone();
        for &e in &[1usize, 4, 8, 11] {
            bad[e] = 0xEE;
        }
        assert_eq!(rs.decode(&bad, &[1, 4, 8, 11]), Some(word.clone()));
        assert_eq!(rs.decode_data(&bad, &[1, 4, 8, 11]), Some(data));
    }

    #[test]
    fn mixed_errors_and_erasures_at_design_distance() {
        // 2e + f = 2·1 + 2 = 4 = n − k
        let rs = ReedSolomon::new(16, 12);
        let data: Vec<u8> = (0..12).map(|i| 255 - i as u8).collect();
        let word = rs.encode(&data);
        let mut bad = word.clone();
        bad[2] = 0x00; // erasure
        bad[9] = 0x77; // erasure
        bad[14] ^= 0x21; // error at unknown position
        assert_eq!(rs.decode(&bad, &[2, 9]), Some(word));
    }

    #[test]
    fn too_many_erasures_fail_cleanly() {
        let rs = ReedSolomon::new(10, 8);
        let word = rs.encode(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut bad = word.clone();
        bad[0] = 0xAA;
        bad[1] = 0xBB;
        bad[2] = 0xCC;
        assert_eq!(rs.decode(&bad, &[0, 1, 2]), None);
    }

    #[test]
    fn stripe_roundtrip_with_lost_packets() {
        let rs = ReedSolomon::new(6, 4);
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..5).map(|j| (i * 40 + j * 7) as u8).collect())
            .collect();
        let parity = rs.encode_stripes(&data);
        assert_eq!(parity.len(), 2);
        let mut slots: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        slots[1] = None; // lost data packet
        slots[4] = None; // lost parity packet
        assert_eq!(rs.recover_stripes(&slots, 5), Some(data));
    }

    #[test]
    fn stripe_recovery_fails_beyond_budget() {
        let rs = ReedSolomon::new(6, 4);
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 3]).collect();
        let parity = rs.encode_stripes(&data);
        let mut slots: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        slots[0] = None;
        slots[2] = None;
        slots[5] = None;
        assert_eq!(rs.recover_stripes(&slots, 3), None);
    }

    #[test]
    #[should_panic(expected = "invalid RS")]
    fn rejects_degenerate_shapes() {
        let _ = ReedSolomon::new(4, 4);
    }
}
