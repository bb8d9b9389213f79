//! Bit/byte packing helpers shared across the coding and protocol layers.

/// Unpacks bytes into bits, most-significant bit first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Packs bits (MSB first) into bytes. The final byte is zero-padded on the
/// right if `bits.len()` is not a multiple of 8.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            debug_assert!(bit <= 1);
            b |= (bit & 1) << (7 - i);
        }
        bytes.push(b);
    }
    bytes
}

/// Unpacks the low `n` bits of a value, MSB first.
pub fn value_to_bits(value: u64, n: usize) -> Vec<u8> {
    (0..n).rev().map(|i| ((value >> i) & 1) as u8).collect()
}

/// Packs up to 64 bits (MSB first) into a value.
pub fn bits_to_value(bits: &[u8]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .fold(0u64, |acc, &b| (acc << 1) | (b as u64 & 1))
}

/// Counts positions where two bit slices differ (Hamming distance over the
/// common prefix).
fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Bit error rate between transmitted and received bit slices (over the
/// common prefix). Returns 0.0 for empty input.
pub fn bit_error_rate(tx: &[u8], rx: &[u8]) -> f64 {
    let n = tx.len().min(rx.len());
    if n == 0 {
        return 0.0;
    }
    hamming_distance(&tx[..n], &rx[..n]) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_through_bits() {
        let data = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn msb_first_ordering() {
        assert_eq!(bytes_to_bits(&[0b1000_0001]), vec![1, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn partial_byte_pads_right() {
        assert_eq!(bits_to_bytes(&[1, 1]), vec![0b1100_0000]);
    }

    #[test]
    fn value_roundtrip() {
        for v in [0u64, 1, 63, 240, 65535] {
            assert_eq!(bits_to_value(&value_to_bits(v, 16)), v & 0xFFFF);
        }
    }

    #[test]
    fn hamming_and_ber() {
        let a = vec![0, 1, 1, 0];
        let b = vec![0, 0, 1, 1];
        assert_eq!(hamming_distance(&a, &b), 2);
        assert!((bit_error_rate(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(bit_error_rate(&[], &[]), 0.0);
    }
}
