//! CRC-16 check for packet integrity.
//!
//! The paper marks a packet erroneous "even if one bit error occurs at the
//! decoder output" — evaluating that requires knowing the ground truth,
//! which only the simulator has. The 16-bit hand-signal message packets
//! carry no CRC. Longer frames append a CRC-16/CCITT instead: bulk-transfer
//! fragments and block ACKs, DTN bundles, beacons and custody ACKs, and
//! journal records.

/// CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // "123456789" -> 0x29B1 for CRC-16/CCITT-FALSE
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }
}
