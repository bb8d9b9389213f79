//! The tagged frame union every network-tier transmission carries.
//!
//! A 2-bit tag in front of the body selects the frame type; tag 3 is
//! reserved and rejected. The tag is covered by each body's own CRC-16
//! indirectly — a tag flip changes which parser runs, and the body CRC
//! then rejects the bits with overwhelming probability; the fuzz suite
//! (`net/tests/frame_fuzz.rs`) pins that no single-bit corruption of any
//! frame is ever accepted.

use crate::beacon::Beacon;
use crate::bundle::Bundle;
use crate::custody::CustodyAck;
use crate::error::NetParseError;
use aqua_coding::bits::{bits_to_value, value_to_bits};

const TAG_BEACON: u8 = 0;
const TAG_BUNDLE: u8 = 1;
const TAG_ACK: u8 = 2;

/// One network-tier transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Neighbor-discovery beacon.
    Beacon(Beacon),
    /// Store-and-forward bundle fragment.
    Bundle(Bundle),
    /// Per-hop custody acknowledgement.
    CustodyAck(CustodyAck),
}

impl Frame {
    /// Serializes to wire bits: 2-bit tag, then the body.
    pub fn to_bits(&self) -> Vec<u8> {
        let (tag, body) = match self {
            Self::Beacon(b) => (TAG_BEACON, b.to_bits()),
            Self::Bundle(b) => (TAG_BUNDLE, b.to_bits()),
            Self::CustodyAck(a) => (TAG_ACK, a.to_bits()),
        };
        let mut bits = value_to_bits(tag as u64, 2);
        bits.extend(body);
        bits
    }

    /// Parses wire bits by tag dispatch.
    pub fn try_from_bits(bits: &[u8]) -> Result<Self, NetParseError> {
        if bits.len() < 2 {
            return Err(NetParseError::Truncated {
                need: 2,
                got: bits.len(),
            });
        }
        let tag = bits_to_value(&bits[..2]) as u8;
        let body = &bits[2..];
        match tag {
            TAG_BEACON => Beacon::try_from_bits(body).map(Self::Beacon),
            TAG_BUNDLE => Bundle::try_from_bits(body).map(Self::Bundle),
            TAG_ACK => CustodyAck::try_from_bits(body).map(Self::CustodyAck),
            t => Err(NetParseError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{fragment_message, Priority};

    #[test]
    fn all_three_frame_types_roundtrip() {
        let bundle = fragment_message(1, 2, 0, Priority::Sos, true, 60, 2, &[9, 8, 7], 4)
            .unwrap()
            .remove(0);
        let frames = [
            Frame::Beacon(Beacon {
                node: 4,
                seq: 1,
                backlog: 0,
            }),
            Frame::Bundle(bundle),
            Frame::CustodyAck(CustodyAck {
                custodian: 2,
                src: 1,
                seq: 0,
                frag_index: 0,
                delivered: true,
            }),
        ];
        for f in frames {
            let bits = f.to_bits();
            assert_eq!(Frame::try_from_bits(&bits).unwrap(), f);
        }
    }

    #[test]
    fn reserved_tag_rejected() {
        let mut bits = value_to_bits(3, 2);
        bits.extend(std::iter::repeat_n(0, 56));
        assert_eq!(
            Frame::try_from_bits(&bits).unwrap_err(),
            NetParseError::BadTag(3)
        );
    }
}
