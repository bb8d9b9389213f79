//! The bundle: one store-and-forward unit on the wire.
//!
//! A bundle is one fragment of an application message plus everything a
//! relay needs to move it without out-of-band state: source/destination
//! addresses, a per-source sequence number, remaining TTL, priority, hop
//! count, the spray-and-wait copy budget, and the fragment geometry
//! (`frag_index`/`frag_count`/`total_bytes`/`frag_bytes`) from which the
//! receiver reconstructs the exact [`TransferPlan`] the sender segmented
//! with — so fragmentation genuinely rides the existing
//! [`aqua_proto::transfer`] machinery (same padding, same sequence
//! arithmetic, same [`Reassembler`] duplicate suppression) rather than
//! reinventing it.
//!
//! Wire layout (MSB-first bytes, CRC-16 over everything before it):
//!
//! ```text
//! src(2) dst(2) seq(2) flags(1) ttl_s(2) hops(1) copies(1)
//! frag_index(2) frag_count(2) total_bytes(2) frag_bytes(1)
//! payload(frag_bytes) crc16(2)
//! ```
//!
//! `flags` packs `priority` (2 bits) and the custody bit; the remaining
//! five bits are reserved-zero, and a parse rejects frames where they are
//! set — accepted parses are canonical and re-serialize bit-exact
//! (`net/tests/frame_fuzz.rs`).

use crate::error::NetParseError;
use aqua_coding::bits::{bits_to_value, bytes_to_bits, value_to_bits};
use aqua_coding::crc::crc16;
use aqua_proto::transfer::{
    Accept, Fragment, PlanError, Reassembler, TransferParams, TransferPlan,
};

/// Data fragments per (parity-free) bundle generation. Both ends derive
/// the [`TransferPlan`] from the bundle header plus this constant, so it
/// is part of the wire contract.
pub const BUNDLE_GEN_DATA: usize = 16;

/// Fixed header bytes before the payload.
pub const BUNDLE_HEADER_BYTES: usize = 18;

/// Smallest possible bundle frame in bits (1-byte payload).
pub const MIN_BUNDLE_BITS: usize = 8 * (BUNDLE_HEADER_BYTES + 1) + 16;

/// Forwarding priority class. Lower discriminant = more urgent; the
/// store-and-forward queues never evict a higher class for a lower one
/// (SOS preempts chatter, not the other way around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Distress traffic: forwarded first, never evicted for anything else.
    Sos = 0,
    /// Protocol/control traffic.
    Control = 1,
    /// Ordinary chatter.
    Chat = 2,
}

impl Priority {
    /// Decodes the 2-bit wire field (`3` is reserved).
    pub fn from_wire(v: u8) -> Result<Self, NetParseError> {
        match v {
            0 => Ok(Self::Sos),
            1 => Ok(Self::Control),
            2 => Ok(Self::Chat),
            _ => Err(NetParseError::InvalidField("priority")),
        }
    }
}

/// Identity of one bundle fragment network-wide: `(src, seq, frag_index)`.
/// Duplicate suppression and custody ACKs key on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleKey {
    /// Source node address.
    pub src: u16,
    /// Per-source message sequence number.
    pub seq: u16,
    /// Fragment index within the message.
    pub frag: u16,
}

/// One store-and-forward unit: a fragment of an application message plus
/// the full relay header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// Source node address.
    pub src: u16,
    /// Final destination address.
    pub dst: u16,
    /// Per-source message sequence number.
    pub seq: u16,
    /// Forwarding priority class.
    pub priority: Priority,
    /// Whether the receiver should take custody (and ACK it per hop).
    pub custody: bool,
    /// Remaining lifetime in whole seconds; holders decrement it when
    /// re-transmitting, and a bundle at TTL 0 is never forwarded.
    pub ttl_s: u16,
    /// Hops taken so far (incremented by each accepting relay).
    pub hops: u8,
    /// Spray-and-wait copies this transmission grants the receiver.
    pub copies: u8,
    /// Fragment index within the message (see [`TransferPlan::segment`]).
    pub frag_index: u16,
    /// Total fragments in the message.
    pub frag_count: u16,
    /// Total message payload bytes (before padding).
    pub total_bytes: u16,
    /// Uniform padded fragment size in bytes.
    pub frag_bytes: u8,
    /// This fragment's padded payload (`frag_bytes` long).
    pub payload: Vec<u8>,
}

impl Bundle {
    /// This bundle's network-wide fragment identity.
    pub fn key(&self) -> BundleKey {
        BundleKey {
            src: self.src,
            seq: self.seq,
            frag: self.frag_index,
        }
    }

    /// The transfer plan this bundle's message was segmented with,
    /// reconstructed from the header alone.
    pub fn plan(&self) -> Result<TransferPlan, PlanError> {
        plan_for(self.total_bytes, self.frag_bytes)
    }

    /// Serializes to wire bits (without the frame tag; see
    /// [`crate::frame::Frame`]).
    pub fn to_bits(&self) -> Vec<u8> {
        debug_assert_eq!(self.payload.len(), self.frag_bytes as usize);
        let mut bytes = Vec::with_capacity(BUNDLE_HEADER_BYTES + self.payload.len());
        bytes.extend_from_slice(&self.src.to_be_bytes());
        bytes.extend_from_slice(&self.dst.to_be_bytes());
        bytes.extend_from_slice(&self.seq.to_be_bytes());
        bytes.push(((self.priority as u8) << 6) | (u8::from(self.custody) << 5));
        bytes.extend_from_slice(&self.ttl_s.to_be_bytes());
        bytes.push(self.hops);
        bytes.push(self.copies);
        bytes.extend_from_slice(&self.frag_index.to_be_bytes());
        bytes.extend_from_slice(&self.frag_count.to_be_bytes());
        bytes.extend_from_slice(&self.total_bytes.to_be_bytes());
        bytes.push(self.frag_bytes);
        bytes.extend_from_slice(&self.payload);
        let crc = crc16(&bytes);
        let mut bits = bytes_to_bits(&bytes);
        bits.extend(value_to_bits(crc as u64, 16));
        bits
    }

    /// Parses wire bits: length and CRC first, then field coherence —
    /// every accepted bundle re-serializes bit-exact.
    pub fn try_from_bits(bits: &[u8]) -> Result<Self, NetParseError> {
        if bits.len() < MIN_BUNDLE_BITS {
            return Err(NetParseError::Truncated {
                need: MIN_BUNDLE_BITS,
                got: bits.len(),
            });
        }
        if !bits.len().is_multiple_of(8) {
            return Err(NetParseError::LengthMismatch {
                expect: bits.len() / 8 * 8,
                got: bits.len(),
            });
        }
        let byte = |i: usize| bits_to_value(&bits[8 * i..8 * (i + 1)]) as u8;
        let word = |i: usize| bits_to_value(&bits[8 * i..8 * (i + 2)]) as u16;
        let frag_bytes = byte(17);
        if frag_bytes == 0 {
            return Err(NetParseError::InvalidField("frag_bytes"));
        }
        let expect = 8 * (BUNDLE_HEADER_BYTES + frag_bytes as usize) + 16;
        if bits.len() != expect {
            return Err(NetParseError::LengthMismatch {
                expect,
                got: bits.len(),
            });
        }
        let framed: Vec<u8> = (0..BUNDLE_HEADER_BYTES + frag_bytes as usize)
            .map(byte)
            .collect();
        let crc = bits_to_value(&bits[bits.len() - 16..]) as u16;
        if crc16(&framed) != crc {
            return Err(NetParseError::CrcMismatch);
        }
        let flags = byte(6);
        if flags & 0b0001_1111 != 0 {
            return Err(NetParseError::InvalidField("reserved flags"));
        }
        let priority = Priority::from_wire(flags >> 6)?;
        let custody = flags & 0b0010_0000 != 0;
        let (frag_index, frag_count) = (word(11), word(13));
        let total_bytes = word(15);
        if frag_count == 0 || frag_index >= frag_count {
            return Err(NetParseError::InvalidField("frag_index"));
        }
        if total_bytes == 0 {
            return Err(NetParseError::InvalidField("total_bytes"));
        }
        // The fragment count must be the one the shared plan derives from
        // (total_bytes, frag_bytes) — both ends agree on the geometry.
        let want_frags = (total_bytes as usize).div_ceil(frag_bytes as usize);
        if frag_count as usize != want_frags {
            return Err(NetParseError::InvalidField("frag_count"));
        }
        let copies = byte(10);
        if copies == 0 {
            return Err(NetParseError::InvalidField("copies"));
        }
        Ok(Self {
            src: word(0),
            dst: word(2),
            seq: word(4),
            priority,
            custody,
            ttl_s: word(7),
            hops: byte(9),
            copies,
            frag_index,
            frag_count,
            total_bytes,
            frag_bytes,
            payload: framed[BUNDLE_HEADER_BYTES..].to_vec(),
        })
    }
}

/// The shared plan both ends derive from `(total_bytes, frag_bytes)`.
fn plan_for(total_bytes: u16, frag_bytes: u8) -> Result<TransferPlan, PlanError> {
    TransferPlan::try_new(
        total_bytes as usize,
        TransferParams {
            frag_bytes: frag_bytes as usize,
            gen_data: BUNDLE_GEN_DATA,
            parity: 0,
        },
    )
}

/// Segments an application payload into bundles, riding the transfer
/// layer's segmentation (same padding and sequence arithmetic as bulk
/// transfers; parity-free — the relay's per-hop custody ARQ replaces the
/// outer code).
///
/// Every produced bundle starts with the full `ttl_s` and the given
/// spray `copies` budget.
#[allow(clippy::too_many_arguments)]
pub fn fragment_message(
    src: u16,
    dst: u16,
    seq: u16,
    priority: Priority,
    custody: bool,
    ttl_s: u16,
    copies: u8,
    payload: &[u8],
    frag_bytes: u8,
) -> Result<Vec<Bundle>, PlanError> {
    if payload.len() > u16::MAX as usize {
        return Err(PlanError::GenerationTooLarge);
    }
    let plan = plan_for(payload.len() as u16, frag_bytes)?;
    let frag_count = plan.total_frags() as u16;
    Ok(plan
        .segment(payload)
        .into_iter()
        .map(|frag: Fragment| Bundle {
            src,
            dst,
            seq,
            priority,
            custody,
            ttl_s,
            hops: 0,
            copies,
            frag_index: frag.seq,
            frag_count,
            total_bytes: payload.len() as u16,
            frag_bytes,
            payload: frag.payload,
        })
        .collect())
}

/// Destination-side reassembly of one message from its bundles, wrapping
/// the transfer layer's [`Reassembler`] (same duplicate suppression and
/// bit-exact assembly as bulk transfers).
#[derive(Debug, Clone)]
pub struct BundleReassembler {
    inner: Reassembler,
}

impl BundleReassembler {
    /// Builds the reassembler from the first-seen bundle of a message
    /// (any fragment — the plan comes from the header).
    pub fn new(b: &Bundle) -> Result<Self, PlanError> {
        Ok(Self {
            inner: Reassembler::new(b.plan()?),
        })
    }

    /// Offers one bundle of the message. Duplicates are suppressed by the
    /// underlying transfer reassembler.
    pub fn accept(&mut self, b: &Bundle) -> Accept {
        self.inner.accept(&Fragment {
            seq: b.frag_index,
            payload: b.payload.clone(),
        })
    }

    /// Whether every fragment is held.
    pub fn complete(&self) -> bool {
        self.inner.complete()
    }

    /// Reconstructs the payload bit-exact once complete.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        self.inner.assemble()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 157 + 11) as u8).collect()
    }

    fn chat_bundle() -> Bundle {
        fragment_message(3, 9, 7, Priority::Chat, true, 600, 4, &demo(5), 8)
            .expect("valid geometry")
            .remove(0)
    }

    #[test]
    fn roundtrips_bit_exact() {
        let b = chat_bundle();
        let bits = b.to_bits();
        let back = Bundle::try_from_bits(&bits).expect("clean frame parses");
        assert_eq!(back, b);
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn fragmentation_rides_the_transfer_plan() {
        let payload = demo(100);
        let bundles =
            fragment_message(1, 2, 0, Priority::Chat, true, 300, 2, &payload, 16).unwrap();
        assert_eq!(bundles.len(), 7, "ceil(100/16)");
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(b.frag_index as usize, i);
            assert_eq!(b.frag_count, 7);
            assert_eq!(b.payload.len(), 16, "uniform padded chunks");
        }
        let mut r = BundleReassembler::new(&bundles[3]).unwrap();
        // Out of order, with a duplicate in the middle.
        for idx in [3usize, 0, 6, 1, 3, 5, 2, 4] {
            r.accept(&bundles[idx]);
        }
        assert!(r.complete());
        assert_eq!(r.assemble().unwrap(), payload, "bit-exact reassembly");
    }

    #[test]
    fn corrupted_bits_are_rejected_with_crc_error() {
        let bits = chat_bundle().to_bits();
        for flip in [0, 40, 100, bits.len() - 1] {
            let mut bad = bits.clone();
            bad[flip] ^= 1;
            let err = Bundle::try_from_bits(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    NetParseError::CrcMismatch
                        | NetParseError::LengthMismatch { .. }
                        | NetParseError::InvalidField(_)
                ),
                "flip {flip}: {err}"
            );
        }
    }

    #[test]
    fn truncated_and_misaligned_rejected() {
        let bits = chat_bundle().to_bits();
        assert!(matches!(
            Bundle::try_from_bits(&bits[..MIN_BUNDLE_BITS - 8]),
            Err(NetParseError::Truncated { .. })
        ));
        assert!(matches!(
            Bundle::try_from_bits(&bits[..bits.len() - 3]),
            Err(NetParseError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sos_orders_before_chat() {
        assert!(Priority::Sos < Priority::Control);
        assert!(Priority::Control < Priority::Chat);
        assert!(Priority::from_wire(3).is_err());
    }

    #[test]
    fn oversized_message_rejected() {
        let big = vec![0u8; 70_000];
        assert!(fragment_message(0, 1, 0, Priority::Chat, true, 60, 1, &big, 32).is_err());
    }
}
