//! Bulk transfer layer: segmentation of an arbitrary byte stream
//! (file/image) across many OFDM packets, with an optional Reed–Solomon
//! outer code striped over whole packets (DESIGN.md §12).
//!
//! The paper's chat packets top out at 16 bits; AquaScope shows the same
//! hardware class moves *images* by pairing an inner bit-level code with an
//! outer erasure code over lost packets. This module provides the
//! data-plane pieces:
//!
//! - [`Fragment`]: one packet's payload on the wire — a 16-bit sequence
//!   number, `frag_bytes` of data, and a CRC-16 so the receiver detects
//!   residual corruption *itself* (the trial engine's ground-truth
//!   `packet_ok` is not available on a real device). A CRC-failed fragment
//!   becomes an erasure for the outer code.
//! - [`TransferPlan`]: the agreed geometry (total bytes, fragment size, RS
//!   generation shape). Both ends derive every sequence-number boundary
//!   from it; the plan itself rides the existing chat/ARQ channel during
//!   session setup.
//! - [`Reassembler`]: receiver state — duplicate suppression, per-
//!   generation completion tracking, selective-repeat feedback
//!   ([`Reassembler::missing`]) and final bit-exact assembly.
//!
//! Generations are `k` data fragments plus `p` parity fragments from
//! [`ReedSolomon::encode_stripes`]; any `k` of the `n = k + p` fragments
//! reconstruct the generation, so the ARQ stops chasing individual losses
//! once *enough* of a generation arrived. A short tail generation keeps the
//! same code by prepending virtual all-zero fragments (a shortened RS code)
//! that are never transmitted.

use crate::error::ParseError;
use aqua_coding::bits::{bits_to_bytes, bits_to_value, bytes_to_bits, value_to_bits};
use aqua_coding::crc::crc16;
use aqua_coding::rs::ReedSolomon;

/// Geometry of a bulk transfer, shared by both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferParams {
    /// Data bytes carried per fragment (> 0).
    pub frag_bytes: usize,
    /// Data fragments per RS generation (the code's `k`; > 0).
    pub gen_data: usize,
    /// Parity fragments per generation (0 disables the outer code).
    pub parity: usize,
}

impl TransferParams {
    /// A small default tuned for the Lake experiments: 30-byte fragments,
    /// RS(16, 12) generations (33% parity, up to 4 lost packets per
    /// generation recovered without retransmission).
    pub fn default_rs() -> Self {
        Self {
            frag_bytes: 30,
            gen_data: 12,
            parity: 4,
        }
    }

    /// The same geometry with the outer code disabled (ARQ-only baseline).
    pub fn without_fec(self) -> Self {
        Self { parity: 0, ..self }
    }
}

/// One transmitted fragment: sequence number plus `frag_bytes` of payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Global sequence number (see [`TransferPlan`] for the layout).
    pub seq: u16,
    /// Payload bytes (data fragment) or parity bytes (parity fragment).
    pub payload: Vec<u8>,
}

impl Fragment {
    /// Serializes to wire bits: seq(16) | payload | crc16(seq ‖ payload).
    pub fn to_bits(&self) -> Vec<u8> {
        let mut framed = Vec::with_capacity(2 + self.payload.len());
        framed.extend_from_slice(&self.seq.to_be_bytes());
        framed.extend_from_slice(&self.payload);
        let crc = crc16(&framed);
        let mut bits = bytes_to_bits(&framed);
        bits.extend(value_to_bits(crc as u64, 16));
        bits
    }

    /// Parses wire bits with a typed rejection reason.
    pub fn try_from_bits(bits: &[u8]) -> Result<Self, ParseError> {
        // minimum frame: seq(16) + one payload byte + crc(16) = 40 bits
        if bits.len() < 40 {
            return Err(ParseError::Truncated {
                need: 40,
                got: bits.len(),
            });
        }
        if !bits.len().is_multiple_of(8) {
            return Err(ParseError::BadLength {
                expect: bits.len() / 8 * 8,
                got: bits.len(),
            });
        }
        let framed = bits_to_bytes(&bits[..bits.len() - 16]);
        let crc = bits_to_value(&bits[bits.len() - 16..]) as u16;
        if crc16(&framed) != crc {
            return Err(ParseError::CrcMismatch);
        }
        let seq = u16::from_be_bytes([framed[0], framed[1]]);
        Ok(Self {
            seq,
            payload: framed[2..].to_vec(),
        })
    }

    /// Parses wire bits; `None` on any decode error — the caller treats
    /// that packet as an erasure for the outer code.
    pub fn from_bits(bits: &[u8]) -> Option<Self> {
        Self::try_from_bits(bits).ok()
    }
}

/// The agreed transfer geometry: payload size plus fragment/generation
/// shape. All sequence arithmetic lives here so sender and receiver can
/// never disagree on the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// Total payload bytes being transferred.
    pub total_bytes: usize,
    /// Fragment/generation geometry.
    pub params: TransferParams,
}

/// Why a transfer plan (or the engine consuming it) rejected its inputs.
/// The bulk engines return these as typed errors instead of panicking in
/// the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// `total_bytes` was 0 — nothing to transfer.
    EmptyTransfer,
    /// `frag_bytes` was 0.
    ZeroFragmentSize,
    /// `gen_data` was 0.
    ZeroGenerationData,
    /// `gen_data + parity` exceeds the GF(256) RS code length.
    GenerationTooLarge,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyTransfer => write!(f, "empty transfer"),
            Self::ZeroFragmentSize => write!(f, "fragment size must be positive"),
            Self::ZeroGenerationData => write!(f, "generation needs data fragments"),
            Self::GenerationTooLarge => write!(f, "RS generation exceeds GF(256)"),
        }
    }
}

impl std::error::Error for PlanError {}

impl TransferPlan {
    /// Builds a plan, rejecting degenerate geometry with a typed error.
    pub fn try_new(total_bytes: usize, params: TransferParams) -> Result<Self, PlanError> {
        if total_bytes == 0 {
            return Err(PlanError::EmptyTransfer);
        }
        if params.frag_bytes == 0 {
            return Err(PlanError::ZeroFragmentSize);
        }
        if params.gen_data == 0 {
            return Err(PlanError::ZeroGenerationData);
        }
        if params.gen_data + params.parity > 255 {
            return Err(PlanError::GenerationTooLarge);
        }
        Ok(Self {
            total_bytes,
            params,
        })
    }

    /// Builds a plan; panics on degenerate geometry (use
    /// [`Self::try_new`] where the inputs are not statically known-good).
    pub fn new(total_bytes: usize, params: TransferParams) -> Self {
        Self::try_new(total_bytes, params).expect("degenerate transfer geometry")
    }

    /// Number of data fragments.
    fn data_frags(&self) -> usize {
        self.total_bytes.div_ceil(self.params.frag_bytes)
    }

    /// Number of generations.
    pub fn generations(&self) -> usize {
        self.data_frags().div_ceil(self.params.gen_data)
    }

    /// Data fragments in generation `g` (the tail may be short).
    pub fn gen_data_count(&self, g: usize) -> usize {
        let full = self.params.gen_data;
        if g + 1 < self.generations() {
            full
        } else {
            self.data_frags() - (self.generations() - 1) * full
        }
    }

    /// Transmitted fragments in generation `g` (data + parity).
    fn gen_frag_count(&self, g: usize) -> usize {
        self.gen_data_count(g) + self.params.parity
    }

    /// First sequence number of generation `g`.
    pub fn gen_start(&self, g: usize) -> usize {
        // only the last generation is ever short, so every earlier one
        // contributes the full (gen_data + parity) fragments
        g * (self.params.gen_data + self.params.parity)
    }

    /// Total fragments on the wire (data + parity across generations).
    pub fn total_frags(&self) -> usize {
        self.gen_start(self.generations() - 1) + self.gen_frag_count(self.generations() - 1)
    }

    /// Maps a sequence number to `(generation, index within generation)`.
    pub fn locate(&self, seq: usize) -> Option<(usize, usize)> {
        if seq >= self.total_frags() {
            return None;
        }
        let stride = self.params.gen_data + self.params.parity;
        let g = (seq / stride).min(self.generations() - 1);
        Some((g, seq - self.gen_start(g)))
    }

    /// The RS codec for generations, or `None` when parity is disabled.
    fn codec(&self) -> Option<ReedSolomon> {
        (self.params.parity > 0).then(|| {
            ReedSolomon::new(
                self.params.gen_data + self.params.parity,
                self.params.gen_data,
            )
        })
    }

    /// Segments `data` (must be `total_bytes` long) into the full on-air
    /// fragment sequence: per generation, the data fragments followed by
    /// their RS parity fragments.
    pub fn segment(&self, data: &[u8]) -> Vec<Fragment> {
        assert_eq!(data.len(), self.total_bytes, "payload/plan size mismatch");
        let fb = self.params.frag_bytes;
        let mut padded = data.to_vec();
        padded.resize(self.data_frags() * fb, 0);
        let chunks: Vec<Vec<u8>> = padded.chunks(fb).map(|c| c.to_vec()).collect();
        let codec = self.codec();

        let mut out = Vec::with_capacity(self.total_frags());
        let mut next_data = 0usize;
        for g in 0..self.generations() {
            let kg = self.gen_data_count(g);
            let gen_chunks = &chunks[next_data..next_data + kg];
            next_data += kg;
            let start = self.gen_start(g);
            for (i, chunk) in gen_chunks.iter().enumerate() {
                out.push(Fragment {
                    seq: (start + i) as u16,
                    payload: chunk.clone(),
                });
            }
            if let Some(rs) = &codec {
                // shortened code: virtual all-zero fragments fill the front
                let pad = self.params.gen_data - kg;
                let mut full: Vec<Vec<u8>> = vec![vec![0u8; fb]; pad];
                full.extend(gen_chunks.iter().cloned());
                for (p, parity) in rs.encode_stripes(&full).into_iter().enumerate() {
                    out.push(Fragment {
                        seq: (start + kg + p) as u16,
                        payload: parity,
                    });
                }
            }
        }
        out
    }
}

/// What [`Reassembler::accept`] decided about a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// New fragment, stored.
    Fresh,
    /// Already held (retransmission after a lost ACK) — suppressed.
    Duplicate,
    /// Sequence number outside the plan, or payload length mismatch.
    Invalid,
}

/// Receiver-side reassembly state for one transfer.
#[derive(Debug, Clone)]
pub struct Reassembler {
    plan: TransferPlan,
    slots: Vec<Option<Vec<u8>>>,
    duplicates: usize,
}

impl Reassembler {
    /// Fresh state for an incoming transfer described by `plan`.
    pub fn new(plan: TransferPlan) -> Self {
        let slots = vec![None; plan.total_frags()];
        Self {
            plan,
            slots,
            duplicates: 0,
        }
    }

    /// Offers a CRC-clean fragment. Duplicates are counted and suppressed.
    pub fn accept(&mut self, frag: &Fragment) -> Accept {
        let seq = frag.seq as usize;
        if seq >= self.slots.len() || frag.payload.len() != self.plan.params.frag_bytes {
            return Accept::Invalid;
        }
        if self.slots[seq].is_some() {
            self.duplicates += 1;
            return Accept::Duplicate;
        }
        self.slots[seq] = Some(frag.payload.clone());
        Accept::Fresh
    }

    /// Retransmissions that were recognized and suppressed so far.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Whether `seq` is already held.
    pub fn has(&self, seq: usize) -> bool {
        self.slots.get(seq).is_some_and(|s| s.is_some())
    }

    /// Whether generation `g` can be reconstructed: with parity, any
    /// `gen_data_count(g)` of its fragments suffice; without, every data
    /// fragment must be present.
    fn generation_complete(&self, g: usize) -> bool {
        let start = self.plan.gen_start(g);
        let held = (start..start + self.plan.gen_frag_count(g))
            .filter(|&s| self.has(s))
            .count();
        if self.plan.params.parity == 0 {
            held == self.plan.gen_data_count(g)
        } else {
            held >= self.plan.gen_data_count(g)
        }
    }

    /// Whether every generation is reconstructible.
    pub fn complete(&self) -> bool {
        (0..self.plan.generations()).all(|g| self.generation_complete(g))
    }

    /// Sequence numbers still worth retransmitting: every unheld fragment
    /// of every incomplete generation (fragments of complete generations
    /// are no longer needed — the outer code already covers them).
    pub fn missing(&self) -> Vec<u16> {
        let mut out = Vec::new();
        for g in 0..self.plan.generations() {
            if self.generation_complete(g) {
                continue;
            }
            let start = self.plan.gen_start(g);
            for s in start..start + self.plan.gen_frag_count(g) {
                if !self.has(s) {
                    out.push(s as u16);
                }
            }
        }
        out
    }

    /// Reconstructs the payload bit-exact once [`Self::complete`]; `None`
    /// otherwise (or when an RS stripe fails, which a complete generation
    /// cannot hit by construction).
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.complete() {
            return None;
        }
        let fb = self.plan.params.frag_bytes;
        let mut data = Vec::with_capacity(self.plan.data_frags() * fb);
        for g in 0..self.plan.generations() {
            let kg = self.plan.gen_data_count(g);
            let start = self.plan.gen_start(g);
            if self.plan.params.parity == 0 {
                for s in start..start + kg {
                    data.extend_from_slice(self.slots[s].as_ref()?);
                }
                continue;
            }
            let pad = self.plan.params.gen_data - kg;
            let mut slots: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; fb]); pad];
            for s in start..start + self.plan.gen_frag_count(g) {
                slots.push(self.slots[s].clone());
            }
            let rs = self.plan.codec()?;
            let rows = rs.recover_stripes(&slots, fb)?;
            for row in &rows[pad..] {
                data.extend_from_slice(row);
            }
        }
        data.truncate(self.plan.total_bytes);
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 17) as u8).collect()
    }

    fn plan(total: usize, parity: usize) -> TransferPlan {
        TransferPlan::new(
            total,
            TransferParams {
                frag_bytes: 8,
                gen_data: 4,
                parity,
            },
        )
    }

    #[test]
    fn try_new_rejects_degenerate_geometry_with_typed_errors() {
        let p = TransferParams::default_rs();
        assert_eq!(TransferPlan::try_new(0, p), Err(PlanError::EmptyTransfer));
        assert_eq!(
            TransferPlan::try_new(100, TransferParams { frag_bytes: 0, ..p }),
            Err(PlanError::ZeroFragmentSize)
        );
        assert_eq!(
            TransferPlan::try_new(100, TransferParams { gen_data: 0, ..p }),
            Err(PlanError::ZeroGenerationData)
        );
        assert_eq!(
            TransferPlan::try_new(
                100,
                TransferParams {
                    gen_data: 200,
                    parity: 100,
                    ..p
                }
            ),
            Err(PlanError::GenerationTooLarge)
        );
        assert!(TransferPlan::try_new(100, p).is_ok());
        assert_eq!(format!("{}", PlanError::EmptyTransfer), "empty transfer");
    }

    #[test]
    fn fragment_bits_roundtrip() {
        let f = Fragment {
            seq: 1234,
            payload: demo_payload(8),
        };
        let bits = f.to_bits();
        assert_eq!(bits.len(), 32 + 8 * 8); // seq + crc + payload
        assert_eq!(Fragment::from_bits(&bits), Some(f));
    }

    #[test]
    fn corrupted_fragment_fails_crc() {
        let f = Fragment {
            seq: 7,
            payload: demo_payload(8),
        };
        let bits = f.to_bits();
        for i in 0..bits.len() {
            let mut bad = bits.clone();
            bad[i] ^= 1;
            assert_eq!(Fragment::from_bits(&bad), None, "flip {i} got through");
        }
    }

    #[test]
    fn segmentation_layout_counts() {
        // 100 bytes / 8 per frag = 13 data frags = 3 full gens of 4 + tail 1
        let p = plan(100, 2);
        assert_eq!(p.data_frags(), 13);
        assert_eq!(p.generations(), 4);
        assert_eq!(p.gen_data_count(3), 1);
        assert_eq!(p.gen_frag_count(3), 3);
        assert_eq!(p.total_frags(), 3 * 6 + 3);
        assert_eq!(p.locate(0), Some((0, 0)));
        assert_eq!(p.locate(18), Some((3, 0)));
        assert_eq!(p.locate(20), Some((3, 2)));
        assert_eq!(p.locate(21), None);
        let frags = p.segment(&demo_payload(100));
        assert_eq!(frags.len(), p.total_frags());
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.seq as usize, i);
            assert_eq!(f.payload.len(), 8);
        }
    }

    #[test]
    fn lossless_reassembly_roundtrips_no_fec() {
        let p = plan(97, 0); // tail fragment padded, then trimmed
        let payload = demo_payload(97);
        let mut r = Reassembler::new(p);
        for f in p.segment(&payload) {
            assert_eq!(r.accept(&f), Accept::Fresh);
        }
        assert!(r.complete());
        assert_eq!(r.assemble(), Some(payload));
    }

    #[test]
    fn parity_covers_full_budget_of_losses_per_generation() {
        let p = plan(96, 2); // 12 data frags = 3 exact generations
        let payload = demo_payload(96);
        let frags = p.segment(&payload);
        let mut r = Reassembler::new(p);
        for f in &frags {
            // drop 2 fragments of every generation (indices 1 and 3)
            let (_, idx) = p.locate(f.seq as usize).unwrap();
            if idx == 1 || idx == 3 {
                continue;
            }
            r.accept(f);
        }
        assert!(r.complete(), "2 losses per gen within RS(6,4) budget");
        assert_eq!(r.assemble(), Some(payload));
    }

    #[test]
    fn losses_beyond_parity_leave_generation_incomplete() {
        let p = plan(96, 2);
        let frags = p.segment(&demo_payload(96));
        let mut r = Reassembler::new(p);
        for f in &frags {
            let (g, idx) = p.locate(f.seq as usize).unwrap();
            if g == 1 && idx < 3 {
                continue; // 3 losses > parity 2 in generation 1
            }
            r.accept(f);
        }
        assert!(!r.generation_complete(1));
        assert!(r.generation_complete(0));
        assert_eq!(r.assemble(), None);
        // missing() asks only for generation 1's unheld fragments
        let missing = r.missing();
        assert_eq!(missing, vec![6, 7, 8]);
    }

    #[test]
    fn duplicates_are_suppressed_and_counted() {
        let p = plan(64, 2);
        let frags = p.segment(&demo_payload(64));
        let mut r = Reassembler::new(p);
        assert_eq!(r.accept(&frags[0]), Accept::Fresh);
        assert_eq!(r.accept(&frags[0]), Accept::Duplicate);
        assert_eq!(r.accept(&frags[0]), Accept::Duplicate);
        assert_eq!(r.duplicates(), 2);
        let mut bad = frags[1].clone();
        bad.seq = 9999;
        assert_eq!(r.accept(&bad), Accept::Invalid);
        let mut short = frags[1].clone();
        short.payload.pop();
        assert_eq!(r.accept(&short), Accept::Invalid);
    }

    #[test]
    fn shortened_tail_generation_recovers_from_losses() {
        // 34 bytes: gen0 = 4 data, gen1 = 1 data (+2 parity each)
        let p = plan(34, 2);
        let payload = demo_payload(34);
        let frags = p.segment(&payload);
        assert_eq!(p.gen_data_count(1), 1);
        let mut r = Reassembler::new(p);
        for f in &frags {
            // lose the tail generation's only data fragment: parity must
            // reconstruct it through the shortened code
            if f.seq as usize == p.gen_start(1) {
                continue;
            }
            r.accept(f);
        }
        assert!(r.complete());
        assert_eq!(r.assemble(), Some(payload));
    }
}
