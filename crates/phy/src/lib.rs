//! # aqua-phy
//!
//! The physical layer of AquaModem — the primary contribution of
//! *Underwater Messaging Using Mobile Devices* (SIGCOMM 2022), reimplemented
//! in Rust:
//!
//! - [`params`]: OFDM numerology (50/25/10 Hz spacing, 1–4 kHz band).
//! - [`symbol`]: OFDM symbol synthesis/analysis (Hermitian IFFT + CP).
//! - [`preamble`]: CAZAC preamble with PN signs; two-stage detection
//!   (coarse cross-correlation + normalized sliding correlation).
//! - [`chanest`]: per-bin channel/SNR estimation from the preamble.
//! - [`bandselect`]: Algorithm 1 — the frequency-band adaptation that turns
//!   per-bin SNRs into a contiguous `(f_begin, f_end)` selection.
//! - [`feedback`]: the two-tone feedback symbol, device-ID and ACK tones.
//! - [`equalizer`]: time-domain MMSE equalization (length 480), FD and TD
//!   designs.
//! - [`ofdm`]: the data path — coding, interleaving, differential BPSK,
//!   demodulation with soft Viterbi.
//! - [`frame`]: packet framing and the post-preamble feedback protocol
//!   timing (§2.2).
//! - [`fsk`]: the 5/10/20 bps long-range SOS beacon modem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandselect;
pub mod chanest;
pub mod equalizer;
pub mod feedback;
pub mod frame;
pub mod fsk;
pub mod ofdm;
pub mod params;
pub mod preamble;
pub mod symbol;

pub use bandselect::{select_band, Band, BandSelectConfig};
pub use chanest::ChannelEstimate;
pub use params::OfdmParams;
pub use preamble::{Detection, DetectorConfig, Preamble};
