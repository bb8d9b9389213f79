//! Workspace umbrella crate: re-exports the AquaModem stack for the
//! top-level examples and integration tests. See the individual crates for
//! the real APIs:
//!
//! - [`aqua_dsp`] — DSP substrate (FFT, FIR, correlation, solvers).
//! - [`aqua_coding`] — convolutional/Viterbi, interleaving, Reed–Solomon, CRCs.
//! - [`aqua_channel`] — the underwater channel simulator.
//! - [`aqua_phy`] — the adaptive OFDM physical layer (the paper's core).
//! - [`aqua_mac`] — carrier-sense MAC.
//! - [`aqua_proto`] — hand-signal messaging and SOS beacons.
//! - [`aquapp`] — the full-stack system crate (protocol trials, messenger).
//! - [`aqua_eval`] — the per-figure experiment harness.

pub use aqua_channel;
pub use aqua_coding;
pub use aqua_dsp;
pub use aqua_eval;
pub use aqua_mac;
pub use aqua_phy;
pub use aqua_proto;
pub use aquapp;
