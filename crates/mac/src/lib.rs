//! # aqua-mac
//!
//! Carrier-sense MAC for AquaModem (§2.4 of the paper):
//!
//! - [`carrier`]: waveform-level energy detection — 80 ms averages of
//!   1–4 kHz band power against a noise-calibrated threshold.
//! - [`netsim`]: slot-level multi-transmitter simulation reproducing the
//!   Fig. 19 collision experiments (with/without carrier sense, random
//!   backoff in packet-duration multiples).
//! - [`budget`]: link-budget gain matrices derived from the channel model,
//!   feeding the slot-level simulator.
//! - [`ocean`]: the event-driven ocean-scale simulator — bit-identical to
//!   [`netsim`] on small dense configs (the oracle-equivalence contract),
//!   and the engine behind the 10 000-node `repro ocean` deployments.
//!
//! Preamble-detection-based carrier sense, which the paper lists as a
//! possible improvement in §2.4, and RTS/CTS-style feedback preambles are
//! not implemented, as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod carrier;
pub mod netsim;
pub mod ocean;

pub use carrier::{band_energy, calibrate_threshold, CarrierSense};
pub use netsim::{collision_stats, simulate, MacConfig, MacResult};
