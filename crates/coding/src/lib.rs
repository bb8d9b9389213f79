//! # aqua-coding
//!
//! Channel coding for the AquaModem underwater acoustic modem:
//!
//! - [`conv`]: the paper's rate-2/3 convolutional code (K=7 mother code
//!   (133,171)₈ with `[[1,1],[1,0]]` puncturing; 16 data bits → 24 coded
//!   bits, truncated trellis).
//! - [`viterbi`]: hard- and soft-decision Viterbi decoding with puncture
//!   handling.
//! - [`interleave`]: the paper's "step = one third of the selected bins"
//!   subcarrier interleaver.
//! - [`rs`]: the Reed–Solomon outer erasure code striped across bulk
//!   transfer packets (whole-packet losses; DESIGN.md §12).
//! - [`crc`]: the CRC-16 integrity check of bulk, DTN and journal frames.
//! - [`bits`]: bit/byte packing utilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod conv;
pub mod crc;
pub mod interleave;
pub mod rs;
pub mod viterbi;

pub use conv::{encode as conv_encode, Rate};
pub use rs::ReedSolomon;
pub use viterbi::{decode_hard, decode_soft};
