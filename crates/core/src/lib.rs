//! # aquapp
//!
//! The full-stack AquaApp system crate: wires the adaptive OFDM physical
//! layer (`aqua-phy`), carrier-sense MAC (`aqua-mac`) and messaging layer
//! (`aqua-proto`) over the underwater channel simulator (`aqua-channel`).
//!
//! - [`trial`]: one post-preamble-feedback packet exchange on an absolute
//!   sample clock — the unit every paper experiment is built from.
//! - [`node`]: the [`node::Messenger`] app facade.
//! - [`receiver`]: the continuously-listening streaming receiver state
//!   machine (block-based audio in, protocol events out).
//! - [`arq`]: stop-and-wait retransmission over the single-tone ACK, with
//!   an alternating-bit sequence for duplicate suppression.
//! - [`bulk`]: selective-repeat bulk transfer (file/image) with the
//!   Reed–Solomon outer erasure code and tone-symbol block ACKs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
pub mod bulk;
pub mod node;
pub mod receiver;
pub mod trial;

pub use arq::{send_with_arq, ArqOutcome, ArqSession};
pub use bulk::{run_bulk_transfer, run_bulk_transfer_with_faults, BulkConfig, BulkOutcome};
pub use node::{Messenger, SendOutcome};
pub use receiver::{RxEvent, StreamingReceiver};
pub use trial::{run_trial, Scheme, TrialConfig, TrialResult};
