//! # aqua-channel
//!
//! Underwater acoustic channel simulator for the AquaModem workspace — the
//! substitute for the paper's six real field sites (see DESIGN.md §2).
//!
//! The simulator reproduces the channel *mechanisms* the paper's adaptation
//! algorithms respond to:
//!
//! - [`geometry`]: shallow-water waveguide eigenrays by the image method —
//!   the source of frequency-selective notches that move with location,
//!   depth, distance and orientation (Figs. 3, 9b,c, 13).
//! - [`absorption`]: spherical spreading + Thorp absorption.
//! - [`device`]: per-model speaker/mic responses, waterproof cases,
//!   directivity, transducer placement (breaks reciprocity, Fig. 3d).
//! - [`noise`]: colored ambient noise per site/device (Fig. 4) and
//!   impulsive bubble noise for detector fault injection.
//! - [`mobility`]: trajectories with calibrated RMS acceleration
//!   (2.5 / 5.1 m/s², §3 mobility experiments).
//! - [`link`]: the renderer — waveform in, microphone signal out, with
//!   physical Doppler from time-varying path delays.
//! - [`fault`]: deterministic fault injection — blackouts, shadowing
//!   fades and impulsive burst trains on an absolute timeline (§13).
//! - [`medium`]: multi-node superposition bus for network experiments.
//! - [`environments`]: presets for the six sites plus in-air.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorption;
pub mod device;
pub mod environments;
pub mod fault;
pub mod geometry;
pub mod link;
pub mod medium;
pub mod mobility;
pub mod noise;

pub use device::{CaseKind, Device, DeviceModel};
pub use environments::{Environment, Site};
pub use fault::FaultSchedule;
pub use geometry::Pos;
pub use link::{Link, LinkConfig, SAMPLE_RATE};
pub use medium::{Medium, NodeId};
pub use mobility::Trajectory;
