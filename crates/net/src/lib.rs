//! Delay-tolerant network tier above the acoustic modem (DESIGN.md §14).
//!
//! The paper's protocol tops out at single-hop chat/SOS exchanges, yet its
//! own motivating scenarios — diver SOS, fleet coordination — need
//! messages to survive nodes that sleep, fail, or drift out of range.
//! This crate is the network tier the ROADMAP names: a **bundle layer**
//! riding on `aqua_proto` (node addressing, TTL'd CRC-16 headers,
//! fragmentation over the existing [`aqua_proto::transfer`] segmentation)
//! plus a **DTN relay engine** built for underwater links with erratic
//! connectivity and minute-scale round trips:
//!
//! - [`bundle`]: the wire format — source/destination addressing, TTL,
//!   priority (SOS preempts chatter), spray-and-wait copy budget, and
//!   fragment geometry that both ends reconstruct from the header alone.
//! - [`beacon`] / [`frame`]: neighbor-discovery beacons and the tagged
//!   frame union every transmission carries.
//! - [`custody`]: per-hop custody ACKs — a relay that stores a bundle
//!   acknowledges *responsibility* for it, and the upstream holder only
//!   releases its copy on that ACK.
//! - [`queue`]: bounded store-and-forward queues with deterministic
//!   TTL/priority eviction and duplicate suppression.
//! - [`relay`]: the per-node engine tying it together — beacon-driven
//!   neighbor tables, binary spray-and-wait forwarding, and RFC 6298-style
//!   custody retransmission timers reusing [`aquapp::arq::RttEstimator`].
//! - [`sim`]: the ocean-simulator integration, a
//!   [`aqua_mac::ocean::Scenario`] of the shared ocean driver, with the
//!   same parallel ≡ serial bit-identity contract as every other layer.
//!   Runs without the relay stay bit-identical to the pre-relay event core.
//!
//! The engine itself ([`relay::RelayNode`]) is simulator-agnostic: time is
//! injected, frames go in and out as values, and the scripted-contact
//! tests drive it without any ocean machinery.

pub mod audit;
pub mod beacon;
pub mod bundle;
pub mod custody;
pub mod error;
pub mod frame;
pub mod journal;
pub mod queue;
pub mod recovery;
pub mod relay;
pub mod sim;

pub use audit::{check_invariants, FleetAudit, Violation};
pub use beacon::{Beacon, NeighborTable};
pub use bundle::{Bundle, BundleKey, BundleReassembler, Priority};
pub use custody::CustodyAck;
pub use error::NetParseError;
pub use frame::Frame;
pub use journal::{Journal, JournalConfig, JournalStats, Record};
pub use queue::{DupFilter, InsertOutcome, StoreQueue};
pub use recovery::{recover, Recovered};
pub use relay::{source_message, Delivered, RebootRecord, RelayConfig, RelayNode, RelayStats};
pub use sim::{
    run_relay_ocean, run_relay_ocean_audit, try_run_relay_ocean, RelayOceanConfig,
    RelayOceanResult, RelayTopology, RelayTraffic, SimConfigError,
};
