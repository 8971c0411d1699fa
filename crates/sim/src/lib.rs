//! # noc-sim — cycle-accurate network-on-chip simulation substrate
//!
//! This crate is the foundation of the LOFT reproduction (Ouyang & Xie,
//! MICRO 2010). It provides everything a flit-level, cycle-driven NoC
//! simulator needs and that every network model in this workspace
//! (wormhole baseline, GSF, LOFT) shares:
//!
//! * [`topology`] — mesh and torus topologies with a fixed
//!   five-port router model (N/E/S/W/Local),
//! * [`routing`] — deterministic dimension-order (XY) routing, a
//!   property of the topology,
//! * [`flit`] — packets, flits, flow identifiers,
//! * [`stats`] — latency/throughput statistics with warmup handling,
//! * [`json`] — the one JSON writer every exported document goes
//!   through,
//! * [`telemetry`] — the zero-cost [`telemetry::Probe`] interface:
//!   per-link/per-buffer/per-flow observability monomorphized into
//!   the fabric, free when disabled ([`telemetry::NoopProbe`]) and
//!   collecting when live ([`telemetry::LiveProbe`]),
//! * [`rng`] — small deterministic RNGs so every run is reproducible,
//! * [`worklist`] — active-index bitsets that keep the per-cycle hot
//!   loops proportional to activity,
//! * [`engine`] — the [`engine::Network`] trait every network model
//!   implements plus the [`engine::Simulation`] driver that ties a
//!   traffic source, a network, and statistics together,
//! * [`checkpoint`] — warmup-once/fork-many: freeze a simulation at
//!   its warmup boundary ([`checkpoint::Checkpoint`]) and fork
//!   bit-identical measurement runs from it,
//! * [`fabric`] — the shared router fabric: one cycle-accurate
//!   datapath (links, credits, NICs, ejection, worklists) with
//!   pluggable [`fabric::RouterPolicy`] scheduling,
//! * [`slab`] — the generational [`slab::PacketStore`] that owns every
//!   packet a network has started sending; the datapaths move
//!   `Copy`-able [`slab::PacketRef`] handles instead of structs.
//!
//! # Example
//!
//! ```
//! use noc_sim::topology::Topology;
//! use noc_sim::routing::Direction;
//!
//! let mesh = Topology::mesh(8, 8);
//! // Node 0 is (0,0); node 63 is (7,7): XY routing goes East first.
//! let dir = mesh.next_hop(mesh.node(0, 0), mesh.node(7, 7));
//! assert_eq!(dir, Direction::East);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod flit;
pub mod json;
pub mod par;
pub mod rng;
pub mod routing;
pub mod slab;
pub mod stats;
pub mod telemetry;
#[cfg(test)]
mod test_doubles;
pub mod topology;
pub mod worklist;

pub use checkpoint::Checkpoint;
pub use engine::{Network, RunConfig, RunInfo, Simulation, TrafficSource};
pub use error::ConfigError;
pub use flit::{FlowId, NodeId, Packet, PacketId};
pub use routing::Direction;
pub use slab::{PacketRef, PacketStore};
pub use stats::SimReport;
pub use telemetry::{LiveProbe, NoopProbe, PacketProbe, Probe, TelemetryReport};
pub use topology::Topology;
pub use worklist::ActiveSet;
