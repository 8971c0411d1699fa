//! # loft — A High Performance Network-on-Chip Providing QoS Support
//!
//! A faithful reimplementation of **LOFT** (Ouyang & Xie, MICRO 2010):
//! a network-on-chip architecture combining
//!
//! * **LSF — locally-synchronized frames** ([`lsf`]): frame-based
//!   bandwidth scheduling performed independently at every output
//!   port, giving each flow a guaranteed share of every link it
//!   crosses without any global coordination, and
//! * **FRS — flit-reservation flow control** ([`network`]): a
//!   look-ahead flit races ahead of each 2-flit data quantum on a
//!   dedicated look-ahead network and pre-books link slots and buffer
//!   space in per-port reservation tables, eliminating credit
//!   turn-around from the data path.
//!
//! On top of the base mechanism the crate implements both Section 4.3
//! optimizations: **speculative flit switching** (data quanta forward
//! early over idle links, using a small per-port speculative buffer
//! to protect scheduled traffic) and **local status reset** (idle
//! links recycle their whole frame window instantly, letting lightly
//! loaded regions run at full speed regardless of congestion
//! elsewhere).
//!
//! # Example
//!
//! ```
//! use noc_sim::{Simulation, RunConfig};
//! use noc_traffic::Scenario;
//! use loft::{LoftConfig, LoftNetwork};
//!
//! // Hotspot traffic with equal QoS allocations (Figure 10a).
//! let scenario = Scenario::hotspot(0.02);
//! let cfg = LoftConfig::default();
//! let reservations = scenario.reservations(cfg.frame_size)?;
//! let network = LoftNetwork::new(cfg, &reservations);
//! let report = Simulation::new(network, scenario.workload(1), RunConfig::short()).run();
//! assert!(report.flits_delivered > 0);
//! # Ok::<(), noc_sim::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod config;
mod lookahead;
pub mod lsf;
pub mod network;
mod port;

pub use config::LoftConfig;
pub use network::LoftNetwork;
