//! # noc-wormhole — baseline virtual-channel wormhole network
//!
//! A classic credit-based wormhole-switched NoC with virtual channels,
//! used by the LOFT reproduction as the no-QoS baseline and for the
//! flow-control comparison of the paper's Figure 6. The router follows
//! the canonical RC → VA → SA → ST organization with round-robin
//! separable allocation.
//!
//! # Example
//!
//! ```
//! use noc_sim::{Simulation, RunConfig};
//! use noc_traffic::Scenario;
//! use noc_wormhole::{WormholeConfig, WormholeNetwork};
//!
//! let scenario = Scenario::uniform(0.1);
//! let network = WormholeNetwork::new(WormholeConfig::default());
//! let report = Simulation::new(network, scenario.workload(1), RunConfig::short()).run();
//! assert!(report.avg_latency() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod config;
mod network;

pub use config::WormholeConfig;
pub use network::WormholeNetwork;
