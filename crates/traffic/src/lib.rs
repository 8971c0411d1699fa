//! # noc-traffic — synthetic workloads for the LOFT reproduction
//!
//! This crate implements every traffic pattern evaluated by the paper
//! (Section 6) plus the injection processes that drive them:
//!
//! * [`process`] — Bernoulli, regulated (deterministic), and bursty
//!   on/off packet injection,
//! * [`workload`] — the [`Workload`] type implementing
//!   [`noc_sim::TrafficSource`]: a set of flows, each with a
//!   destination rule and an injection process,
//! * [`scenario`] — ready-made builders for the paper's experiments:
//!   uniform, hotspot (equal and differentiated allocation,
//!   Figure 10), Case Study I (denial-of-service, Figure 12), and
//!   Case Study II (the pathological pattern of Figures 1 and 13).
//!
//! # Example
//!
//! ```
//! use noc_traffic::scenario::Scenario;
//!
//! // Hotspot traffic: all 63 other nodes send to node 63 at
//! // 0.02 flits/cycle each.
//! let scenario = Scenario::hotspot(0.02);
//! assert_eq!(scenario.num_flows(), 63);
//! // Reservations for a 128-slot frame: the ejection link at the
//! // hotspot is shared by all 63 flows, so each gets 2 slots.
//! let r = scenario.reservations(128)?;
//! assert!(r.iter().all(|&x| x == 2));
//! # Ok::<(), noc_sim::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod process;
pub mod scenario;
pub mod workload;

pub use process::InjectionProcess;
pub use scenario::{Alloc, Scenario};
pub use workload::{DestRule, Workload};
