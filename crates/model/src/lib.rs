//! # noc-model — analytic storage, delay-bound, and power models
//!
//! Everything in the LOFT paper that is *computed* rather than
//! simulated lives here:
//!
//! * [`storage`] — the per-router storage requirements of Table 2
//!   (bits of buffering and bookkeeping for GSF and LOFT),
//! * [`delay`] — the worst-case delay bounds of Section 5.3.1
//!   (GSF's `k × WF × F` versus LOFT's `F × WF × hops`),
//! * [`power`] — a first-order area/power proxy substituting for
//!   McPAT (closed-source), linearly calibrated so the paper's
//!   reference configuration reproduces its published 32 mm² / 50 W
//!   estimate.
//!
//! # Example
//!
//! ```
//! use noc_model::storage;
//! use noc_gsf::GsfConfig;
//! use loft::LoftConfig;
//!
//! let gsf = storage::gsf_router_bits(&GsfConfig::default());
//! let loft = storage::loft_router_bits(&LoftConfig::default());
//! // The paper's headline: LOFT uses roughly a third less storage.
//! assert!(loft.total() < gsf.total());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod delay;
pub mod power;
pub mod storage;
