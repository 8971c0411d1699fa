//! Worst-case delay bounds (Section 5.3.1 of the paper).
//!
//! * **GSF**: injected packets drain within one frame window, but the
//!   window period is hard to bound tightly; the paper's worst-case
//!   estimate is `k × WF × F` cycles with `k = 2` for the modeled
//!   flow-control overhead — 24 000 cycles with Table 1 parameters,
//!   *independent of the path*.
//! * **LOFT**: the per-output-port frames bound each hop by
//!   `F × WF` cycles (the RCQ bound), so the end-to-end worst case is
//!   `F × WF × hops` — 512 cycles per hop, *proportional to the
//!   path length*.

use loft::LoftConfig;
use noc_gsf::GsfConfig;
use noc_sim::{NodeId, Topology};

/// GSF's flow-control overhead factor (`k` in the paper).
pub const GSF_FLOW_CONTROL_FACTOR: u64 = 2;

/// GSF's worst-case end-to-end latency bound in cycles
/// (path-independent).
pub fn gsf_worst_case(cfg: &GsfConfig) -> u64 {
    GSF_FLOW_CONTROL_FACTOR * cfg.frame_window as u64 * cfg.frame_size as u64
}

/// LOFT's worst-case latency bound for a path of `hops` links
/// (`F × WF × hops`, the RCQ bound).
pub fn loft_worst_case(cfg: &LoftConfig, hops: u32) -> u64 {
    cfg.frame_size as u64 * cfg.frame_window as u64 * hops as u64
}

/// LOFT's per-hop bound in cycles (512 with Table 1 parameters).
pub fn loft_per_hop(cfg: &LoftConfig) -> u64 {
    cfg.frame_size as u64 * cfg.frame_window as u64
}

/// Hop count used in the bounds: router-to-router hops plus the
/// injection and ejection links.
pub fn bound_hops(topo: &Topology, src: NodeId, dst: NodeId) -> u32 {
    topo.port_path(src, dst).len() as u32 + 1
}

/// LOFT's worst-case latency for a specific source/destination pair.
pub fn loft_worst_case_for(cfg: &LoftConfig, src: NodeId, dst: NodeId) -> u64 {
    loft_worst_case(cfg, bound_hops(&cfg.topo, src, dst))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gsf_bound_matches_paper() {
        assert_eq!(gsf_worst_case(&GsfConfig::default()), 24_000);
    }

    #[test]
    fn loft_per_hop_matches_paper() {
        assert_eq!(loft_per_hop(&LoftConfig::default()), 512);
    }

    #[test]
    fn loft_bound_scales_with_path() {
        let cfg = LoftConfig::default();
        let near = loft_worst_case_for(&cfg, NodeId::new(0), NodeId::new(1));
        let far = loft_worst_case_for(&cfg, NodeId::new(0), NodeId::new(63));
        assert!(near < far);
        // 0 → 1 crosses injection + 1 link + ejection = 3 hops.
        assert_eq!(near, 512 * 3);
        // 0 → 63 crosses injection + 14 links + ejection = 16 hops.
        assert_eq!(far, 512 * 16);
    }

    #[test]
    fn loft_corner_to_corner_beats_gsf_bound() {
        let cfg = LoftConfig::default();
        let worst = loft_worst_case_for(&cfg, NodeId::new(0), NodeId::new(63));
        assert!(worst < gsf_worst_case(&GsfConfig::default()));
    }
}
