//! Configuration of the GSF network.

use noc_sim::fabric::{VcParams, MAX_PARAM};
use noc_sim::topology::Topology;
use noc_sim::ConfigError;

/// Parameters of a [`crate::GsfNetwork`].
///
/// Defaults follow Table 1 of the LOFT paper (which in turn uses the
/// parameters suggested by the GSF and PVC papers): 6 VCs of 5 flits,
/// frame size 2000 flits, frame window 6 and a 16-cycle barrier delay.
/// GSF also needs a frame-sized source queue per node; the simulator's
/// queues are unbounded, so overload shows up as latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GsfConfig {
    /// Topology to build; fixes the routing (dimension-order XY).
    pub topo: Topology,
    /// Virtual channels per input port.
    pub num_vcs: usize,
    /// Buffer depth of each virtual channel, in flits.
    pub vc_capacity: usize,
    /// Frame size in flits (`F`).
    pub frame_size: u32,
    /// Number of simultaneously active frames (`W`).
    pub frame_window: u32,
    /// Cycles for the barrier network to detect an empty head frame
    /// and broadcast the window shift.
    pub barrier_delay: u64,
    /// Cycles from switch traversal at one router to buffer write at
    /// the next (router pipeline + link traversal).
    pub hop_latency: u64,
    /// Cycles for a credit to return upstream.
    pub credit_delay: u64,
    /// Accepted and ignored: the network steps on one thread; see
    /// `noc_sim::fabric::VcParams::threads`.
    pub threads: usize,
}

impl GsfConfig {
    /// The default configuration on a custom topology.
    pub fn on(topo: Topology) -> Self {
        GsfConfig {
            topo,
            ..Self::default()
        }
    }

    /// The VC-datapath share of this configuration.
    pub(crate) fn vc_params(&self) -> VcParams {
        VcParams {
            topo: self.topo,
            num_vcs: self.num_vcs,
            vc_capacity: self.vc_capacity,
            hop_latency: self.hop_latency,
            credit_delay: self.credit_delay,
            threads: self.threads,
        }
    }

    /// Checks the parameters [`crate::GsfNetwork::with_probe`] would
    /// panic on.
    ///
    /// # Errors
    ///
    /// Fails if a frame holds no flits, if the frame window holds no
    /// frames, if the frame window or the barrier delay exceeds
    /// [`MAX_PARAM`], or if the VC datapath cannot run with them (see
    /// [`VcParams::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.frame_size == 0 {
            return Err(ConfigError::new("frame size must be positive"));
        }
        if self.frame_window == 0 {
            return Err(ConfigError::new("frame window must be positive"));
        }
        if u64::from(self.frame_window).max(self.barrier_delay) > MAX_PARAM {
            return Err(ConfigError::new(format!(
                "frame window and barrier delay must be at most {MAX_PARAM}"
            )));
        }
        self.vc_params().validate()
    }

    /// A scaled-down configuration for fast tests: small frames and
    /// a 4×4 mesh.
    pub fn small() -> Self {
        GsfConfig {
            topo: Topology::mesh(4, 4),
            frame_size: 200,
            ..Self::default()
        }
    }
}

impl Default for GsfConfig {
    fn default() -> Self {
        GsfConfig {
            topo: Topology::mesh(8, 8),
            num_vcs: 6,
            vc_capacity: 5,
            frame_size: 2000,
            frame_window: 6,
            barrier_delay: 16,
            hop_latency: 3,
            credit_delay: 3,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GsfConfig::default();
        assert_eq!(c.num_vcs, 6);
        assert_eq!(c.vc_capacity, 5);
        assert_eq!(c.frame_size, 2000);
        assert_eq!(c.frame_window, 6);
        assert_eq!(c.barrier_delay, 16);
    }

    #[test]
    fn zero_credit_delay_is_rejected() {
        let c = GsfConfig {
            credit_delay: 0,
            ..GsfConfig::small()
        };
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("credit returns take at least one"), "{err}");
        assert!(GsfConfig::small().validate().is_ok());
    }

    #[test]
    fn small_shrinks_mesh_and_frames() {
        let c = GsfConfig::small();
        assert_eq!(c.topo.num_nodes(), 16);
        assert_eq!(c.frame_size, 200);
    }
}
