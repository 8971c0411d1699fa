//! Configuration of the baseline wormhole network.

use noc_sim::fabric::VcParams;
use noc_sim::topology::Topology;
use noc_sim::ConfigError;

/// Parameters of a [`crate::WormholeNetwork`].
///
/// The defaults model a generic 3-stage VC router on the paper's
/// 8×8 mesh: 4 virtual channels of 4 flits per input port and a
/// combined per-hop latency of 3 cycles (router pipeline + link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WormholeConfig {
    /// Topology to build; fixes the routing (dimension-order XY).
    pub topo: Topology,
    /// Virtual channels per input port.
    pub num_vcs: usize,
    /// Buffer depth of each virtual channel, in flits.
    pub vc_capacity: usize,
    /// Cycles from switch traversal at one router to buffer write at
    /// the next (router pipeline + link traversal).
    pub hop_latency: u64,
    /// Cycles for a credit to return upstream.
    pub credit_delay: u64,
    /// Accepted and ignored: the network steps on one thread (DESIGN.md
    /// *Parallelism*).
    pub threads: usize,
}

impl WormholeConfig {
    /// The VC-datapath share of this configuration (all of it).
    pub(crate) fn vc_params(&self) -> VcParams {
        VcParams {
            topo: self.topo,
            num_vcs: self.num_vcs,
            vc_capacity: self.vc_capacity,
            hop_latency: self.hop_latency,
            credit_delay: self.credit_delay,
        }
    }

    /// Checks the parameters [`crate::WormholeNetwork::with_probe`]
    /// would panic on.
    ///
    /// # Errors
    ///
    /// Fails if the VC datapath cannot run with them (see
    /// [`VcParams::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.vc_params().validate()
    }

    /// The default configuration on a custom topology.
    pub fn on(topo: Topology) -> Self {
        WormholeConfig {
            topo,
            ..Self::default()
        }
    }
}

impl Default for WormholeConfig {
    fn default() -> Self {
        WormholeConfig {
            topo: Topology::mesh(8, 8),
            num_vcs: 4,
            vc_capacity: 4,
            hop_latency: 3,
            credit_delay: 1,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_mesh() {
        let c = WormholeConfig::default();
        assert_eq!(c.topo.num_nodes(), 64);
        assert_eq!(c.num_vcs, 4);
    }

    #[test]
    fn zero_credit_delay_is_rejected() {
        let c = WormholeConfig {
            credit_delay: 0,
            ..WormholeConfig::default()
        };
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("credit returns take at least one"), "{err}");
        assert!(WormholeConfig::default().validate().is_ok());
    }

    #[test]
    fn on_changes_topology_only() {
        let c = WormholeConfig::on(Topology::mesh(4, 4));
        assert_eq!(c.topo.num_nodes(), 16);
        assert_eq!(c.vc_capacity, WormholeConfig::default().vc_capacity);
    }
}
