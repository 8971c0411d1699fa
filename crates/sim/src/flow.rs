//! QoS flow specifications and frame-reservation assignment.
//!
//! The paper models QoS demand as a set of *flows*: unidirectional
//! source→destination streams, each with a bandwidth share. In both
//! GSF and LOFT a flow `flow_ij` is assigned a reservation `R_ij` —
//! the number of slots it may claim per frame — and on every link the
//! sum of reservations must not exceed the frame size `F`
//! (Section 3.1). With deterministic routing the paper further assumes
//! a flow uses the *same* reservation on every link of its path
//! (Section 5.1); [`FlowSet::assign_reservations`] implements exactly
//! that policy, scaling relative weights to the most contended link.

use crate::error::ConfigError;
use crate::flit::{FlowId, NodeId};
use crate::routing::Direction;
use crate::topology::Topology;

/// A scheduling point a flow's traffic passes through.
///
/// Every link in the network is an output port of something: the
/// source NIC (injection), or a router (the four cardinal ports plus
/// the ejection `Local` port at the destination router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Link {
    /// The NIC→router injection link at `NodeId`.
    Injection(NodeId),
    /// A router output port.
    Output(NodeId, Direction),
}

/// One QoS flow: a unidirectional stream with a relative bandwidth
/// weight.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// The flow's identifier (index into the owning [`FlowSet`]).
    pub id: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Relative bandwidth weight; reservations are proportional to it.
    pub weight: f64,
}

/// An immutable collection of flows over one topology (which fixes
/// their dimension-order paths),
/// with helpers to compute paths, link loads, and reservations.
///
/// # Example
///
/// ```
/// use noc_sim::topology::Topology;
/// use noc_sim::flow::FlowSet;
///
/// let mesh = Topology::mesh(8, 8);
/// let mut flows = FlowSet::new(mesh);
/// // All other nodes send to node 63 (hotspot traffic).
/// for n in mesh.nodes().filter(|n| n.index() != 63) {
///     flows.add(n, mesh.node(7, 7), 1.0);
/// }
/// let r = flows.assign_reservations(128)?;
/// // 63 equal flows share the ejection link of 128 quantum slots: 2 each.
/// assert!(r.iter().all(|&ri| ri == 2));
/// # Ok::<(), noc_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowSet {
    topo: Topology,
    flows: Vec<FlowSpec>,
}

impl FlowSet {
    /// Creates an empty flow set on the given topology.
    pub fn new(topo: Topology) -> Self {
        FlowSet {
            topo,
            flows: Vec::new(),
        }
    }

    /// Adds a flow and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (a flow must cross at least the
    /// injection and ejection links of distinct nodes), or if `weight`
    /// is not strictly positive and finite.
    pub fn add(&mut self, src: NodeId, dst: NodeId, weight: f64) -> FlowId {
        assert!(src != dst, "flows must connect distinct nodes");
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be positive and finite"
        );
        let id = FlowId::new(self.flows.len() as u32);
        self.flows.push(FlowSpec {
            id,
            src,
            dst,
            weight,
        });
        id
    }

    /// The topology the flows live on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Returns the flow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn flow(&self, id: FlowId) -> &FlowSpec {
        &self.flows[id.index()]
    }

    /// Iterates over all flows in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, FlowSpec> {
        self.flows.iter()
    }

    /// The ordered list of links (scheduling points) flow `id`
    /// traverses: injection link, then each router output port ending
    /// with the destination's ejection port.
    pub fn links(&self, id: FlowId) -> Vec<Link> {
        let f = self.flow(id);
        let mut links = vec![Link::Injection(f.src)];
        for (node, dir) in self.topo.port_path(f.src, f.dst) {
            links.push(Link::Output(node, dir));
        }
        links
    }

    /// Sum of flow weights crossing each link, for links used by at
    /// least one flow.
    pub fn link_loads(&self) -> std::collections::BTreeMap<Link, f64> {
        let mut loads = std::collections::BTreeMap::new();
        for f in &self.flows {
            for link in self.links(f.id) {
                *loads.entry(link).or_insert(0.0) += f.weight;
            }
        }
        loads
    }

    /// Assigns per-flow reservations `R_ij` (in frame slots) such that
    /// reservations are proportional to weights and on every link the
    /// sum of reservations is at most `frame_capacity` slots.
    ///
    /// The same reservation is used on every link of a flow's path, as
    /// assumed by the paper (Section 5.1).
    ///
    /// # Errors
    ///
    /// Returns an error if the set is empty, or if scaling to the most
    /// contended link would leave some flow with a zero reservation
    /// (its weight is too small for the frame capacity).
    pub fn assign_reservations(&self, frame_capacity: u32) -> Result<Vec<u32>, ConfigError> {
        if self.flows.is_empty() {
            return Err(ConfigError::new("flow set is empty"));
        }
        if frame_capacity == 0 {
            return Err(ConfigError::new("frame capacity must be positive"));
        }
        let loads = self.link_loads();
        let max_load = loads.values().fold(0.0_f64, |a, &b| a.max(b));
        debug_assert!(max_load > 0.0);
        let scale = frame_capacity as f64 / max_load;
        let mut out = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            let r = (f.weight * scale).floor() as u32;
            if r == 0 {
                return Err(ConfigError::new(format!(
                    "flow {} weight {} too small: its reservation would be zero \
                     with frame capacity {}",
                    f.id, f.weight, frame_capacity
                )));
            }
            out.push(r);
        }
        // Floor rounding can only decrease per-link sums below the
        // capacity bound, so the result is always feasible.
        debug_assert!(self.check_reservations(&out, frame_capacity).is_ok());
        Ok(out)
    }

    /// Validates explicit reservations: every flow positive, and the
    /// per-link sums within `frame_capacity`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first oversubscribed link, or the
    /// first flow with a zero reservation, or a length mismatch.
    pub fn check_reservations(
        &self,
        reservations: &[u32],
        frame_capacity: u32,
    ) -> Result<(), ConfigError> {
        if reservations.len() != self.flows.len() {
            return Err(ConfigError::new(format!(
                "expected {} reservations, got {}",
                self.flows.len(),
                reservations.len()
            )));
        }
        if let Some(idx) = reservations.iter().position(|&r| r == 0) {
            return Err(ConfigError::new(format!(
                "flow f{idx} has a zero reservation"
            )));
        }
        let mut sums: std::collections::BTreeMap<Link, u64> = std::collections::BTreeMap::new();
        for f in &self.flows {
            for link in self.links(f.id) {
                *sums.entry(link).or_insert(0) += reservations[f.id.index()] as u64;
            }
        }
        for (link, sum) in sums {
            if sum > frame_capacity as u64 {
                return Err(ConfigError::new(format!(
                    "link {link:?} oversubscribed: total reservation {sum} \
                     exceeds frame capacity {frame_capacity}"
                )));
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a FlowSet {
    type Item = &'a FlowSpec;
    type IntoIter = std::slice::Iter<'a, FlowSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Topology {
        Topology::mesh(8, 8)
    }

    #[test]
    fn links_include_injection_and_ejection() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        let id = fs.add(m.node(0, 0), m.node(1, 0), 1.0);
        let links = fs.links(id);
        assert_eq!(
            links,
            vec![
                Link::Injection(m.node(0, 0)),
                Link::Output(m.node(0, 0), Direction::East),
                Link::Output(m.node(1, 0), Direction::Local),
            ]
        );
    }

    #[test]
    fn hotspot_equal_allocation_matches_paper() {
        // 63 flows to node 63 over a 128-quantum frame: R = 2 each.
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        for n in m.nodes() {
            if n.index() != 63 {
                fs.add(n, NodeId::new(63), 1.0);
            }
        }
        let r = fs.assign_reservations(128).unwrap();
        assert_eq!(r.len(), 63);
        assert!(r.iter().all(|&x| x == 2));
        fs.check_reservations(&r, 128).unwrap();
    }

    #[test]
    fn weighted_allocation_is_proportional() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        // Two flows sharing the same ejection link with 3:1 weights.
        fs.add(NodeId::new(0), NodeId::new(63), 3.0);
        fs.add(NodeId::new(56), NodeId::new(63), 1.0);
        let r = fs.assign_reservations(128).unwrap();
        assert_eq!(r, vec![96, 32]);
    }

    #[test]
    fn zero_reservation_rejected() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        fs.add(NodeId::new(0), NodeId::new(63), 1.0);
        fs.add(NodeId::new(56), NodeId::new(63), 1e-9);
        let err = fs.assign_reservations(128).unwrap_err();
        assert!(err.message().contains("zero"));
    }

    #[test]
    fn oversubscription_detected() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        fs.add(NodeId::new(0), NodeId::new(63), 1.0);
        fs.add(NodeId::new(56), NodeId::new(63), 1.0);
        let err = fs.check_reservations(&[100, 100], 128).unwrap_err();
        assert!(err.message().contains("oversubscribed"));
        fs.check_reservations(&[64, 64], 128).unwrap();
    }

    #[test]
    fn disjoint_flows_each_get_full_frame() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        fs.add(m.node(0, 0), m.node(1, 0), 1.0);
        fs.add(m.node(0, 7), m.node(1, 7), 1.0);
        let r = fs.assign_reservations(128).unwrap();
        assert_eq!(r, vec![128, 128]);
    }

    #[test]
    fn link_loads_accumulate() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        fs.add(m.node(0, 0), m.node(2, 0), 1.0);
        fs.add(m.node(1, 0), m.node(2, 0), 2.0);
        let loads = fs.link_loads();
        // Link (1,0)->E is shared by both flows.
        let shared = Link::Output(m.node(1, 0), Direction::East);
        assert_eq!(loads.get(&shared), Some(&3.0));
        // Ejection at (2,0) also shared.
        let eject = Link::Output(m.node(2, 0), Direction::Local);
        assert_eq!(loads.get(&eject), Some(&3.0));
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn self_flow_rejected() {
        let m = mesh8();
        let mut fs = FlowSet::new(m);
        fs.add(NodeId::new(5), NodeId::new(5), 1.0);
    }

    #[test]
    fn empty_set_errors() {
        let fs = FlowSet::new(mesh8());
        assert!(fs.assign_reservations(128).is_err());
        assert!(fs.is_empty());
    }
}
