//! The precomputed other end of every link.

use crate::topology::Topology;

use super::PORTS;

/// Marks a port without a link: the local port and mesh edges.
const NO_PEER: u32 = u32::MAX;

/// The other end of every link, precomputed from a [`Topology`].
///
/// Indexed by `node * PORTS + port`, like every per-link array of the
/// fabric. Output port `p` of node `n` feeds input port `p'` of node
/// `n'` exactly when output `p'` of `n'` feeds input `p` of `n`, so one
/// table answers both directions: the entry of an output port is the
/// input port it feeds, and the entry of an input port is the output
/// port feeding it. [`Topology::try_downstream`] is the definition;
/// the table only saves the hot paths its coordinate arithmetic.
#[derive(Debug, Clone)]
pub struct LinkTable {
    peer: Vec<u32>,
}

impl LinkTable {
    /// The table of `topo`.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        let peer = (0..topo.num_nodes() * PORTS)
            .map(|lidx| {
                let end = topo.try_downstream(lidx / PORTS, lidx % PORTS);
                end.map_or(NO_PEER, |(next, port)| (next * PORTS + port) as u32)
            })
            .collect();
        LinkTable { peer }
    }

    /// The port at the other end of link end `lidx`, or `None` for the
    /// local port and mesh edges.
    #[inline]
    #[must_use]
    pub fn peer(&self, lidx: usize) -> Option<usize> {
        let peer = self.peer[lidx];
        (peer != NO_PEER).then_some(peer as usize)
    }

    /// [`LinkTable::peer`] of a port known to have a link: an output
    /// port a route leads through, or an occupied input port.
    ///
    /// # Panics
    ///
    /// Panics when `lidx` has no link.
    #[inline]
    #[must_use]
    pub fn linked(&self, lidx: usize) -> usize {
        self.peer(lidx).expect("port leads to a neighbor")
    }
}
