//! Deterministic dimension-order routing.
//!
//! The paper evaluates LOFT with dimension-order (XY) routing on an
//! 8×8 mesh, and XY is the only routing here: it is a property of the
//! [`Topology`], not a knob. Routing is *deterministic*: the paper
//! relies on every flow using the same path for all its traffic so
//! that per-link frame reservations are meaningful.

use crate::flit::NodeId;
use crate::topology::Topology;
/// One of a router's five ports.
///
/// `Local` is the port facing the processing element (injection on the
/// input side, ejection on the output side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards decreasing y.
    North,
    /// Towards increasing x.
    East,
    /// Towards increasing y.
    South,
    /// Towards decreasing x.
    West,
    /// The processing-element port.
    Local,
}

impl Direction {
    /// The four router-to-router directions, in index order.
    pub const CARDINALS: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// All five ports, in index order (`Local` last).
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// Number of ports on a router.
    pub const COUNT: usize = 5;

    /// Returns the opposite direction.
    ///
    /// # Panics
    ///
    /// Panics when called on [`Direction::Local`], which has no
    /// opposite.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::Local => panic!("the local port has no opposite"),
        }
    }

    /// Stable index in `0..5` for array-indexed port state.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 5`.
    pub fn from_index(idx: usize) -> Direction {
        Direction::ALL[idx]
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// Whether dimension-order routing moves towards increasing
/// coordinates along a dimension of `len` nodes, from `from` to `to`
/// (`from != to`). With wrap links the shorter way round is taken,
/// ties towards increasing coordinates.
fn ascending(wrap: bool, len: u16, from: u16, to: u16) -> bool {
    if wrap {
        let len = i32::from(len);
        let ahead = (i32::from(to) - i32::from(from)).rem_euclid(len);
        ahead <= len - ahead
    } else {
        to > from
    }
}

impl Topology {
    /// Returns the output port taken at the router of `current` for a
    /// packet headed to `dst`: x dimension first, then y.
    ///
    /// Returns [`Direction::Local`] when `current == dst` (the packet
    /// ejects). On tori the shorter wrap direction is chosen, ties
    /// resolved towards East/South.
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Direction {
        let (cx, cy) = self.coords(current);
        let (dx, dy) = self.coords(dst);
        let wrap = matches!(self, Topology::Torus { .. });
        if cx != dx {
            if ascending(wrap, self.width(), cx, dx) {
                Direction::East
            } else {
                Direction::West
            }
        } else if cy != dy {
            if ascending(wrap, self.height(), cy, dy) {
                Direction::South
            } else {
                Direction::North
            }
        } else {
            Direction::Local
        }
    }

    /// Output port index taken at `node` for a packet headed to `dst`
    /// (the local port when `node == dst`): [`Topology::next_hop`] in
    /// the flat `node × port` link index space.
    #[inline]
    #[must_use]
    pub fn route(&self, node: usize, dst: NodeId) -> usize {
        self.next_hop(NodeId::new(node as u32), dst).index()
    }

    /// Returns the full path of a packet as the list of nodes visited,
    /// starting with `src` and ending with `dst` (inclusive).
    ///
    /// # Example
    ///
    /// ```
    /// use noc_sim::topology::Topology;
    ///
    /// let m = Topology::mesh(8, 8);
    /// let path = m.path(m.node(0, 0), m.node(2, 1));
    /// let ids: Vec<u32> = path.iter().map(|n| n.index() as u32).collect();
    /// assert_eq!(ids, vec![0, 1, 2, 10]);
    /// ```
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self
                .neighbor(cur, self.next_hop(cur, dst))
                .expect("routing stepped off the topology");
            nodes.push(cur);
            assert!(nodes.len() <= self.num_nodes() + 1, "routing loop detected");
        }
        nodes
    }

    /// Returns the sequence of (router, output direction) pairs a
    /// packet traverses, ending with the ejection `(dst, Local)` hop.
    pub fn port_path(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, Direction)> {
        let mut hops = Vec::new();
        let mut cur = src;
        loop {
            let dir = self.next_hop(cur, dst);
            hops.push((cur, dir));
            if dir == Direction::Local {
                return hops;
            }
            cur = self
                .neighbor(cur, dir)
                .expect("routing stepped off the topology");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in Direction::CARDINALS {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Direction::Local.opposite();
    }

    #[test]
    fn xy_goes_x_first() {
        let m = Topology::mesh(8, 8);
        let path = m.path(m.node(0, 0), m.node(3, 2));
        // x sweep then y sweep.
        let coords: Vec<(u16, u16)> = path.iter().map(|&n| m.coords(n)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn path_length_matches_hop_distance() {
        let m = Topology::mesh(8, 8);
        for a in [0u32, 5, 17, 63] {
            for b in [0u32, 9, 42, 63] {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(m.path(a, b).len() as u32 - 1, m.hop_distance(a, b));
            }
        }
    }

    #[test]
    fn port_path_ends_at_local() {
        let m = Topology::mesh(4, 4);
        let hops = m.port_path(m.node(0, 0), m.node(3, 3));
        assert_eq!(hops.last(), Some(&(m.node(3, 3), Direction::Local)));
        assert_eq!(hops.len(), 7); // 6 link hops + ejection
    }

    #[test]
    fn self_route_is_immediate_ejection() {
        let m = Topology::mesh(4, 4);
        let n = m.node(2, 2);
        assert_eq!(m.next_hop(n, n), Direction::Local);
        assert_eq!(m.path(n, n), vec![n]);
    }

    #[test]
    fn route_reaches_local_at_destination() {
        let m = Topology::mesh(4, 4);
        assert_eq!(m.route(5, NodeId::new(5)), Direction::Local.index());
        assert_eq!(m.route(0, NodeId::new(3)), Direction::East.index());
    }

    #[test]
    fn torus_prefers_shorter_wrap() {
        let t = Topology::torus(8, 8);
        // 0 -> 7 on a ring of 8 is 1 hop West via wrap.
        assert_eq!(t.next_hop(t.node(0, 0), t.node(7, 0)), Direction::West);
        // 0 -> 3 is 3 hops East.
        assert_eq!(t.next_hop(t.node(0, 0), t.node(3, 0)), Direction::East);
        let path = t.path(t.node(0, 0), t.node(7, 7));
        assert_eq!(path.len(), 3); // wrap west + wrap north
    }
}
