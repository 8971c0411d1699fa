//! Network topologies with a fixed five-port router model.
//!
//! All networks in this workspace use routers with at most five ports:
//! the four cardinal directions plus a local (processing-element) port.
//! Meshes and tori both fit this model; a line of `n` nodes is the
//! mesh `n × 1` and a ring of `n` nodes the torus `n × 1`. The topology
//! also fixes the routing (dimension-order XY, see [`crate::routing`])
//! and resolves the flat `node × port` link index space every per-link
//! array of the fabric uses: [`Topology::route`] and
//! [`Topology::try_downstream`].
//!
//! Coordinates follow the paper's convention: node `id = x + y * width`
//! for an `8 × 8` mesh, so node 0 is the north-west corner and node 63
//! the south-east one (y grows "south").

use crate::flit::NodeId;
use crate::routing::Direction;

/// A regular NoC topology.
///
/// # Example
///
/// ```
/// use noc_sim::topology::Topology;
/// use noc_sim::routing::Direction;
///
/// let mesh = Topology::mesh(8, 8);
/// assert_eq!(mesh.num_nodes(), 64);
/// let origin = mesh.node(0, 0);
/// assert_eq!(mesh.neighbor(origin, Direction::West), None);
/// assert_eq!(mesh.neighbor(origin, Direction::East), Some(mesh.node(1, 0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A 2-D mesh of `width × height` nodes without wrap-around links.
    Mesh {
        /// Number of columns (x extent).
        width: u16,
        /// Number of rows (y extent).
        height: u16,
    },
    /// A 2-D torus of `width × height` nodes with wrap-around links.
    Torus {
        /// Number of columns (x extent).
        width: u16,
        /// Number of rows (y extent).
        height: u16,
    },
}

impl Topology {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Topology::Mesh { width, height }
    }

    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn torus(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        Topology::Torus { width, height }
    }

    /// Returns the x extent (columns).
    pub fn width(&self) -> u16 {
        match *self {
            Topology::Mesh { width, .. } | Topology::Torus { width, .. } => width,
        }
    }

    /// Returns the y extent (rows).
    pub fn height(&self) -> u16 {
        match *self {
            Topology::Mesh { height, .. } | Topology::Torus { height, .. } => height,
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// Returns the node at coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node(&self, x: u16, y: u16) -> NodeId {
        assert!(
            x < self.width() && y < self.height(),
            "coordinate out of range"
        );
        NodeId::new(x as u32 + y as u32 * self.width() as u32)
    }

    /// Returns the `(x, y)` coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> (u16, u16) {
        let w = self.width() as u32;
        let id = node.index() as u32;
        ((id % w) as u16, (id / w) as u16)
    }

    /// Returns the neighbor of `node` in direction `dir`, or `None` if
    /// there is no link that way (a mesh edge).
    ///
    /// `Direction::Local` always returns `None`: the local port leads
    /// to the processing element, not to another router.
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        let w = self.width();
        let h = self.height();
        let wrap = matches!(self, Topology::Torus { .. });
        let (nx, ny) = match dir {
            Direction::Local => return None,
            Direction::East => {
                if x + 1 < w {
                    (x + 1, y)
                } else if wrap && w > 1 {
                    (0, y)
                } else {
                    return None;
                }
            }
            Direction::West => {
                if x > 0 {
                    (x - 1, y)
                } else if wrap && w > 1 {
                    (w - 1, y)
                } else {
                    return None;
                }
            }
            Direction::South => {
                if y + 1 < h {
                    (x, y + 1)
                } else if wrap && h > 1 {
                    (x, 0)
                } else {
                    return None;
                }
            }
            Direction::North => {
                if y > 0 {
                    (x, y - 1)
                } else if wrap && h > 1 {
                    (x, h - 1)
                } else {
                    return None;
                }
            }
        };
        Some(self.node(nx, ny))
    }

    /// The node reached through output port `out_port` of `node`, and
    /// the input port the traffic arrives on there; `None` at a
    /// topology edge and for the local port. The same call answers
    /// the upstream question: input port `p` of `node` is fed by
    /// output port `p'` of `n'` exactly when this returns
    /// `Some((n', p'))` for `(node, p)`.
    #[inline]
    #[must_use]
    pub fn try_downstream(&self, node: usize, out_port: usize) -> Option<(usize, usize)> {
        let dir = Direction::from_index(out_port);
        self.neighbor(NodeId::new(node as u32), dir)
            .map(|next| (next.index(), dir.opposite().index()))
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId::new)
    }

    /// Minimal hop distance between two nodes (router-to-router hops).
    ///
    /// For the mesh this is the Manhattan distance; tori take wrap
    /// links into account.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = (ax as i32 - bx as i32).unsigned_abs();
        let dy = (ay as i32 - by as i32).unsigned_abs();
        match *self {
            Topology::Mesh { .. } => dx + dy,
            Topology::Torus { width, height } => {
                dx.min(width as u32 - dx) + dy.min(height as u32 - dy)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_ids_follow_paper_numbering() {
        // The paper numbers nodes (x + y*8) on the 8x8 mesh.
        let m = Topology::mesh(8, 8);
        assert_eq!(m.node(0, 0).index(), 0);
        assert_eq!(m.node(7, 0).index(), 7);
        assert_eq!(m.node(0, 1).index(), 8);
        assert_eq!(m.node(7, 7).index(), 63);
        assert_eq!(m.coords(NodeId::new(63)), (7, 7));
    }

    #[test]
    fn mesh_edges_have_no_neighbors() {
        let m = Topology::mesh(4, 4);
        let nw = m.node(0, 0);
        assert_eq!(m.neighbor(nw, Direction::North), None);
        assert_eq!(m.neighbor(nw, Direction::West), None);
        assert_eq!(m.neighbor(nw, Direction::East), Some(m.node(1, 0)));
        assert_eq!(m.neighbor(nw, Direction::South), Some(m.node(0, 1)));
        let se = m.node(3, 3);
        assert_eq!(m.neighbor(se, Direction::South), None);
        assert_eq!(m.neighbor(se, Direction::East), None);
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::torus(4, 4);
        assert_eq!(
            t.neighbor(t.node(0, 0), Direction::West),
            Some(t.node(3, 0))
        );
        assert_eq!(
            t.neighbor(t.node(0, 0), Direction::North),
            Some(t.node(0, 3))
        );
        assert_eq!(
            t.neighbor(t.node(3, 3), Direction::East),
            Some(t.node(0, 3))
        );
        assert_eq!(
            t.neighbor(t.node(3, 3), Direction::South),
            Some(t.node(3, 0))
        );
    }

    #[test]
    fn line_is_one_dimensional() {
        let r = Topology::mesh(5, 1);
        assert_eq!(r.num_nodes(), 5);
        assert_eq!(r.height(), 1);
        assert_eq!(r.neighbor(r.node(2, 0), Direction::North), None);
        assert_eq!(r.neighbor(r.node(2, 0), Direction::South), None);
        assert_eq!(
            r.neighbor(r.node(2, 0), Direction::East),
            Some(r.node(3, 0))
        );
        // A line has no wrap link: its ends are mesh edges.
        assert_eq!(r.neighbor(r.node(4, 0), Direction::East), None);
    }

    #[test]
    fn one_row_torus_is_a_ring() {
        let r = Topology::torus(5, 1);
        assert_eq!(r.num_nodes(), 5);
        assert_eq!(
            r.neighbor(r.node(4, 0), Direction::East),
            Some(r.node(0, 0))
        );
        assert_eq!(
            r.neighbor(r.node(0, 0), Direction::West),
            Some(r.node(4, 0))
        );
        // One row: no self-loop through the y wrap.
        assert_eq!(r.neighbor(r.node(2, 0), Direction::North), None);
        assert_eq!(r.neighbor(r.node(2, 0), Direction::South), None);
        assert_eq!(r.hop_distance(r.node(0, 0), r.node(4, 0)), 1);
    }

    #[test]
    fn downstream_is_its_own_inverse() {
        let m = Topology::mesh(4, 4);
        // Node 5's East output feeds node 6's West input, and node 6's
        // West input is fed by node 5's East output.
        let east = Direction::East.index();
        let west = Direction::West.index();
        assert_eq!(m.try_downstream(5, east), Some((6, west)));
        assert_eq!(m.try_downstream(6, west), Some((5, east)));
    }

    #[test]
    fn edges_have_no_downstream_on_mesh_but_wrap_on_torus() {
        let mesh = Topology::mesh(4, 4);
        let torus = Topology::torus(4, 4);
        let west = Direction::West.index();
        assert_eq!(mesh.try_downstream(0, west), None);
        assert_eq!(
            torus.try_downstream(0, west),
            Some((3, Direction::East.index()))
        );
    }

    #[test]
    fn local_port_has_no_neighbor() {
        let m = Topology::mesh(2, 2);
        for n in m.nodes() {
            assert_eq!(m.neighbor(n, Direction::Local), None);
        }
    }

    #[test]
    fn hop_distance_mesh_is_manhattan() {
        let m = Topology::mesh(8, 8);
        assert_eq!(m.hop_distance(m.node(0, 0), m.node(7, 7)), 14);
        assert_eq!(m.hop_distance(m.node(3, 4), m.node(3, 4)), 0);
        assert_eq!(m.hop_distance(m.node(1, 1), m.node(2, 5)), 5);
    }

    #[test]
    fn hop_distance_torus_uses_wrap() {
        let t = Topology::torus(8, 8);
        assert_eq!(t.hop_distance(t.node(0, 0), t.node(7, 7)), 2);
        assert_eq!(t.hop_distance(t.node(0, 0), t.node(4, 4)), 8);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = Topology::mesh(5, 3);
        for n in m.nodes() {
            for dir in Direction::CARDINALS {
                if let Some(peer) = m.neighbor(n, dir) {
                    assert_eq!(m.neighbor(peer, dir.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be positive")]
    fn zero_mesh_panics() {
        let _ = Topology::mesh(0, 3);
    }
}
