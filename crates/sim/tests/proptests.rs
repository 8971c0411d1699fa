//! Randomized invariant tests for the simulation substrate.
//!
//! These were originally `proptest` properties; they now draw their
//! cases from the workspace's own deterministic [`Xoshiro256`] so the
//! test suite has no external dependencies and every failure is
//! reproducible from the fixed seed.

use noc_sim::fabric::{LinkTable, PORTS};
use noc_sim::flit::NodeId;
use noc_sim::rng::Xoshiro256;
use noc_sim::routing::Direction;
use noc_sim::stats::RunningStats;
use noc_sim::topology::Topology;

/// On every mesh and torus of 1..=9 nodes per side (lines included),
/// routing takes every pair from source to destination in exactly the
/// minimal number of hops, and every link's downstream end leads back
/// to it upstream. The precomputed [`LinkTable`] agrees: it is its own
/// inverse on every linked port, and empty exactly where the topology
/// has no link (every local port and every mesh edge).
#[test]
fn routing_reaches_destination() {
    for w in 1..=9 {
        for h in 1..=9 {
            for topo in [Topology::mesh(w, h), Topology::torus(w, h)] {
                let links = LinkTable::new(&topo);
                for src in topo.nodes() {
                    for dst in topo.nodes() {
                        let path = topo.path(src, dst);
                        assert_eq!((path[0], path[path.len() - 1]), (src, dst));
                        let hops = topo.hop_distance(src, dst);
                        assert_eq!(path.len() as u32, hops + 1, "{topo:?}: {src} -> {dst}");
                    }
                    for port in 0..PORTS {
                        let lidx = src.index() * PORTS + port;
                        match topo.try_downstream(src.index(), port) {
                            Some((next, in_port)) => {
                                let back = topo.try_downstream(next, in_port);
                                assert_eq!(back, Some((src.index(), port)));
                                let peer = links.peer(lidx);
                                assert_eq!(peer, Some(next * PORTS + in_port), "{topo:?}: {lidx}");
                                assert_eq!(links.peer(next * PORTS + in_port), Some(lidx));
                            }
                            None => assert_eq!(links.peer(lidx), None, "{topo:?}: {lidx}"),
                        }
                    }
                }
            }
        }
    }
}

/// Torus routing also terminates and never exceeds the mesh path.
#[test]
fn torus_routing_never_longer_than_mesh() {
    let mut rng = Xoshiro256::seed_from(0x5EED_0002);
    for _ in 0..256 {
        let w = 2 + rng.next_below(7) as u16;
        let h = 2 + rng.next_below(7) as u16;
        let torus = Topology::torus(w, h);
        let mesh = Topology::mesh(w, h);
        let n = torus.num_nodes() as u64;
        let src = NodeId::new(rng.next_below(n) as u32);
        let dst = NodeId::new(rng.next_below(n) as u32);
        let tp = torus.path(src, dst);
        let mp = mesh.path(src, dst);
        assert!(tp.len() <= mp.len());
        assert_eq!(*tp.last().unwrap(), dst);
    }
}

/// Neighbor relations are symmetric on every topology.
#[test]
fn neighbors_symmetric() {
    let mut rng = Xoshiro256::seed_from(0x5EED_0003);
    for _ in 0..64 {
        let w = 1 + rng.next_below(8) as u16;
        let h = 1 + rng.next_below(8) as u16;
        let topo = if rng.bernoulli(0.5) {
            Topology::torus(w, h)
        } else {
            Topology::mesh(w, h)
        };
        for node in topo.nodes() {
            for dir in Direction::CARDINALS {
                if let Some(peer) = topo.neighbor(node, dir) {
                    assert_eq!(topo.neighbor(peer, dir.opposite()), Some(node));
                }
            }
        }
    }
}

/// RunningStats matches a direct two-pass computation.
#[test]
fn running_stats_matches_naive() {
    let mut rng = Xoshiro256::seed_from(0x5EED_0005);
    for _ in 0..128 {
        let len = 1 + rng.next_below(199) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        assert_eq!(s.count(), xs.len() as u64);
    }
}

/// next_below stays in range for arbitrary bounds.
#[test]
fn rng_next_below_in_range() {
    let mut meta = Xoshiro256::seed_from(0x5EED_0007);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(1_000_000);
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..100 {
            assert!(rng.next_below(bound) < bound);
        }
    }
}
