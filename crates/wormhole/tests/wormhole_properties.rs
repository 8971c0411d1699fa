//! Randomized tests for the wormhole baseline: conservation and
//! correct delivery under random batches and configurations (cases
//! drawn from the workspace's deterministic RNG).

use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
use noc_sim::rng::Xoshiro256;
use noc_sim::{Network, Topology};
use noc_wormhole::{WormholeConfig, WormholeNetwork};

/// Random batches on random small configurations — down to one VC of
/// one flit and zero credit delay. Single-flit packets are head and
/// tail at once, so back-to-back ones sharing a wormhole VC make the
/// fabric route the next head the moment a tail pops; one-flit buffers
/// flip every credit mask on every flit. The fabric's
/// `debug_verify_worklists` re-derives every mask by naive scan each
/// cycle underneath.
#[test]
fn every_packet_delivered_exactly_once() {
    let mut rng = Xoshiro256::seed_from(0x3047_0001);
    for _case in 0..48 {
        // A 3×3 torus keeps every ring hop-distance at one, so wrap
        // links are exercised without the cyclic channel dependency a
        // wormhole torus can deadlock on; the 8×1 mesh is a line.
        let topo = match rng.next_below(3) {
            0 => Topology::mesh(4, 4),
            1 => Topology::torus(3, 3),
            _ => Topology::mesh(8, 1),
        };
        let cfg = WormholeConfig {
            topo,
            num_vcs: 1 + rng.next_below(4) as usize,
            vc_capacity: 1 + rng.next_below(5) as usize,
            credit_delay: 1 + rng.next_below(4),
            hop_latency: 1 + rng.next_below(3),
            ..WormholeConfig::default()
        };
        let nodes = topo.num_nodes() as u64;
        let batch = 1 + rng.next_below(119) as usize;
        let mut next_seq = vec![0u64; (nodes * nodes) as usize];
        let mut packets = Vec::new();
        for _ in 0..batch {
            let a = rng.next_below(nodes) as u32;
            let b = rng.next_below(nodes) as u32;
            if a == b {
                continue;
            }
            // One flow per (source, destination) pair.
            let flow = a * nodes as u32 + b;
            let id = PacketId {
                flow: FlowId::new(flow),
                seq: next_seq[flow as usize],
            };
            next_seq[flow as usize] += 1;
            let len = 1 + rng.next_below(6) as u16;
            packets.push(Packet::new(id, NodeId::new(a), NodeId::new(b), len, 0));
        }
        if packets.is_empty() {
            continue;
        }
        let run = || {
            let mut net = WormholeNetwork::new(cfg);
            for p in &packets {
                net.enqueue(p.clone());
            }
            let mut out = Vec::new();
            let mut guard = 0;
            while net.in_flight() > 0 {
                net.step(&mut out);
                guard += 1;
                assert!(guard < 500_000, "network failed to drain");
            }
            out
        };
        let out = run();
        assert_eq!(out.len(), packets.len());
        for sent in &packets {
            let p = out.iter().find(|p| p.id == sent.id).expect("delivered");
            assert_eq!(p.dst, sent.dst);
            assert!(p.created_at <= p.injected_at.unwrap());
            assert!(p.injected_at.unwrap() <= p.ejected_at.unwrap());
        }
        // A source streams one packet at a time, in FIFO order; with a
        // single VC per port nothing overtakes on the way either.
        let mut by_flow: Vec<&Packet> = out.iter().collect();
        by_flow.sort_by_key(|p| (p.id.flow, p.id.seq));
        for w in by_flow.windows(2).filter(|w| w[0].id.flow == w[1].id.flow) {
            assert!(w[0].injected_at < w[1].injected_at, "{cfg:?}");
            assert!(
                cfg.num_vcs > 1 || w[0].ejected_at < w[1].ejected_at,
                "{cfg:?}"
            );
        }
        assert_eq!(out, run(), "second run diverged on {cfg:?}");
    }
}

/// Latency lower bound: no packet beats the physical minimum of
/// its path (hops × hop latency + serialization).
#[test]
fn latency_never_beats_physics() {
    let mut rng = Xoshiro256::seed_from(0x3047_0002);
    for _case in 0..48 {
        let a = rng.next_below(16) as u32;
        let b = rng.next_below(16) as u32;
        if a == b {
            continue;
        }
        let cfg = WormholeConfig::on(Topology::mesh(4, 4));
        let mut net = WormholeNetwork::new(cfg);
        net.enqueue(Packet::new(
            PacketId {
                flow: FlowId::new(0),
                seq: 0,
            },
            NodeId::new(a),
            NodeId::new(b),
            4,
            0,
        ));
        let mut out = Vec::new();
        while net.in_flight() > 0 {
            net.step(&mut out);
        }
        let hops = cfg.topo.hop_distance(NodeId::new(a), NodeId::new(b)) as u64;
        let physical_min = hops * cfg.hop_latency + 4 - 1;
        assert!(out[0].total_latency().unwrap() >= physical_min);
    }
}
