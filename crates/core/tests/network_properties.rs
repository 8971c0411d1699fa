//! End-to-end randomized tests of the LOFT network: every injected
//! packet is delivered exactly once to the right node, under random
//! workloads and configurations (cases drawn from the workspace's
//! deterministic RNG). Hop latencies on both planes are drawn too, so
//! data quanta regularly reach a router before their look-ahead flit.

use loft::{LoftConfig, LoftNetwork};
use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
use noc_sim::rng::Xoshiro256;
use noc_sim::{Network, Topology};

/// Conservation and addressing under random batches.
#[test]
fn every_packet_delivered_once_to_its_destination() {
    let mut rng = Xoshiro256::seed_from(0x10F7_0001);
    for _case in 0..48 {
        let spec = [0u32, 4, 8, 12][rng.next_below(4) as usize];
        let cfg = LoftConfig {
            topo: Topology::mesh(4, 4),
            frame_size: 64,
            nonspec_buffer: 64,
            hop_latency: 1 + rng.next_below(4),
            la_hop_latency: 1 + rng.next_below(8),
            ..LoftConfig::with_spec_buffer(spec)
        };
        // One flow per (src, dst) pair present in the batch; sequence
        // numbers continue across repeated pairs.
        let entries = 1 + rng.next_below(59) as usize;
        let mut flows: Vec<(u32, u32)> = Vec::new();
        let mut next_seq: Vec<u64> = Vec::new();
        let mut packets = Vec::new();
        for _ in 0..entries {
            let a = rng.next_below(16) as u32;
            let b = rng.next_below(16) as u32;
            let count = 1 + rng.next_below(29);
            if a == b {
                continue;
            }
            let fid = flows.iter().position(|&p| p == (a, b)).unwrap_or_else(|| {
                flows.push((a, b));
                next_seq.push(0);
                flows.len() - 1
            });
            for _ in 0..count {
                let seq = next_seq[fid];
                next_seq[fid] += 1;
                packets.push(Packet::new(
                    PacketId {
                        flow: FlowId::new(fid as u32),
                        seq,
                    },
                    NodeId::new(a),
                    NodeId::new(b),
                    4,
                    0,
                ));
            }
        }
        if flows.is_empty() {
            continue;
        }
        let reservations = vec![4u32; flows.len()];
        let mut net = LoftNetwork::new(cfg, &reservations);
        let expected = packets.len();
        for p in packets {
            net.enqueue(p);
        }
        let mut out = Vec::new();
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step(&mut out);
            guard += 1;
            assert!(guard < 1_000_000, "network failed to drain");
        }
        assert_eq!(out.len(), expected);
        let mut seen = std::collections::HashSet::new();
        for p in &out {
            assert!(seen.insert(p.id), "packet {} delivered twice", p.id);
            assert!(p.injected_at.unwrap() <= p.ejected_at.unwrap());
            let (_, dst) = flows[p.id.flow.index()];
            assert_eq!(p.dst, NodeId::new(dst));
        }
    }
}

/// A flow's packets are delivered in order (FRS preserves
/// quantum order along a fixed path).
#[test]
fn per_flow_delivery_is_in_order() {
    let mut rng = Xoshiro256::seed_from(0x10F7_0002);
    for _case in 0..48 {
        let count = 2 + rng.next_below(58);
        let src = rng.next_below(16) as u32;
        let dst = rng.next_below(16) as u32;
        if src == dst {
            continue;
        }
        let cfg = LoftConfig {
            topo: Topology::mesh(4, 4),
            frame_size: 64,
            nonspec_buffer: 64,
            hop_latency: 1 + rng.next_below(4),
            la_hop_latency: 1 + rng.next_below(8),
            ..LoftConfig::default()
        };
        let mut net = LoftNetwork::new(cfg, &[16]);
        for seq in 0..count {
            net.enqueue(Packet::new(
                PacketId {
                    flow: FlowId::new(0),
                    seq,
                },
                NodeId::new(src),
                NodeId::new(dst),
                4,
                0,
            ));
        }
        let mut out = Vec::new();
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step(&mut out);
            guard += 1;
            assert!(guard < 500_000);
        }
        let mut last_eject = 0;
        for seq in 0..count {
            let p = out.iter().find(|p| p.id.seq == seq).expect("delivered");
            let t = p.ejected_at.unwrap();
            assert!(t >= last_eject, "packet {seq} overtook its predecessor");
            last_eject = t;
        }
    }
}
