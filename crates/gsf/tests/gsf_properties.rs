//! Randomized tests for the GSF network: conservation, frame-quota
//! enforcement, and recycling liveness under random workloads (cases
//! drawn from the workspace's deterministic RNG).

use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
use noc_sim::rng::Xoshiro256;
use noc_sim::{Network, Topology};

fn small_cfg() -> GsfConfig {
    GsfConfig {
        topo: Topology::mesh(4, 4),
        frame_size: 200,
        ..GsfConfig::default()
    }
}

/// Steps `net` until it is empty and returns the deliveries.
fn drain(net: &mut GsfNetwork) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut guard = 0;
    while net.in_flight() > 0 {
        net.step(&mut out);
        guard += 1;
        assert!(guard < 1_000_000, "network failed to drain");
    }
    out
}

/// Random batches on random small configurations — down to one VC of
/// one flit, zero credit delay and single-flit packets (head and tail
/// at once), where every mask transition of the VC fabric happens on
/// almost every flit. The fabric's `debug_verify_worklists` re-derives
/// every mask by naive scan each cycle underneath.
#[test]
fn every_packet_delivered_exactly_once() {
    let mut rng = Xoshiro256::seed_from(0x65F_0001);
    for _case in 0..48 {
        // A 3×3 torus keeps every ring hop-distance at one, so wrap
        // links are exercised without the cyclic channel dependency a
        // wormhole torus can deadlock on; the 8×1 mesh is a line.
        let topo = match rng.next_below(3) {
            0 => Topology::mesh(4, 4),
            1 => Topology::torus(3, 3),
            _ => Topology::mesh(8, 1),
        };
        let cfg = GsfConfig {
            topo,
            num_vcs: 1 + rng.next_below(4) as usize,
            vc_capacity: 1 + rng.next_below(5) as usize,
            credit_delay: 1 + rng.next_below(4),
            hop_latency: 1 + rng.next_below(3),
            ..small_cfg()
        };
        let nodes = topo.num_nodes() as u64;
        let entries = 1 + rng.next_below(29) as usize;
        let mut flows: Vec<(u32, u32)> = Vec::new();
        let mut next_seq: Vec<u64> = Vec::new();
        let mut packets = Vec::new();
        for _ in 0..entries {
            let a = rng.next_below(nodes) as u32;
            let b = rng.next_below(nodes) as u32;
            let count = 1 + rng.next_below(11);
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
                    1 + rng.next_below(6) as u16,
                    0,
                ));
            }
        }
        if flows.is_empty() {
            continue;
        }
        let reservations = vec![20u32; flows.len()];
        let run = || {
            let mut net = GsfNetwork::new(cfg, &reservations);
            for p in &packets {
                net.enqueue(p.clone());
            }
            drain(&mut net)
        };
        let out = run();
        assert_eq!(out.len(), packets.len());
        let mut seen = std::collections::HashSet::new();
        for p in &out {
            assert!(seen.insert(p.id));
            let (_, dst) = flows[p.id.flow.index()];
            assert_eq!(p.dst, NodeId::new(dst));
        }
        // A source streams one packet at a time and a flow's packets
        // in sequence; with a single VC per port nothing overtakes on
        // the way either.
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

/// The head frame always makes progress: recycles keep happening
/// as long as traffic drains (liveness of the barrier).
#[test]
fn recycling_is_live() {
    let mut rng = Xoshiro256::seed_from(0x65F_0002);
    for _case in 0..24 {
        let backlog = 1 + rng.next_below(59);
        let mut net = GsfNetwork::new(small_cfg(), &[8]);
        for seq in 0..backlog {
            net.enqueue(Packet::new(
                PacketId {
                    flow: FlowId::new(0),
                    seq,
                },
                NodeId::new(0),
                NodeId::new(15),
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
        // 8-flit quota = 2 packets per frame: a backlog of n packets
        // needs at least n/2 - window shifts.
        let min_recycles = (backlog / 2).saturating_sub(6);
        assert!(
            net.recycles() >= min_recycles,
            "only {} recycles for backlog {}",
            net.recycles(),
            backlog
        );
    }
}
