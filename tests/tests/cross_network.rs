//! Integration tests comparing the three network implementations on
//! identical workloads: conservation, sanity orderings, and the
//! flow-control ranking of the paper's Figure 6.

use loft::{LoftConfig, LoftNetwork};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
use noc_sim::{Network, RunConfig, Simulation, Topology, TrafficSource};
use noc_traffic::{DestRule, Scenario};
use noc_wormhole::{WormholeConfig, WormholeNetwork};

fn short() -> RunConfig {
    RunConfig {
        warmup: 2_000,
        measure: 8_000,
        drain: 8_000,
    }
}

/// Every packet injected at low load is delivered by every network —
/// no loss, no duplication (conservation).
#[test]
fn all_networks_conserve_packets_at_low_load() {
    let s = Scenario::uniform(0.05);
    let run = short();
    let expected_range = 5_000..8_000; // 0.05/4 pkts/cy × 64 nodes × 8k-cycle window

    let l = {
        let cfg = LoftConfig::default();
        let r = s.reservations(cfg.frame_size).expect("fits");
        Simulation::new(LoftNetwork::new(cfg, &r), s.workload(1), run).run()
    };
    let g = {
        let cfg = GsfConfig::default();
        let r = s.reservations(cfg.frame_size).expect("fits");
        Simulation::new(GsfNetwork::new(cfg, &r), s.workload(1), run).run()
    };
    let w = Simulation::new(
        WormholeNetwork::new(WormholeConfig::default()),
        s.workload(1),
        run,
    )
    .run();
    // Identical seeds → identical offered packets. Flit counts are
    // windowed, so delivery timing at the window edges may shift a
    // few packets in or out; allow a 1% tolerance.
    let close = |a: u64, b: u64| (a as f64 - b as f64).abs() / (a as f64) < 0.01;
    assert!(
        close(l.flits_delivered, g.flits_delivered),
        "{} vs {}",
        l.flits_delivered,
        g.flits_delivered
    );
    assert!(
        close(l.flits_delivered, w.flits_delivered),
        "{} vs {}",
        l.flits_delivered,
        w.flits_delivered
    );
    let packets = l.flits_delivered / 4;
    assert!(
        expected_range.contains(&packets),
        "unexpected packet count {packets}"
    );
}

/// Low-load latency sanity: wormhole (no scheduling) is fastest; LOFT
/// pays a small look-ahead lead; everyone stays within a small factor.
#[test]
fn low_load_latency_ordering() {
    let s = Scenario::uniform(0.05);
    let run = short();
    let lat = |r: noc_sim::SimReport| r.network_latency.mean();

    let cfg = LoftConfig::default();
    let r = s.reservations(cfg.frame_size).expect("fits");
    let l = lat(Simulation::new(LoftNetwork::new(cfg, &r), s.workload(2), run).run());
    let w = lat(Simulation::new(
        WormholeNetwork::new(WormholeConfig::default()),
        s.workload(2),
        run,
    )
    .run());
    assert!(w < l, "wormhole {w:.1} should beat LOFT {l:.1} at low load");
    assert!(l < 4.0 * w, "LOFT {l:.1} too slow vs wormhole {w:.1}");
}

/// The Figure 6 ranking holds on a minimal two-node link: FRS (LOFT)
/// streams back-to-back packets faster than GSF under tight buffers.
#[test]
fn frs_beats_gsf_on_back_to_back_stream() {
    fn makespan<N: Network>(mut net: N, packets: u64) -> u64 {
        for seq in 0..packets {
            net.enqueue(Packet::new(
                PacketId {
                    flow: FlowId::new(0),
                    seq,
                },
                NodeId::new(0),
                NodeId::new(1),
                4,
                0,
            ));
        }
        let mut out = Vec::new();
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step(&mut out);
            guard += 1;
            assert!(guard < 50_000);
        }
        out.iter().map(|p| p.ejected_at.unwrap()).max().unwrap()
    }
    let topo = Topology::mesh(2, 1);
    let gsf = makespan(
        GsfNetwork::new(
            GsfConfig {
                topo,
                num_vcs: 1,
                vc_capacity: 3,
                credit_delay: 2,
                ..GsfConfig::default()
            },
            &[2000],
        ),
        32,
    );
    let loft = makespan(
        LoftNetwork::new(
            LoftConfig {
                topo,
                frame_size: 64,
                nonspec_buffer: 64,
                ..LoftConfig::default()
            },
            &[64],
        ),
        32,
    );
    assert!(
        loft * 2 < gsf,
        "FRS should be at least 2x faster: LOFT {loft}, GSF {gsf}"
    );
}

/// Every network delivers each packet as it was generated, and counts
/// every undelivered one in `in_flight`, at a load whose oversubscribed
/// hotspot sources grow their backlogs every cycle. Packets wait in the
/// source queues as records and are rebuilt when the network starts
/// sending them, so a wrong rebuild or a miscounted backlog fails here.
#[test]
fn delivered_packets_are_their_generated_packets() {
    fn check<N: Network>(mut net: N, s: &Scenario, name: &str) {
        let mut traffic = s.workload(7);
        let mut pending = std::collections::HashMap::new();
        let (mut fresh, mut out) = (Vec::new(), Vec::new());
        let (mut generated, mut delivered) = (0, 0);
        for cycle in 0..3_000 {
            traffic.generate(cycle, &mut fresh);
            for p in fresh.drain(..) {
                generated += 1;
                pending.insert(p.id, p.clone());
                net.enqueue(p);
            }
            net.step(&mut out);
            for p in out.drain(..) {
                let g = pending
                    .remove(&p.id)
                    .unwrap_or_else(|| panic!("{name}: {} delivered twice or never sent", p.id));
                assert_eq!(
                    (p.src, p.dst, p.len_flits, p.created_at),
                    (g.src, g.dst, g.len_flits, g.created_at),
                    "{name}: {} changed on its way",
                    p.id
                );
                let (injected, ejected) = (p.injected_at.unwrap(), p.ejected_at.unwrap());
                assert!(
                    p.created_at <= injected && injected <= ejected,
                    "{name}: {p:?}"
                );
                delivered += 1;
            }
            assert_eq!(
                net.in_flight(),
                generated - delivered,
                "{name}: in_flight at cycle {cycle}"
            );
        }
        assert!(delivered > 0, "{name} delivered nothing");
        assert!(
            net.in_flight() > 1_000,
            "{name}: the hotspot sources built no backlog"
        );
    }
    let s = Scenario::hotspot(0.60);
    let loft = LoftConfig::on(s.topo);
    let gsf = GsfConfig::on(s.topo);
    check(
        LoftNetwork::new(loft, &s.reservations(loft.frame_size).expect("fits")),
        &s,
        "loft",
    );
    check(
        GsfNetwork::new(gsf, &s.reservations(gsf.frame_size).expect("fits")),
        &s,
        "gsf",
    );
    check(
        WormholeNetwork::new(WormholeConfig::on(s.topo)),
        &s,
        "wormhole",
    );
}

/// Drives a fixed half-way-around pattern (3 packets per node, node
/// `i` → node `(i + n/2) % n`) to completion and returns the sorted
/// per-packet ejection times. Destination correctness is checked by
/// the fabric's debug assertions while draining.
fn drain_pattern<N: Network>(mut net: N) -> Vec<(u32, u64, u64)> {
    let n = net.num_nodes() as u32;
    for node in 0..n {
        let dst = (node + n / 2) % n;
        for seq in 0..3 {
            net.enqueue(Packet::new(
                PacketId {
                    flow: FlowId::new(node),
                    seq,
                },
                NodeId::new(node),
                NodeId::new(dst),
                4,
                0,
            ));
        }
    }
    let mut out = Vec::new();
    let mut guard = 0;
    while net.in_flight() > 0 {
        net.step(&mut out);
        guard += 1;
        assert!(guard < 200_000, "network failed to drain");
    }
    let mut done: Vec<(u32, u64, u64)> = out
        .iter()
        .map(|p| (p.id.flow.index() as u32, p.id.seq, p.ejected_at.unwrap()))
        .collect();
    done.sort_unstable();
    done
}

fn loft_on(topo: Topology) -> LoftNetwork {
    let cfg = LoftConfig {
        topo,
        frame_size: 64,
        nonspec_buffer: 64,
        ..LoftConfig::default()
    };
    LoftNetwork::new(cfg, &vec![8; topo.num_nodes()])
}

fn gsf_on(topo: Topology) -> GsfNetwork {
    GsfNetwork::new(GsfConfig::on(topo), &vec![100; topo.num_nodes()])
}

/// Every network delivers every packet on a 4×4 torus — the wrap
/// links (which the mesh goldens never exercise) carry real traffic.
#[test]
fn all_networks_deliver_on_torus() {
    let topo = Topology::torus(4, 4);
    for done in [
        drain_pattern(WormholeNetwork::new(WormholeConfig::on(topo))),
        drain_pattern(gsf_on(topo)),
        drain_pattern(loft_on(topo)),
    ] {
        assert_eq!(done.len(), 16 * 3);
    }
}

/// Every network delivers every packet on an 8-node line, the mesh
/// 8×1 (a ring without its wrap link: only East/West ports ever carry
/// traffic).
#[test]
fn all_networks_deliver_on_ring() {
    let topo = Topology::mesh(8, 1);
    for done in [
        drain_pattern(WormholeNetwork::new(WormholeConfig::on(topo))),
        drain_pattern(gsf_on(topo)),
        drain_pattern(loft_on(topo)),
    ] {
        assert_eq!(done.len(), 8 * 3);
    }
}

/// Identical runs on the torus and the 8-node line produce identical
/// per-packet ejection times for all three networks (determinism
/// beyond the mesh goldens).
#[test]
fn torus_and_ring_runs_are_deterministic() {
    for topo in [Topology::torus(4, 4), Topology::mesh(8, 1)] {
        assert_eq!(
            drain_pattern(WormholeNetwork::new(WormholeConfig::on(topo))),
            drain_pattern(WormholeNetwork::new(WormholeConfig::on(topo)))
        );
        assert_eq!(drain_pattern(gsf_on(topo)), drain_pattern(gsf_on(topo)));
        assert_eq!(drain_pattern(loft_on(topo)), drain_pattern(loft_on(topo)));
    }
}

/// The storage model agrees with the simulator's configuration types
/// end-to-end (Table 2 headline).
#[test]
fn storage_headline_holds_for_default_configs() {
    let gsf = noc_model::storage::gsf_router_bits(&GsfConfig::default());
    let loft = noc_model::storage::loft_router_bits(&LoftConfig::default());
    let saving = 1.0 - loft.total() as f64 / gsf.total() as f64;
    assert!(
        saving > 0.25,
        "LOFT should save >25% storage, got {saving:.2}"
    );
}

/// Scenario reservations are feasible on both frame sizes used in the
/// paper, for every paper scenario.
#[test]
fn all_paper_scenarios_have_feasible_reservations() {
    let scenarios = [
        Scenario::uniform(0.1),
        Scenario::hotspot(0.01),
        Scenario::hotspot_differentiated4(0.01),
        Scenario::hotspot_differentiated2(0.01),
        Scenario::case_study_1(0.5),
        Scenario::case_study_2(0.5),
        Scenario::transpose(0.1),
        Scenario::bit_complement(0.1),
        Scenario::nearest_neighbor(0.1),
    ];
    for s in &scenarios {
        for frame in [256u32, 2000] {
            let r = s
                .reservations(frame)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(r.len(), s.num_flows());
            assert!(r.iter().all(|&x| x > 0));
            // Fixed destinations: no router output port carries more
            // than a frame (ejection ports included).
            let mut sums = std::collections::HashMap::new();
            for (f, &slots) in s.flows.iter().zip(&r) {
                if let DestRule::Fixed(dst) = f.dest {
                    for port in s.topo.port_path(f.src, dst) {
                        *sums.entry(port).or_insert(0) += slots;
                    }
                }
            }
            assert!(sums.values().all(|&sum| sum <= frame), "{}", s.name);
        }
    }
}
