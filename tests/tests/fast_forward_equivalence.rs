//! Quiescence fast-forward equivalence: the engine passing over idle
//! spans must be invisible in every observable — the full
//! [`SimReport`] (per-flow stats, Welford latency accumulators,
//! histogram) *and* the full [`TelemetryReport`] (counters, occupancy
//! accumulators, per-flow series) must be bit-identical with the fast
//! path on or off, for every network × {mesh, torus, line} ×
//! {uniform-low, bursty, regulated}.
//!
//! The ff-off run is the oracle, and the ff-on run must reproduce it
//! exactly. On the quiescence-heavy workloads the suite also asserts
//! the fast path engaged after the first packet — an equivalence
//! test that only skips the initial idle span is nearly vacuous. LOFT
//! runs a second time with local status resets off, where used
//! schedulers never return to their power-up state.
//!
//! Both runs of a cell share one warmup: the cell warms up once
//! into a [`noc_sim::Checkpoint`] (fast-forward off, so the oracle
//! stays skip-free end to end) and both the ff-off oracle and the
//! ff-on leg are forks of it. Checkpoint/fork bit-identity is proved
//! separately (`checkpoint_equivalence.rs`, and against the golden
//! pins in `golden_determinism.rs`), so the shared warmup does not
//! weaken the oracle — it just stops paying for the same warmup
//! twice.

use integration::{live, outcome, topologies, Small};
use loft::LoftConfig;
use loft_bench::SEED;
use noc_gsf::GsfConfig;
use noc_sim::telemetry::LiveProbe;
use noc_sim::{FlowId, Network, Packet, PacketId, RunConfig, Topology, TrafficSource};
use noc_traffic::{DestRule, InjectionProcess, Scenario};
use noc_wormhole::WormholeConfig;

fn run() -> RunConfig {
    RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    }
}

/// Two end-to-end flows with the given process — sparse enough that
/// the whole network quiesces between packets on any topology.
fn sparse_pair_on(topo: Topology, process: InjectionProcess, name: &str) -> Scenario {
    let nodes: Vec<_> = topo.nodes().collect();
    let (first, last) = (nodes[0], *nodes.last().expect("topology has nodes"));
    let mut s = Scenario::uniform(0.0);
    s.topo = topo;
    s.flows.truncate(2);
    for (f, (src, dst)) in s.flows.iter_mut().zip([(first, last), (last, first)]) {
        f.src = src;
        f.dest = DestRule::Fixed(dst);
        f.process = process.clone();
    }
    s.groups.clear();
    s.name = name.to_string();
    s
}

/// Short bursts, long idle spans: the fast path's target workload.
fn bursty_on(topo: Topology) -> Scenario {
    sparse_pair_on(
        topo,
        InjectionProcess::OnOff {
            rate_on: 0.6,
            p_on_to_off: 1.0 / 20.0,
            p_off_to_on: 1.0 / 300.0,
        },
        "bursty-sparse",
    )
}

/// Deterministic synchronized waves with fully idle gaps in between.
fn regulated_on(topo: Topology) -> Scenario {
    sparse_pair_on(
        topo,
        InjectionProcess::Regulated { rate: 0.05 },
        "regulated-sparse",
    )
}

/// The traffic matrix: name, scenario builder, and whether the fast
/// path is required to engage (quiescence-heavy workloads).
#[allow(clippy::type_complexity)]
fn traffics() -> [(&'static str, fn(Topology) -> Scenario, bool); 3] {
    [
        // A load low enough that the network occasionally goes
        // globally idle.
        (
            "uniform-low",
            |topo| Scenario::uniform_on(topo, 0.02),
            false,
        ),
        ("bursty", bursty_on, true),
        ("regulated", regulated_on, true),
    ]
}

/// Runs the equivalence matrix for `cfg`'s network. Each cell warms
/// the network up once (fast-forward off) and freezes it; the oracle
/// and the ff-on leg fork that checkpoint.
fn check_equivalence<C: Small>(cfg: fn(Topology) -> C) {
    for topo in topologies() {
        for (traffic, build, must_skip) in traffics() {
            let scenario = build(topo);
            let ctx = format!("{}/{topo:?}/{traffic}", C::NAME);
            let horizon = run().warmup + run().measure;
            let first_packet = scenario.workload(SEED).next_active_cycle(0, horizon);
            let ckpt = live(&scenario, cfg(topo), run())
                .with_fast_forward(false)
                .run_to_checkpoint();
            let fork_leg = |ff| outcome::<C>(ckpt.fork().with_fast_forward(ff).resume());
            let (base_report, base_telemetry, base_info) = fork_leg(false);
            assert!(
                base_report.flits_delivered > 0,
                "{ctx}: oracle run delivered nothing — test is vacuous"
            );
            assert_eq!(
                base_info.skipped_cycles, 0,
                "{ctx}: fast-forward-off run skipped cycles"
            );
            let (report, telemetry, info) = fork_leg(true);
            assert_eq!(
                report, base_report,
                "{ctx}: SimReport diverged with fast-forward on"
            );
            assert_eq!(
                telemetry, base_telemetry,
                "{ctx}: TelemetryReport diverged with fast-forward on"
            );
            assert_eq!(
                info.end_cycle, base_info.end_cycle,
                "{ctx}: drain terminated at a different cycle"
            );
            if must_skip {
                assert!(
                    info.skipped_cycles > first_packet,
                    "{ctx}: fast path never engaged after the first packet \
                     (cycle {first_packet}) — quiescence-heavy workload should jump"
                );
            }
        }
    }
}

#[test]
fn loft_fast_forward_is_equivalent() {
    check_equivalence::<LoftConfig>(Small::small);
}

#[test]
fn loft_without_resets_fast_forward_is_equivalent() {
    check_equivalence(|topo| LoftConfig {
        local_status_reset: false,
        ..Small::small(topo)
    });
}

#[test]
fn gsf_fast_forward_is_equivalent() {
    check_equivalence::<GsfConfig>(Small::small);
}

#[test]
fn wormhole_fast_forward_is_equivalent() {
    check_equivalence::<WormholeConfig>(Small::small);
}

/// The engine jumps on the first cycle nothing is in flight, which is
/// right after the last delivery: credits, wires and LOFT's reset
/// checks may still trail it. A jump from there must land where
/// stepping does — same clock, then the same deliveries and the same
/// telemetry for traffic that follows the span.
fn check_jump_after_last_delivery<C: Small>(cfg: fn(Topology) -> C) {
    let topo = Topology::mesh(4, 4);
    let scenario = sparse_pair_on(topo, InjectionProcess::Bernoulli { rate: 0.05 }, "pair");
    let DestRule::Fixed(dst) = scenario.flows[0].dest else {
        unreachable!("the pair has fixed destinations")
    };
    let packet = |seq, at| {
        let id = PacketId {
            flow: FlowId::new(0),
            seq,
        };
        Packet::new(id, scenario.flows[0].src, dst, scenario.packet_len, at)
    };
    // A short sampling window puts occupancy samples inside the span.
    let mut net = cfg(topo)
        .build(&scenario, LiveProbe::new(8))
        .expect("the pair fits the small frames");
    let mut out = Vec::new();
    for seq in 0..3 {
        net.enqueue(packet(seq, 0));
    }
    while net.in_flight() > 0 {
        net.step(&mut out);
        assert!(net.cycle() < 10_000, "{}: packets never drained", C::NAME);
    }
    assert_eq!(out.len(), 3);
    let finish = |mut n: C::Net<LiveProbe>| {
        n.enqueue(packet(3, n.cycle()));
        let mut got = Vec::new();
        while n.in_flight() > 0 {
            n.step(&mut got);
        }
        for _ in 0..64 {
            n.step(&mut got);
        }
        (n.cycle(), got, C::into_probe(n).finish())
    };
    for k in [1u64, 2, 7, 64] {
        let (mut jumped, mut stepped) = (net.clone(), net.clone());
        assert_eq!(
            jumped.fast_forward(k),
            k,
            "{}: jump declined (k={k})",
            C::NAME
        );
        for _ in 0..k {
            stepped.step(&mut out);
        }
        assert_eq!(out.len(), 3, "{}: an idle span delivered", C::NAME);
        assert_eq!(jumped.cycle(), stepped.cycle());
        assert_eq!(
            finish(jumped),
            finish(stepped),
            "{}: jump of {k} diverged from stepping",
            C::NAME
        );
    }
}

#[test]
fn loft_jump_after_last_delivery_matches_stepping() {
    check_jump_after_last_delivery::<LoftConfig>(Small::small);
}

#[test]
fn gsf_jump_after_last_delivery_matches_stepping() {
    check_jump_after_last_delivery::<GsfConfig>(Small::small);
}

#[test]
fn wormhole_jump_after_last_delivery_matches_stepping() {
    check_jump_after_last_delivery::<WormholeConfig>(Small::small);
}
