//! Seeded configuration fuzz: every field of the three network
//! configurations is drawn from {0, 1, typical, `MAX_PARAM`,
//! `MAX_PARAM` + 1, MAX} on 4×4 meshes and tori. Building a network
//! either fails with a `ConfigError` or gives one that runs 300 cycles
//! of uniform 0.05 traffic; neither may panic. Hand-built scenarios
//! with node ids off the topology, malformed and duplicate flows get
//! the same treatment on every network.

use loft::LoftConfig;
use loft_bench::{simulation, NetSpec, SEED};
use noc_gsf::GsfConfig;
use noc_sim::fabric::MAX_PARAM;
use noc_sim::rng::Xoshiro256;
use noc_sim::{NodeId, NoopProbe, RunConfig, Topology};
use noc_traffic::scenario::ScenarioFlow;
use noc_traffic::{Alloc, DestRule, InjectionProcess, Scenario};
use noc_wormhole::WormholeConfig;

/// Cases per configuration type.
const CASES: usize = 96;

/// A field value: `typical` three times in four, so that a fair share
/// of the configurations builds, otherwise one of the six edge values.
/// MAX is `u64::MAX`, which a caller's `as u32` / `as usize` turns into
/// that type's MAX.
fn pick(rng: &mut Xoshiro256, typical: u64) -> u64 {
    if rng.bernoulli(0.75) {
        return typical;
    }
    [0, 1, typical, MAX_PARAM, MAX_PARAM + 1, u64::MAX][rng.next_below(6) as usize]
}

/// The fuzz's run: 100 cycles each of warmup, measurement and drain.
const RUN: RunConfig = RunConfig {
    warmup: 100,
    measure: 100,
    drain: 100,
};

/// Builds each configuration `draw` yields for uniform traffic on a
/// 4×4 mesh or torus and runs the ones that build for 300 cycles. Both
/// outcomes must occur.
fn fuzz<C: NetSpec + std::fmt::Debug>(seed: u64, draw: impl Fn(&mut Xoshiro256, Topology) -> C) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut built = 0;
    for _ in 0..CASES {
        let topo = [Topology::mesh(4, 4), Topology::torus(4, 4)][rng.next_below(2) as usize];
        let cfg = draw(&mut rng, topo);
        let text = format!("{cfg:?}");
        let scenario = Scenario::uniform_on(topo, 0.05);
        if let Ok(sim) = simulation(&scenario, cfg, NoopProbe, RUN, SEED) {
            built += 1;
            assert_eq!(sim.run().measured_cycles, RUN.measure, "{text}");
        }
    }
    assert!((1..CASES).contains(&built), "{} built {built}", C::NAME);
}

#[test]
fn loft_configs_build_and_run_or_are_errors() {
    fuzz(0xC0F1_0001, |rng, topo| LoftConfig {
        topo,
        frame_size: pick(rng, 64) as u32,
        frame_window: pick(rng, 2) as u32,
        flits_per_quantum: pick(rng, 2) as u32,
        nonspec_buffer: pick(rng, 64) as u32,
        spec_buffer: pick(rng, 8) as u32,
        hop_latency: pick(rng, 3),
        la_hop_latency: pick(rng, 3),
        la_flow_window: pick(rng, 16) as u32,
        speculative_switching: rng.bernoulli(0.5),
        local_status_reset: rng.bernoulli(0.5),
        threads: pick(rng, 1) as usize,
    });
}

#[test]
fn gsf_configs_build_and_run_or_are_errors() {
    fuzz(0xC0F1_0002, |rng, topo| GsfConfig {
        topo,
        num_vcs: pick(rng, 6) as usize,
        vc_capacity: pick(rng, 5) as usize,
        frame_size: pick(rng, 200) as u32,
        frame_window: pick(rng, 6) as u32,
        barrier_delay: pick(rng, 16),
        hop_latency: pick(rng, 3),
        credit_delay: pick(rng, 3),
        threads: pick(rng, 1) as usize,
    });
}

#[test]
fn wormhole_configs_build_and_run_or_are_errors() {
    fuzz(0xC0F1_0003, |rng, topo| WormholeConfig {
        topo,
        num_vcs: pick(rng, 4) as usize,
        vc_capacity: pick(rng, 4) as usize,
        hop_latency: pick(rng, 3),
        credit_delay: pick(rng, 1),
        threads: pick(rng, 1) as usize,
    });
}

/// A 4×4 mesh scenario with one Bernoulli 0.2 flow per `(src, dest)`.
fn hand_built(name: &str, flows: &[(u32, DestRule)]) -> Scenario {
    let mut s = Scenario::uniform_on(Topology::mesh(4, 4), 0.0);
    s.name = name.to_string();
    s.flows = flows
        .iter()
        .map(|(src, dest)| ScenarioFlow {
            src: NodeId::new(*src),
            dest: dest.clone(),
            process: InjectionProcess::Bernoulli { rate: 0.2 },
            alloc: Alloc::Weight(1.0),
        })
        .collect();
    s
}

/// Hand-built scenarios on every network: a flow that leaves the
/// topology or is addressed to its own source, a weight that is not
/// positive and finite, a share outside (0, 1], weights mixed with
/// shares, or zero-flit packets, is a `ConfigError` from
/// `Scenario::reservations` and from every `NetSpec::build`, wormhole's
/// included; duplicate flows either run or are errors. None may panic.
#[test]
fn hand_built_scenarios_run_or_are_errors() {
    let fixed = |n| DestRule::Fixed(NodeId::new(n));
    let uniform = |num_nodes| DestRule::UniformRandom { num_nodes };
    let sized = |name, allocs: [Alloc; 2]| {
        let mut s = hand_built(name, &[(0, fixed(15)), (3, fixed(12))]);
        s.flows[0].alloc = allocs[0];
        s.flows[1].alloc = allocs[1];
        s
    };
    let (weight, share) = (Alloc::Weight, Alloc::Share);
    let infeasible = [
        hand_built("dest-16", &[(0, fixed(16))]),
        hand_built("dest-max", &[(0, fixed(u32::MAX))]),
        hand_built("src-16", &[(16, fixed(3))]),
        hand_built("src-16-uniform", &[(16, uniform(16))]),
        hand_built("uniform-17", &[(0, uniform(17))]),
        hand_built("uniform-1", &[(0, uniform(1))]),
        hand_built("uniform-0", &[(0, uniform(0))]),
        hand_built("second-flow-off", &[(0, fixed(5)), (1, fixed(99))]),
        hand_built("self", &[(5, fixed(5))]),
        sized("nan-weight", [weight(1.0), weight(f64::NAN)]),
        sized("zero-weight", [weight(0.0), weight(1.0)]),
        sized("negative-weight", [weight(1.0), weight(-1.0)]),
        sized("zero-share", [share(0.5), share(0.0)]),
        sized("share-1.5", [share(1.5), share(0.5)]),
        sized("mixed", [weight(1.0), share(0.5)]),
        Scenario {
            packet_len: 0,
            ..hand_built("zero-flit-packets", &[(0, fixed(5))])
        },
    ];
    let mut shared = hand_built("duplicate-shares", &[(0, fixed(15)), (0, fixed(15))]);
    for f in &mut shared.flows {
        f.alloc = Alloc::Share(0.5);
    }
    let mut oversubscribed = shared.clone();
    for f in &mut oversubscribed.flows {
        f.alloc = Alloc::Share(0.75);
    }
    let on_topology = [
        hand_built("duplicate", &[(0, fixed(15)), (0, fixed(15))]),
        hand_built("duplicate-uniform", &[(3, uniform(16)), (3, uniform(16))]),
        hand_built("uniform-subset", &[(9, uniform(4))]),
        shared,
        oversubscribed,
    ];
    for s in &infeasible {
        assert!(s.check().is_err(), "{}", s.name);
        assert!(s.reservations(256).is_err(), "{}", s.name);
    }
    fn check<C: NetSpec>(s: &Scenario, must_fail: bool) {
        let topo = Topology::mesh(4, 4);
        if let Ok(sim) = simulation(s, C::on(topo), NoopProbe, RUN, SEED) {
            assert!(!must_fail, "{} built {}", C::NAME, s.name);
            let report = sim.run();
            assert_eq!(
                report.measured_cycles,
                RUN.measure,
                "{} {}",
                C::NAME,
                s.name
            );
        }
    }
    for (scenarios, must_fail) in [(&infeasible[..], true), (&on_topology[..], false)] {
        for s in scenarios {
            // May be `Err`, must not panic.
            let _ = s.reservations(256);
            check::<LoftConfig>(s, must_fail);
            check::<GsfConfig>(s, must_fail);
            check::<WormholeConfig>(s, must_fail);
        }
    }
}
