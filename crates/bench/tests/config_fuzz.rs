//! Seeded configuration fuzz: every field of the three network
//! configurations is drawn from {0, 1, typical, `MAX_PARAM`,
//! `MAX_PARAM` + 1, MAX} on 4×4 meshes and tori. Building a network
//! either fails with a `ConfigError` or gives one that runs 300 cycles
//! of uniform 0.05 traffic; neither may panic.

use loft::LoftConfig;
use loft_bench::{simulation, NetSpec, SEED};
use noc_gsf::GsfConfig;
use noc_sim::fabric::MAX_PARAM;
use noc_sim::rng::Xoshiro256;
use noc_sim::{NoopProbe, RunConfig, Topology};
use noc_traffic::Scenario;
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

/// Builds each configuration `draw` yields for uniform traffic on a
/// 4×4 mesh or torus and runs the ones that build for 300 cycles. Both
/// outcomes must occur.
fn fuzz<C: NetSpec + std::fmt::Debug>(seed: u64, draw: impl Fn(&mut Xoshiro256, Topology) -> C) {
    let mut rng = Xoshiro256::seed_from(seed);
    let run = RunConfig {
        warmup: 100,
        measure: 100,
        drain: 100,
    };
    let mut built = 0;
    for _ in 0..CASES {
        let topo = [Topology::mesh(4, 4), Topology::torus(4, 4)][rng.next_below(2) as usize];
        let cfg = draw(&mut rng, topo);
        let text = format!("{cfg:?}");
        let scenario = Scenario::uniform_on(topo, 0.05);
        if let Ok(sim) = simulation(&scenario, cfg, NoopProbe, run, SEED) {
            built += 1;
            assert_eq!(sim.run().measured_cycles, run.measure, "{text}");
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
        source_queue_flits: pick(rng, 2000) as u32,
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
