//! Golden determinism tests: each network, run with the shared bench
//! seed and the short run configuration, must reproduce these exact
//! pinned results — down to the last bit of the latency average.
//!
//! These pins were captured from the pre-optimization tree and lock
//! the simulator's observable behaviour across performance work: any
//! change to iteration order, scheduling tie-breaks, or RNG
//! consumption shows up here as a hard failure, not a silent drift.
//! If a pin moves, the change is a semantic change (and needs its own
//! justification), not an optimization.
//!
//! Every pin runs twice, with quiescence fast-forward on and off: the
//! pair certifies that passing over idle spans (no generation or
//! collection, the network stepped through `Network::fast_forward`)
//! and the plain per-cycle loop are observably the same simulation.
//!
//! The probe-less runs used here build networks with the default
//! telemetry probe (`noc_sim::telemetry::NoopProbe`), so these pins
//! also certify that the telemetry-off configuration is bit-identical
//! to a tree without the probe plumbing — the zero-cost half of the
//! telemetry layer's contract (`loft-bench`'s
//! `telemetry_runners_match_plain_reports` checks the telemetry-on
//! half).
//!
//! The two legs fork one shared warmup [`noc_sim::Checkpoint`]
//! instead of each re-running warmup, so every pin is also a
//! checkpoint/fork oracle: a forked resume must land on the exact
//! pinned bits, or forking perturbed the simulation. The checkpoint
//! is captured with fast-forward off so the ff-off leg stays
//! skip-free end to end.

use loft::LoftConfig;
use loft_bench::{simulation, NetSpec, SEED};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::NoopProbe;
use noc_sim::RunConfig;
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

/// Asserts a report matches its pinned flit count and the exact IEEE
/// bit pattern of its average latency.
fn check(report: &noc_sim::SimReport, flits: u64, latency_bits: u64) {
    assert_eq!(report.flits_delivered, flits, "flits_delivered drifted");
    assert_eq!(
        report.avg_latency().to_bits(),
        latency_bits,
        "avg_latency drifted: got {:?}, pinned {:?}",
        report.avg_latency(),
        f64::from_bits(latency_bits),
    );
}

/// Checks one pin on the network configured by `C` (its default
/// configuration on the scenario's topology).
fn check_pin<C: NetSpec>(scenario: &Scenario, run: RunConfig, flits: u64, latency_bits: u64) {
    check_pin_with(scenario, run, C::on(scenario.topo), flits, latency_bits);
}

/// [`check_pin`] on `cfg`: one warmup, forked for both the plain
/// per-cycle leg and the quiescence-fast-forward leg — the fast path
/// and a forked resume must both land on the pinned bits.
fn check_pin_with<C: NetSpec>(
    scenario: &Scenario,
    run: RunConfig,
    cfg: C,
    flits: u64,
    latency_bits: u64,
) {
    let ckpt = simulation(scenario, cfg, NoopProbe, run, SEED)
        .expect("paper scenarios fit")
        .with_fast_forward(false)
        .run_to_checkpoint();
    let (r, _, info) = ckpt.fork().resume();
    check(&r, flits, latency_bits);
    assert_eq!(
        info.skipped_cycles, 0,
        "fast-forward-off leg skipped cycles"
    );
    let (r, _, _) = ckpt.fork().with_fast_forward(true).resume();
    check(&r, flits, latency_bits);
}

#[test]
fn loft_uniform_low_load_is_pinned() {
    // avg_latency = 33.78215667311398
    check_pin::<LoftConfig>(
        &Scenario::uniform(0.05),
        RunConfig::short(),
        16_588,
        0x4040_E41D_B5B9_AFB5,
    );
}

#[test]
fn gsf_uniform_low_load_is_pinned() {
    // avg_latency = 19.932543520309448
    check_pin::<GsfConfig>(
        &Scenario::uniform(0.05),
        RunConfig::short(),
        16_576,
        0x4033_EEBB_2C11_D367,
    );
}

#[test]
fn wormhole_uniform_low_load_is_pinned() {
    // avg_latency = 20.0631044487428
    check_pin::<WormholeConfig>(
        &Scenario::uniform(0.05),
        RunConfig::short(),
        16_576,
        0x4034_1027_9CF7_951A,
    );
}

/// The high-load run configuration used by the near-saturation pins:
/// long enough that the networks reach congested steady state, short
/// enough for the test suite.
fn high_load_run() -> RunConfig {
    RunConfig {
        warmup: 200,
        measure: 2_000,
        drain: 1_000,
    }
}

#[test]
fn loft_uniform_high_load_is_pinned() {
    // avg_latency = 928.110465612984
    check_pin::<LoftConfig>(
        &Scenario::uniform(0.60),
        high_load_run(),
        34_320,
        0x408D_00E2_3BCB_98CA,
    );
}

#[test]
fn gsf_uniform_high_load_is_pinned() {
    // avg_latency = 405.18584669860394
    check_pin::<GsfConfig>(
        &Scenario::uniform(0.60),
        high_load_run(),
        58_728,
        0x4079_52F9_3A63_492D,
    );
}

#[test]
fn wormhole_uniform_high_load_is_pinned() {
    // avg_latency = 454.3367451967068
    check_pin::<WormholeConfig>(
        &Scenario::uniform(0.60),
        high_load_run(),
        56_360,
        0x407C_6563_4EEE_6F0D,
    );
}

/// One-cycle data hops under eight-cycle look-ahead hops: data quanta
/// routinely reach a router before their look-ahead flit does, the
/// timing the default latencies never produce.
#[test]
fn loft_data_outrunning_lookahead_is_pinned() {
    // avg_latency = 1260.7868783247459
    check_pin_with(
        &Scenario::uniform(0.30),
        RunConfig::short(),
        LoftConfig {
            hop_latency: 1,
            la_hop_latency: 8,
            ..LoftConfig::default()
        },
        74_920,
        0x4093_B325_C36E_7ADC,
    );
}

#[test]
fn loft_hotspot_is_pinned() {
    // avg_latency = 1175.2189239332115
    check_pin::<LoftConfig>(
        &Scenario::hotspot(0.02),
        RunConfig::short(),
        4_992,
        0x4092_5CE0_2D98_75D2,
    );
}

#[test]
fn gsf_hotspot_is_pinned() {
    // avg_latency = 1182.5690402476785
    check_pin::<GsfConfig>(
        &Scenario::hotspot(0.02),
        RunConfig::short(),
        5_004,
        0x4092_7A46_B27C_978C,
    );
}

/// The saturated tree toward the hotspot on wormhole: the one VC
/// network whose blocked-router path the other pins leave uncovered.
#[test]
fn wormhole_hotspot_is_pinned() {
    // avg_latency = 374.73282442748103
    check_pin::<WormholeConfig>(
        &Scenario::hotspot(0.02),
        RunConfig::short(),
        5_000,
        0x4077_6BB9_A61B_5BDB,
    );
}
