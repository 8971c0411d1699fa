//! Telemetry stall counters: the probe hooks that record a NIC or a
//! link waiting for buffer space. The suites' other cells never
//! stall, so each network gets one configuration here that does, on
//! the 4×4 mesh at uniform 0.60, and the test fails if its counters
//! stay at zero. The VC networks also get a pinned count on the
//! blocked tree of an 8×8 hotspot, where almost every router and NIC
//! waits for credit.

use integration::{live, outcome, Small};
use loft::LoftConfig;
use loft_bench::{run as plain_run, NetSpec, SEED};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::TelemetryReport;
use noc_sim::{RunConfig, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

fn run() -> RunConfig {
    RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    }
}

/// Runs `cfg` on the 4×4 mesh at uniform 0.60 and checks that some
/// NIC stalled. Returns the run's telemetry.
fn stalled_telemetry<C: NetSpec>(cfg: impl Fn(Topology) -> C) -> TelemetryReport {
    let topo = Topology::mesh(4, 4);
    let scenario = Scenario::uniform_on(topo, 0.60);
    let report = outcome::<C>(live(&scenario, cfg(topo), run()).run_full(|| {})).1;
    assert!(
        report.nic_stalls.iter().sum::<u64>() > 0,
        "{}: no NIC stalled — test is vacuous",
        C::NAME
    );
    report
}

/// LOFT's NIC stalls: a 64-deep look-ahead window stages quanta
/// faster than the local input ports drain, so the NICs stall on a
/// full port.
#[test]
fn loft_records_nic_stalls() {
    stalled_telemetry(|topo| LoftConfig {
        la_flow_window: 64,
        ..<LoftConfig as Small>::small(topo)
    });
}

/// The VC fabric's NIC and link stalls: two 2-flit VCs per port with
/// a 4-cycle credit return leave GSF's NICs and output links waiting
/// for credit.
#[test]
fn gsf_records_nic_and_link_stalls() {
    let report = stalled_telemetry(|topo| GsfConfig {
        num_vcs: 2,
        vc_capacity: 2,
        credit_delay: 4,
        ..<GsfConfig as Small>::small(topo)
    });
    assert!(
        report.link_stalls.iter().sum::<u64>() > 0,
        "gsf: no link stalled — test is vacuous"
    );
}

/// Plain wormhole with one VC per port: a blocked worm holds its
/// link's only VC, so every packet routed behind it stalls at the NIC
/// or on the link.
#[test]
fn wormhole_single_vc_records_nic_and_link_stalls() {
    let report = stalled_telemetry(|topo| WormholeConfig {
        num_vcs: 1,
        vc_capacity: 2,
        credit_delay: 4,
        ..<WormholeConfig as Small>::small(topo)
    });
    assert!(
        report.link_stalls.iter().sum::<u64>() > 0,
        "wormhole: no link stalled — test is vacuous"
    );
}

/// Runs `cfg` on the 8×8 mesh at `hotspot(0.02)` with a live probe
/// and checks that the probe left the report alone and counted exactly
/// the pinned link and NIC stalls. A blocked router or NIC leaves its
/// worklist only when telemetry is off, so these sums pin that the
/// probe still hears every stall.
fn check_hotspot_stalls<C: NetSpec>(
    cfg: impl Fn(Topology) -> C,
    link_stalls: u64,
    nic_stalls: u64,
) {
    let scenario = Scenario::hotspot(0.02);
    let run = RunConfig::short();
    let plain = plain_run(&scenario, cfg(scenario.topo), run, SEED).expect("hotspot fits");
    let (report, telemetry, _) =
        outcome::<C>(live(&scenario, cfg(scenario.topo), run).run_full(|| {}));
    assert_eq!(report, plain, "{}: the probe perturbed the run", C::NAME);
    assert_eq!(
        (
            telemetry.link_stalls.iter().sum::<u64>(),
            telemetry.nic_stalls.iter().sum::<u64>()
        ),
        (link_stalls, nic_stalls),
        "{}: (link, NIC) stalls drifted",
        C::NAME
    );
}

/// GSF's default VCs are deeper than its packets and drain before
/// reuse, so on the default configuration the tree blocks only in VC
/// allocation and nothing stalls; two 2-flit VCs make it stall.
#[test]
fn gsf_hotspot_stalls_are_pinned() {
    check_hotspot_stalls(
        |topo| GsfConfig {
            num_vcs: 2,
            vc_capacity: 2,
            ..GsfConfig::on(topo)
        },
        326_864,
        499_325,
    );
}

#[test]
fn wormhole_hotspot_stalls_are_pinned() {
    check_hotspot_stalls(WormholeConfig::on, 148_553, 139_218);
}
