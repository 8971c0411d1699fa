//! Cross-crate integration tests: the paper's QoS requirements
//! (Section 2.1) checked end-to-end on the real networks.

use loft::LoftConfig;
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::{FlowId, RunConfig, SimReport};
use noc_traffic::Scenario;

fn short() -> RunConfig {
    RunConfig {
        warmup: 3_000,
        measure: 12_000,
        drain: 8_000,
    }
}

fn loft(scenario: &Scenario, seed: u64) -> SimReport {
    loft_bench::run(scenario, LoftConfig::default(), short(), seed).expect("fits")
}

fn gsf(scenario: &Scenario, seed: u64) -> SimReport {
    loft_bench::run(scenario, GsfConfig::default(), short(), seed).expect("fits")
}

/// Requirement (a): guaranteed minimum throughput. Every hotspot flow
/// with an equal reservation receives at least ~its guaranteed share
/// even under 3× oversubscription.
#[test]
fn loft_guarantees_minimum_throughput_under_saturation() {
    let s = Scenario::hotspot(0.05); // 63 × 0.05 ≈ 3× the ejection link
    let report = loft(&s, 1);
    let guarantee = 4.0 / 256.0; // R = 4 flits of a 256-flit frame
    for f in &report.flows {
        assert!(
            f.throughput > 0.9 * guarantee,
            "flow got {} < 90% of its guarantee {}",
            f.throughput,
            guarantee
        );
    }
}

/// Requirement (c): fairness — equal reservations give near-equal
/// throughput (the paper's Figure 10a reports sub-percent deviation;
/// we allow a few percent on a shorter run).
#[test]
fn loft_equal_allocation_is_fair() {
    let s = Scenario::hotspot(0.05);
    let report = loft(&s, 2);
    let g = report.group_throughput(s.group("all").expect("group"));
    assert!(
        g.cv() < 0.10,
        "coefficient of variation {:.3} too high",
        g.cv()
    );
}

/// Requirement (c): differentiated allocation — throughput tracks the
/// configured 8:6:6:3 quadrant weights (Figure 10b).
#[test]
fn loft_differentiated_allocation_is_proportional() {
    let s = Scenario::hotspot_differentiated4(0.05);
    let report = loft(&s, 3);
    let avg = |name: &str| {
        report
            .group_throughput(s.group(name).expect("group"))
            .mean()
    };
    let (r1, r2, r3, r4) = (avg("R1"), avg("R2"), avg("R3"), avg("R4"));
    assert!(r1 > r2 && r2 > r4, "ordering broken: {r1} {r2} {r3} {r4}");
    // R1:R4 configured 8:3 ≈ 2.67.
    let ratio = r1 / r4;
    assert!(
        (2.0..3.5).contains(&ratio),
        "R1/R4 ratio {ratio:.2} far from configured 2.67"
    );
}

/// Requirement (b)-adjacent: the victim of Case Study I keeps its
/// regulated throughput and a flat latency as aggressors scale
/// (Figure 12b).
#[test]
fn loft_isolates_victim_from_aggressors() {
    let calm = loft(&Scenario::case_study_1(0.1), 4);
    let storm = loft(&Scenario::case_study_1(0.8), 4);
    let victim = FlowId::new(0);
    assert!((storm.flow_throughput(victim) - 0.2).abs() < 0.01);
    let lat_calm = calm.flows[victim.index()].total_latency.mean();
    let lat_storm = storm.flows[victim.index()].total_latency.mean();
    assert!(
        lat_storm < lat_calm * 1.5,
        "victim latency degraded: {lat_calm:.1} → {lat_storm:.1}"
    );
}

/// Requirement (d): under-utilized bandwidth is scavenged — the
/// stripped node of Case Study II exceeds its reservation by a large
/// factor on LOFT but not on GSF (Figure 13).
#[test]
fn loft_scavenges_idle_bandwidth_gsf_does_not() {
    let s = Scenario::case_study_2(0.64);
    let l = loft(&s, 5);
    let g = gsf(&s, 5);
    let stripped = FlowId::new(8);
    assert!(
        l.flow_throughput(stripped) > 0.5,
        "LOFT stripped got only {}",
        l.flow_throughput(stripped)
    );
    assert!(
        g.flow_throughput(stripped) < 0.2,
        "GSF stripped should stay coupled to the hotspot, got {}",
        g.flow_throughput(stripped)
    );
    // The grey nodes keep their fair hotspot share in both.
    let grey_l = l.group_throughput(s.group("grey").expect("group"));
    assert!((grey_l.mean() - 0.125).abs() < 0.01);
}

/// Delay bound (Section 5.3.1): observed worst-case network latency
/// under a saturating hotspot stays within the analytic RCQ bound
/// for the longest path.
#[test]
fn loft_latency_respects_analytic_bound() {
    let cfg = LoftConfig::default();
    let s = Scenario::hotspot(0.017);
    let report = loft(&s, 6);
    let bound = noc_model::delay::loft_worst_case_for(
        &cfg,
        noc_sim::NodeId::new(0),
        noc_sim::NodeId::new(63),
    );
    assert!(
        (report.network_latency.max() as u64) <= bound,
        "max network latency {} exceeds bound {}",
        report.network_latency.max(),
        bound
    );
}

/// GSF's global frame recycling really is global: congestion at the
/// hotspot slows the head-frame turnover that every node shares.
#[test]
fn gsf_recycling_slows_under_congestion() {
    use noc_sim::Network as _;
    let idle = {
        let cfg = GsfConfig::default();
        let mut net = GsfNetwork::new(cfg, &[100]);
        let mut out = Vec::new();
        for _ in 0..10_000 {
            net.step(&mut out);
        }
        net.recycles()
    };
    let congested = {
        let s = Scenario::case_study_2(0.64);
        let cfg = GsfConfig::default();
        let r = s.reservations(cfg.frame_size).expect("fits");
        let mut net = GsfNetwork::new(cfg, &r);
        let mut traffic = s.workload(9);
        let mut fresh = Vec::new();
        let mut out = Vec::new();
        for cycle in 0..10_000 {
            fresh.clear();
            noc_sim::TrafficSource::generate(&mut traffic, cycle, &mut fresh);
            for p in fresh.drain(..) {
                noc_sim::Network::enqueue(&mut net, p);
            }
            noc_sim::Network::step(&mut net, &mut out);
        }
        net.recycles()
    };
    assert!(
        congested * 3 < idle,
        "congestion should slow recycling: idle {idle}, congested {congested}"
    );
}

/// Bursty flows (on/off injection) still receive their guaranteed
/// share under LOFT: the frame window absorbs bursts without letting
/// any flow starve.
#[test]
fn loft_guarantees_hold_under_bursty_traffic() {
    let s = Scenario::bursty_hotspot(0.4, 100.0, 300.0); // mean 0.1 ≫ guarantee
    let report = loft(&s, 12);
    let g = report.group_throughput(s.group("all").expect("group"));
    // Saturated hotspot: everyone pinned near the 1/63 fair share.
    assert!((g.mean() - 0.0156).abs() < 0.002, "mean {}", g.mean());
    let guarantee = 4.0 / 256.0;
    assert!(
        g.min() > 0.75 * guarantee,
        "bursty flow starved: min {}",
        g.min()
    );
}

/// Determinism across the whole stack: identical seeds give identical
/// reports on every network.
#[test]
fn full_stack_determinism() {
    let s = Scenario::uniform(0.2);
    let a = loft(&s, 77);
    let b = loft(&s, 77);
    assert_eq!(a.flits_delivered, b.flits_delivered);
    assert_eq!(a.total_latency.mean(), b.total_latency.mean());
    let c = gsf(&s, 77);
    let d = gsf(&s, 77);
    assert_eq!(c.flits_delivered, d.flits_delivered);
}
