//! Differential digest corpus: 96 randomly drawn configurations of
//! the three networks, each run once and reduced to a 64-bit digest
//! of its `SimReport` and `RunInfo`, checked against a committed
//! table.
//!
//! The golden pins fix ten operating points; this corpus fixes the
//! corners around them — short and long frames, one to four frame
//! windows, speculative buffers of 0, 4 and 12 flits, resets on and
//! off, look-ahead hops of 1–3 cycles, look-ahead windows of 1–64,
//! and VC counts, depths and delays for GSF and wormhole — on a 4×4
//! mesh, a 4×4 torus and the 8×8 mesh under uniform, hotspot and both
//! case-study traffic at random rates. A change that claims to keep
//! every simulated number must leave the table as it is; a change
//! that moves a number on purpose re-records the table and says why.
//!
//! The configurations come from `noc_sim::rng::Xoshiro256` with a
//! fixed seed, and the digest is FNV-1a over an explicit list of
//! fields (`f64`s by their bits), so the table does not depend on the
//! standard library's hasher. A mismatch lists every differing case,
//! smallest index first, with its full configuration, then the table
//! the tree produces.

use loft::LoftConfig;
use loft_bench::{map_jobs, simulation, NetSpec};
use noc_gsf::GsfConfig;
use noc_sim::rng::Xoshiro256;
use noc_sim::stats::RunningStats;
use noc_sim::telemetry::NoopProbe;
use noc_sim::{RunConfig, RunInfo, SimReport, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

/// Seed of the configuration draws.
const CORPUS_SEED: u64 = 0x4C4F_4654_2D44_4947;

/// Every case runs these phases (drain ends early once empty).
const RUN: RunConfig = RunConfig {
    warmup: 200,
    measure: 600,
    drain: 400,
};

/// One case's network and its configuration.
#[derive(Debug, Clone, Copy)]
enum Net {
    Loft(LoftConfig),
    Gsf(GsfConfig),
    Wormhole(WormholeConfig),
}

/// One case's traffic: the scenario constructor and its rate.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    Uniform(f64),
    Hotspot(f64),
    CaseStudy1(f64),
    CaseStudy2(f64),
}

#[derive(Debug, Clone, Copy)]
struct Case {
    net: Net,
    traffic: Traffic,
    seed: u64,
}

impl Case {
    fn topo(&self) -> Topology {
        match self.net {
            Net::Loft(c) => c.topo,
            Net::Gsf(c) => c.topo,
            Net::Wormhole(c) => c.topo,
        }
    }

    fn scenario(&self) -> Scenario {
        match self.traffic {
            Traffic::Uniform(rate) => Scenario::uniform_on(self.topo(), rate),
            Traffic::Hotspot(rate) => Scenario::hotspot(rate),
            Traffic::CaseStudy1(rate) => Scenario::case_study_1(rate),
            Traffic::CaseStudy2(rate) => Scenario::case_study_2(rate),
        }
    }

    /// Whether the network builds for the scenario: a draw whose
    /// reservations do not fit its frame is drawn again.
    fn builds(&self) -> bool {
        let scenario = self.scenario();
        match self.net {
            Net::Loft(c) => c.build(&scenario, NoopProbe).is_ok(),
            Net::Gsf(c) => c.build(&scenario, NoopProbe).is_ok(),
            Net::Wormhole(c) => c.build(&scenario, NoopProbe).is_ok(),
        }
    }

    fn digest(&self) -> u64 {
        let scenario = self.scenario();
        let (report, info) = match self.net {
            Net::Loft(c) => run(&scenario, c, self.seed),
            Net::Gsf(c) => run(&scenario, c, self.seed),
            Net::Wormhole(c) => run(&scenario, c, self.seed),
        };
        digest(&report, &info)
    }
}

fn run<C: NetSpec>(scenario: &Scenario, cfg: C, seed: u64) -> (SimReport, RunInfo) {
    let sim = simulation(scenario, cfg, NoopProbe, RUN, seed).expect("drawn feasible");
    let (report, _, info) = sim.run_full(|| {});
    (report, info)
}

/// Uniform integer in `lo..=hi`.
fn between(rng: &mut Xoshiro256, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

fn draw_topo(rng: &mut Xoshiro256) -> Topology {
    match rng.next_below(4) {
        0 => Topology::mesh(4, 4),
        1 => Topology::torus(4, 4),
        _ => Topology::mesh(8, 8),
    }
}

/// Rates in hundredths (thousandths for hotspot, whose 63 sources
/// saturate the hotspot's ejection link near 0.016 each).
fn draw_traffic(rng: &mut Xoshiro256, topo: Topology) -> Traffic {
    if topo != Scenario::default_topology() {
        return Traffic::Uniform(between(rng, 1, 60) as f64 / 100.0);
    }
    match rng.next_below(4) {
        0 => Traffic::Uniform(between(rng, 1, 60) as f64 / 100.0),
        1 => Traffic::Hotspot(between(rng, 1, 40) as f64 / 1000.0),
        2 => Traffic::CaseStudy1(between(rng, 5, 90) as f64 / 100.0),
        _ => Traffic::CaseStudy2(between(rng, 1, 50) as f64 / 100.0),
    }
}

fn draw_net(rng: &mut Xoshiro256, topo: Topology) -> Net {
    match rng.next_below(4) {
        0 | 1 => {
            let frame_size = 2 * between(rng, 16, 128) as u32;
            let spec_buffer = [0, 4, 12][rng.next_below(3) as usize];
            Net::Loft(LoftConfig {
                topo,
                frame_size,
                nonspec_buffer: frame_size,
                frame_window: between(rng, 1, 4) as u32,
                spec_buffer,
                speculative_switching: spec_buffer > 0,
                local_status_reset: rng.bernoulli(0.5),
                hop_latency: between(rng, 1, 4),
                la_hop_latency: between(rng, 1, 3),
                la_flow_window: between(rng, 1, 64) as u32,
                ..LoftConfig::on(topo)
            })
        }
        2 => Net::Gsf(GsfConfig {
            topo,
            num_vcs: between(rng, 1, 6) as usize,
            vc_capacity: between(rng, 1, 8) as usize,
            credit_delay: between(rng, 1, 4),
            hop_latency: between(rng, 1, 4),
            frame_size: between(rng, 100, 2000) as u32,
            frame_window: between(rng, 1, 6) as u32,
            ..GsfConfig::on(topo)
        }),
        _ => Net::Wormhole(WormholeConfig {
            topo,
            num_vcs: between(rng, 1, 6) as usize,
            vc_capacity: between(rng, 1, 8) as usize,
            credit_delay: between(rng, 1, 4),
            hop_latency: between(rng, 1, 4),
            ..WormholeConfig::on(topo)
        }),
    }
}

/// The corpus: `DIGESTS.len()` feasible draws, in draw order.
fn cases() -> Vec<Case> {
    let mut rng = Xoshiro256::seed_from(CORPUS_SEED);
    (0..DIGESTS.len())
        .map(|_| loop {
            let topo = draw_topo(&mut rng);
            let case = Case {
                traffic: draw_traffic(&mut rng, topo),
                net: draw_net(&mut rng, topo),
                seed: rng.next_u64(),
            };
            if case.builds() {
                break case;
            }
        })
        .collect()
}

/// 64-bit FNV-1a over a sequence of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn stats(&mut self, s: &RunningStats) {
        self.word(s.count());
        for x in [s.mean(), s.variance(), s.min(), s.max()] {
            self.float(x);
        }
    }
}

fn digest(report: &SimReport, info: &RunInfo) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(report.measured_cycles);
    h.word(report.num_nodes as u64);
    h.word(report.flits_delivered);
    h.stats(&report.total_latency);
    h.stats(&report.network_latency);
    for (bound, count) in report.latency_histogram.iter() {
        h.word(bound);
        h.word(count);
    }
    h.word(report.flows.len() as u64);
    for flow in &report.flows {
        h.word(flow.packets_delivered);
        h.word(flow.flits_delivered);
        h.word(flow.packets_offered);
        h.stats(&flow.total_latency);
        h.stats(&flow.network_latency);
        h.float(flow.throughput);
    }
    h.word(info.skipped_cycles);
    h.word(info.end_cycle);
    h.0
}

#[test]
fn every_case_matches_its_recorded_digest() {
    let cases = cases();
    let got = map_jobs(2, cases.clone(), |case| case.digest());
    let mut report = String::new();
    for (i, ((case, &want), &got)) in cases.iter().zip(&DIGESTS).zip(&got).enumerate() {
        if want != got {
            report += &format!("case {i}: recorded {want:#018X}, got {got:#018X}\n  {case:?}\n");
        }
    }
    if !report.is_empty() {
        let table: String = got.iter().map(|d| format!("    {d:#018X},\n")).collect();
        panic!("digests moved:\n{report}\nthe tree's table:\n{table}");
    }
}

/// One digest per case, recorded from the tree the corpus was
/// written on.
const DIGESTS: [u64; 96] = [
    0xBE10FEA567A73076,
    0x0DEECE990D8AB963,
    0x8B188E73BF346B8A,
    0x6DE50683AA248F78,
    0x58B6F62FA6DF766F,
    0x54C50405401306E7,
    0x174564CBA7851DE5,
    0x4E2119623BEF0D13,
    0x31DBBF4A169CE2AE,
    0x4F1F8466F3C56F0C,
    0x4CCB9A6E395EA388,
    0xF0A64EBCD52FF9DF,
    0x4BF1E68A66484470,
    0x95B9E960B321460B,
    0xBE143379D0208A0A,
    0x224AF54A11DEA953,
    0x6F4983CD5E5FEBF4,
    0x01DC2603911F9958,
    0xCBE1AF974DB08C4E,
    0x459F102724A79D03,
    0x6A37EFDCB52A58CB,
    0x55D0E0F0CD1C8890,
    0x2DC7B379217AF600,
    0x82C6D453188E8A2E,
    0x7F248FB7D7EFAEFA,
    0x7F3D27E871238D6D,
    0xA94C1C3EA62B2A10,
    0x3C5E887CB2BCB941,
    0x4056EB9D0C6FD4B2,
    0xEC6FFCC4F008D5AD,
    0x8F1A447D39F849F1,
    0x2FDEE1C3FC492D17,
    0x9E76BBDE0863E6DB,
    0x306F942BDABA4956,
    0x2C77A7F2DB0A7C60,
    0x784DB5D125CC4BF3,
    0xE95366B32DB10C72,
    0xA0C125F919508EF8,
    0xD9B7B7238A287A25,
    0xA21B63EA00B9571D,
    0xC131F1657F12C359,
    0x92FBFF788B698D0B,
    0x087EC761153E7FFC,
    0xE87C32A8B128A6CB,
    0x6A28EE77CE9FC2EE,
    0x8BCE22D2323E570C,
    0x027318B32131A690,
    0x6E237B0FC7FE2F4E,
    0xF4C17F22FF88EC02,
    0x280B850332ABFA39,
    0xD721397E7A626C2F,
    0x4717ECBF4C76C22C,
    0x5CAFCA827C1B9238,
    0xFBDE2337B80D00B8,
    0x164EA3ED0BE34A9D,
    0xF2E38660A6FCDF6E,
    0x96C8A15616EA6861,
    0xF24AD4ED8642C160,
    0x1494393A3934291D,
    0x640D09D1D35ACE26,
    0xDC5ED7A107C174A6,
    0xEB2603EFE07926D3,
    0x72D4F99ED098EC84,
    0x0B95335401096963,
    0x66095B57B5B0308C,
    0x1B463AB3BA7CB27C,
    0x09C93026B3845AAB,
    0x681D63B759C36EA4,
    0xC18CBD0E80CE062E,
    0x37D604F6CBFFBBA1,
    0x7B0A6E828BB344D8,
    0xFECE2F9E736173AD,
    0x5AF04B280360D5F2,
    0xCA6F6BFC6619352B,
    0x2B82153AF87FB316,
    0x7D15633043F54767,
    0x12466887F0C06243,
    0xDC97AEC30B8A8262,
    0xE94C909EAABA9974,
    0x0EE0FBA3A6153A31,
    0xD17BC28306EB36FD,
    0xD11B77C8C4E8B2AB,
    0x010F7D1ACAECE2DD,
    0xB018E6BB18366BBC,
    0x4AF7C8B24A00797E,
    0x154C5E985D81C7BD,
    0x43320D78F8844BFC,
    0x1A18E62900BB23F5,
    0x435A6A935CBD4CE8,
    0xA17ADAD85D8F520B,
    0x6B0850B4905A8079,
    0x0785499B6CD272BC,
    0x4F1AD87C9FA025EC,
    0x44A1E1450DE70791,
    0xB6B023930D05E6AA,
    0x33005668C6DEDF78,
];
