//! The three `Network` implementations behind one compile-time
//! interface, so cells, the traced loop and the layer probes are
//! written once and monomorphised per network.

use loft::{LoftConfig, LoftNetwork};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::telemetry::Probe;
use noc_sim::{Network, Topology};
use noc_traffic::Scenario;
use noc_wormhole::{WormholeConfig, WormholeNetwork};

/// Network names in the order reps interleave them.
pub const NETS: [&str; 3] = ["loft", "gsf", "wormhole"];

pub trait NetKind: 'static {
    const NAME: &'static str;
    type Cfg: Copy;
    type Net<P: Probe + Clone>: Network + Clone;

    fn config(topo: Topology, threads: usize) -> Self::Cfg;

    /// `Scenario::reservations` → `Network::with_probe`.
    fn build<P: Probe + Clone>(cfg: Self::Cfg, scenario: &Scenario, probe: P) -> Self::Net<P>;

    fn into_probe<P: Probe + Clone>(net: Self::Net<P>) -> P;

    /// The LOFT configuration, for the `F×WF×hops` delay bound.
    fn loft_config(_cfg: &Self::Cfg) -> Option<&LoftConfig> {
        None
    }
}

pub struct Loft;
pub struct Gsf;
pub struct Wormhole;

impl NetKind for Loft {
    const NAME: &'static str = "loft";
    type Cfg = LoftConfig;
    type Net<P: Probe + Clone> = LoftNetwork<P>;

    fn config(topo: Topology, threads: usize) -> LoftConfig {
        LoftConfig {
            threads,
            ..LoftConfig::on(topo)
        }
    }

    fn build<P: Probe + Clone>(cfg: LoftConfig, scenario: &Scenario, probe: P) -> LoftNetwork<P> {
        let reservations = scenario
            .reservations(cfg.frame_size)
            .expect("benchmark scenarios fit the LOFT frame");
        LoftNetwork::with_probe(cfg, &reservations, probe)
    }

    fn into_probe<P: Probe + Clone>(net: LoftNetwork<P>) -> P {
        net.into_probe()
    }

    fn loft_config(cfg: &LoftConfig) -> Option<&LoftConfig> {
        Some(cfg)
    }
}

impl NetKind for Gsf {
    const NAME: &'static str = "gsf";
    type Cfg = GsfConfig;
    type Net<P: Probe + Clone> = GsfNetwork<P>;

    fn config(topo: Topology, threads: usize) -> GsfConfig {
        GsfConfig {
            threads,
            ..GsfConfig::on(topo)
        }
    }

    fn build<P: Probe + Clone>(cfg: GsfConfig, scenario: &Scenario, probe: P) -> GsfNetwork<P> {
        let reservations = scenario
            .reservations(cfg.frame_size)
            .expect("benchmark scenarios fit the GSF frame");
        GsfNetwork::with_probe(cfg, &reservations, probe)
    }

    fn into_probe<P: Probe + Clone>(net: GsfNetwork<P>) -> P {
        net.into_probe()
    }
}

impl NetKind for Wormhole {
    const NAME: &'static str = "wormhole";
    type Cfg = WormholeConfig;
    type Net<P: Probe + Clone> = WormholeNetwork<P>;

    fn config(topo: Topology, threads: usize) -> WormholeConfig {
        WormholeConfig {
            threads,
            ..WormholeConfig::on(topo)
        }
    }

    fn build<P: Probe + Clone>(
        cfg: WormholeConfig,
        _scenario: &Scenario,
        probe: P,
    ) -> WormholeNetwork<P> {
        WormholeNetwork::with_probe(cfg, probe)
    }

    fn into_probe<P: Probe + Clone>(net: WormholeNetwork<P>) -> P {
        net.into_probe()
    }
}
