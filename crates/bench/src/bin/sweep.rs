//! Parallel experiment-matrix sweep runner, and the CI gates on its
//! rows.
//!
//! Enumerates `{loft, gsf, wormhole} × {mesh, torus, line} × traffic
//! × load`, runs warmup once per cell and forks it per horizon
//! doubling (see `noc_sim::checkpoint`), runs whole simulations on
//! `--jobs` lanes, and prints one versioned JSON row per cell to
//! stdout, in matrix order, once every cell has run. Usage:
//!
//! ```text
//! sweep [--jobs N] [--seed N] [--smoke] [--no-fork]
//!       [--selfcheck] [--alloc-budget X] [--min-cps NET=FLOOR[,...]]
//!       [--telemetry PATH | --profile]
//! ```
//!
//! * `--jobs N` — concurrent simulations, each on one thread
//!   (clamped to the machine's cores).
//! * `--seed N` — workload seed.
//! * `--smoke` — the CI matrix: every network on the default mesh at
//!   uniform 0.05 and 0.60 in short windows, plus bursty low-duty
//!   traffic in long ones.
//! * `--no-fork` — re-warm every leg from scratch (the baseline the
//!   forked path is measured against).
//! * `--selfcheck` — run the matrix both forked and re-warmed and
//!   fail unless every row pair is bit-identical but for wall clock,
//!   skipped cycles included.
//! * `--alloc-budget X` — fail if any leg's `allocs_per_cycle` exceeds
//!   `X`: the gate that keeps the steady state allocation-free. Needs
//!   the `alloc-count` feature and `--jobs 1` (the counter is
//!   process-global).
//! * `--min-cps NET=FLOOR[,...]` — fail if any leg of a named network
//!   ran below `FLOOR` simulated cycles per second. Floors for CI sit
//!   far below typical hardware: they catch order-of-magnitude
//!   hot-loop regressions, not percent-level drift.
//! * `--telemetry PATH` — carry a live probe in every warmup
//!   checkpoint, so the legs' `cycles_per_sec` measures the
//!   telemetry-on loop, and write a JSON array with one
//!   `{"row":..,"telemetry":..}` entry per row to `PATH`.
//! * `--profile` — carry the phase profiler instead: every row gains
//!   `phase_ns_per_cycle` and `phase_share`, warmup included.
//!
//! A bad command line exits 2 before any simulation starts; a failed
//! gate or selfcheck exits 1.

use std::str::FromStr;
use std::time::Instant;

use loft_bench::sweep::{
    clamp_jobs, full_matrix, run_sweep, smoke_matrix, Instrument, Net, SweepGroup, SweepOptions,
    SweepRow,
};
use loft_bench::{or_exit, SEED};
use noc_sim::json::{self, Value};

const FLAGS: &str = "--jobs N, --seed N, --smoke, --no-fork, --selfcheck, \
                     --alloc-budget X, --min-cps NET=FLOOR[,NET=FLOOR...], --telemetry PATH, \
                     --profile";

/// The command line, checked.
struct Cli {
    opts: SweepOptions,
    seed: u64,
    smoke: bool,
    selfcheck: bool,
    alloc_budget: Option<f64>,
    floors: Vec<(Net, f64)>,
    telemetry: Option<String>,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, not {value:?}"))
}

/// One `--min-cps` entry, `NET=FLOOR`.
fn floor(entry: &str) -> Result<(Net, f64), String> {
    let (name, cps) = entry.split_once('=').ok_or(format!(
        "--min-cps entries look like NET=FLOOR, not {entry:?}"
    ))?;
    let net = Net::ALL
        .into_iter()
        .find(|n| n.name() == name)
        .ok_or(format!("--min-cps names unknown network {name:?}"))?;
    Ok((net, number("--min-cps", cps)?))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: SweepOptions::default(),
        seed: SEED,
        smoke: false,
        selfcheck: false,
        alloc_budget: None,
        floors: Vec::new(),
        telemetry: None,
    };
    let mut profile = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--jobs" => cli.opts.jobs = number(flag, value()?)?,
            "--seed" => cli.seed = number(flag, value()?)?,
            "--alloc-budget" => cli.alloc_budget = Some(number(flag, value()?)?),
            "--min-cps" => cli.floors = value()?.split(',').map(floor).collect::<Result<_, _>>()?,
            "--telemetry" => cli.telemetry = Some(value()?.clone()),
            "--profile" => profile = true,
            "--smoke" => cli.smoke = true,
            "--no-fork" => cli.opts.fork_warmup = false,
            "--selfcheck" => cli.selfcheck = true,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    cli.opts.instrument = match (&cli.telemetry, profile) {
        (Some(_), true) => return Err("--telemetry and --profile each attach a probe".into()),
        (Some(_), false) => Instrument::Telemetry,
        (None, true) => Instrument::Profile,
        (None, false) => Instrument::Off,
    };
    if cli.alloc_budget.is_some() {
        if !cfg!(feature = "alloc-count") {
            return Err("--alloc-budget needs --features alloc-count".into());
        }
        if cli.opts.jobs > 1 {
            return Err("--alloc-budget needs --jobs 1: the allocation counter is \
                        process-global, so concurrent legs would pollute each other's counts"
                .into());
        }
    }
    Ok(cli)
}

/// Prints one gate's verdict; returns whether it failed.
fn gate(ok: bool, what: &str) -> bool {
    eprintln!("sweep: {} {what}", if ok { "ok:" } else { "FAILED:" });
    !ok
}

/// Re-runs the matrix the other way (forked ↔ re-warmed) and demands
/// bit-identical results for every cell. Returns whether the check
/// failed.
fn selfcheck(rows: &[SweepRow], matrix: Vec<SweepGroup>, opts: &SweepOptions) -> bool {
    let fork_warmup = !opts.fork_warmup;
    let other = run_sweep(
        matrix,
        &SweepOptions {
            fork_warmup,
            ..opts.clone()
        },
    );
    let mut mismatches = 0;
    let mut check = |a: String, b: String| {
        if a != b {
            mismatches += 1;
            eprintln!("sweep: MISMATCH\n  {a}\n  {b}");
        }
    };
    check(rows.len().to_string(), other.len().to_string());
    for (a, b) in rows.iter().zip(&other) {
        check(a.equivalence_key(), b.equivalence_key());
    }
    let what = format!("selfcheck against fork_warmup={fork_warmup}: {mismatches} mismatches");
    gate(mismatches == 0, &what)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = or_exit(parse(&args).map_err(|e| format!("{e} (accepted: {FLAGS})")));
    cli.opts.jobs = clamp_jobs(cli.opts.jobs);
    let jobs = cli.opts.jobs;
    let matrix = if cli.smoke {
        smoke_matrix(cli.seed)
    } else {
        full_matrix(1, cli.seed)
    };
    let fork = cli.opts.fork_warmup;
    eprintln!(
        "sweep: {} groups, jobs={jobs}, forked_warmup={fork}",
        matrix.len()
    );

    let t0 = Instant::now();
    let rows = run_sweep(matrix.clone(), &cli.opts);
    let wall = t0.elapsed().as_secs_f64();
    for row in &rows {
        println!("{}", row.to_json(jobs));
    }
    eprintln!("sweep: {} rows in {wall:.2}s", rows.len());

    if let Some(path) = &cli.telemetry {
        let mut legs = 0;
        let doc = json::array(|out| {
            for row in &rows {
                let Some(telemetry) = &row.telemetry else {
                    continue;
                };
                legs += 1;
                out.object(|leg| {
                    leg.field("row", Value::Raw(&row.to_json(jobs)))
                        .field("telemetry", Value::Raw(telemetry));
                });
            }
        });
        let written = std::fs::write(path, doc);
        or_exit(written.map_err(|e| format!("writing {path}: {e}")));
        eprintln!("sweep: telemetry written: {path} ({legs} legs)");
    }
    let mut failed = false;
    if let Some(budget) = cli.alloc_budget {
        let worst = rows
            .iter()
            .filter_map(|r| r.allocs_per_cycle)
            .fold(0.0, f64::max);
        let what = format!("worst allocs_per_cycle {worst:.4}, budget {budget}");
        failed |= gate(worst <= budget, &what);
    }
    for &(net, floor) in &cli.floors {
        let slowest = rows
            .iter()
            .filter(|r| r.net == net)
            .map(|r| r.cycles_per_sec)
            .fold(f64::INFINITY, f64::min);
        let what = format!(
            "{} ran at {slowest:.0} cycles/s, floor {floor:.0}",
            net.name()
        );
        failed |= gate(slowest >= floor, &what);
    }
    if cli.selfcheck {
        failed |= selfcheck(&rows, matrix, &cli.opts);
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn rejection(line: &str) -> String {
        match parse(&args(line)) {
            Ok(_) => panic!("{line:?} parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn parse_reads_every_flag() {
        let cli = parse(&[]).expect("no flags is a valid command line");
        assert_eq!((cli.opts.jobs, cli.seed), (1, SEED));
        assert!(cli.opts.fork_warmup && !cli.smoke && !cli.selfcheck);
        assert_eq!(cli.opts.instrument, Instrument::Off);

        let line = "--jobs 2 --seed 7 --smoke --no-fork --selfcheck \
                    --min-cps loft=100,gsf=50 --profile";
        let cli = parse(&args(line)).expect("a valid command line");
        assert_eq!((cli.opts.jobs, cli.seed), (2, 7));
        assert!(!cli.opts.fork_warmup && cli.smoke && cli.selfcheck);
        assert_eq!(cli.floors, vec![(Net::Loft, 100.0), (Net::Gsf, 50.0)]);
        assert_eq!(cli.opts.instrument, Instrument::Profile);
        assert!(cli.alloc_budget.is_none() && cli.telemetry.is_none());

        let cli = parse(&args("--telemetry t.json")).expect("a valid command line");
        assert_eq!(cli.telemetry.as_deref(), Some("t.json"));
        assert_eq!(cli.opts.instrument, Instrument::Telemetry);
    }

    /// Each bad command line is refused with its reason, before any
    /// simulation starts; `--threads` is gone with sharded stepping.
    #[test]
    fn parse_rejects_bad_command_lines() {
        assert_eq!(rejection("--threads 2"), "unknown flag \"--threads\"");
        assert_eq!(rejection("--jobs"), "--jobs takes a value");
        assert_eq!(
            rejection("--jobs two"),
            "--jobs takes a number, not \"two\""
        );
        assert!(rejection("--min-cps mesh=1").contains("unknown network"));
        assert!(rejection("--min-cps loft").contains("NET=FLOOR"));
        assert!(rejection("--telemetry t.json --profile").contains("each attach a probe"));
        // Without the feature the budget is refused for that; with it,
        // for the second job.
        assert!(rejection("--alloc-budget 1 --jobs 2").starts_with("--alloc-budget needs"));
    }
}
