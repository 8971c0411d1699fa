//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! loft-benchmark run     [--workload W] [--seed S] [--seconds X] [--smoke]
//! loft-benchmark trace   [--workload W] [--seed S] [--seconds X] [--smoke]
//! loft-benchmark compare A.json B.json
//! loft-benchmark --workload W --seed S --seconds X --trace 0|1   (driver form)
//! ```

mod cells;
mod compare;
mod json;
mod layers;
mod net;
mod probes;
mod result;
mod run;
mod spec;
mod stats;
mod sweeps;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use json::Value;
use result::{checked_profile, read_doc, write_doc, Mode, Stamp, WorkloadResult};
use run::Budget;

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut mode: Mode, args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode,
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} takes a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
                out.workload = Some(value.to_string());
            }
            "--seed" => out.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                mode = match value {
                    "0" => Mode::Run,
                    "1" => Mode::Trace,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    out.mode = mode;
    Ok(out)
}

/// The allocation-counting allocator belongs to the traced build and
/// to no other: it must not sit under the end-to-end numbers, and the
/// per-layer allocation counts cannot be had without it.
fn check_build(mode: Mode) -> Result<(), String> {
    match (mode, cfg!(feature = "alloc-count")) {
        (Mode::Run, true) => {
            Err("end-to-end runs must be built without `--features alloc-count`".to_string())
        }
        (Mode::Trace, false) => Err(
            "traced runs need the counting allocator: build with `--features alloc-count` \
             (benchmark/run.sh picks the build from --trace)"
                .to_string(),
        ),
        _ => Ok(()),
    }
}

fn one_workload(workload: &str, args: &Args, stamp: &Stamp) -> Result<WorkloadResult, String> {
    let budget = Budget::new(args.seconds, args.smoke);
    let result = match (args.mode, workload) {
        (Mode::Run, "sweep-matrix") => sweeps::run(args.seed, &budget),
        (Mode::Run, _) => run::run_cells(workload, args.seed, &budget),
        (Mode::Trace, _) => {
            // A traced run splits its time between the plain and the
            // traced repetitions.
            let budget = Budget {
                seconds: budget.seconds / 3.0,
                ..budget
            };
            let (mut result, spans) = match workload {
                "sweep-matrix" => sweeps::trace(args.seed, &budget),
                _ => layers::trace_cells(workload, args.seed, &budget),
            };
            // Kept in memory until here; written with the result.
            result.extras.push(("spans".to_string(), spans.to_json()));
            result
        }
    };
    result.print_table();
    let why = spec::workload(workload).map_or("", |w| w.why);
    println!("why this workload: {why}");
    // Scalars here; the tables (`stage_shares`, `rows`) are in the document.
    for (name, value) in &result.extras {
        if !matches!(value, Value::Arr(_)) {
            println!("{name} {}", value.render());
        }
    }
    if let Some(shares) = result
        .extras
        .iter()
        .find(|(name, _)| name == "stage_shares")
        .and_then(|(_, v)| v.as_array())
    {
        print_shares(shares);
    }
    let path = write_doc(
        &format!("{}-{workload}.json", args.mode.name()),
        &result.to_json(stamp),
    )?;
    println!("result: {}", path.display());
    Ok(result)
}

/// Stage shares per cell from the last traced pass; they sum to 100%.
fn print_shares(shares: &[Value]) {
    const COLUMNS: [&str; 6] = ["generate", "collect", "enqueue", "step", "ff", "other"];
    println!(
        "\n{:<34} {:>10} {}  {:>7}",
        "cell (traced loop, from cycle 0)",
        "total ms",
        COLUMNS.map(|c| format!("{c:>9}")).join(""),
        "sum"
    );
    for row in shares {
        let num = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let sum: f64 = COLUMNS.iter().map(|c| num(c)).sum();
        println!(
            "{:<34} {:>10.1} {}  {:>6.1}%",
            row.get("cell").and_then(Value::as_str).unwrap_or("?"),
            num("total_ms"),
            COLUMNS
                .map(|c| format!("{:>8.2}%", num(c) * 100.0))
                .join(""),
            sum * 100.0
        );
    }
}

/// Every workload, one child process each, so `VmHWM` is the
/// workload's own; the children's documents are joined into one.
fn all_workloads(args: &Args, stamp: &Stamp) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut docs = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for w in &spec::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .arg(args.mode.name())
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        let path = result::out_dir().join(format!("{}-{}.json", args.mode.name(), w.name));
        if !status.success() && !path.exists() {
            return Err(format!("the {} child failed: {status}", w.name));
        }
        let doc = read_doc(&path)?;
        let num = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        attempted += num("cells_attempted");
        failed += num("cells_failed");
        correct &= status.success();
        docs.push(doc);
    }
    let combined = Value::obj([("stamp", stamp.to_json()), ("workloads", Value::Arr(docs))]);
    let path = write_doc(&format!("{}.json", args.mode.name()), &combined)?;
    println!("\nall workloads: {}", path.display());
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("metrics", Value::obj::<String>([])),
        ])
        .render()
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &argv[1..] else {
                return Err("usage: compare A.json B.json".to_string());
            };
            return compare::compare(Path::new(a), Path::new(b)).map(|any_worse| !any_worse);
        }
        Some("run") => (Mode::Run, &argv[1..]),
        Some("trace") => (Mode::Trace, &argv[1..]),
        _ => (Mode::Run, &argv[..]),
    };
    let args = parse_args(mode, rest)?;
    check_build(args.mode)?;
    let profile = checked_profile()?;
    let stamp = Stamp::new(args.mode, args.seconds, args.seed, args.smoke, profile);
    match &args.workload {
        None => all_workloads(&args, &stamp),
        Some(workload) => {
            let result = one_workload(workload, &args, &stamp)?;
            // The driver reads the last line of standard output.
            println!("{}", result.driver_line());
            Ok(result.correct())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("loft-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
