//! Result documents: the stamp every result carries, the metrics of
//! one workload, and their three renderings — a table for people, a
//! self-describing JSON document under `out/`, and the one-line
//! object the benchmark driver reads.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats::Summary;

/// The benchmark package's directory (it is built where it runs).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    Trace,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// Everything two results must share before their numbers may be
/// compared, plus where the numbers came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub mode: Mode,
    pub seconds: f64,
    pub seed: u64,
    pub smoke: bool,
    pub nproc: usize,
    pub profile: String,
    pub git_rev: String,
    pub rustc: String,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl Stamp {
    pub fn new(mode: Mode, seconds: f64, seed: u64, smoke: bool, profile: String) -> Self {
        Stamp {
            mode,
            seconds,
            seed,
            smoke,
            nproc: nproc(),
            profile,
            git_rev: git_rev(),
            rustc: rustc_version(),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Num(f64::from(spec::SCHEMA_VERSION))),
            ("cycle_basis", Value::str(spec::CYCLE_BASIS)),
            ("mode", Value::str(self.mode.name())),
            ("seconds", Value::Num(self.seconds)),
            // A string: a u64 seed need not fit a JSON number.
            ("seed", Value::str(self.seed.to_string())),
            ("smoke", Value::Bool(self.smoke)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("profile", Value::str(&*self.profile)),
            ("features", Value::str(features())),
            ("git_rev", Value::str(&*self.git_rev)),
            ("rustc", Value::str(&*self.rustc)),
        ])
    }
}

/// Stamp fields that must agree for two documents to be comparable
/// (git revision and compiler are what is being compared).
pub const COMPARABLE: [&str; 9] = [
    "schema",
    "cycle_basis",
    "mode",
    "seconds",
    "seed",
    "smoke",
    "nproc",
    "profile",
    "features",
];

pub fn features() -> &'static str {
    if cfg!(feature = "alloc-count") {
        "alloc-count"
    } else {
        ""
    }
}

/// The checked-out commit, read from `.git` directly (no process, no
/// read outside the checkout); `unknown` where there is no repository.
fn git_rev() -> String {
    let git = package_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `[profile.release]` of a manifest as sorted `key = value` lines.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// The release profile both manifests agree on, or why the harness
/// must not run: numbers from a differently built simulator are not
/// the repository's numbers.
pub fn checked_profile() -> Result<String, String> {
    let read = |rel: &str| {
        let path = package_dir().join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let root = release_profile(&read("../Cargo.toml")?);
    let own = release_profile(&read("Cargo.toml")?);
    if root.is_empty() || root != own {
        return Err(format!(
            "[profile.release] differs: root manifest has {root:?}, benchmark/Cargo.toml has {own:?}"
        ));
    }
    Ok(own.join("; "))
}

/// One named measurement of one workload.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    pub exact: bool,
    /// Over timed repetitions, or a single computed value.
    pub summary: Summary,
    /// Printed beside the value (paper figure, "not measured here").
    pub note: Option<String>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        self.summary.median
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("unit".to_string(), Value::str(&*self.unit)),
            ("better".to_string(), Value::str(self.better.name())),
            (
                "bound".to_string(),
                self.bound.map_or(Value::Null, Value::Num),
            ),
            ("exact".to_string(), Value::Bool(self.exact)),
        ];
        if let Value::Obj(summary) = self.summary.to_json() {
            fields.extend(summary);
        }
        if let Some(note) = &self.note {
            fields.push(("note".to_string(), Value::str(&**note)));
        }
        Value::Obj(fields)
    }
}

/// What one workload's `run` or `trace` produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: String,
    pub cells_attempted: usize,
    /// One line per failed check, prefixed with the cell's name.
    pub failures: Vec<String>,
    pub cells_failed: usize,
    pub metrics: Vec<Metric>,
    /// Extra named sections (`trace_overhead`, per-cell shares).
    pub extras: Vec<(String, Value)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.cells_failed == 0 && self.failures.is_empty()
    }

    pub fn to_json(&self, stamp: &Stamp) -> Value {
        let mut fields = vec![
            ("stamp".to_string(), stamp.to_json()),
            ("workload".to_string(), Value::str(&*self.workload)),
            (
                "cells_attempted".to_string(),
                Value::Num(self.cells_attempted as f64),
            ),
            (
                "cells_failed".to_string(),
                Value::Num(self.cells_failed as f64),
            ),
            (
                "failures".to_string(),
                Value::Arr(self.failures.iter().map(|f| Value::str(&**f)).collect()),
            ),
            (
                "metrics".to_string(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ];
        fields.extend(self.extras.iter().cloned());
        Value::Obj(fields)
    }

    /// The object the benchmark driver reads from the last line of
    /// standard output.
    pub fn driver_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.cells_attempted.max(1) as f64)),
            ("failed", Value::Num(self.cells_failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let entry = Value::obj([
                                ("value", Value::Num(m.value())),
                                ("unit", Value::str(&*m.unit)),
                            ]);
                            (m.name.clone(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name and unit, with quartiles and rep count.
    pub fn print_table(&self) {
        println!("\n== {} ==", self.workload);
        println!(
            "{:<42} {:>16} {:<16} {:>14} {:>14} {:>4}  note",
            "metric", "median", "unit", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let s = &m.summary;
            let mut note = m.note.clone().unwrap_or_default();
            if let Some(bound) = m.bound {
                if m.exact {
                    note = format!("exact at a seed; {note}");
                } else if s.spread() > bound {
                    note = format!(
                        "unresolved: IQR {:.1}% > bound {:.0}%; {note}",
                        s.spread() * 100.0,
                        bound * 100.0
                    );
                }
            }
            println!(
                "{:<42} {:>16} {:<16} {:>14} {:>14} {:>4}  {}",
                m.name,
                sig(s.median),
                m.unit,
                sig(s.q1),
                sig(s.q3),
                s.n,
                note.trim_end_matches("; ")
            );
        }
        println!(
            "cells_attempted {}  cells_failed {}",
            self.cells_attempted, self.cells_failed
        );
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }
}

/// Six significant digits, for the table only (documents keep all).
pub fn sig(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.digits$}")
}

pub fn write_doc(name: &str, doc: &Value) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

pub fn read_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "uniform-sat".to_string(),
            cells_attempted: 3,
            failures: vec![],
            cells_failed: 0,
            metrics: vec![Metric {
                name: "sim_cycles_per_s".to_string(),
                unit: "cycles/s".to_string(),
                better: Better::Higher,
                bound: Some(0.08),
                exact: false,
                summary: Summary::of(&[24_000.5, 25_000.25, 26_000.125]),
                note: None,
            }],
            extras: vec![("trace_overhead".to_string(), Value::Num(0.01))],
        }
    }

    #[test]
    fn emitted_json_parses_and_has_the_driver_keys() {
        let r = sample();
        let line = r.driver_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().get("sim_cycles_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(25_000.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("cycles/s"));

        let stamp = Stamp::new(
            Mode::Run,
            10.0,
            7,
            false,
            "debug = true; lto = \"thin\"".into(),
        );
        let doc = json::parse(&r.to_json(&stamp).render()).unwrap();
        assert_eq!(
            doc.get("stamp").unwrap().get("seed").unwrap().as_str(),
            Some("7")
        );
        assert_eq!(doc.get("trace_overhead").unwrap().as_f64(), Some(0.01));
        let m = doc.get("metrics").unwrap().get("sim_cycles_per_s").unwrap();
        assert_eq!(Summary::from_json(m), Some(r.metrics[0].summary));
    }

    #[test]
    fn release_profiles_compare_by_content() {
        let root = "[profile.dev]\nopt-level = 1\n\n[profile.release]\ndebug = true\nlto = \"thin\"\n\n[profile.bench]\ndebug = true\n";
        let own = "[workspace]\n\n# mirrors the root\n[profile.release]\nlto   =  \"thin\"\n# comment\ndebug = true\n";
        assert_eq!(release_profile(root), release_profile(own));
        assert_eq!(release_profile(root).len(), 2);
        assert_ne!(
            release_profile(root),
            release_profile("[profile.release]\ndebug = true\nlto = \"fat\"\n")
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_two_manifests_agree() {
        assert!(checked_profile().is_ok(), "{:?}", checked_profile());
    }

    #[test]
    fn significant_digits() {
        assert_eq!(sig(27012.3456), "27012.3");
        assert_eq!(sig(0.57123456), "0.571235");
        assert_eq!(sig(12_000_000.0), "12000000");
        assert_eq!(sig(0.0), "0");
    }
}
