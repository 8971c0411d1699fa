//! `compare A.json B.json`: one verdict per (metric, workload), B
//! against A, from the medians, quartiles and bounds in the documents.

use std::path::Path;

use crate::json::Value;
use crate::result::{read_doc, sig, COMPARABLE};
use crate::spec::Better;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread exceeds the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
    /// A timed metric with no bound (per-layer): the change is shown,
    /// not judged.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much better B's median is than A's, as a share of A's
/// (negative: worse).
pub fn gain(a: &Summary, b: &Summary, better: Better) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (b.median - a.median) / a.median.abs(),
        Better::Lower => (a.median - b.median) / a.median.abs(),
    }
}

pub fn verdict(
    a: &Summary,
    b: &Summary,
    better: Better,
    bound: Option<f64>,
    exact: bool,
) -> Verdict {
    let gain = gain(a, b, better);
    if exact {
        return match gain {
            _ if a.median == b.median => Verdict::Unchanged,
            g if g > 0.0 => Verdict::Better,
            _ => Verdict::Worse,
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if a.spread() > bound || b.spread() > bound {
        // Every repetition of one side beyond every repetition of the
        // other still decides it.
        let (b_all_higher, b_all_lower) = (b.min > a.max, b.max < a.min);
        return match better {
            Better::Higher if b_all_higher => Verdict::Better,
            Better::Higher if b_all_lower => Verdict::Worse,
            Better::Lower if b_all_lower => Verdict::Better,
            Better::Lower if b_all_higher => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    match gain {
        g if g < -bound => Verdict::Worse,
        g if g > bound => Verdict::Better,
        _ => Verdict::Unchanged,
    }
}

/// The workload documents of a file: a single-workload result, or the
/// combined document `run`/`trace` write without `--workload`.
fn workloads(doc: &Value) -> Vec<&Value> {
    match doc.get("workloads").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

fn stamp_mismatch(a: &Value, b: &Value) -> Option<String> {
    let (sa, sb) = (a.get("stamp")?, b.get("stamp")?);
    COMPARABLE.iter().find_map(|&field| {
        let (va, vb) = (sa.get(field), sb.get(field));
        (va != vb).then(|| {
            format!(
                "stamp field `{field}` differs: {} vs {}",
                va.map_or("absent".into(), Value::render),
                vb.map_or("absent".into(), Value::render)
            )
        })
    })
}

/// Prints the verdict table; `Ok(true)` if any metric is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (read_doc(a_path)?, read_doc(b_path)?);
    let mut any_worse = false;
    let mut compared = 0;
    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "gain"
    );
    for a in workloads(&a_doc) {
        let name = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(b) = workloads(&b_doc)
            .into_iter()
            .find(|b| b.get("workload").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        if a.get("stamp").is_none() || b.get("stamp").is_none() {
            return Err(format!(
                "{name}: a result without a stamp cannot be compared"
            ));
        }
        if let Some(why) = stamp_mismatch(a, b) {
            return Err(format!("{name}: refusing to compare, {why}"));
        }
        fn metrics(doc: &Value) -> Option<&[(String, Value)]> {
            doc.get("metrics").and_then(Value::as_object)
        }
        let (Some(ma), Some(mb)) = (metrics(a), metrics(b)) else {
            return Err(format!("{name}: no metrics object"));
        };
        for (metric, va) in ma {
            let Some((_, vb)) = mb.iter().find(|(k, _)| k == metric) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::from_json(va), Summary::from_json(vb)) else {
                return Err(format!("{name}/{metric}: malformed summary"));
            };
            let better = va
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}/{metric}: no direction"))?;
            let bound = va.get("bound").and_then(Value::as_f64);
            let exact = va.get("exact").and_then(Value::as_bool).unwrap_or(false);
            let v = verdict(&sa, &sb, better, bound, exact);
            any_worse |= v == Verdict::Worse;
            compared += 1;
            println!(
                "{:<14} {:<42} {:>14} {:>14} {:>+8.2}%  {}",
                name,
                metric,
                sig(sa.median),
                sig(sb.median),
                gain(&sa, &sb, better) * 100.0,
                v.name()
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Repetitions around `centre` with a relative IQR near `spread`.
    fn reps(centre: f64, spread: f64) -> Summary {
        let v: Vec<f64> = (-3..=3)
            .map(|k| centre * (1.0 + f64::from(k) * spread / 4.0))
            .collect();
        Summary::of(&v)
    }

    #[test]
    fn verdict_rule() {
        let base = reps(25_000.0, 0.02);
        let v = |b: &Summary| verdict(&base, b, Better::Higher, Some(0.08), false);
        assert_eq!(
            v(&reps(25_000.0 * 0.85, 0.02)),
            Verdict::Worse,
            "15% slower"
        );
        assert_eq!(v(&reps(25_000.0, 0.02)), Verdict::Unchanged, "0%");
        assert_eq!(
            v(&reps(25_000.0 * 0.95, 0.02)),
            Verdict::Unchanged,
            "within the bound"
        );
        assert_eq!(v(&reps(25_000.0 * 1.15, 0.02)), Verdict::Better);
        assert_eq!(
            v(&reps(25_000.0 * 0.97, 0.20)),
            Verdict::Unresolved,
            "IQR > bound"
        );
        assert_eq!(
            verdict(
                &reps(25_000.0, 0.20),
                &reps(25_000.0, 0.02),
                Better::Higher,
                Some(0.08),
                false
            ),
            Verdict::Unresolved,
            "either side's spread counts"
        );
        // Noisy, but every rep of B beyond every rep of A.
        assert_eq!(v(&reps(50_000.0, 0.20)), Verdict::Better);
        assert_eq!(v(&reps(10_000.0, 0.20)), Verdict::Worse);
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let base = reps(2.0, 0.02);
        let v = |b: &Summary| verdict(&base, b, Better::Lower, Some(0.10), false);
        assert_eq!(v(&reps(2.3, 0.02)), Verdict::Worse);
        assert_eq!(v(&reps(1.7, 0.02)), Verdict::Better);
        assert_eq!(v(&reps(2.1, 0.02)), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let a = Summary::exact(0.2672);
        assert_eq!(
            verdict(&a, &a, Better::Higher, Some(0.05), true),
            Verdict::Unchanged
        );
        let b = Summary::exact(0.2673);
        assert_eq!(
            verdict(&a, &b, Better::Higher, Some(0.05), true),
            Verdict::Better
        );
        assert_eq!(verdict(&a, &b, Better::Lower, None, true), Verdict::Worse);
        assert_eq!(verdict(&a, &b, Better::Lower, None, false), Verdict::Info);
    }

    #[test]
    fn stamps_must_agree_on_the_comparable_fields() {
        use crate::result::{Mode, Stamp};
        let stamp = |seed| {
            Value::obj([(
                "stamp",
                Stamp::new(Mode::Run, 10.0, seed, false, "p".into()).to_json(),
            )])
        };
        assert_eq!(stamp_mismatch(&stamp(1), &stamp(1)), None);
        let why = stamp_mismatch(&stamp(1), &stamp(2)).unwrap();
        assert!(why.contains("`seed`"), "{why}");
    }
}
