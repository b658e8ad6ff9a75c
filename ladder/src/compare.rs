//! `ladder-bench compare A B`: the median and quartiles of every
//! (workload, metric) pair in two sets of runs.
//!
//! A set is the concatenated standard output of its runs: each run prints
//! a `{"meta": …}` line naming its workload, then its result line. A pair
//! present in one set and missing from the other is an error, so a
//! renamed or dropped workload or metric can never pass unnoticed.

use spanner_serve::Json;
use std::collections::BTreeMap;

/// `(workload, metric)` → values, one per run.
type Set = BTreeMap<(String, String), Vec<f64>>;

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: ladder-bench compare <set-a> <set-b>");
        return 2;
    };
    let sets = [a, b].map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_set(&text).map_err(|e| format!("{path}: {e}")))
    });
    let [a_set, b_set] = match sets {
        [Ok(a), Ok(b)] => [a, b],
        [Err(e), _] | [_, Err(e)] => {
            eprintln!("ladder-bench compare: {e}");
            return 2;
        }
    };
    let (report, missing) = compare(&a_set, &b_set);
    print!("{report}");
    if missing.is_empty() {
        0
    } else {
        for m in &missing {
            eprintln!("missing: {m}");
        }
        1
    }
}

/// Parses one set of runs.
pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let mut workload: Option<String> = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let value = Json::parse(line).map_err(|e| e.to_string())?;
        if let Some(meta) = value.get("meta") {
            workload = meta
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_string);
            continue;
        }
        let Some(Json::Object(metrics)) = value.get("metrics") else {
            continue;
        };
        let workload = workload
            .take()
            .ok_or("a result line without a preceding meta line")?;
        for (name, metric) in metrics {
            let v = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            set.entry((workload.clone(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    if set.is_empty() {
        return Err("no runs found".to_string());
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |i: usize| {
        let m = (n + 1) as f64;
        let j = (((i as f64 * m) / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = (i as f64 * m) - (j * 4) as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0
    };
    (at(1), at(2), at(3))
}

/// The comparison table and the list of pairs missing from either side.
pub fn compare(a: &Set, b: &Set) -> (String, Vec<String>) {
    let mut out = String::from(
        "workload        metric                     n   A q1 / median / q3 (iqr%)        B q1 / median / q3 (iqr%)        B/A\n",
    );
    let mut missing = Vec::new();
    let keys: std::collections::BTreeSet<&(String, String)> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let side = |set: &Set| {
            set.get(key).map(|v| {
                let (q1, q2, q3) = quartiles(v);
                let iqr = if q2 != 0.0 {
                    100.0 * (q3 - q1) / q2.abs()
                } else {
                    0.0
                };
                (v.len(), q1, q2, q3, iqr)
            })
        };
        match (side(a), side(b)) {
            (Some(x), Some(y)) => out.push_str(&format!(
                "{workload:<15} {metric:<26} {:>2}/{:<2} {:>9.4} / {:>9.4} / {:>9.4} ({:>4.1}%)   {:>9.4} / {:>9.4} / {:>9.4} ({:>4.1}%)   {:.3}\n",
                x.0, y.0, x.1, x.2, x.3, x.4, y.1, y.2, y.3, y.4,
                if x.2 != 0.0 { y.2 / x.2 } else { f64::NAN }
            )),
            (x, _) => missing.push(format!(
                "{workload} {metric} (only in set {})",
                if x.is_some() { "A" } else { "B" }
            )),
        }
    }
    (out, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = r#"{"meta":{"workload":"w1"}}
{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":2,"unit":"s"}}}
"#;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
    }

    #[test]
    fn a_pair_missing_from_either_set_fails() {
        let a = parse_set(RUN).unwrap();
        let b = parse_set(&RUN.replace("w1", "w2")).unwrap();
        let (_, missing) = compare(&a, &a);
        assert!(missing.is_empty());
        let (_, missing) = compare(&a, &b);
        assert_eq!(missing.len(), 2, "{missing:?}");
        let c = parse_set(&RUN.replace("\"m\"", "\"m2\"")).unwrap();
        assert_eq!(compare(&a, &c).1.len(), 2);
    }
}
