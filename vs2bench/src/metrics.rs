//! Metric names and units, and the result line the command prints.
//!
//! The two tables below are the benchmark's metric contract: a test
//! checks them against `BENCHMARK.json`.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("doc_p50_us", "us"),
    ("doc_p90_us", "us"),
    ("f1", "%"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. `serve.docs_per_s` is
/// the median over whole `vs2d` passes of the job file; other timings are
/// per document; `_allocs`, `_per_doc` and `in_kb` are means per document;
/// `_count`s are totals over the traced documents.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.docs_per_s", "1/s"),
    ("wire.parse_us.p50", "us"),
    ("wire.parse_us.p95", "us"),
    ("wire.emit_us.p50", "us"),
    ("wire.emit_us.p95", "us"),
    ("wire.in_kb", "KB"),
    ("wire.parse_allocs", "count"),
    ("engine.dwell_us.p50", "us"),
    ("engine.dwell_us.p95", "us"),
    ("cache.model_build_ms", "ms"),
    ("cache.model_misses", "count"),
    ("context.build_us.p50", "us"),
    ("context.build_us.p95", "us"),
    ("context.allocs", "count"),
    ("triage.score_us.p50", "us"),
    ("triage.score_us.p95", "us"),
    ("triage.full_frac", "frac"),
    ("triage.cheap_frac", "frac"),
    ("triage.replay_frac", "frac"),
    ("plan.fingerprint_us.p50", "us"),
    ("plan.fingerprint_us.p95", "us"),
    ("plan.blocks_us.p50", "us"),
    ("plan.blocks_us.p95", "us"),
    ("plan.hit_ratio", "frac"),
    ("plan.insert_count", "count"),
    ("plan.reject_count", "count"),
    ("plan.bypass_count", "count"),
    ("segment.blocks_us.p50", "us"),
    ("segment.blocks_us.p95", "us"),
    ("segment.allocs", "count"),
    ("segment.blocks_per_doc", "count"),
    ("segment.deskew.self_us.p50", "us"),
    ("segment.deskew.self_us.p95", "us"),
    ("segment.area.self_us.p50", "us"),
    ("segment.area.self_us.p95", "us"),
    ("segment.grid.self_us.p50", "us"),
    ("segment.grid.self_us.p95", "us"),
    ("segment.fast.cuts.self_us.p50", "us"),
    ("segment.fast.cuts.self_us.p95", "us"),
    ("segment.cluster.self_us.p50", "us"),
    ("segment.cluster.self_us.p95", "us"),
    ("segment.merge.self_us.p50", "us"),
    ("segment.merge.self_us.p95", "us"),
    ("segment.fast.embed.self_us.p50", "us"),
    ("segment.fast.embed.self_us.p95", "us"),
    ("select.texts_us.p50", "us"),
    ("select.texts_us.p95", "us"),
    ("select.candidates_us.p50", "us"),
    ("select.candidates_us.p95", "us"),
    ("select.allocs", "count"),
    ("select.candidates_per_doc", "count"),
    ("select.index.self_us.p50", "us"),
    ("select.index.self_us.p95", "us"),
    ("select.scan.self_us.p50", "us"),
    ("select.scan.self_us.p95", "us"),
    ("assign.us.p50", "us"),
    ("assign.us.p95", "us"),
    ("tracing.overhead_frac", "frac"),
];

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`: the mean of the two middle values for an even
/// count; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// with every metric of `table`, in table order. A metric of the table
/// missing from `values` is an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(*value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    Ok(serde_json::to_string(&line).expect("result line serialises"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The (name, unit) pairs the command prints for one tier.
    fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        let values: BTreeMap<&str, f64> = table.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 1, 0, table, &values).unwrap();
        let v = serde_json::parse(&line).unwrap();
        match v.get("metrics").unwrap() {
            Value::Object(fields) => fields
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").unwrap().as_str().unwrap().into(),
                    )
                })
                .collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    /// The (name, unit) pairs `BENCHMARK.json` declares for one tier.
    fn declared(tier: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).unwrap();
        let v = serde_json::parse(&raw).unwrap();
        match v.get(tier).unwrap() {
            Value::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect(),
            other => panic!("{tier} is not an array: {other:?}"),
        }
    }

    #[test]
    fn printed_metrics_are_the_declared_metrics() {
        for (tier, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut p = printed(table);
            let mut d = declared(tier);
            p.sort();
            d.sort();
            assert_eq!(p, d, "{tier}");
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "{name} twice");
        }
        assert!(!name_ok("wire parse"));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let values = BTreeMap::new();
        assert!(result_line(true, 1, 0, END_TO_END, &values).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank_and_medians_interpolate() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
