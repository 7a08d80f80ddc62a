//! Metric names and units, the statistics behind them, and the result
//! line.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | layer metric | should move |
//! |---|---|
//! | `frontend.ms` | `op_ms_p50` on serve; `setup_s` elsewhere |
//! | `codegen.ms`, `codegen.comm_calls` | `op_ms_p50` on serve; `virt_s` on all |
//! | `optimize.ms`, `optimize.comm_calls_removed` | `virt_s` on stencil, scale |
//! | `vmlower.ms`, `native.selected` | `op_ms_p50` on serve |
//! | `vm_cache.hit_ratio` | `op_ms_p50` on serve |
//! | `machine.new_ms`, `mpool.reuse_ratio` | `setup_s`, `peak_rss_mb` on scale; `op_ms_p90` on serve |
//! | `engine.ms`, `native.match_ratio`, `native.saved_ms` | `ops_per_s` on stencil; no move on irregular |
//! | `comm.*`, `sched_cache.hit_ratio`, `sched_cache.saved_ms` | `ops_per_s` on irregular; `virt_s` on all |
//! | `net.contention_ms`, `net.links_used` | `ops_per_s` on scale |
//! | `virt.compute_s`, `virt.comm_s`, `virt.contention_s`, `virt.imbalance` | `virt_s` |
//! | `serve.*` | `op_ms_p90`, `ops_per_s` on serve |

use std::collections::BTreeMap;

use serde::json::Json;

/// End-to-end metrics (`--trace 0`), with units. `setup_s`, `ops_per_s`
/// and the latency quantiles are reported at the reference host speed
/// (see `host`); `virt_s` is modelled time, which no host affects.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("virt_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("frontend.ms", "ms"),
    ("codegen.ms", "ms"),
    ("codegen.comm_calls", "count"),
    ("optimize.ms", "ms"),
    ("optimize.comm_calls_removed", "count"),
    ("vmlower.ms", "ms"),
    ("native.selected", "count"),
    ("vm_cache.hit_ratio", "ratio"),
    ("machine.new_ms", "ms"),
    ("mpool.reuse_ratio", "ratio"),
    ("engine.ms", "ms"),
    ("native.match_ratio", "ratio"),
    ("native.saved_ms", "ms"),
    ("comm.messages", "count"),
    ("comm.bytes", "bytes"),
    ("comm.collectives", "count"),
    ("comm.groups", "count"),
    ("comm.fallbacks", "count"),
    ("sched_cache.hit_ratio", "ratio"),
    ("sched_cache.saved_ms", "ms"),
    ("net.contention_ms", "ms"),
    ("net.links_used", "count"),
    ("virt.compute_s", "s"),
    ("virt.comm_s", "s"),
    ("virt.contention_s", "s"),
    ("virt.imbalance", "ratio"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.lease_wait_ms", "ms"),
    ("serve.compile_hit_ratio", "ratio"),
    ("serve.join_ratio", "ratio"),
    ("reference.ms", "ms"),
    ("check.ms", "ms"),
    ("op.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("fail_frac", "ratio"),
    ("virt.record_diffs", "count"),
    ("host.kernel_ms", "ms"),
];

/// A metric name is at most 64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Value at quantile `q` (nearest rank) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-memory high-water mark in MB (`VmHWM`).
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

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `names` with its unit. Panics when a value is missing or extra — the
/// set printed must be exactly the set `BENCHMARK.json` lists.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    assert_eq!(
        values.len(),
        names.len(),
        "metric set differs from the declared one: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_valid_and_listed_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, key), ours, "{key}");
            for (name, _) in &ours {
                assert!(valid_name(name), "{name}");
            }
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((median(&s), quantile(&s, 0.9)), (50.0, 90.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_carries_every_metric() {
        let values = BTreeMap::from([("a", 1.5), ("b", 2.0)]);
        let line = result_line(3, 0, &[("a", "ms"), ("b", "s")], &values);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("a"))
                .and_then(|a| a.get("value")),
            Some(&Json::Num(1.5))
        );
    }
}
