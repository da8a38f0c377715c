//! Metric tables, the one-line JSON result, and the A/A table.
//!
//! The tables here are the program's copy of `BENCHMARK.json`; a unit
//! test keeps the two in step.

use crate::panel::Layers;
use crate::stats;

/// An end-to-end metric: gated, with the share of the parent's median
/// by which it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Allowed worsening, as a share of the reference median.
    pub bound: f64,
}

/// The five end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "rss_peak_mb", unit: "MB", bound: 0.15 },
    EndToEnd { name: "latency_p50_us", unit: "us", bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", bound: 0.25 },
    EndToEnd { name: "quality_at_10", unit: "ratio", bound: 0.10 },
];

/// The per-layer metrics of the traced run: `(name, unit)`. A workload
/// that never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("net.wire.encode_request_us", "us"),
    ("net.wire.decode_request_us", "us"),
    ("net.wire.encode_response_us", "us"),
    ("net.wire.decode_response_us", "us"),
    ("net.wire.decode_growth", "ratio"),
    ("net.frame.roundtrip_us", "us"),
    ("net.frame.request_bytes", "bytes"),
    ("net.frame.reply_bytes", "bytes"),
    ("net.server.socket_overhead_us", "us"),
    ("net.client.fresh_conn_us", "us"),
    ("net.server.served", "count"),
    ("net.server.shed", "count"),
    ("net.server.worker_panics", "count"),
    ("service.score_us", "us"),
    ("service.validate_share", "ratio"),
    ("service.batch_exec_us", "us"),
    ("service.topn_overhead_us", "us"),
    ("service.swap_us", "us"),
    ("service.record_seen_us", "us"),
    ("service.catalog_build_s", "s"),
    ("serve.predict_ns", "ns"),
    ("serve.rank.ns_per_candidate", "ns"),
    ("serve.rank.candidates_scanned", "count"),
    ("serve.topn.select_us", "us"),
    ("serve.index.build_s", "s"),
    ("serve.index.clusters", "count"),
    ("serve.index.nprobe", "count"),
    ("serve.index.search_us", "us"),
    ("serve.index.recall_at_10", "ratio"),
    ("serve.index.rss_mb", "MB"),
    ("serve.lowp.f32_topn_us", "us"),
    ("serve.lowp.i8_topn_us", "us"),
    ("serve.lowp.i8_recall_at_10", "ratio"),
    ("serve.freeze_ms", "ms"),
    ("online.feed_us", "us"),
    ("online.freshness_us", "us"),
    ("online.round_ms", "ms"),
    ("online.warm_fit_ms", "ms"),
    ("online.freeze_ms", "ms"),
    ("online.gate_score_ms", "ms"),
    ("online.round_other_ms", "ms"),
    ("online.published", "count"),
    ("online.rejected", "count"),
    ("online.skipped_events", "count"),
    ("online.pending_max", "count"),
    ("train.epoch_s_md", "s"),
    ("train.epoch_s_dnn", "s"),
    ("train.batch_us", "us"),
    ("train.final_loss_md", "loss"),
    ("train.final_loss_dnn", "loss"),
    ("train.hr_at_10_md", "ratio"),
    ("train.hr_at_10_dnn", "ratio"),
    ("eval.topn_cases_per_s", "1/s"),
    ("data.generate_s", "s"),
    ("par.threads", "count"),
    ("par.fanout_ratio_exact", "ratio"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.rss_end_mb", "MB"),
    ("client.raw_p50_us", "us"),
    ("client.raw_phigh_us", "us"),
    ("client.raw_phigh_pct", "%"),
    ("client.samples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.stage_sum_ratio", "ratio"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
];

/// What one run reports.
pub struct RunResult {
    /// Every reply verified and no op failed.
    pub correct: bool,
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops that failed, plus verification mismatches.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Lays `layers` out in [`PER_LAYER`] order, absent metrics as 0.
pub fn layer_metrics(layers: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The contract's result line: one JSON object, values with all their
/// digits (`f64`'s shortest round-trip form).
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}: the harness measured nothing");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Reads a [`result_line`] back: `correct` and each metric's value.
/// Only the emitter's own format is understood.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}") {
        let Some(name_start) = entry.find('"') else { continue };
        let rest = &entry[name_start + 1..];
        let Some(name_end) = rest.find('"') else { continue };
        let Some(value_at) = rest.find("\"value\": ") else { continue };
        let value = rest[value_at + "\"value\": ".len()..].split(',').next()?.trim().parse().ok()?;
        metrics.push((rest[..name_end].to_string(), value));
    }
    Some((correct, metrics))
}

/// One row of the A/A table.
pub struct AaRow {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The metric's value in each set, in run order.
    pub values: Vec<f64>,
    /// The metric's bound.
    pub bound: f64,
}

impl AaRow {
    /// An empty row for `metric` on `workload`.
    pub fn new(workload: &'static str, metric: &EndToEnd) -> Self {
        Self { workload, metric: metric.name, values: Vec::new(), bound: metric.bound }
    }

    /// `(max − min) / median` over the sets.
    pub fn spread(&self) -> f64 {
        stats::spread(&self.values)
    }

    /// Within bound — and, for quality, bit-identical: the sets share a
    /// seed, so they share inputs.
    pub fn ok(&self) -> bool {
        let identical = self.values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        self.spread() <= self.bound && (self.metric != "quality_at_10" || identical)
    }
}

/// Renders the A/A table: per workload × metric, min / median / max /
/// spread / bound / verdict.
pub fn aa_table(rows: &[AaRow]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for row in rows {
        let mut sorted = row.values.clone();
        stats::sort(&mut sorted);
        let (min, max) =
            (sorted.first().copied().unwrap_or(f64::NAN), sorted.last().copied().unwrap_or(f64::NAN));
        out.push_str(&format!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>5.1}%  {}\n",
            row.workload,
            row.metric,
            min,
            stats::median(&row.values),
            max,
            100.0 * row.spread(),
            100.0 * row.bound,
            if row.ok() { "ok" } else { "SPREAD" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let result = RunResult {
            correct: true,
            attempted: 1344,
            failed: 0,
            metrics: vec![("latency_p50_us", 7421.337291, "us"), ("setup_s", 0.5523918, "s")],
        };
        let line = result_line(&result);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1344, \"failed\": 0, \"metrics\": {\"latency_p50_us\": \
             {\"value\": 7421.337291, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.5523918, \"unit\": \"s\"}}}"
        );
        let (correct, metrics) = parse_result_line(&line).expect("own format parses");
        assert!(correct);
        assert_eq!(
            metrics,
            vec![("latency_p50_us".to_string(), 7421.337291), ("setup_s".to_string(), 0.5523918)]
        );
        assert!(parse_result_line("# a header line").is_none());
    }

    #[test]
    fn absent_layers_read_zero_in_table_order() {
        let mut layers = Layers::new();
        layers.insert("par.threads", 1.0);
        let metrics = layer_metrics(&layers);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0], ("net.wire.encode_request_us", 0.0, "us"));
        assert!(metrics.contains(&("par.threads", 1.0, "count")));
    }

    #[test]
    fn aa_rows_judge_spread_and_quality_identity() {
        let row =
            |metric, values: &[f64], bound| AaRow { workload: "w", metric, values: values.to_vec(), bound };
        assert!(row("latency_p50_us", &[100.0, 104.0, 108.0], 0.10).ok());
        assert!(!row("latency_p50_us", &[100.0, 104.0, 120.0], 0.10).ok());
        assert!(row("quality_at_10", &[0.5, 0.5, 0.5], 0.10).ok());
        assert!(!row("quality_at_10", &[0.5, 0.5, 0.5000001], 0.10).ok(), "same seed, same quality");
        let table = aa_table(&[row("latency_p50_us", &[100.0, 104.0, 120.0], 0.10)]);
        assert!(table.contains("SPREAD"), "{table}");
    }

    /// The `"name": …` objects of one top-level array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON.find(&format!("\"{section}\": [")).expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| obj.split('}').next().unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let end_to_end = declared("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (metric, obj) in END_TO_END.iter().zip(&end_to_end) {
            let better =
                if matches!(metric.name, "throughput_ops_s" | "quality_at_10") { "higher" } else { "lower" };
            for field in [
                format!("\"name\": \"{}\"", metric.name),
                format!("\"unit\": \"{}\"", metric.unit),
                format!("\"better\": \"{better}\""),
                format!("\"bound\": {}", metric.bound),
            ] {
                assert!(obj.contains(&field), "BENCHMARK.json end_to_end entry `{obj}` lacks `{field}`");
            }
        }
        let per_layer = declared("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for ((name, unit), obj) in PER_LAYER.iter().zip(&per_layer) {
            assert!(obj.contains(&format!("\"name\": \"{name}\"")), "per_layer entry `{obj}` is not {name}");
            assert!(
                obj.contains(&format!("\"unit\": \"{unit}\"")),
                "per_layer entry `{obj}` lacks unit {unit}"
            );
        }
        let workloads = declared("workloads");
        assert_eq!(workloads.len(), crate::WORKLOADS.len());
        for (spec, obj) in crate::WORKLOADS.iter().zip(&workloads) {
            assert!(obj.contains(&format!("\"name\": \"{}\"", spec.name)), "workload entry `{obj}`");
        }
    }
}
