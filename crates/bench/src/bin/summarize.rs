//! Bench-results summarizer: `bench_results/*.jsonl` → `BENCH_*.json`.
//!
//! The JSON-lines sinks append one record per configuration per run, so
//! a long-lived checkout accumulates a full perf history — good for
//! trajectories, bad for machines that just want "the current numbers".
//! This binary folds each append-only log into one deterministic JSON
//! document: the **latest** record per `(bench, param)` pair, plus the
//! derived headline ratios the CI gate asserts (cache speedup, thread
//! scaling, bundle load-vs-save). Hand-rolled parsing against the
//! harness's known flat-object shape — the workspace's dependency budget
//! has no serde, and the two writers
//! ([`ktg_bench::harness::Summary::to_json_line`] and `bb_scaling`'s
//! richer record) share it.
//!
//! Usage: `summarize [OUT_DIR]` — reads every known group log under
//! `$KTG_BENCH_OUT` (default `bench_results/`): `qps.jsonl`,
//! `bb_scaling.jsonl`, `net_qps.jsonl`, `scale.jsonl`; writes
//! `OUT_DIR/BENCH_<group>.json` for each log found (default `OUT_DIR` is
//! the current directory). Missing individual logs are skipped; exits
//! non-zero when **no** log yields records, so CI cannot mistake a no-op
//! for a summary.

use std::path::PathBuf;

/// The groups the summarizer folds, in output order.
const GROUPS: [&str; 4] = ["qps", "bb_scaling", "net_qps", "scale"];

/// One parsed record: the fields the summary re-emits. `items` and
/// `ops_per_sec` are zero for writers that do not measure throughput
/// (`bb_scaling` records raw stats instead).
#[derive(Clone, Debug, PartialEq)]
struct Record {
    bench: String,
    param: String,
    items: u64,
    ops_per_sec: f64,
    min_ns: u64,
}

/// Extracts `"key":"value"` (string form) from a flat JSON-object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    line[start..].find('"').map(|end| line[start..start + end].to_string())
}

/// Extracts `"key":number` from a flat JSON-object line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_record(line: &str) -> Option<Record> {
    Some(Record {
        bench: str_field(line, "bench")?,
        param: str_field(line, "param")?,
        items: num_field(line, "items").unwrap_or(0.0) as u64,
        ops_per_sec: num_field(line, "ops_per_sec").unwrap_or(0.0),
        min_ns: num_field(line, "min_ns")? as u64,
    })
}

/// Latest record per `(bench, param)`, in first-seen order (so the
/// output ordering is stable across runs of the same sweep).
fn latest_per_config(lines: &str) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    for record in lines.lines().filter_map(parse_record) {
        match out.iter_mut().find(|r| r.bench == record.bench && r.param == record.param) {
            Some(slot) => *slot = record,
            None => out.push(record),
        }
    }
    out
}

/// Locates a series point; `param == "*"` matches the first record of
/// that bench regardless of parameter.
fn find<'r>(records: &'r [Record], bench: &str, param: &str) -> Option<&'r Record> {
    records.iter().find(|r| r.bench == bench && (param == "*" || r.param == param))
}

/// Ratio of two series' throughput at the same parameter, if both exist.
fn ops_ratio(records: &[Record], num: (&str, &str), den: (&str, &str)) -> Option<f64> {
    match (find(records, num.0, num.1), find(records, den.0, den.1)) {
        (Some(n), Some(d)) if d.ops_per_sec > 0.0 => Some(n.ops_per_sec / d.ops_per_sec),
        _ => None,
    }
}

/// Ratio of two series' fastest samples (`num.min_ns / den.min_ns`):
/// used where the writer records times, not throughput. Values > 1 mean
/// the numerator is *slower* — name the derived entry accordingly.
fn time_ratio(records: &[Record], num: (&str, &str), den: (&str, &str)) -> Option<f64> {
    match (find(records, num.0, num.1), find(records, den.0, den.1)) {
        (Some(n), Some(d)) if d.min_ns > 0 => Some(n.min_ns as f64 / d.min_ns as f64),
        _ => None,
    }
}

/// The derived headline ratios per group.
fn derived(group: &str, records: &[Record]) -> Vec<(&'static str, Option<f64>)> {
    match group {
        "qps" => vec![
            ("cache_speedup_1t", ops_ratio(records, ("cache_on", "1"), ("cache_off", "1"))),
            ("thread_speedup_off_4t", ops_ratio(records, ("cache_off", "4"), ("cache_off", "1"))),
        ],
        "bb_scaling" => vec![
            ("bitmap_speedup_4t", time_ratio(records, ("bitmap", "1"), ("bitmap", "4"))),
            ("oracle_over_bitmap_1t", time_ratio(records, ("oracle", "1"), ("bitmap", "1"))),
        ],
        "net_qps" => vec![
            (
                "net_cache_speedup_1c",
                ops_ratio(records, ("closed_cache_on", "1"), ("closed_cache_off", "1")),
            ),
            // Completed rate at 150% vs 75% offered load from the paced
            // open-arrival sweep: ≈2.0 means throughput still tracks the
            // offered rate at 150% of closed-loop capacity (no saturation
            // knee below that), ≈1.0 means it flattened by 75%.
            (
                "net_open_knee_ratio",
                ops_ratio(records, ("open_sweep", "150"), ("open_sweep", "75")),
            ),
        ],
        "scale" => vec![
            (
                "build_speedup_4t",
                time_ratio(records, ("nlrnl_build_threads", "1"), ("nlrnl_build_threads", "4")),
            ),
            ("load_over_save", time_ratio(records, ("bundle_load", "*"), ("bundle_save", "*"))),
        ],
        _ => Vec::new(),
    }
}

fn render(group: &str, records: &[Record]) -> String {
    let mut body = format!("{{\"group\":\"{group}\",\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"bench\":\"{}\",\"param\":\"{}\",\"items\":{},\
             \"ops_per_sec\":{:.3},\"min_ns\":{}}}",
            r.bench, r.param, r.items, r.ops_per_sec, r.min_ns
        ));
    }
    body.push_str("],\"derived\":{");
    let mut first = true;
    for (name, value) in derived(group, records) {
        if let Some(v) = value {
            if !first {
                body.push(',');
            }
            first = false;
            body.push_str(&format!("\"{name}\":{v:.3}"));
        }
    }
    body.push_str("}}");
    body
}

fn main() {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let dir = PathBuf::from(std::env::var("KTG_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()));
    let mut written = 0usize;
    for group in GROUPS {
        let log = dir.join(format!("{group}.jsonl"));
        let text = match std::fs::read_to_string(&log) {
            Ok(text) => text,
            Err(_) => continue, // absent logs are not an error per-group
        };
        let records = latest_per_config(&text);
        if records.is_empty() {
            eprintln!("summarize: {} holds no parseable records, skipping", log.display());
            continue;
        }
        let json = render(group, &records);
        let out_path = out_dir.join(format!("BENCH_{group}.json"));
        if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
            eprintln!("summarize: cannot write {}: {e}", out_path.display());
            std::process::exit(1);
        }
        eprintln!(
            "summarize: {} configs from {} -> {}",
            records.len(),
            log.display(),
            out_path.display()
        );
        written += 1;
    }
    if written == 0 {
        eprintln!("summarize: no bench logs under {} yielded records", dir.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"group\":\"qps\",\"bench\":\"cache_on\",\"param\":\"1\",\
        \"samples\":3,\"items\":240,\"ops_per_sec\":1234.567,\
        \"min_ns\":194400000,\"mean_ns\":2,\"median_ns\":2,\"p95_ns\":2,\"max_ns\":2}";

    // The bb_scaling writer's richer shape: no items / ops_per_sec.
    const BB_LINE: &str = "{\"group\":\"bb_scaling\",\"bench\":\"bitmap\",\"param\":\"1\",\
        \"samples\":5,\"queries\":5,\"solved\":5,\"mean_ns\":100,\"min_ns\":80,\"nodes\":7,\
        \"distance_checks\":3,\"kline_filtered\":0,\"keyword_pruned\":0,\
        \"groups_evaluated\":2,\"truncated\":0}";

    #[test]
    fn parses_the_harness_line_shape() {
        let r = parse_record(LINE).expect("parseable");
        assert_eq!(r.bench, "cache_on");
        assert_eq!(r.param, "1");
        assert_eq!(r.items, 240);
        assert_eq!(r.min_ns, 194_400_000);
        assert!((r.ops_per_sec - 1234.567).abs() < 1e-9);
        assert_eq!(parse_record("not json"), None);
    }

    #[test]
    fn parses_the_bb_scaling_shape_without_throughput_fields() {
        let r = parse_record(BB_LINE).expect("parseable");
        assert_eq!(r.bench, "bitmap");
        assert_eq!(r.min_ns, 80);
        assert_eq!(r.items, 0);
        assert_eq!(r.ops_per_sec, 0.0);
    }

    #[test]
    fn later_records_replace_earlier_ones() {
        let log = format!("{LINE}\n{}\n", LINE.replace("1234.567", "999.0"));
        let latest = latest_per_config(&log);
        assert_eq!(latest.len(), 1);
        assert!((latest[0].ops_per_sec - 999.0).abs() < 1e-9);
    }

    fn mk(bench: &str, param: &str, ops: f64, min_ns: u64) -> Record {
        Record { bench: bench.into(), param: param.into(), items: 10, ops_per_sec: ops, min_ns }
    }

    #[test]
    fn qps_derived_ratios_and_rendering() {
        let records = vec![
            mk("cache_on", "1", 200.0, 1000),
            mk("cache_off", "1", 100.0, 2000),
            mk("cache_off", "4", 300.0, 700),
        ];
        let json = render("qps", &records);
        assert!(json.contains("\"cache_speedup_1t\":2.000"), "{json}");
        assert!(json.contains("\"thread_speedup_off_4t\":3.000"), "{json}");
        assert!(json.starts_with("{\"group\":\"qps\""));
        // Missing series: the derived entry is simply omitted.
        let partial = render("qps", &records[..2]);
        assert!(partial.contains("cache_speedup_1t"));
        assert!(!partial.contains("thread_speedup_off_4t"));
    }

    #[test]
    fn scale_derived_ratios_use_time_and_wildcard_params() {
        let records = vec![
            mk("nlrnl_build_threads", "1", 0.0, 4000),
            mk("nlrnl_build_threads", "4", 0.0, 2000),
            mk("bundle_save", "48000", 0.0, 500),
            mk("bundle_load", "48000", 0.0, 250),
        ];
        let json = render("scale", &records);
        assert!(json.contains("\"build_speedup_4t\":2.000"), "{json}");
        assert!(json.contains("\"load_over_save\":0.500"), "{json}");
    }

    #[test]
    fn net_qps_knee_ratio_compares_sweep_points() {
        let records = vec![
            mk("closed_cache_on", "1", 400.0, 1000),
            mk("closed_cache_off", "1", 100.0, 4000),
            mk("open_sweep", "75", 300.0, 2000),
            mk("open_sweep", "150", 600.0, 2000),
        ];
        let json = render("net_qps", &records);
        assert!(json.contains("\"net_cache_speedup_1c\":4.000"), "{json}");
        assert!(json.contains("\"net_open_knee_ratio\":2.000"), "{json}");
        // Without the sweep, the knee entry is omitted, not zeroed.
        let partial = render("net_qps", &records[..2]);
        assert!(!partial.contains("net_open_knee_ratio"), "{partial}");
    }

    #[test]
    fn bb_scaling_derived_ratios_come_from_min_times() {
        let records = vec![
            mk("bitmap", "1", 0.0, 4000),
            mk("bitmap", "4", 0.0, 1000),
            mk("oracle", "1", 0.0, 8000),
        ];
        let json = render("bb_scaling", &records);
        assert!(json.contains("\"bitmap_speedup_4t\":4.000"), "{json}");
        assert!(json.contains("\"oracle_over_bitmap_1t\":2.000"), "{json}");
    }
}
