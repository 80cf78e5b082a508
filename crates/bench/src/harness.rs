//! Minimal timing harness — the workspace's offline `criterion`
//! replacement.
//!
//! Each bench is a plain `fn main()` binary (`harness = false`, or a
//! `[[bin]]`) driving a [`BenchGroup`]: warm up for a fixed wall-time, take `N`
//! timed samples of the closure, and report min / mean / median / p95.
//! Every measurement is emitted as one JSON line on stdout and appended
//! to `bench_results/<group>.jsonl`, so figure postprocessing needs no
//! bench-framework parser.
//!
//! Modes, mirroring how cargo drives `harness = false` targets:
//!
//! * `cargo bench` passes `--bench` — full warmup + sampling.
//! * `cargo test` passes `--test` — each closure runs **once**, no
//!   warmup, nothing written to disk: benches double as end-to-end smoke
//!   tests without slowing the suite down.
//! * `KTG_BENCH_FAST=1` forces the quick mode regardless of arguments.

use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark's aggregated timing statistics.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Group name (e.g. `ablation_oracles`).
    pub group: String,
    /// Series name (e.g. the algorithm).
    pub bench: String,
    /// Swept parameter value, stringified.
    pub param: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (p50).
    pub median: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl Summary {
    /// The measurement as one JSON object on a single line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"param\":\"{}\",\"samples\":{},\
             \"min_ns\":{},\"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
            escape(&self.group),
            escape(&self.bench),
            escape(&self.param),
            self.samples,
            self.min.as_nanos(),
            self.mean.as_nanos(),
            self.median.as_nanos(),
            self.p95.as_nanos(),
            self.max.as_nanos(),
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A named group of benchmarks sharing warmup/sample configuration.
pub struct BenchGroup {
    group: String,
    warmup: Duration,
    samples: usize,
    quick: bool,
    write_quick: bool,
    out_dir: Option<PathBuf>,
}

impl BenchGroup {
    /// Creates a group with the defaults (300 ms warmup, 10 samples,
    /// results under `bench_results/`), honoring cargo's `--test` flag
    /// and `KTG_BENCH_FAST` for the quick single-run mode.
    pub fn new(group: impl Into<String>) -> Self {
        let quick = std::env::args().any(|a| a == "--test")
            || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
        BenchGroup {
            group: group.into(),
            warmup: Duration::from_millis(300),
            samples: 10,
            quick,
            write_quick: false,
            out_dir: Some(PathBuf::from(
                std::env::var("KTG_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()),
            )),
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Sets the wall-time spent warming up before sampling.
    pub fn warm_up_time(&mut self, warmup: Duration) -> &mut Self {
        self.warmup = warmup;
        self
    }

    /// Disables the JSON-lines file sink (stdout only).
    pub fn no_output_file(&mut self) -> &mut Self {
        self.out_dir = None;
        self
    }

    /// Keeps the JSON-lines file sink active even in quick mode.
    ///
    /// Benches whose smoke run must leave records behind (the CI `scale`
    /// smoke counts them) opt in; the ablation benches keep the default
    /// of writing only full runs so one-shot smoke numbers never pollute
    /// plots.
    pub fn write_in_quick_mode(&mut self) -> &mut Self {
        self.write_quick = true;
        self
    }

    /// Times `f`, prints the JSON line, appends it to the group's
    /// `.jsonl` file, and returns the summary.
    ///
    /// The closure's return value is passed through
    /// [`std::hint::black_box`] so the optimizer cannot delete the work.
    pub fn bench<R>(
        &mut self,
        bench: impl Into<String>,
        param: impl Display,
        mut f: impl FnMut() -> R,
    ) -> Summary {
        let (samples, warmup) =
            if self.quick { (1, Duration::ZERO) } else { (self.samples, self.warmup) };

        let warm_start = Instant::now();
        while warm_start.elapsed() < warmup {
            std::hint::black_box(f());
        }

        let mut times: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed());
        }
        times.sort_unstable();

        let total: Duration = times.iter().sum();
        let summary = Summary {
            group: self.group.clone(),
            bench: bench.into(),
            param: param.to_string(),
            samples,
            min: times[0],
            mean: total / samples as u32,
            median: times[samples / 2],
            p95: times[percentile_index(samples, 0.95)],
            max: times[samples - 1],
        };

        let line = summary.to_json_line();
        println!("{line}");
        if !self.quick || self.write_quick {
            if let Some(dir) = &self.out_dir {
                if let Err(e) = append_line(dir, &self.group, &line) {
                    eprintln!("warning: could not write {}/{}.jsonl: {e}", dir.display(), self.group);
                }
            }
        }
        summary
    }
}

/// Index of the `q`-quantile in a sorted sample array of length `n`
/// (nearest-rank method).
fn percentile_index(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

fn append_line(dir: &PathBuf, group: &str, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut file =
        OpenOptions::new().create(true).append(true).open(dir.join(format!("{group}.jsonl")))?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_group(name: &str) -> BenchGroup {
        let mut g = BenchGroup::new(name);
        g.no_output_file();
        g
    }

    #[test]
    fn summary_statistics_are_ordered() {
        let mut g = quiet_group("test_group");
        g.sample_size(20).warm_up_time(Duration::ZERO);
        g.quick = false;
        let mut x = 0u64;
        let s = g.bench("spin", 1, || {
            for i in 0..10_000u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert_eq!(s.samples, 20);
        assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.min > Duration::ZERO, "10k multiplies cannot take zero time");
    }

    #[test]
    fn quick_mode_runs_exactly_once() {
        let mut g = quiet_group("test_quick");
        g.sample_size(50).warm_up_time(Duration::from_secs(60));
        g.quick = true; // a 60 s warmup would hang if quick mode ignored it
        let mut runs = 0;
        let s = g.bench("once", "x", || runs += 1);
        assert_eq!(runs, 1);
        assert_eq!(s.samples, 1);
    }

    #[test]
    fn json_line_shape_and_escaping() {
        let s = Summary {
            group: "g".into(),
            bench: "na\"me".into(),
            param: "7".into(),
            samples: 3,
            min: Duration::from_nanos(10),
            mean: Duration::from_nanos(20),
            median: Duration::from_nanos(15),
            p95: Duration::from_nanos(30),
            max: Duration::from_nanos(30),
        };
        let line = s.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"bench\":\"na\\\"me\""));
        assert!(line.contains("\"median_ns\":15"));
        assert!(line.contains("\"p95_ns\":30"));
    }

    #[test]
    fn write_in_quick_mode_keeps_sink_active() {
        let dir = std::env::temp_dir().join("ktg-harness-quick-sink");
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = BenchGroup::new("quicksink");
        g.quick = true;
        g.out_dir = Some(dir.clone());
        g.bench("skipped", 1, || 0); // default: quick mode writes nothing
        assert!(!dir.join("quicksink.jsonl").exists());
        g.write_in_quick_mode();
        g.bench("written", 1, || 0);
        let contents = std::fs::read_to_string(dir.join("quicksink.jsonl")).unwrap();
        assert_eq!(contents.lines().count(), 1);
        assert!(contents.contains("\"bench\":\"written\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile_index(10, 0.95), 9);
        assert_eq!(percentile_index(20, 0.95), 18);
        assert_eq!(percentile_index(1, 0.95), 0);
        assert_eq!(percentile_index(100, 0.5), 49);
    }

    #[test]
    fn jsonl_file_sink_appends() {
        let dir = std::env::temp_dir().join("ktg-harness-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = BenchGroup::new("sinkcheck");
        g.quick = false;
        g.sample_size(2).warm_up_time(Duration::ZERO);
        g.out_dir = Some(dir.clone());
        g.bench("a", 1, || 1 + 1);
        g.bench("a", 2, || 1 + 1);
        let contents = std::fs::read_to_string(dir.join("sinkcheck.jsonl")).unwrap();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.lines().all(|l| l.contains("\"group\":\"sinkcheck\"")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
