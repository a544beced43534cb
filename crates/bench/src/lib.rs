//! # yoso-bench
//!
//! Experiment drivers and benchmark harness regenerating **every table and
//! figure** of the paper's evaluation (see DESIGN.md §4 for the index):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig4_regressors` | Fig. 4 — six regression models' MSE |
//! | `fig5_hypernet` | Fig. 5(a) training curve, 5(b) ranking correlation |
//! | `fig6_search` | Fig. 6(a) RL vs random, 6(b)/(c) trade-off scatters |
//! | `table2_comparison` | Table 2 — two-stage vs Yoso_lat / Yoso_eer |
//! | `fig7_normalized` | Fig. 7 — normalized energy/latency bars |
//! | `ablations` | design-choice ablations called out in DESIGN.md |
//!
//! Criterion benches (`cargo bench -p yoso-bench`) quantify the §III-E
//! speedup claims (GP predictor vs exact simulation, HyperNet inheritance
//! vs standalone training).
//!
//! This library hosts the small shared utilities: CLI flag parsing, CSV
//! output under `results/`, and aligned table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Returns (and creates) the `results/` directory next to the workspace
/// root (or under `YOSO_RESULTS_DIR` if set).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("YOSO_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file into [`results_dir`]; returns its path.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write csv");
    path
}

/// Reads a CSV produced by [`write_csv`]; returns (header, rows).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read.
pub fn read_csv(name: &str) -> std::io::Result<(Vec<String>, Vec<Vec<String>>)> {
    let text = fs::read_to_string(results_dir().join(name))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .unwrap_or("")
        .split(',')
        .map(str::to_string)
        .collect();
    let rows = lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    Ok((header, rows))
}

/// Build/runtime provenance block shared by every `BENCH_*.json`
/// emitter: detected core count, the worker-pool thread setting in
/// effect, and the build profile. Without this a snapshot
/// number is uninterpretable — a 2x speedup measured on one core in a
/// debug build is a different claim than the same ratio in release on
/// eight.
///
/// Returns a JSON object fragment (no trailing comma/newline) indented
/// for embedding at the given level, e.g.
/// `"meta": { "cores": 8, ... }`.
pub fn bench_meta_json(indent: usize) -> String {
    let pad = " ".repeat(indent);
    let inner = " ".repeat(indent + 2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"meta\": {{\n{inner}\"cores\": {cores},\n{inner}\"pool_threads\": {},\n{inner}\"profile\": \"{profile}\"\n{pad}}}",
        yoso_pool::num_threads(),
    )
}

/// Runs a bench binary's fallible body: on `Err` the full
/// [`yoso_core::Error`] chain (error plus every `source()` cause) is
/// printed to stderr and the process exits with status 1, so failures
/// surface as readable diagnostics instead of `unwrap` panics. On
/// success the chaos injection counters (if a `--chaos-plan` was armed)
/// are reported via [`finish_chaos`].
pub fn run_main(body: impl FnOnce() -> Result<(), yoso_core::Error>) {
    match body() {
        Err(e) => {
            eprintln!("error: {}", yoso_core::error_chain(&e));
            std::process::exit(1);
        }
        Ok(()) => finish_chaos(),
    }
}

/// The flag surface shared by every bench binary, parsed once.
///
/// Centralizes the flags each driver used to scan for by hand —
/// `--threads`, `--trace-out`, `--chaos-plan`,
/// `--scoring` — plus typed accessors for bin-specific flags, so a new
/// binary gets the whole shared surface from two lines:
///
/// ```no_run
/// let args = yoso_bench::Args::parse();
/// let trace = args.configure(); // threads + chaos + trace, one call
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Args {
        Args::from_argv(std::env::args().collect())
    }

    /// Parses an explicit argument vector (tests, embedded drivers).
    pub fn from_argv(argv: Vec<String>) -> Args {
        Args { argv }
    }

    /// Value of `--flag <value>`.
    pub fn value(&self, flag: &str) -> Option<String> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1).cloned())
    }

    /// `--flag <n>` parsed as usize, with default.
    pub fn usize(&self, flag: &str, default: usize) -> usize {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--flag <x>` parsed as u64, with default.
    pub fn u64(&self, flag: &str, default: u64) -> u64 {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--flag <x>` parsed as f64, with default.
    pub fn f64(&self, flag: &str, default: f64) -> f64 {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Presence of a boolean `--flag`.
    pub fn present(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// The shared `--scoring f32|int8` flag as a typed precision
    /// (absent means f32).
    ///
    /// # Errors
    ///
    /// [`yoso_core::Error::InvalidConfig`] on any other value.
    pub fn scoring(&self) -> Result<yoso_core::ScoringPrecision, yoso_core::Error> {
        match self.value("--scoring").as_deref() {
            None | Some("f32") => Ok(yoso_core::ScoringPrecision::F32),
            Some("int8") => Ok(yoso_core::ScoringPrecision::Int8),
            Some(other) => Err(yoso_core::Error::InvalidConfig(format!(
                "--scoring must be f32 or int8, got {other:?}"
            ))),
        }
    }

    /// The shared `--surrogate exact|sparse` flag as a typed
    /// [`yoso_core::SurrogateKind`] (absent means exact — the seed
    /// behavior).
    ///
    /// # Errors
    ///
    /// [`yoso_core::Error::InvalidConfig`] on any other value.
    pub fn surrogate(&self) -> Result<yoso_core::SurrogateKind, yoso_core::Error> {
        match self.value("--surrogate").as_deref() {
            None | Some("exact") => Ok(yoso_core::SurrogateKind::Exact),
            Some("sparse") => Ok(yoso_core::SurrogateKind::Sparse),
            Some(other) => Err(yoso_core::Error::InvalidConfig(format!(
                "--surrogate must be exact or sparse, got {other:?}"
            ))),
        }
    }

    /// The shared `--pareto-out <path>` flag: where to write the final
    /// non-dominated archive as CSV (see
    /// [`yoso_core::save_pareto_csv`]). Absent means don't write it.
    pub fn pareto_out(&self) -> Option<PathBuf> {
        self.value("--pareto-out").map(PathBuf::from)
    }

    /// Applies `--threads <n>`, which sizes the global worker pool
    /// (candidate-level parallelism: rollout fan-out, batched
    /// evaluation), and returns the resolved worker count. `0` or an
    /// absent flag means "all cores". The setting is recorded in every
    /// `BENCH_*.json` via [`bench_meta_json`].
    pub fn configure_threads(&self) -> usize {
        yoso_pool::set_num_threads(self.usize("--threads", 0));
        yoso_pool::num_threads()
    }

    /// Applies the shared `--chaos-plan <path>` flag: when present,
    /// loads a [`yoso_chaos::FaultPlan`] from the file and arms the
    /// global fault injector for the rest of the process, printing
    /// which faults are in play. Without the flag chaos stays disarmed
    /// and every hook reduces to one relaxed atomic load.
    ///
    /// Returns `true` when a plan was armed.
    ///
    /// # Panics
    ///
    /// Panics when the flag is present but the file cannot be read or
    /// parsed — a bench invoked with a broken fault plan should fail
    /// loudly, not silently run fault-free.
    pub fn configure_chaos(&self) -> bool {
        let Some(path) = self.value("--chaos-plan") else {
            return false;
        };
        let plan = yoso_chaos::FaultPlan::load(&path)
            .unwrap_or_else(|e| panic!("--chaos-plan {path}: {e}"));
        eprintln!(
            "[chaos] armed plan from {path}: seed {}, {} rule(s): {}",
            plan.seed,
            plan.rules.len(),
            plan.rules
                .iter()
                .map(|r| r.kind.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        yoso_chaos::install(&plan);
        true
    }

    /// Applies the shared `--trace-out <path>` flag (see
    /// [`configure_trace`]).
    pub fn configure_trace(&self) -> yoso_trace::Trace {
        let Some(path) = self.value("--trace-out") else {
            return yoso_trace::Trace::disabled();
        };
        match yoso_trace::Trace::to_path(&path) {
            Ok(trace) => {
                yoso_trace::set_enabled(true);
                eprintln!("[trace] writing JSONL events to {path}");
                trace
            }
            Err(e) => {
                eprintln!("[trace] cannot open {path}: {e}; tracing disabled");
                yoso_trace::Trace::disabled()
            }
        }
    }

    /// The full shared setup in one call — threads, chaos, trace —
    /// returning the trace handle (pair with [`finish_trace`]).
    pub fn configure(&self) -> yoso_trace::Trace {
        self.configure_threads();
        self.configure_chaos();
        self.configure_trace()
    }
}

/// Value of `--flag <value>` in the process arguments.
pub fn arg_value(flag: &str) -> Option<String> {
    Args::parse().value(flag)
}

/// `--flag <n>` parsed as usize, with default.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    Args::parse().usize(flag, default)
}

/// `--flag <x>` parsed as u64, with default.
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    Args::parse().u64(flag, default)
}

/// Presence of a boolean `--flag`.
pub fn arg_present(flag: &str) -> bool {
    Args::parse().present(flag)
}

/// Applies the shared thread flags from the process arguments (see
/// [`Args::configure_threads`]).
pub fn configure_threads() -> usize {
    Args::parse().configure_threads()
}

/// Arms the shared `--chaos-plan` flag from the process arguments (see
/// [`Args::configure_chaos`]).
///
/// # Panics
///
/// As [`Args::configure_chaos`].
pub fn configure_chaos() -> bool {
    Args::parse().configure_chaos()
}

/// Prints the per-kind chaos injection counters at the end of a run and
/// disarms the injector. No-op when [`configure_chaos`] armed nothing.
pub fn finish_chaos() {
    if !yoso_chaos::armed() {
        return;
    }
    for s in yoso_chaos::stats() {
        if s.opportunities > 0 {
            eprintln!(
                "[chaos] {}: injected {} / {} opportunities",
                s.kind.name(),
                s.injected,
                s.opportunities
            );
        }
    }
    yoso_chaos::disarm();
}

/// Applies the shared `--trace-out <path>` flag: when present, switches
/// global telemetry collection on and opens a JSONL file sink at the
/// given path; otherwise returns [`yoso_trace::Trace::disabled`] and
/// leaves telemetry off (the near-no-op default).
///
/// Pair with [`finish_trace`] at the end of the run.
pub fn configure_trace() -> yoso_trace::Trace {
    Args::parse().configure_trace()
}

/// End-of-run telemetry: appends the subsystem summary events
/// (`cache_summary`, `gp_summary`, `pool_summary`, `controller_summary`
/// — process-cumulative totals) to `trace`, prints an aligned summary
/// table to stdout, and flushes the sink. No-op for a disabled trace.
pub fn finish_trace(trace: &yoso_trace::Trace) {
    if !trace.is_enabled() {
        return;
    }
    use yoso_trace::Event;
    let cs = yoso_accel::cache::stats();
    let reg = yoso_trace::snapshot();
    let hist = |name: &str| -> (u64, f64) {
        reg.histogram(name)
            .map_or((0, 0.0), |h| (h.count(), h.sum() as f64 / 1e6))
    };
    trace.emit(
        Event::new("cache_summary")
            .with_u64("hits", cs.hits)
            .with_u64("misses", cs.misses)
            .with_u64("contended_reads", cs.contended_reads)
            .with_u64("contended_writes", cs.contended_writes)
            .with_u64("entries", cs.entries as u64),
    );
    let (gp_calls, gp_ms) = hist("gp.predict_batch");
    trace.emit(
        Event::new("gp_summary")
            .with_u64("batches", reg.counter("gp.batches"))
            .with_u64("points", reg.counter("gp.points"))
            .with_u64("timed_calls", gp_calls)
            .with_f64("total_ms", gp_ms),
    );
    let busy_ns = reg.counter("pool.busy_ns");
    let thread_ns = reg.counter("pool.thread_ns");
    let utilization = if thread_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / thread_ns as f64
    };
    trace.emit(
        Event::new("pool_summary")
            .with_u64("maps", reg.counter("pool.maps"))
            .with_u64("items", reg.counter("pool.items"))
            .with_f64("busy_ms", busy_ns as f64 / 1e6)
            .with_f64("thread_ms", thread_ns as f64 / 1e6)
            .with_f64("utilization", utilization),
    );
    let (samples, sample_ms) = hist("controller.sample");
    let (updates, update_ms) = hist("controller.update");
    trace.emit(
        Event::new("controller_summary")
            .with_u64("samples", samples)
            .with_f64("sample_ms", sample_ms)
            .with_u64("updates", updates)
            .with_f64("update_ms", update_ms),
    );
    let mut t = Table::new(&["subsystem", "metric", "value"]);
    let mut push = |sub: &str, metric: &str, value: String| {
        t.row(vec![sub.to_string(), metric.to_string(), value]);
    };
    push(
        "sim cache",
        "hits / misses",
        format!("{} / {}", cs.hits, cs.misses),
    );
    push(
        "sim cache",
        "hit rate",
        format!("{:.1}%", 100.0 * cs.hit_rate()),
    );
    push("sim cache", "entries", cs.entries.to_string());
    push(
        "sim cache",
        "contended locks",
        (cs.contended_reads + cs.contended_writes).to_string(),
    );
    push(
        "gp",
        "predict batches",
        reg.counter("gp.batches").to_string(),
    );
    push(
        "gp",
        "predicted points",
        reg.counter("gp.points").to_string(),
    );
    push("gp", "predict time", format!("{gp_ms:.1} ms"));
    push(
        "pool",
        "maps / items",
        format!(
            "{} / {}",
            reg.counter("pool.maps"),
            reg.counter("pool.items")
        ),
    );
    push(
        "pool",
        "busy / thread time",
        format!(
            "{:.1} / {:.1} ms",
            busy_ns as f64 / 1e6,
            thread_ns as f64 / 1e6
        ),
    );
    push(
        "pool",
        "utilization",
        format!("{:.1}%", 100.0 * utilization),
    );
    push(
        "controller",
        "samples",
        format!("{samples} ({sample_ms:.1} ms)"),
    );
    push(
        "controller",
        "updates",
        format!("{updates} ({update_ms:.1} ms)"),
    );
    println!("\n=== telemetry summary (cumulative) ===\n{t}");
    println!("events emitted: {}", trace.events_emitted());
    trace.flush();
}

/// Minimal aligned-column table printer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            (0..ncol)
                .map(|i| format!("{:>width$}", cells[i], width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Rows as strings (for CSV reuse).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["model", "mse"]);
        t.row(vec!["GP".into(), "0.001".into()]);
        t.row(vec!["LinearRegression".into(), "12.5".into()]);
        let s = t.render();
        assert!(s.contains("model"));
        assert!(s.contains("LinearRegression"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn bench_meta_json_is_well_formed() {
        let meta = bench_meta_json(2);
        assert!(meta.starts_with("\"meta\": {"));
        assert!(meta.contains("\"cores\":"));
        assert!(meta.contains("\"pool_threads\":"));
        assert!(
            meta.contains("\"profile\": \"debug\"") || meta.contains("\"profile\": \"release\"")
        );
        // Embeds into a valid top-level object (balanced braces).
        let doc = format!("{{\n  {meta}\n}}");
        let opens = doc.matches('{').count();
        assert_eq!(opens, doc.matches('}').count());
    }

    #[test]
    fn args_typed_accessors() {
        let args = Args::from_argv(
            [
                "bin",
                "--threads",
                "4",
                "--seed",
                "7",
                "--noise",
                "0.5",
                "--paper",
                "--scoring",
                "int8",
                "--part",
                "both",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(args.usize("--threads", 0), 4);
        assert_eq!(args.u64("--seed", 0), 7);
        assert!((args.f64("--noise", 0.0) - 0.5).abs() < 1e-12);
        assert!(args.present("--paper"));
        assert!(!args.present("--fast-evaluator"));
        assert_eq!(args.value("--part").as_deref(), Some("both"));
        assert_eq!(args.value("--missing"), None);
        assert_eq!(args.usize("--missing", 9), 9);
        assert_eq!(args.scoring().unwrap(), yoso_core::ScoringPrecision::Int8);
    }

    #[test]
    fn args_surrogate_parses_and_rejects_like_scoring() {
        let sparse = Args::from_argv(
            ["bin", "--surrogate", "sparse"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(
            sparse.surrogate().unwrap(),
            yoso_core::SurrogateKind::Sparse
        );
        let exact = Args::from_argv(
            ["bin", "--surrogate", "exact"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(exact.surrogate().unwrap(), yoso_core::SurrogateKind::Exact);
        let default = Args::from_argv(vec!["bin".to_string()]);
        assert_eq!(
            default.surrogate().unwrap(),
            yoso_core::SurrogateKind::Exact
        );

        let bad = Args::from_argv(
            ["bin", "--surrogate", "dense"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        match bad.surrogate() {
            Err(yoso_core::Error::InvalidConfig(msg)) => {
                assert!(msg.contains("exact or sparse"), "message: {msg}");
                assert!(msg.contains("dense"), "message: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn args_pareto_out_is_an_optional_path() {
        let args = Args::from_argv(
            ["bin", "--pareto-out", "/tmp/front.csv"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(
            args.pareto_out(),
            Some(std::path::PathBuf::from("/tmp/front.csv"))
        );
        assert_eq!(Args::from_argv(vec!["bin".to_string()]).pareto_out(), None);
    }

    #[test]
    fn args_scoring_rejects_unknown_precision() {
        let args = Args::from_argv(
            ["bin", "--scoring", "fp16"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert!(args.scoring().is_err());
        let default = Args::from_argv(vec!["bin".to_string()]);
        assert_eq!(default.scoring().unwrap(), yoso_core::ScoringPrecision::F32);
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var(
            "YOSO_RESULTS_DIR",
            std::env::temp_dir().join("yoso_test_results"),
        );
        let rows = vec![vec!["1".to_string(), "2.5".to_string()]];
        write_csv("unit_test.csv", &["a", "b"], &rows);
        let (header, got) = read_csv("unit_test.csv").unwrap();
        assert_eq!(header, vec!["a", "b"]);
        assert_eq!(got, rows);
    }
}
