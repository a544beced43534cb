//! One round of the end-to-end YOSO benchmark.
//!
//! ```text
//! yoso-perfbench --workload paper_search|surrogate_search|served_jobs
//!                --seed N --work DIR [--seconds S | --units N]
//!                [--traced] [--smoke]
//! ```
//!
//! Runs one workload in this (fresh) process and prints one flat JSON
//! object as its last line: set-up and end-to-end figures (`e2e:*`),
//! per-layer figures from a traced run (`L:*`), history digests,
//! simulated statistics of the best design, provenance and the problems
//! the correctness checks found. `perfbench/run.py` builds this binary,
//! runs it and turns that object into the benchmark's result line.
//!
//! Every figure is measured from outside the program: by timing calls
//! into the crates' public functions, by wrapping the evaluator trait
//! object in a timing decorator, and by reading the telemetry registry
//! the program already keeps. `--traced` records spans around those
//! calls and writes them as JSONL into the work directory at the end.

mod common;
mod paper;
mod served;
mod spans;
mod surrogate;

use std::path::PathBuf;
use std::time::Instant;

use common::{peak_rss_mb, Out};
use spans::{Key, Tracer, ROOT};

/// Set-up layer metrics and the spans whose summed time gives them.
const SETUP_SPANS: [(&str, &str); 5] = [
    ("L:dataset.generate_ms", "dataset.generate"),
    ("L:hypernet.train_ms", "hypernet.train"),
    ("L:accel.sample_ms", "accel.collect_samples"),
    ("L:predictor.fit_ms", "predictor.fit"),
    ("L:core.calibrate_ms", "core.calibrate"),
];

/// Command-line options of one round.
pub struct Opts {
    workload: String,
    seed: u64,
    /// Measurement budget: units of work start while it lasts.
    seconds: f64,
    /// Exact number of units instead of a time budget.
    units: Option<usize>,
    traced: bool,
    smoke: bool,
    work: PathBuf,
}

impl Opts {
    fn parse(argv: &[String]) -> Result<Opts, String> {
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .cloned()
        };
        let num = |flag: &str| -> Result<Option<f64>, String> {
            value(flag)
                .map(|v| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}")))
                .transpose()
        };
        let workload = value("--workload").ok_or("--workload is required")?;
        let seed = value("--seed")
            .ok_or("--seed is required")?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))?;
        let work = PathBuf::from(value("--work").ok_or("--work is required")?);
        Ok(Opts {
            workload,
            seed,
            seconds: num("--seconds")?.unwrap_or(10.0),
            units: value("--units")
                .map(|v| v.parse::<usize>().map_err(|e| format!("--units {v}: {e}")))
                .transpose()?,
            traced: argv.iter().any(|a| a == "--traced"),
            smoke: argv.iter().any(|a| a == "--smoke"),
            work,
        })
    }

    /// Whether to start unit `unit`: the first `min` units always, then
    /// more while the time budget lasts (or up to the exact unit count).
    fn more_units(&self, unit: usize, started: Instant, min: usize) -> bool {
        match self.units {
            Some(n) => unit < n,
            None if self.smoke => unit < 1,
            None => unit < min || started.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// Seed of one unit of work, derived from the run's seed.
    fn unit_seed(&self, unit: usize) -> u64 {
        self.seed.wrapping_mul(1_000).wrapping_add(unit as u64)
    }
}

fn run(o: &Opts) -> Result<yoso_trace::Event, String> {
    std::fs::create_dir_all(&o.work).map_err(|e| format!("work dir: {e}"))?;
    let tracer = Tracer::new(o.traced);
    if o.traced {
        yoso_trace::set_enabled(true);
    }
    let mut out = Out::new(&o.workload);
    let t = Instant::now();
    tracer.time("run", ROOT, Key::None, |top| match o.workload.as_str() {
        "paper_search" => paper::run(o, &tracer, top, &mut out),
        "surrogate_search" => surrogate::run(o, &tracer, top, &mut out),
        "served_jobs" => served::run(o, &tracer, top, &mut out),
        other => Err(format!("unknown workload `{other}`")),
    })?;
    out.f("wall_s", t.elapsed().as_secs_f64());
    out.f("e2e:peak_rss_mb", peak_rss_mb());
    out.u("seed", o.seed);
    out.s("meta", yoso_bench::bench_meta_json(0).replace('\n', " "));
    if o.traced {
        let self_ms = tracer.self_ms();
        let container = |n: &str| self_ms.get(n).copied().unwrap_or(0.0);
        out.f("L:unattributed_ms", container("run") + container("unit"));
        for (metric, span) in SETUP_SPANS {
            if tracer.total_ms(span) > 0.0 {
                out.f(metric, tracer.total_ms(span));
            }
        }
        let path = o.work.join(format!("{}-spans.jsonl", o.workload));
        let n = tracer
            .write_jsonl(&path)
            .map_err(|e| format!("span file: {e}"))?;
        out.s("span_file", path.display().to_string());
        out.u("spans", n as u64);
    }
    Ok(out.into_event())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let result = Opts::parse(&argv).and_then(|o| run(&o));
    match result {
        Ok(event) => println!("{}", event.to_json()),
        Err(e) => {
            eprintln!("yoso-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
