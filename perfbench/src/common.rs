//! Pieces every workload shares: digests, statistics, the timing
//! decorator around the evaluator, and the round's result record.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_core::evaluation::{Evaluation, Evaluator, ScoringPrecision};
use yoso_core::search::SearchRecord;
use yoso_core::session::SearchEvent;
use yoso_core::Error;
use yoso_trace::{Event, Value};

use crate::spans::{Key, Tracer};

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a search history: each record's `search_iter` line (without
/// the controller entropy, which only the traced stream carries) plus
/// its design point.
pub fn history_digest(history: &[SearchRecord]) -> u64 {
    history.iter().fold(FNV_OFFSET, |h, rec| {
        let line = SearchEvent::from_record(rec, None).to_json();
        let h = fnv1a(h, line.as_bytes());
        fnv1a(h, format!("{:?}\n", rec.point).as_bytes())
    })
}

/// Digest of a list of lines, in order.
pub fn lines_digest<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    lines
        .into_iter()
        .fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`p` in `[0, 1]`); 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Exact-fidelity simulation of a design: latency, energy and the
/// per-level energy split, as a stable text record (shortest
/// round-trip float formatting, so equal text means equal bits).
///
/// The accelerator model is not validated against hardware; these are
/// simulated figures with no error bound.
pub fn design_stats(skeleton: &NetworkSkeleton, point: &DesignPoint) -> String {
    let rep = Simulator::exact().simulate_plan(&skeleton.compile(&point.genotype), &point.hw);
    let e = rep.energy_breakdown;
    format!(
        "latency_ms={:?} energy_mj={:?} compute_pj={:?} rbuf_pj={:?} noc_pj={:?} gbuf_pj={:?} dram_pj={:?}",
        rep.latency_ms, rep.energy_mj, e.compute_pj, e.rbuf_pj, e.noc_pj, e.gbuf_pj, e.dram_pj
    )
}

/// Checks a finished search: full length, nothing quarantined, every
/// metric finite. Returns the problems found.
pub fn check_history(
    label: &str,
    history: &[SearchRecord],
    quarantined: usize,
    want: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    if history.len() != want {
        bad.push(format!(
            "{label}: {} records, expected {want}",
            history.len()
        ));
    }
    if quarantined != 0 {
        bad.push(format!("{label}: {quarantined} quarantined candidates"));
    }
    for r in history {
        let e = r.eval;
        if ![r.reward, e.accuracy, e.latency_ms, e.energy_mj]
            .iter()
            .all(|v| v.is_finite())
        {
            bad.push(format!(
                "{label}: non-finite metric at iteration {}",
                r.iteration
            ));
            break;
        }
    }
    bad
}

/// What the timing decorator saw.
#[derive(Default)]
pub struct EvalLog {
    pub calls: u64,
    pub points: Vec<DesignPoint>,
    pub evals: Vec<Evaluation>,
    pub eval_ns: u64,
}

/// Timing decorator around an [`Evaluator`] trait object: times every
/// `evaluate`/`evaluate_batch` call, records a span per call keyed by the
/// index of its first candidate in scoring order (the same index the
/// replay's spans carry), and keeps the points it scored for the replay.
/// Values pass through untouched.
pub struct TimedEvaluator<'a> {
    inner: &'a dyn Evaluator,
    tracer: &'a Tracer,
    parent: AtomicU32,
    log: Mutex<EvalLog>,
}

impl<'a> TimedEvaluator<'a> {
    pub fn new(inner: &'a dyn Evaluator, tracer: &'a Tracer) -> Self {
        TimedEvaluator {
            inner,
            tracer,
            parent: AtomicU32::new(crate::spans::ROOT),
            log: Mutex::new(EvalLog::default()),
        }
    }

    /// Parent span (the running search) for the next calls.
    pub fn begin_search(&self, parent: u32) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    pub fn take_log(&self) -> EvalLog {
        std::mem::take(&mut *self.log.lock().expect("eval log lock poisoned"))
    }

    fn timed(
        &self,
        points: &[DesignPoint],
        f: impl FnOnce() -> Result<Vec<Evaluation>, Error>,
    ) -> Result<Vec<Evaluation>, Error> {
        let parent = self.parent.load(Ordering::Relaxed);
        let first = self
            .log
            .lock()
            .expect("eval log lock poisoned")
            .points
            .len() as u64;
        let t = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer
            .record("core.eval", parent, Key::Iter(first), t, end);
        let mut log = self.log.lock().expect("eval log lock poisoned");
        log.calls += 1;
        log.eval_ns += u64::try_from(end.duration_since(t).as_nanos()).unwrap_or(u64::MAX);
        if let Ok(evals) = &out {
            log.points.extend_from_slice(points);
            log.evals.extend_from_slice(evals);
        }
        out
    }
}

impl Evaluator for TimedEvaluator<'_> {
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error> {
        let out = self.timed(std::slice::from_ref(point), || {
            self.inner.evaluate(point).map(|e| vec![e])
        })?;
        Ok(out[0])
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
        self.timed(points, || self.inner.evaluate_batch(points))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_scoring_precision(&self, precision: ScoringPrecision) {
        self.inner.set_scoring_precision(precision);
    }

    fn scoring_precision(&self) -> ScoringPrecision {
        self.inner.scoring_precision()
    }

    fn degraded_queries(&self) -> u64 {
        self.inner.degraded_queries()
    }
}

/// Delta of the program's own telemetry registry between two snapshots.
pub struct RegistryDelta {
    before: yoso_trace::RegistrySnapshot,
    after: yoso_trace::RegistrySnapshot,
}

impl RegistryDelta {
    pub fn new(before: yoso_trace::RegistrySnapshot) -> Self {
        RegistryDelta {
            before,
            after: yoso_trace::snapshot(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Total recorded time of a duration histogram, in ms.
    pub fn hist_ms(&self, name: &str) -> f64 {
        let sum = |s: &yoso_trace::RegistrySnapshot| s.histogram(name).map_or(0, |h| h.sum());
        sum(&self.after).saturating_sub(sum(&self.before)) as f64 / 1e6
    }
}

/// Hit rate, lookups and resident entries of the simulator cache since
/// `before`, as `<prefix>_hit_rate`, `<prefix>_lookups` and
/// `<prefix>_entries`.
pub fn cache_layers(out: &mut Out, prefix: &str, before: &yoso_accel::cache::CacheStats) {
    let now = yoso_accel::cache::stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    out.f(
        &format!("{prefix}_hit_rate"),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.u(&format!("{prefix}_lookups"), hits + misses);
    out.u(&format!("{prefix}_entries"), now.entries as u64);
}

/// Search-loop figures: the decorator's evaluation time and counts, the
/// controller's time from the program's registry, the rest of the
/// searches' wall time as loop time, and the worker pool's busy time.
pub fn search_layers(out: &mut Out, log: &EvalLog, d: &RegistryDelta, search_ms: f64) {
    let eval_ms = log.eval_ns as f64 / 1e6;
    let (sample, update) = (
        d.hist_ms("controller.sample"),
        d.hist_ms("controller.update"),
    );
    out.f("L:core.eval_ms", eval_ms);
    out.u("L:core.eval_calls", log.calls);
    out.u("L:core.eval_points", log.points.len() as u64);
    out.f(
        "L:core.loop_ms",
        (search_ms - eval_ms - sample - update).max(0.0),
    );
    out.f("L:controller.sample_ms", sample);
    out.f("L:controller.update_ms", update);
    let (busy, thread) = (d.counter("pool.busy_ns"), d.counter("pool.thread_ns"));
    out.f("L:pool.busy_ms", busy as f64 / 1e6);
    out.u("L:pool.items", d.counter("pool.items"));
    out.f("L:pool.utilization", busy as f64 / thread.max(1) as f64);
}

/// One round's result: a flat JSON object that `run.py` reads.
pub struct Out {
    event: Event,
    pub problems: Vec<String>,
}

impl Out {
    pub fn new(workload: &str) -> Out {
        Out {
            event: Event::new("perfbench_round").with_str("workload", workload),
            problems: Vec::new(),
        }
    }

    /// Sets a field, replacing an earlier value of the same name.
    fn set(&mut self, name: &str, v: Value) {
        match self.event.fields.iter_mut().find(|(n, _)| n == name) {
            Some(field) => field.1 = v,
            None => self.event.fields.push((name.to_string(), v)),
        }
    }

    pub fn f(&mut self, name: &str, v: f64) {
        self.set(name, Value::F64(v));
    }

    pub fn u(&mut self, name: &str, v: u64) {
        self.set(name, Value::U64(v));
    }

    pub fn s(&mut self, name: &str, v: impl Into<String>) {
        self.set(name, Value::Str(v.into()));
    }

    pub fn into_event(mut self) -> Event {
        let problems = self.problems.join(" | ");
        self.u("problems", self.problems.len() as u64);
        self.s("problem_text", problems);
        self.event
    }
}
