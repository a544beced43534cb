//! The unified search entry point: [`SearchSession`] and its builder.
//!
//! A session bundles everything one co-design search needs — an
//! evaluator, a reward, a [`SearchConfig`] and a [`Strategy`] — behind
//! one builder, subsuming the three historical free functions and their
//! inconsistent signatures (`evolution_search` used to take trailing
//! positional `population, tournament` arguments; those now live in
//! [`SearchConfig`]). It is also where the observability layer hooks in:
//! give the builder a [`Trace`] sink and the session emits
//!
//! * one [`SearchEvent`] (`"search_iter"`) per evaluated candidate —
//!   reward, accuracy, latency, energy and (for RL) controller entropy;
//! * a `"controller_update"` event per REINFORCE batch (RL only);
//! * `"search_start"` / `"search_summary"` bracketing events; and
//! * `"cache_summary"`, `"gp_summary"`, `"pool_summary"` and
//!   `"controller_summary"` events describing what the simulator cache,
//!   the batched GP predictor, the worker pool and the controller
//!   contributed during this run (deltas against the run start).
//!
//! The per-iteration stream is a pure function of the seed: two sessions
//! with identical configs produce byte-identical `search_iter` lines at
//! any worker-pool thread count. Summary events carry wall-clock times
//! and are *not* deterministic.
//!
//! With the default [`Trace::disabled`] sink every emission site reduces
//! to a single pointer check, so searches pay nothing for the layer.
//!
//! # One search loop
//!
//! Every strategy runs one loop: ask the strategy for a batch of
//! candidates, score the batch in one [`Evaluator::evaluate_batch`] call
//! (the fast evaluator fans it out over the worker pool), then guard,
//! trace and record each candidate in order. RL draws
//! `rollouts_per_update` rollouts and reaches a boundary (fault budget,
//! cancel flag, checkpoint cadence) only after each controller update.
//! Random search draws `rollouts_per_update` points, evolution its open
//! population slots and then one child at a time; both reach a boundary
//! after every candidate, as a one-at-a-time search would.
//!
//! # Crash-safe checkpointing
//!
//! Give the builder [`checkpoint_every`](SearchSessionBuilder::checkpoint_every)
//! and [`checkpoint_dir`](SearchSessionBuilder::checkpoint_dir) and the
//! session writes an atomic snapshot (`ckpt_00000015.snap`, …) of its
//! complete state — controller weights and Adam moments, RNG stream,
//! evaluated history, simulator cache — every `n` iterations (for RL,
//! at the next controller-update boundary). After a crash,
//! [`SearchSession::resume_from`] rebuilds the session from the newest
//! checkpoint and the continued run replays the remaining iterations
//! **bit-identically** to the uninterrupted run:
//!
//! ```
//! use yoso_core::evaluation::{calibrate_constraints, SurrogateEvaluator};
//! use yoso_core::reward::RewardConfig;
//! use yoso_core::search::SearchConfig;
//! use yoso_core::session::{SearchSession, Strategy};
//!
//! let sk = yoso_arch::NetworkSkeleton::tiny();
//! let evaluator = SurrogateEvaluator::new(sk.clone());
//! let reward = RewardConfig::balanced(calibrate_constraints(&sk, 30, 0, 50.0));
//! let dir = std::env::temp_dir().join(format!("yoso-doc-ckpt-{}", std::process::id()));
//! let full = SearchSession::builder()
//!     .evaluator(&evaluator)
//!     .reward(reward)
//!     .strategy(Strategy::Random)
//!     .config(SearchConfig::builder().iterations(20).build())
//!     .checkpoint_every(10)
//!     .checkpoint_dir(&dir)
//!     .run()
//!     .unwrap();
//! // Simulate a crash at iteration 10: restart from the newest snapshot.
//! let latest = yoso_core::checkpoint::latest_checkpoint(&dir).unwrap().unwrap();
//! let resumed = SearchSession::resume_from(&latest)
//!     .unwrap()
//!     .evaluator(&evaluator)
//!     .run()
//!     .unwrap();
//! assert_eq!(resumed, full);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::checkpoint::{checkpoint_file_name, CheckpointWriter, SessionCheckpoint};
use crate::error::Error;
use crate::evaluation::{Evaluation, Evaluator, ScoringPrecision};
use crate::reward::{NonFiniteMetric, RewardConfig};
use crate::search::{
    QuarantineEntry, SearchConfig, SearchOutcome, SearchRecord, QUARANTINE_REWARD,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use yoso_arch::{ActionSpace, DesignPoint};
use yoso_controller::{Controller, ControllerConfig, Rollout};
use yoso_trace::{Event, Trace};

/// Which search algorithm a [`SearchSession`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's LSTM + REINFORCE controller (default).
    #[default]
    Rl,
    /// Regularized evolution over the joint space; population and
    /// tournament sizes come from [`SearchConfig`].
    Evolution,
    /// Uniform random search (the Fig. 6(a) baseline).
    Random,
}

impl Strategy {
    /// Stable lowercase name used in trace events and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Rl => "rl",
            Strategy::Evolution => "evolution",
            Strategy::Random => "random",
        }
    }

    /// Parses a [`Strategy::name`] back into a strategy (the protocol
    /// layer's wire form).
    pub fn from_name(s: &str) -> Option<Strategy> {
        match s {
            "rl" => Some(Strategy::Rl),
            "evolution" => Some(Strategy::Evolution),
            "random" => Some(Strategy::Random),
            _ => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-iteration telemetry record: one evaluated candidate.
///
/// Serialized as the `"search_iter"` JSONL event; [`SearchEvent::parse`]
/// reads a line back. For identical seeds and configs the stream of
/// these events is identical at any worker-pool thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchEvent {
    /// Candidate index (0-based).
    pub iteration: u64,
    /// Composite reward under the session's [`RewardConfig`].
    pub reward: f64,
    /// Predicted validation accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Predicted latency in ms.
    pub latency_ms: f64,
    /// Predicted energy in mJ.
    pub energy_mj: f64,
    /// Summed controller softmax entropy of the rollout that produced
    /// this candidate (RL only; `None` for evolution/random).
    pub entropy: Option<f64>,
}

impl SearchEvent {
    /// The JSONL event kind.
    pub const KIND: &'static str = "search_iter";

    /// Builds the event for one search record.
    pub fn from_record(rec: &SearchRecord, entropy: Option<f64>) -> Self {
        SearchEvent {
            iteration: rec.iteration as u64,
            reward: rec.reward,
            accuracy: rec.eval.accuracy,
            latency_ms: rec.eval.latency_ms,
            energy_mj: rec.eval.energy_mj,
            entropy,
        }
    }

    /// Converts to a generic trace [`Event`].
    pub fn to_event(&self) -> Event {
        let mut e = Event::new(Self::KIND)
            .with_u64("iteration", self.iteration)
            .with_f64("reward", self.reward)
            .with_f64("accuracy", self.accuracy)
            .with_f64("latency_ms", self.latency_ms)
            .with_f64("energy_mj", self.energy_mj);
        if let Some(h) = self.entropy {
            e = e.with_f64("entropy", h);
        }
        e
    }

    /// Reads a `"search_iter"` [`Event`] back; `None` when the kind or a
    /// required field does not match.
    pub fn from_event(event: &Event) -> Option<Self> {
        if event.kind != Self::KIND {
            return None;
        }
        Some(SearchEvent {
            iteration: event.get_u64("iteration")?,
            reward: event.get_f64("reward")?,
            accuracy: event.get_f64("accuracy")?,
            latency_ms: event.get_f64("latency_ms")?,
            energy_mj: event.get_f64("energy_mj")?,
            entropy: event.get_f64("entropy"),
        })
    }

    /// One JSONL line.
    pub fn to_json(&self) -> String {
        self.to_event().to_json()
    }

    /// Parses a JSONL line produced by [`SearchEvent::to_json`].
    pub fn parse(line: &str) -> Option<Self> {
        Self::from_event(&Event::parse(line).ok()?)
    }
}

/// A fully configured search, ready to [`run`](SearchSession::run).
///
/// Construct with [`SearchSession::builder`] (or
/// [`SearchSession::resume_from`] to continue from a checkpoint); see
/// the [module docs](self) for what the session emits when given a
/// trace sink.
pub struct SearchSession<'a> {
    evaluator: &'a dyn Evaluator,
    reward: RewardConfig,
    config: SearchConfig,
    strategy: Strategy,
    trace: Trace,
    checkpoint_every: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    fault_budget: Option<u64>,
    scoring: Option<ScoringPrecision>,
    cancel: Option<Arc<AtomicBool>>,
    resume: Option<SessionCheckpoint>,
}

/// Builder for [`SearchSession`]; see the [module docs](self) example.
#[derive(Default)]
pub struct SearchSessionBuilder<'a> {
    evaluator: Option<&'a dyn Evaluator>,
    reward: Option<RewardConfig>,
    config: SearchConfig,
    strategy: Strategy,
    trace: Trace,
    checkpoint_every: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    fault_budget: Option<u64>,
    scoring: Option<ScoringPrecision>,
    cancel: Option<Arc<AtomicBool>>,
    resume: Option<SessionCheckpoint>,
}

impl<'a> SearchSessionBuilder<'a> {
    /// The candidate evaluator (required).
    #[must_use]
    pub fn evaluator(mut self, evaluator: &'a dyn Evaluator) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// The reward configuration (required).
    #[must_use]
    pub fn reward(mut self, reward: RewardConfig) -> Self {
        self.reward = Some(reward);
        self
    }

    /// Search-loop parameters (defaults to [`SearchConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// The search algorithm (defaults to [`Strategy::Rl`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The telemetry sink (defaults to [`Trace::disabled`], which makes
    /// every emission a no-op).
    #[must_use]
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Writes a crash-recovery checkpoint every `n` iterations (for RL,
    /// at the next controller-update boundary on or after each multiple
    /// of `n`). Requires [`checkpoint_dir`](Self::checkpoint_dir).
    #[must_use]
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Directory for checkpoint files (created on run when missing).
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Aborts the run with [`Error::FaultBudgetExhausted`] once the
    /// session has absorbed more than `budget` faults — quarantined
    /// candidates plus degraded-mode evaluator queries, counted over this
    /// run only. When a [`checkpoint_dir`](Self::checkpoint_dir) is
    /// configured an emergency checkpoint is written first so the run can
    /// be resumed once the fault source is fixed. The default (no budget)
    /// degrades indefinitely.
    #[must_use]
    pub fn fault_budget(mut self, budget: u64) -> Self {
        self.fault_budget = Some(budget);
        self
    }

    /// Requests a scoring precision from the evaluator at
    /// [`build`](Self::build) time (via
    /// [`Evaluator::set_scoring_precision`]). With
    /// [`ScoringPrecision::Int8`] and a [`FastEvaluator`] the HyperNet
    /// accuracy pass runs on the quantized int8 path; evaluators without
    /// int8 support ignore the request and keep scoring in f32. The
    /// default leaves the evaluator's current precision untouched.
    ///
    /// [`FastEvaluator`]: crate::evaluation::FastEvaluator
    #[must_use]
    pub fn scoring_precision(mut self, precision: ScoringPrecision) -> Self {
        self.scoring = Some(precision);
        self
    }

    /// A shared cancel flag for cooperative suspension. The session polls
    /// it at each iteration boundary (for RL, each controller-update
    /// boundary); once raised, the run stops with [`Error::Canceled`],
    /// writing a suspend checkpoint first when a
    /// [`checkpoint_dir`](Self::checkpoint_dir) is configured — the
    /// serving daemon's suspend/resume mechanism.
    #[must_use]
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The configured strategy (for turning a builder back into a
    /// protocol-level job spec).
    pub fn configured_strategy(&self) -> Strategy {
        self.strategy
    }

    /// The configured search parameters.
    pub fn configured_config(&self) -> &SearchConfig {
        &self.config
    }

    /// The configured reward, when one was supplied.
    pub fn configured_reward(&self) -> Option<&RewardConfig> {
        self.reward.as_ref()
    }

    /// The configured checkpoint cadence, when one was supplied.
    pub fn configured_checkpoint_every(&self) -> Option<usize> {
        self.checkpoint_every
    }

    /// The configured fault budget, when one was supplied.
    pub fn configured_fault_budget(&self) -> Option<u64> {
        self.fault_budget
    }

    /// The requested scoring precision, when one was supplied.
    pub fn configured_scoring_precision(&self) -> Option<ScoringPrecision> {
        self.scoring
    }

    /// Finalizes the session.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when no evaluator or reward was
    /// supplied, when `population`, `tournament` or (for RL)
    /// `rollouts_per_update` is zero, or when a checkpoint cadence was
    /// set without a directory (or vice versa, a zero cadence).
    pub fn build(self) -> Result<SearchSession<'a>, Error> {
        let config = self.config;
        if config.population == 0 || config.tournament == 0 {
            return Err(Error::InvalidConfig(
                "population and tournament must be positive".into(),
            ));
        }
        if self.strategy == Strategy::Rl && config.rollouts_per_update == 0 {
            return Err(Error::InvalidConfig(
                "rollouts_per_update must be positive for Strategy::Rl".into(),
            ));
        }
        if self.checkpoint_every == Some(0) {
            return Err(Error::InvalidConfig(
                "checkpoint_every(0) — the cadence must be positive".into(),
            ));
        }
        if self.checkpoint_every.is_some() && self.checkpoint_dir.is_none() {
            return Err(Error::InvalidConfig(
                "checkpoint_every(..) requires .checkpoint_dir(..)".into(),
            ));
        }
        let evaluator = self
            .evaluator
            .ok_or_else(|| Error::InvalidConfig("SearchSession requires .evaluator(..)".into()))?;
        let reward = self
            .reward
            .ok_or_else(|| Error::InvalidConfig("SearchSession requires .reward(..)".into()))?;
        // Applied before the resume-mismatch check in `run` reads the
        // evaluator name, so a checkpoint written under int8 scoring
        // resumes cleanly when the caller re-requests int8.
        if let Some(p) = self.scoring {
            evaluator.set_scoring_precision(p);
        }
        Ok(SearchSession {
            evaluator,
            reward,
            config,
            strategy: self.strategy,
            trace: self.trace,
            checkpoint_every: self.checkpoint_every,
            checkpoint_dir: self.checkpoint_dir,
            fault_budget: self.fault_budget,
            scoring: self.scoring,
            cancel: self.cancel,
            resume: self.resume,
        })
    }

    /// [`build`](Self::build)s and [`run`](SearchSession::run)s in one
    /// call.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build) and [`run`](SearchSession::run).
    pub fn run(self) -> Result<SearchOutcome, Error> {
        self.build()?.run()
    }
}

impl<'a> SearchSession<'a> {
    /// Starts an empty builder.
    pub fn builder() -> SearchSessionBuilder<'a> {
        SearchSessionBuilder::default()
    }

    /// Starts a builder preloaded from a checkpoint file: strategy,
    /// config, reward, history, RNG stream and controller come from the
    /// snapshot; the caller supplies the evaluator (checkpoints record
    /// only its name) and may attach a trace sink. The checkpoint's
    /// parent directory becomes the new checkpoint directory, so the
    /// resumed run keeps checkpointing on the same cadence.
    ///
    /// The continued run replays the remaining iterations bit-identically
    /// to an uninterrupted run with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] when the file cannot be read or fails
    /// validation (bad magic, checksum mismatch, truncation, malformed
    /// sections).
    pub fn resume_from(path: impl AsRef<Path>) -> Result<SearchSessionBuilder<'a>, Error> {
        let path = path.as_ref();
        let ck = SessionCheckpoint::read_from(path)?;
        let mut builder = SearchSession::builder()
            .reward(ck.reward)
            .config(ck.config.clone())
            .strategy(ck.strategy);
        if ck.checkpoint_every > 0 {
            builder = builder.checkpoint_every(ck.checkpoint_every);
            if let Some(dir) = path.parent() {
                builder = builder.checkpoint_dir(dir);
            }
        }
        builder.resume = Some(ck);
        Ok(builder)
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The configured search parameters.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the search to completion and returns the full history (for
    /// a resumed session, including the restored prefix).
    ///
    /// When a trace sink is attached, global telemetry collection
    /// ([`yoso_trace::set_enabled`]) is switched on for the duration so
    /// the pool/GP/controller instrumentation feeds the end-of-run
    /// summary events.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResumeMismatch`] when the session resumes from a
    /// checkpoint recorded with a different evaluator or strategy,
    /// [`Error::Persist`] when a checkpoint cannot be written,
    /// [`Error::FaultBudgetExhausted`] when a configured
    /// [`fault_budget`](SearchSessionBuilder::fault_budget) trips, and
    /// whatever the evaluator propagates.
    pub fn run(&self) -> Result<SearchOutcome, Error> {
        if let Some(res) = &self.resume {
            if res.evaluator != self.evaluator.name() {
                return Err(Error::ResumeMismatch {
                    expected: format!("evaluator `{}`", res.evaluator),
                    found: format!("evaluator `{}`", self.evaluator.name()),
                });
            }
            if res.strategy != self.strategy {
                return Err(Error::ResumeMismatch {
                    expected: format!("strategy `{}`", res.strategy),
                    found: format!("strategy `{}`", self.strategy),
                });
            }
        }
        if let Some(dir) = &self.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(Error::from)?;
        }
        let traced = self.trace.is_enabled();
        if traced {
            yoso_trace::set_enabled(true);
        }
        let cache_before = yoso_accel::cache::stats();
        let reg_before = yoso_trace::snapshot();
        if traced {
            let mut start = Event::new("search_start")
                .with_str("strategy", self.strategy.name())
                .with_u64("iterations", self.config.iterations as u64)
                .with_u64(
                    "rollouts_per_update",
                    self.config.rollouts_per_update as u64,
                )
                .with_u64("population", self.config.population as u64)
                .with_u64("tournament", self.config.tournament as u64)
                .with_u64("seed", self.config.seed);
            if let Some(p) = self.scoring {
                start = start.with_str("scoring", p.to_string());
            }
            if let Some(res) = &self.resume {
                start = start.with_u64("resume_iteration", res.history.len() as u64);
            }
            self.trace.emit(start);
        }
        let t0 = Instant::now();
        let degraded_before = self.evaluator.degraded_queries();
        let outcome = self.search(degraded_before)?;
        if traced {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut summary = Event::new("search_summary")
                .with_str("strategy", self.strategy.name())
                .with_u64("iterations", outcome.history.len() as u64)
                .with_f64("wall_ms", wall_ms)
                .with_str("evaluator", self.evaluator.name())
                .with_u64("pareto_size", outcome.archive.len() as u64);
            if !outcome.history.is_empty() {
                let best = outcome.best();
                summary = summary
                    .with_f64("best_reward", best.reward)
                    .with_f64("best_accuracy", best.eval.accuracy)
                    .with_f64("best_latency_ms", best.eval.latency_ms)
                    .with_f64("best_energy_mj", best.eval.energy_mj);
            }
            self.trace.emit(summary);
            self.emit_subsystem_summaries(&cache_before, &reg_before);
            self.emit_fault_summary(&outcome, degraded_before, &reg_before);
            self.trace.flush();
        }
        Ok(outcome)
    }

    /// Emits the cache / GP / pool / controller summary events as deltas
    /// between the run's start and now.
    fn emit_subsystem_summaries(
        &self,
        cache_before: &yoso_accel::cache::CacheStats,
        reg_before: &yoso_trace::RegistrySnapshot,
    ) {
        let cs = yoso_accel::cache::stats();
        self.trace.emit(
            Event::new("cache_summary")
                .with_u64("hits", cs.hits.saturating_sub(cache_before.hits))
                .with_u64("misses", cs.misses.saturating_sub(cache_before.misses))
                .with_u64(
                    "contended_reads",
                    cs.contended_reads
                        .saturating_sub(cache_before.contended_reads),
                )
                .with_u64(
                    "contended_writes",
                    cs.contended_writes
                        .saturating_sub(cache_before.contended_writes),
                )
                .with_u64("entries", cs.entries as u64),
        );
        let reg = yoso_trace::snapshot();
        let delta = |name: &str| reg.counter(name).saturating_sub(reg_before.counter(name));
        let hist_delta = |name: &str| -> (u64, f64) {
            let after = reg.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
            let before = reg_before
                .histogram(name)
                .map_or((0, 0), |h| (h.count(), h.sum()));
            (
                after.0.saturating_sub(before.0),
                after.1.saturating_sub(before.1) as f64 / 1e6,
            )
        };
        let (gp_calls, gp_ms) = hist_delta("gp.predict_batch");
        self.trace.emit(
            Event::new("gp_summary")
                .with_u64("batches", delta("gp.batches"))
                .with_u64("points", delta("gp.points"))
                .with_u64("timed_calls", gp_calls)
                .with_f64("total_ms", gp_ms),
        );
        let busy_ns = delta("pool.busy_ns");
        let thread_ns = delta("pool.thread_ns");
        self.trace.emit(
            Event::new("pool_summary")
                .with_u64("maps", delta("pool.maps"))
                .with_u64("items", delta("pool.items"))
                .with_f64("busy_ms", busy_ns as f64 / 1e6)
                .with_f64("thread_ms", thread_ns as f64 / 1e6)
                .with_f64(
                    "utilization",
                    if thread_ns == 0 {
                        0.0
                    } else {
                        busy_ns as f64 / thread_ns as f64
                    },
                ),
        );
        let (samples, sample_ms) = hist_delta("controller.sample");
        let (updates, update_ms) = hist_delta("controller.update");
        self.trace.emit(
            Event::new("controller_summary")
                .with_u64("samples", samples)
                .with_f64("sample_ms", sample_ms)
                .with_u64("updates", updates)
                .with_f64("update_ms", update_ms),
        );
    }

    /// Emits the `"fault_summary"` event — only when this run actually
    /// absorbed faults, so fault-free traces stay byte-identical to runs
    /// of builds without the fault-tolerance layer.
    fn emit_fault_summary(
        &self,
        outcome: &SearchOutcome,
        degraded_before: u64,
        reg_before: &yoso_trace::RegistrySnapshot,
    ) {
        let degraded = self
            .evaluator
            .degraded_queries()
            .saturating_sub(degraded_before);
        let injected = if yoso_chaos::armed() {
            yoso_chaos::injected_total()
        } else {
            0
        };
        let reg = yoso_trace::snapshot();
        let delta = |name: &str| reg.counter(name).saturating_sub(reg_before.counter(name));
        let panics = delta("pool.panics_caught");
        let retries = delta("pool.retries");
        if outcome.quarantine.is_empty() && degraded == 0 && injected == 0 && panics == 0 {
            return;
        }
        self.trace.emit(
            Event::new("fault_summary")
                .with_u64("quarantined", outcome.quarantine.len() as u64)
                .with_u64("degraded_queries", degraded)
                .with_u64("injected_faults", injected)
                .with_u64("pool_panics_caught", panics)
                .with_u64("pool_retries", retries)
                .with_u64("pool_items_recovered", delta("pool.items_recovered")),
        );
    }

    /// Scores one evaluated candidate through the non-finite guard.
    ///
    /// A clean candidate gets its composite reward; a candidate with any
    /// non-finite metric (or a chaos-poisoned reward) is quarantined: the
    /// returned record carries [`QUARANTINE_REWARD`] and a sanitized
    /// evaluation (non-finite fields zeroed, keeping the history and its
    /// JSONL stream finite), and its quarantine-ledger entry, holding the
    /// raw observation and the offending metric, comes back alongside.
    fn guard(
        &self,
        iteration: usize,
        point: DesignPoint,
        eval: Evaluation,
        actions: Option<Vec<usize>>,
    ) -> (SearchRecord, Option<QuarantineEntry>) {
        let mut checked =
            self.reward
                .checked_reward(eval.accuracy, eval.latency_ms, eval.energy_mj);
        if yoso_chaos::armed() {
            if let Ok(r) = checked {
                if !yoso_chaos::poison_f64(yoso_chaos::FaultKind::NanReward, r).is_finite() {
                    checked = Err(NonFiniteMetric::Reward);
                }
            }
        }
        let record = |eval, reward| SearchRecord {
            iteration,
            point,
            eval,
            reward,
        };
        match checked {
            Ok(reward) => (record(eval, reward), None),
            Err(reason) => {
                let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
                let sanitized = Evaluation {
                    accuracy: finite(eval.accuracy),
                    latency_ms: finite(eval.latency_ms),
                    energy_mj: finite(eval.energy_mj),
                };
                let entry = QuarantineEntry {
                    iteration,
                    point,
                    actions,
                    eval,
                    reason,
                };
                (record(sanitized, QUARANTINE_REWARD), Some(entry))
            }
        }
    }

    /// Builds the strategy's [`Searcher`] together with the outcome so
    /// far — both restored from the checkpoint when resuming.
    fn searcher(&self) -> Result<(Box<dyn Searcher>, SearchOutcome), Error> {
        let cfg = &self.config;
        let res = self.resume.as_ref();
        let outcome = res.map_or_else(SearchOutcome::default, |r| {
            SearchOutcome::from_parts(r.history.clone(), r.quarantine.clone())
        });
        let rng = |salt: u64| match res {
            Some(r) => StdRng::from_state(r.rng_state),
            None => StdRng::seed_from_u64(cfg.seed ^ salt),
        };
        let space = ActionSpace::new();
        let searcher: Box<dyn Searcher> = match self.strategy {
            Strategy::Rl => {
                let (controller, update_index) = match res {
                    Some(r) => (
                        r.controller.clone().ok_or_else(|| Error::ResumeMismatch {
                            expected: "an RL checkpoint with a controller section".into(),
                            found: "a checkpoint without one".into(),
                        })?,
                        r.update_index,
                    ),
                    None => {
                        let mut ctrl_cfg =
                            ControllerConfig::paper_default(space.vocab_sizes().to_vec());
                        ctrl_cfg.seed = cfg.seed;
                        (Controller::new(ctrl_cfg), 0)
                    }
                };
                Box::new(RlSearcher {
                    space,
                    controller,
                    rng: rng(0xABCD),
                    batch: cfg.rollouts_per_update,
                    update_index,
                    pending: Vec::new(),
                    trace: self.trace.clone(),
                })
            }
            // The sliding population is a pure function of the history:
            // its last `population` records.
            Strategy::Evolution => Box::new(EvolutionSearcher {
                rng: rng(0xE0_5EED),
                population: cfg.population,
                tournament: cfg.tournament,
                pop: outcome.history[outcome.history.len().saturating_sub(cfg.population)..]
                    .iter()
                    .copied()
                    .collect(),
            }),
            Strategy::Random => Box::new(RandomSearcher {
                rng: rng(0x1234),
                batch: cfg.rollouts_per_update.max(1),
            }),
        };
        Ok((searcher, outcome))
    }

    /// The one search loop: ask the searcher for a batch, score it in one
    /// [`Evaluator::evaluate_batch`] call, guard, trace and record each
    /// candidate in order, and tell the searcher the batch's records. A
    /// boundary follows every candidate, or only each batch's last one
    /// when the searcher has a [`controller`](Searcher::controller).
    fn search(&self, degraded_before: u64) -> Result<SearchOutcome, Error> {
        let (mut searcher, mut outcome) = self.searcher()?;
        let per_batch = searcher.controller().is_some();
        let mut last_ckpt = outcome.history.len();
        while outcome.history.len() < self.config.iterations {
            let start = outcome.history.len();
            let mut limit = self.config.iterations - start;
            if !per_batch {
                limit = limit.min(self.stop_horizon(&outcome, degraded_before, last_ckpt));
            }
            let draws = searcher.ask(limit)?;
            // One `SlowEval` injection opportunity per candidate.
            for delay in draws.iter().filter_map(|_| yoso_chaos::eval_delay()) {
                std::thread::sleep(delay);
            }
            let points: Vec<DesignPoint> = draws.iter().map(|d| d.point).collect();
            let evals = self.evaluator.evaluate_batch(&points)?;
            for (i, (draw, eval)) in draws.into_iter().zip(evals).enumerate() {
                let (rec, quarantined) = self.guard(start + i, draw.point, eval, draw.actions);
                if self.trace.is_enabled() {
                    let mut e = SearchEvent::from_record(&rec, draw.entropy).to_event();
                    // Only quarantined iterations carry the extra field.
                    if let Some(q) = &quarantined {
                        e = e.with_str("quarantined", q.reason.name());
                    }
                    self.trace.emit(e);
                }
                if let Some(q) = quarantined {
                    if yoso_trace::enabled() {
                        yoso_trace::counter_add("session.quarantined", 1);
                    }
                    outcome.quarantine.push(q);
                }
                outcome.record(rec);
                let last = i + 1 == points.len();
                if last {
                    searcher.tell(&outcome.history[start..]);
                }
                if last || !per_batch {
                    self.boundary(
                        &outcome,
                        degraded_before,
                        &mut last_ckpt,
                        draw.rng_state,
                        &*searcher,
                    )?;
                }
            }
        }
        Ok(outcome)
    }

    /// Faults absorbed so far: quarantined candidates plus the evaluator's
    /// degraded queries this run.
    fn faults(&self, outcome: &SearchOutcome, degraded_before: u64) -> u64 {
        outcome.quarantine.len() as u64
            + self
                .evaluator
                .degraded_queries()
                .saturating_sub(degraded_before)
    }

    fn canceled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// How many candidates a per-candidate searcher may draw so that no
    /// boundary stops or checkpoints inside the batch: up to the next
    /// cadence point, one while the cancel flag is up, and few enough that
    /// the fault budget (at most a quarantine and a degraded query per
    /// candidate) trips only on the last. Stops and checkpoints then match
    /// a one-at-a-time search, simulator cache included.
    fn stop_horizon(
        &self,
        outcome: &SearchOutcome,
        degraded_before: u64,
        last_ckpt: usize,
    ) -> usize {
        let mut limit = usize::MAX;
        if let Some(every) = self.checkpoint_every {
            limit = (last_ckpt + every).saturating_sub(outcome.history.len());
        }
        if self.canceled() {
            limit = 1;
        }
        if let Some(budget) = self.fault_budget {
            let slack = budget.saturating_sub(self.faults(outcome, degraded_before));
            limit = limit.min(usize::try_from(slack.div_ceil(2)).unwrap_or(usize::MAX));
        }
        limit.max(1)
    }

    /// One boundary: the fault budget, then the cancel flag — each stops
    /// the run with its error, checkpointing first when a directory is
    /// set — then the checkpoint cadence. `rng_state` is the searcher's
    /// stream as of the candidate just recorded.
    fn boundary(
        &self,
        outcome: &SearchOutcome,
        degraded_before: u64,
        last_ckpt: &mut usize,
        rng_state: [u64; 4],
        searcher: &dyn Searcher,
    ) -> Result<(), Error> {
        let iterations = outcome.history.len();
        let tripped = self
            .fault_budget
            .map(|budget| (self.faults(outcome, degraded_before), budget))
            .filter(|(faults, budget)| faults > budget);
        if tripped.is_some() || self.canceled() {
            let checkpoint = match &self.checkpoint_dir {
                Some(dir) => Some(self.write_checkpoint(dir, outcome, rng_state, searcher)?),
                None => None,
            };
            if self.trace.is_enabled() {
                let mut event = match tripped {
                    Some((faults, budget)) => Event::new("fault_budget_exhausted")
                        .with_u64("faults", faults)
                        .with_u64("budget", budget),
                    None => Event::new("session_canceled").with_u64("iteration", iterations as u64),
                };
                if let Some(p) = &checkpoint {
                    event = event.with_str("checkpoint", p.display().to_string());
                }
                self.trace.emit(event);
                self.trace.flush();
            }
            return Err(match tripped {
                Some((faults, budget)) => Error::FaultBudgetExhausted {
                    faults,
                    budget,
                    checkpoint,
                },
                None => Error::Canceled {
                    iterations,
                    checkpoint,
                },
            });
        }
        if let (Some(every), Some(dir)) = (self.checkpoint_every, &self.checkpoint_dir) {
            if iterations.saturating_sub(*last_ckpt) >= every {
                self.write_checkpoint(dir, outcome, rng_state, searcher)?;
                *last_ckpt = iterations;
            }
        }
        Ok(())
    }

    /// Writes the session state as of the last recorded candidate to
    /// `dir`, named after the iteration count; returns the file path.
    fn write_checkpoint(
        &self,
        dir: &Path,
        outcome: &SearchOutcome,
        rng_state: [u64; 4],
        searcher: &dyn Searcher,
    ) -> Result<PathBuf, Error> {
        let path = dir.join(checkpoint_file_name(outcome.history.len()));
        let controller = searcher.controller();
        CheckpointWriter {
            strategy: self.strategy,
            evaluator: self.evaluator.name(),
            checkpoint_every: self.checkpoint_every.unwrap_or(0),
            config: &self.config,
            reward: &self.reward,
            update_index: controller.map_or(0, |(_, u)| u),
            history: &outcome.history,
            quarantine: &outcome.quarantine,
            rng_state,
            controller: controller.map(|(c, _)| c),
        }
        .write_to(&path)?;
        Ok(path)
    }
}

/// One candidate drawn by a [`Searcher`].
struct Draw {
    point: DesignPoint,
    /// The searcher's RNG state right after this draw: what a checkpoint
    /// taken at this candidate records, even when later points of the
    /// same batch were already drawn (and are then dropped unrecorded).
    rng_state: [u64; 4],
    /// Summed controller entropy of the rollout (RL only).
    entropy: Option<f64>,
    /// The rollout's action sequence, for the quarantine ledger (RL only).
    actions: Option<Vec<usize>>,
}

impl Draw {
    /// A plain draw, taken just after `point` came out of `rng`.
    fn new(point: DesignPoint, rng: &StdRng) -> Self {
        Draw {
            point,
            rng_state: rng.state(),
            entropy: None,
            actions: None,
        }
    }
}

/// `n` independent uniform draws from the joint space.
fn uniform_draws(rng: &mut StdRng, n: usize) -> Vec<Draw> {
    (0..n)
        .map(|_| Draw::new(DesignPoint::random(rng), rng))
        .collect()
}

/// A search strategy as the session loop drives it: `ask` for a batch of
/// candidates, which the loop scores in one
/// [`Evaluator::evaluate_batch`] call, then `tell` it their records.
trait Searcher {
    /// Draws between 1 and `limit` candidates (`limit >= 1`) to score as
    /// one batch.
    fn ask(&mut self, limit: usize) -> Result<Vec<Draw>, Error>;

    /// Hands back the guarded records of the last batch, in order;
    /// quarantined candidates carry [`QUARANTINE_REWARD`].
    fn tell(&mut self, _records: &[SearchRecord]) {}

    /// The controller and the REINFORCE updates applied to it so far
    /// (RL only). A searcher with a controller is checkpointed only
    /// between updates, so its boundaries wait for the end of each batch
    /// instead of following every candidate.
    fn controller(&self) -> Option<(&Controller, u64)> {
        None
    }
}

/// RL search (paper step 2): the LSTM controller samples joint DNN +
/// accelerator action sequences, `rollouts_per_update` per batch, and
/// REINFORCE steers the policy towards higher composite reward once per
/// batch.
struct RlSearcher {
    space: ActionSpace,
    controller: Controller,
    rng: StdRng,
    batch: usize,
    update_index: u64,
    /// The rollouts of the batch in flight, consumed by `tell`.
    pending: Vec<Rollout>,
    trace: Trace,
}

impl Searcher for RlSearcher {
    fn ask(&mut self, limit: usize) -> Result<Vec<Draw>, Error> {
        self.pending.clear();
        let mut draws = Vec::with_capacity(self.batch.min(limit));
        for _ in 0..self.batch.min(limit) {
            let rollout = self.controller.sample(&mut self.rng);
            draws.push(Draw {
                entropy: Some(rollout.entropy),
                actions: Some(rollout.actions.clone()),
                ..Draw::new(self.space.decode(&rollout.actions)?, &self.rng)
            });
            self.pending.push(rollout);
        }
        Ok(draws)
    }

    fn tell(&mut self, records: &[SearchRecord]) {
        // Quarantined rollouts never reach REINFORCE: learning from a
        // sentinel reward would poison the baseline. An all-quarantined
        // batch skips the update entirely; the update index still
        // advances so the checkpoint cadence is unaffected.
        let batch: Vec<(Rollout, f64)> = self
            .pending
            .drain(..)
            .zip(records)
            .filter(|(_, rec)| rec.reward != QUARANTINE_REWARD)
            .map(|(rollout, rec)| (rollout, rec.reward))
            .collect();
        if !batch.is_empty() {
            let stats = self.controller.update(&batch);
            if self.trace.is_enabled() {
                let iteration = records.last().map_or(0, |r| r.iteration + 1);
                self.trace.emit(
                    Event::new("controller_update")
                        .with_u64("update", self.update_index)
                        .with_u64("iteration", iteration as u64)
                        .with_f64("mean_reward", stats.mean_reward)
                        .with_f64("baseline", stats.baseline)
                        .with_f64("grad_norm", stats.grad_norm as f64)
                        .with_f64("mean_entropy", stats.mean_entropy),
                );
            }
        }
        self.update_index += 1;
    }

    fn controller(&self) -> Option<(&Controller, u64)> {
        Some((&self.controller, self.update_index))
    }
}

/// Regularized evolution (Real et al., the AmoebaNet method cited as
/// \[9\]): tournament selection over a sliding population with
/// single-symbol mutation through the action codec.
struct EvolutionSearcher {
    rng: StdRng,
    population: usize,
    tournament: usize,
    pop: VecDeque<SearchRecord>,
}

impl Searcher for EvolutionSearcher {
    fn ask(&mut self, limit: usize) -> Result<Vec<Draw>, Error> {
        // Filling the population: independent uniform draws, all at once.
        let fill = self.population - self.pop.len();
        if fill > 0 {
            return Ok(uniform_draws(&mut self.rng, fill.min(limit)));
        }
        // Tournament: sample `tournament` members, mutate the fittest.
        // Quarantined members carry the sentinel reward, so they can sit
        // in the population but never win. Each child depends on the
        // previous push, so children come one at a time.
        let parent = (0..self.tournament)
            .map(|_| &self.pop[rand::RngExt::random_range(&mut self.rng, 0..self.pop.len())])
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
            .expect("tournament > 0")
            .point;
        let child = parent.mutate(&mut self.rng);
        Ok(vec![Draw::new(child, &self.rng)])
    }

    fn tell(&mut self, records: &[SearchRecord]) {
        for rec in records {
            self.pop.push_back(*rec);
            if self.pop.len() > self.population {
                self.pop.pop_front(); // regularization: age-based removal
            }
        }
    }
}

/// Uniform random search (the Fig. 6(a) baseline), drawing
/// `rollouts_per_update` points per batch.
struct RandomSearcher {
    rng: StdRng,
    batch: usize,
}

impl Searcher for RandomSearcher {
    fn ask(&mut self, limit: usize) -> Result<Vec<Draw>, Error> {
        Ok(uniform_draws(&mut self.rng, self.batch.min(limit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{calibrate_constraints, SurrogateEvaluator};
    use yoso_arch::NetworkSkeleton;

    fn setup() -> (SurrogateEvaluator, RewardConfig) {
        let sk = NetworkSkeleton::tiny();
        let ev = SurrogateEvaluator::new(sk.clone());
        let cons = calibrate_constraints(&sk, 60, 0, 50.0);
        (ev, RewardConfig::balanced(cons))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "yoso-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn session<'a>(
        ev: &'a dyn Evaluator,
        rc: RewardConfig,
        strategy: Strategy,
        cfg: &SearchConfig,
    ) -> SearchSessionBuilder<'a> {
        SearchSession::builder()
            .evaluator(ev)
            .reward(rc)
            .strategy(strategy)
            .config(cfg.clone())
    }

    fn iter_lines(trace: &Trace) -> Vec<String> {
        trace
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"search_iter\""))
            .collect()
    }

    /// A cancel raised while a batch is being scored stops the run at the
    /// next boundary: the end of the batch for RL, the batch's first
    /// candidate for random search and evolution. The suspend checkpoint
    /// holds the RNG stream as of the last recorded candidate, not the
    /// batch's last draw, so the resumed run and the stitched
    /// `search_iter` stream equal the uninterrupted ones.
    #[test]
    fn cancel_flag_suspends_and_resume_completes_identically() {
        struct RaiseOnBatch {
            inner: SurrogateEvaluator,
            flag: Arc<AtomicBool>,
            batches: std::sync::atomic::AtomicUsize,
            raise_at: usize,
        }
        impl Evaluator for RaiseOnBatch {
            fn evaluate(&self, p: &DesignPoint) -> Result<Evaluation, Error> {
                self.inner.evaluate(p)
            }
            fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
                if self.batches.fetch_add(1, Ordering::Relaxed) == self.raise_at {
                    self.flag.store(true, Ordering::Relaxed);
                }
                self.inner.evaluate_batch(points)
            }
            fn name(&self) -> &'static str {
                self.inner.name()
            }
        }
        let (ev, rc) = setup();
        let cfg = SearchConfig::builder()
            .iterations(30)
            .rollouts_per_update(5)
            .seed(11)
            .population(6)
            .tournament(3)
            .build();
        // RL and random search score 5 candidates per batch; evolution
        // fills its population of 6 in one batch.
        for (strategy, raise_at, stop_at) in [
            (Strategy::Rl, 0, 5),
            (Strategy::Random, 1, 6),
            (Strategy::Evolution, 0, 1),
        ] {
            let full_trace = Trace::memory();
            let full = session(&ev, rc, strategy, &cfg)
                .trace(full_trace.clone())
                .run()
                .unwrap();
            let dir = temp_dir(&format!("cancel-{strategy}"));
            let raising = RaiseOnBatch {
                inner: SurrogateEvaluator::new(NetworkSkeleton::tiny()),
                flag: Arc::new(AtomicBool::new(false)),
                batches: Default::default(),
                raise_at,
            };
            let suspended_trace = Trace::memory();
            let err = session(&raising, rc, strategy, &cfg)
                .checkpoint_dir(&dir)
                .cancel_flag(Arc::clone(&raising.flag))
                .trace(suspended_trace.clone())
                .run()
                .unwrap_err();
            let Error::Canceled {
                iterations,
                checkpoint: Some(ckpt),
            } = err
            else {
                panic!("{strategy}: expected Canceled with checkpoint, got {err:?}");
            };
            assert_eq!(iterations, stop_at, "{strategy}");
            assert!(suspended_trace
                .lines()
                .iter()
                .any(|l| l.contains("\"session_canceled\"")));
            let resumed_trace = Trace::memory();
            let resumed = SearchSession::resume_from(&ckpt)
                .unwrap()
                .evaluator(&ev)
                .trace(resumed_trace.clone())
                .run()
                .unwrap();
            assert_eq!(resumed, full, "{strategy}: resumed outcome diverged");
            let mut stitched = iter_lines(&suspended_trace);
            stitched.extend(iter_lines(&resumed_trace));
            assert_eq!(stitched, iter_lines(&full_trace), "{strategy}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn cancel_without_checkpoint_dir_reports_no_checkpoint() {
        let (ev, rc) = setup();
        let err = SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .config(SearchConfig::builder().iterations(10).build())
            .strategy(Strategy::Random)
            .cancel_flag(Arc::new(AtomicBool::new(true)))
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Canceled {
                    iterations: 1,
                    checkpoint: None
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn builder_getters_report_configuration() {
        let (ev, rc) = setup();
        let cfg = SearchConfig::builder().iterations(7).seed(3).build();
        let b = SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .config(cfg.clone())
            .strategy(Strategy::Evolution)
            .checkpoint_every(4)
            .fault_budget(9)
            .scoring_precision(ScoringPrecision::F32);
        assert_eq!(b.configured_strategy(), Strategy::Evolution);
        assert_eq!(b.configured_config(), &cfg);
        assert_eq!(b.configured_reward(), Some(&rc));
        assert_eq!(b.configured_checkpoint_every(), Some(4));
        assert_eq!(b.configured_fault_budget(), Some(9));
        assert_eq!(
            b.configured_scoring_precision(),
            Some(ScoringPrecision::F32)
        );
        let empty = SearchSession::builder();
        assert_eq!(empty.configured_strategy(), Strategy::Rl);
        assert!(empty.configured_reward().is_none());
    }

    #[test]
    fn traced_session_emits_one_event_per_iteration() {
        let (ev, rc) = setup();
        let trace = Trace::memory();
        let cfg = SearchConfig::builder()
            .iterations(25)
            .rollouts_per_update(5)
            .build();
        let out = session(&ev, rc, Strategy::Rl, &cfg)
            .trace(trace.clone())
            .run()
            .unwrap();
        let lines = trace.lines();
        let iters: Vec<SearchEvent> = lines.iter().filter_map(|l| SearchEvent::parse(l)).collect();
        assert_eq!(iters.len(), 25);
        for (i, (e, rec)) in iters.iter().zip(&out.history).enumerate() {
            assert_eq!(e.iteration, i as u64);
            assert_eq!(e.reward, rec.reward);
            assert_eq!(e.accuracy, rec.eval.accuracy);
            assert!(e.entropy.is_some(), "RL events carry entropy");
        }
        // Bracketing + subsystem summaries all present and parseable.
        for kind in [
            "search_start",
            "search_summary",
            "cache_summary",
            "gp_summary",
            "pool_summary",
            "controller_summary",
            "controller_update",
        ] {
            assert!(
                lines
                    .iter()
                    .filter_map(|l| Event::parse(l).ok())
                    .any(|e| e.kind == kind),
                "missing {kind}"
            );
        }
    }

    /// Every strategy scores through the pool: the outcome and the
    /// `search_iter` stream are the same at 1 and 8 worker threads (and
    /// so between any two identical runs).
    #[test]
    fn search_iter_stream_is_thread_count_invariant() {
        let (ev, rc) = setup();
        let cfg = SearchConfig::builder()
            .iterations(30)
            .rollouts_per_update(6)
            .seed(3)
            .population(8)
            .tournament(3)
            .build();
        for strategy in [Strategy::Rl, Strategy::Evolution, Strategy::Random] {
            let run_with = |threads: usize| {
                yoso_pool::set_num_threads(threads);
                let trace = Trace::memory();
                let outcome = session(&ev, rc, strategy, &cfg)
                    .trace(trace.clone())
                    .run()
                    .unwrap();
                yoso_pool::set_num_threads(0);
                (outcome, iter_lines(&trace))
            };
            let (outcome, lines) = run_with(1);
            assert_eq!(lines.len(), 30, "{strategy}");
            assert_eq!((outcome, lines), run_with(8), "{strategy}");
        }
    }

    #[test]
    fn builder_rejects_missing_evaluator() {
        let err = SearchSession::builder().reward(setup().1).build().err();
        assert!(
            matches!(err, Some(Error::InvalidConfig(ref m)) if m.contains(".evaluator")),
            "{err:?}"
        );
    }

    #[test]
    fn builder_rejects_checkpointing_without_dir() {
        let (ev, rc) = setup();
        let err = SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .checkpoint_every(5)
            .build()
            .err();
        assert!(
            matches!(err, Some(Error::InvalidConfig(ref m)) if m.contains("checkpoint_dir")),
            "{err:?}"
        );
        let err = SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .checkpoint_every(0)
            .checkpoint_dir("/tmp/nowhere")
            .build()
            .err();
        assert!(matches!(err, Some(Error::InvalidConfig(_))), "{err:?}");
    }

    /// Resuming from every checkpoint replays the rest of the run. The
    /// last two cases checkpoint every 5 candidates while random search
    /// scores 4 at a time and evolution fills its population of 6 at
    /// once, so the cadence cuts across their batches.
    #[test]
    fn resumed_runs_match_uninterrupted_runs() {
        let (ev, rc) = setup();
        for (strategy, tag, every, population) in [
            (Strategy::Rl, "rl", 12, 8),
            (Strategy::Evolution, "evo", 12, 8),
            (Strategy::Random, "rand", 12, 8),
            (Strategy::Evolution, "evo-mid", 5, 6),
            (Strategy::Random, "rand-mid", 5, 6),
        ] {
            let dir = temp_dir(tag);
            let cfg = SearchConfig::builder()
                .iterations(24)
                .rollouts_per_update(4)
                .seed(17)
                .population(population)
                .tournament(3)
                .build();
            let full = session(&ev, rc, strategy, &cfg)
                .checkpoint_every(every)
                .checkpoint_dir(&dir)
                .run()
                .unwrap();
            for at in (every..24).step_by(every) {
                let ckpt = dir.join(checkpoint_file_name(at));
                assert!(ckpt.exists(), "{tag}: checkpoint at {at} missing");
                // Simulated SIGKILL: the session object is gone; rebuild
                // everything from the on-disk snapshot.
                let resumed = SearchSession::resume_from(&ckpt)
                    .unwrap()
                    .evaluator(&ev)
                    .run()
                    .unwrap();
                assert_eq!(resumed, full, "{tag}: run resumed at {at} diverged");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_rejects_mismatched_evaluator_and_strategy() {
        let (ev, rc) = setup();
        let dir = temp_dir("mismatch");
        let cfg = SearchConfig::builder().iterations(10).seed(1).build();
        let out = session(&ev, rc, Strategy::Random, &cfg)
            .checkpoint_every(5)
            .checkpoint_dir(&dir)
            .run()
            .unwrap();
        assert_eq!(out.history.len(), 10);
        let ckpt = dir.join(checkpoint_file_name(5));
        // Wrong strategy: override after resume_from.
        let err = SearchSession::resume_from(&ckpt)
            .unwrap()
            .evaluator(&ev)
            .strategy(Strategy::Evolution)
            .run()
            .err();
        assert!(matches!(err, Some(Error::ResumeMismatch { .. })), "{err:?}");
        // Wrong evaluator: a different name.
        struct Renamed(SurrogateEvaluator);
        impl Evaluator for Renamed {
            fn evaluate(&self, p: &DesignPoint) -> Result<crate::evaluation::Evaluation, Error> {
                self.0.evaluate(p)
            }
            fn name(&self) -> &'static str {
                "renamed"
            }
        }
        let renamed = Renamed(SurrogateEvaluator::new(NetworkSkeleton::tiny()));
        let err = SearchSession::resume_from(&ckpt)
            .unwrap()
            .evaluator(&renamed)
            .run()
            .err();
        assert!(matches!(err, Some(Error::ResumeMismatch { .. })), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_resume_is_a_typed_error() {
        let (ev, rc) = setup();
        let dir = temp_dir("corrupt");
        let cfg = SearchConfig::builder().iterations(8).seed(2).build();
        session(&ev, rc, Strategy::Random, &cfg)
            .checkpoint_every(4)
            .checkpoint_dir(&dir)
            .run()
            .unwrap();
        let ckpt = dir.join(checkpoint_file_name(4));
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&ckpt, &bytes).unwrap();
        let err = SearchSession::resume_from(&ckpt).err();
        assert!(
            matches!(
                err,
                Some(Error::Persist(
                    yoso_persist::PersistError::ChecksumMismatch { .. }
                ))
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn search_event_roundtrips_via_json() {
        let e = SearchEvent {
            iteration: 12,
            reward: 0.7312,
            accuracy: 0.915,
            latency_ms: 0.4431,
            energy_mj: 3.02,
            entropy: Some(11.92),
        };
        assert_eq!(SearchEvent::parse(&e.to_json()), Some(e));
        let no_entropy = SearchEvent { entropy: None, ..e };
        assert_eq!(SearchEvent::parse(&no_entropy.to_json()), Some(no_entropy));
        // Wrong kind is rejected.
        assert_eq!(SearchEvent::from_event(&Event::new("other")), None);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::Rl.to_string(), "rl");
        assert_eq!(Strategy::Evolution.to_string(), "evolution");
        assert_eq!(Strategy::Random.to_string(), "random");
        assert_eq!(Strategy::default(), Strategy::Rl);
        for s in [Strategy::Rl, Strategy::Evolution, Strategy::Random] {
            assert_eq!(Strategy::from_name(s.name()), Some(s));
        }
        assert_eq!(Strategy::from_name("bogus"), None);
    }
}
