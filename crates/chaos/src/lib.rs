//! Deterministic fault injection for chaos-testing the search stack.
//!
//! A [`FaultPlan`] is a seeded, serializable schedule of faults — worker
//! panics, simulator NaNs, GP fit failures, NaN rewards, slow evaluations —
//! that downstream crates consult through a global hook. The hook is
//! **zero-cost when disabled**: every instrumented site first checks
//! [`armed`], a single relaxed atomic load (the same pattern as
//! `yoso_trace::enabled`), so production runs with no plan installed pay
//! one predictable branch per site and allocate nothing.
//!
//! Injection decisions are deterministic functions of the plan seed and a
//! per-site opportunity index, never of wall-clock time or OS randomness,
//! so a failing chaos run can be replayed exactly from its plan file.
//! Sites that execute on pool worker threads additionally key decisions on
//! stable item indices (see [`should_fault_indexed`]) so the injected set
//! does not depend on thread interleaving.
//!
//! ```
//! use yoso_chaos::{FaultKind, FaultPlan, FaultRule};
//!
//! let _guard = yoso_chaos::test_lock();
//! let plan = FaultPlan::new(42).rule(FaultRule::at(FaultKind::NanReward, &[2]));
//! yoso_chaos::install(&plan);
//! assert!(!yoso_chaos::should_fault(FaultKind::NanReward)); // opportunity 0
//! assert!(!yoso_chaos::should_fault(FaultKind::NanReward)); // opportunity 1
//! assert!(yoso_chaos::should_fault(FaultKind::NanReward)); // opportunity 2
//! yoso_chaos::disarm();
//! assert!(!yoso_chaos::should_fault(FaultKind::NanReward));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// The failure modes the search stack knows how to inject and survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A pool worker closure panics mid-item (`yoso-pool`).
    WorkerPanic,
    /// The cycle-level simulator returns a non-finite report (`yoso-accel`).
    SimNan,
    /// A GP `fit` fails numerically (`yoso-predictor`).
    GpFitFail,
    /// A GP prediction goes non-finite, forcing per-query degradation.
    GpPredictNan,
    /// The scalar reward of a candidate becomes NaN (`yoso-core`).
    NanReward,
    /// An evaluation stalls for `delay_ms` before returning (`yoso-core`).
    SlowEval,
    /// A server connection is dropped mid-stream (`yoso-server`).
    ConnDrop,
    /// A wire frame is cut short after a prefix of its bytes
    /// (`yoso-server`), leaving the peer a truncated line.
    PartialWrite,
    /// A socket write stalls for `delay_ms` before completing
    /// (`yoso-server`), exercising deadlines and slow-consumer eviction.
    Stall,
    /// A garbage (non-protocol) line is injected into the stream ahead of
    /// the real frame (`yoso-server`), exercising decoder hardening.
    GarbageFrame,
}

const N_KINDS: usize = 10;

impl FaultKind {
    /// All kinds, in stable order.
    pub const ALL: [FaultKind; N_KINDS] = [
        FaultKind::WorkerPanic,
        FaultKind::SimNan,
        FaultKind::GpFitFail,
        FaultKind::GpPredictNan,
        FaultKind::NanReward,
        FaultKind::SlowEval,
        FaultKind::ConnDrop,
        FaultKind::PartialWrite,
        FaultKind::Stall,
        FaultKind::GarbageFrame,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::WorkerPanic => 0,
            FaultKind::SimNan => 1,
            FaultKind::GpFitFail => 2,
            FaultKind::GpPredictNan => 3,
            FaultKind::NanReward => 4,
            FaultKind::SlowEval => 5,
            FaultKind::ConnDrop => 6,
            FaultKind::PartialWrite => 7,
            FaultKind::Stall => 8,
            FaultKind::GarbageFrame => 9,
        }
    }

    /// Stable snake_case name used by the plan text format.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::SimNan => "sim_nan",
            FaultKind::GpFitFail => "gp_fit_fail",
            FaultKind::GpPredictNan => "gp_predict_nan",
            FaultKind::NanReward => "nan_reward",
            FaultKind::SlowEval => "slow_eval",
            FaultKind::ConnDrop => "conn_drop",
            FaultKind::PartialWrite => "partial_write",
            FaultKind::Stall => "stall",
            FaultKind::GarbageFrame => "garbage_frame",
        }
    }

    /// True for the kinds that carry a configurable stall duration, i.e.
    /// those whose `delay_ms` is meaningful and serialized by
    /// [`FaultPlan::to_text`].
    pub fn has_delay(self) -> bool {
        matches!(self, FaultKind::SlowEval | FaultKind::Stall)
    }

    /// Parses a [`FaultKind::name`] back into a kind.
    pub fn from_name(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injection rule: when and how often a [`FaultKind`] fires.
///
/// A rule fires at each explicitly listed opportunity index in `at`, and
/// additionally fires at random opportunities with probability `rate`
/// (drawn deterministically from the plan seed). `max_faults` caps the
/// total injections for the kind regardless of schedule. A rule with a
/// `scope` fires only on threads that declared the matching scope via
/// [`set_thread_scope`] — how a multi-tenant server faults one tenant's
/// jobs while jobs sharing the process stay untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Fault kind this rule injects.
    pub kind: FaultKind,
    /// Per-opportunity injection probability in `[0, 1]`.
    pub rate: f64,
    /// Explicit opportunity indices (0-based) at which to fire.
    pub at: Vec<u64>,
    /// Hard cap on injections for this kind (`u64::MAX` = unlimited).
    pub max_faults: u64,
    /// Stall duration for [`FaultKind::SlowEval`] / [`FaultKind::Stall`]
    /// injections.
    pub delay_ms: u64,
    /// When set, the rule applies only to threads whose
    /// [`set_thread_scope`] id equals this value.
    pub scope: Option<u64>,
}

impl FaultRule {
    /// Rule firing with probability `rate` at every opportunity.
    pub fn rate(kind: FaultKind, rate: f64) -> Self {
        FaultRule {
            kind,
            rate,
            at: Vec::new(),
            max_faults: u64::MAX,
            delay_ms: 1,
            scope: None,
        }
    }

    /// Rule firing exactly at the given opportunity indices.
    pub fn at(kind: FaultKind, indices: &[u64]) -> Self {
        FaultRule {
            kind,
            rate: 0.0,
            at: indices.to_vec(),
            max_faults: u64::MAX,
            delay_ms: 1,
            scope: None,
        }
    }

    /// Restricts this rule to threads with the given scope id (see
    /// [`set_thread_scope`] and [`scope_for`]).
    pub fn scope(mut self, id: u64) -> Self {
        self.scope = Some(id);
        self
    }

    /// Caps the total injections for this rule.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Sets the stall duration for [`FaultKind::SlowEval`] /
    /// [`FaultKind::Stall`].
    pub fn delay_ms(mut self, ms: u64) -> Self {
        self.delay_ms = ms;
        self
    }
}

/// A seeded, serializable schedule of faults.
///
/// At most one rule per kind is active; installing a plan with duplicate
/// kinds keeps the last rule (documented last-wins semantics, checked by
/// tests). The empty plan is valid and injects nothing — arming it is how
/// the zero-overhead acceptance test measures hook cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic injection decisions.
    pub seed: u64,
    /// Active rules (last rule wins per kind).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Serializes the plan to the line-based text format parsed by
    /// [`FaultPlan::from_text`].
    pub fn to_text(&self) -> String {
        let mut s = String::from("# yoso-chaos fault plan\n");
        s.push_str(&format!("seed {}\n", self.seed));
        for r in &self.rules {
            s.push_str(&format!("fault {}", r.kind.name()));
            if r.rate > 0.0 {
                s.push_str(&format!(" rate {}", r.rate));
            }
            if !r.at.is_empty() {
                let list: Vec<String> = r.at.iter().map(|i| i.to_string()).collect();
                s.push_str(&format!(" at {}", list.join(",")));
            }
            if r.max_faults != u64::MAX {
                s.push_str(&format!(" max {}", r.max_faults));
            }
            if r.kind.has_delay() {
                s.push_str(&format!(" delay_ms {}", r.delay_ms));
            }
            if let Some(scope) = r.scope {
                s.push_str(&format!(" scope {scope}"));
            }
            s.push('\n');
        }
        s
    }

    /// Parses the text format:
    ///
    /// ```text
    /// # comment
    /// seed 42
    /// fault worker_panic rate 0.05 max 20
    /// fault nan_reward at 3,7,19
    /// fault slow_eval rate 0.1 delay_ms 5
    /// fault sim_nan rate 0.2 scope 12345
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PlanParseError`] with the offending 1-based line number on
    /// unknown directives, unknown fault kinds, or malformed numbers.
    pub fn from_text(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let src = raw.split('#').next().unwrap_or("").trim();
            if src.is_empty() {
                continue;
            }
            let mut tokens = src.split_whitespace();
            match tokens.next() {
                Some("seed") => {
                    plan.seed = parse_num(line, tokens.next())?;
                }
                Some("fault") => {
                    let kind_tok = tokens
                        .next()
                        .ok_or_else(|| PlanParseError::new(line, "missing fault kind"))?;
                    let kind = FaultKind::from_name(kind_tok).ok_or_else(|| {
                        PlanParseError::new(line, format!("unknown fault kind `{kind_tok}`"))
                    })?;
                    let mut rule = FaultRule::rate(kind, 0.0);
                    while let Some(key) = tokens.next() {
                        let val = tokens.next();
                        match key {
                            "rate" => rule.rate = parse_num(line, val)?,
                            "max" => rule.max_faults = parse_num(line, val)?,
                            "delay_ms" => rule.delay_ms = parse_num(line, val)?,
                            "scope" => rule.scope = Some(parse_num(line, val)?),
                            "at" => {
                                let list = val.ok_or_else(|| {
                                    PlanParseError::new(line, "missing `at` index list")
                                })?;
                                for part in list.split(',') {
                                    rule.at.push(parse_num(line, Some(part))?);
                                }
                            }
                            other => {
                                return Err(PlanParseError::new(
                                    line,
                                    format!("unknown rule key `{other}`"),
                                ));
                            }
                        }
                    }
                    if !(0.0..=1.0).contains(&rule.rate) {
                        return Err(PlanParseError::new(
                            line,
                            format!("rate {} outside [0, 1]", rule.rate),
                        ));
                    }
                    plan.rules.push(rule);
                }
                Some(other) => {
                    return Err(PlanParseError::new(
                        line,
                        format!("unknown directive `{other}`"),
                    ));
                }
                None => unreachable!("empty lines are skipped"),
            }
        }
        Ok(plan)
    }

    /// Writes the text form to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_text().as_bytes())
    }

    /// Loads a plan from a text file written by [`FaultPlan::save`] (or by
    /// hand; see [`FaultPlan::from_text`] for the grammar).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; parse failures surface as
    /// [`io::ErrorKind::InvalidData`] with the line number in the message.
    pub fn load(path: impl AsRef<Path>) -> io::Result<FaultPlan> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        FaultPlan::from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, tok: Option<&str>) -> Result<T, PlanParseError> {
    let tok = tok.ok_or_else(|| PlanParseError::new(line, "missing numeric value"))?;
    tok.trim()
        .parse()
        .map_err(|_| PlanParseError::new(line, format!("malformed number `{tok}`")))
}

/// Parse failure for the plan text format.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl PlanParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        PlanParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

// ---------------------------------------------------------------------------
// Global hook state
// ---------------------------------------------------------------------------

/// Compiled form of an installed plan: per-kind thresholds and schedules.
struct Active {
    seed: u64,
    /// `rate` mapped onto the u64 hash range (0 = never).
    threshold: [u64; N_KINDS],
    /// Sorted explicit opportunity indices.
    at: [Vec<u64>; N_KINDS],
    /// Injection caps.
    max: [u64; N_KINDS],
    /// SlowEval stall duration.
    delay: [u64; N_KINDS],
    /// Per-kind scope restriction (`None` = applies to every thread).
    scope: [Option<u64>; N_KINDS],
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Active>> = RwLock::new(None);
static OPPORTUNITIES: [AtomicU64; N_KINDS] = [const { AtomicU64::new(0) }; N_KINDS];
static INJECTED: [AtomicU64; N_KINDS] = [const { AtomicU64::new(0) }; N_KINDS];
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests (and other exclusive users) of the global plan.
///
/// The hook state is process-global, so concurrently running tests that
/// [`install`] plans would interfere; every such test should hold this
/// guard for its duration. Lock poisoning (a panicking test) is ignored —
/// the next holder re-installs its own plan anyway.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when a plan is installed. A single relaxed atomic load — every
/// instrumented site checks this first, making the disabled path free of
/// locks, allocation, and hashing.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Installs `plan` globally and resets all opportunity/injection counters,
/// so repeated installs of the same plan replay the same schedule.
///
/// Rates are clamped into `[0, 1]`; for duplicate kinds the last rule wins.
pub fn install(plan: &FaultPlan) {
    let mut active = Active {
        seed: plan.seed,
        threshold: [0; N_KINDS],
        at: std::array::from_fn(|_| Vec::new()),
        max: [u64::MAX; N_KINDS],
        delay: [1; N_KINDS],
        scope: [None; N_KINDS],
    };
    for r in &plan.rules {
        let k = r.kind.index();
        let rate = r.rate.clamp(0.0, 1.0);
        // Map the probability onto the full u64 hash range; `rate >= 1.0`
        // must fire on every draw, which `(rate * 2^64) as u64` would not
        // (saturating cast still loses the top value).
        active.threshold[k] = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        };
        active.at[k] = r.at.clone();
        active.at[k].sort_unstable();
        active.max[k] = r.max_faults;
        active.delay[k] = r.delay_ms;
        active.scope[k] = r.scope;
    }
    for c in OPPORTUNITIES.iter().chain(INJECTED.iter()) {
        c.store(0, Ordering::Relaxed);
    }
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(active);
    ARMED.store(true, Ordering::Relaxed);
}

/// Removes the installed plan. Counters are left readable for post-run
/// assertions ([`injected`], [`stats`]); the next [`install`] resets them.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
}

// ---------------------------------------------------------------------------
// Thread scopes
//
// A scope is a per-thread identity (typically one search job) that two
// things key off: scoped *rules* fire only on threads carrying the
// matching id, and scoped *threads* consume thread-local opportunity
// counters instead of the process-global ones. The latter is what makes
// serial-site injection deterministic per job on a multi-tenant server —
// with global counters, concurrent jobs would interleave opportunity
// indices nondeterministically. Scopes affect serial sites
// ([`should_fault`] and its wrappers); [`should_fault_indexed`] runs on
// pool worker threads, which never carry a scope, so scoped rules simply
// never fire there.

struct ScopeState {
    id: u64,
    opportunities: [u64; N_KINDS],
}

thread_local! {
    static THREAD_SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Declares this thread's fault scope. `Some(id)` starts a fresh scope
/// with zeroed thread-local opportunity counters (so a job always begins
/// at opportunity 0, whatever ran on this thread before); `None` reverts
/// to the process-global counters.
pub fn set_thread_scope(scope: Option<u64>) {
    THREAD_SCOPE.with(|s| {
        *s.borrow_mut() = scope.map(|id| ScopeState {
            id,
            opportunities: [0; N_KINDS],
        });
    });
}

/// The scope id this thread declared, if any.
pub fn thread_scope() -> Option<u64> {
    THREAD_SCOPE.with(|s| s.borrow().as_ref().map(|state| state.id))
}

/// Stable scope id for a name (FNV-1a folded through SplitMix64) — the
/// shared convention by which a server and a plan author agree on a
/// tenant's scope id without coordinating.
pub fn scope_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// SplitMix64 finalizer — the same bijective mixer `yoso-pool` uses for
/// per-item seeds, giving well-distributed, platform-independent draws.
/// Also the step of `yoso-client`'s backoff-jitter stream.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(seed: u64, kind: usize, key: u64) -> u64 {
    splitmix64(splitmix64(seed ^ (kind as u64).rotate_left(32)) ^ key)
}

/// Records one occurrence and applies the injection cap. Returns whether
/// the fault actually fires.
fn fire(kind: usize, wants: bool, max: u64) -> bool {
    if !wants {
        return false;
    }
    INJECTED[kind]
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < max).then_some(n + 1)
        })
        .is_ok()
}

/// Should the next opportunity at a **serial** site inject `kind`?
///
/// Each call consumes one opportunity index; explicit `at` indices and
/// rate draws are both keyed on it. On unscoped threads (the default)
/// that index is a per-kind process-global counter, so serial sites (GP
/// fits, reward computation, the session loop) replay identically
/// run-to-run. On threads that declared a scope via [`set_thread_scope`]
/// the index is thread-local and starts at 0 per scope, so concurrent
/// jobs on a server draw independent, per-job-deterministic schedules
/// (rate draws additionally mix in the scope id, decorrelating tenants).
/// For sites running on pool workers use [`should_fault_indexed`]
/// instead — a counter's order would depend on thread interleaving there.
pub fn should_fault(kind: FaultKind) -> bool {
    if !armed() {
        return false;
    }
    let k = kind.index();
    let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
    let Some(a) = guard.as_ref() else {
        return false;
    };
    // Global counter always ticks (aggregate stats stay meaningful); a
    // scoped thread takes its opportunity index from its own counters.
    let global_n = OPPORTUNITIES[k].fetch_add(1, Ordering::Relaxed);
    let scoped: Option<(u64, u64)> = THREAD_SCOPE.with(|s| {
        s.borrow_mut().as_mut().map(|state| {
            let n = state.opportunities[k];
            state.opportunities[k] += 1;
            (state.id, n)
        })
    });
    if let Some(required) = a.scope[k] {
        if scoped.map(|(id, _)| id) != Some(required) {
            return false;
        }
    }
    let (n, key) = match scoped {
        Some((id, n)) => (n, n ^ splitmix64(id)),
        None => (global_n, global_n),
    };
    let wants = a.at[k].binary_search(&n).is_ok()
        || (a.threshold[k] > 0 && draw(a.seed, k, key) < a.threshold[k]);
    fire(k, wants, a.max[k])
}

/// Should a **parallel** site inject `kind` for stable item `index`,
/// attempt `attempt`, under caller-chosen `salt` (e.g. a map sequence
/// number, so distinct maps draw independently)?
///
/// Decisions are keyed on `(plan seed, kind, index, attempt, salt)` — not
/// on arrival order — so the injected set is identical at any thread
/// count. Explicit `at` indices match `index` on the first attempt only
/// (any salt); rate draws include `attempt`, so retries of a transiently
/// injected item re-draw and converge (the supervised-pool retry test
/// relies on this).
pub fn should_fault_indexed(kind: FaultKind, index: u64, attempt: u32, salt: u64) -> bool {
    if !armed() {
        return false;
    }
    let k = kind.index();
    let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
    let Some(a) = guard.as_ref() else {
        return false;
    };
    OPPORTUNITIES[k].fetch_add(1, Ordering::Relaxed);
    // Pool workers never carry a thread scope, so a scoped rule cannot
    // apply here; checking the thread anyway keeps the semantics uniform
    // if a caller runs an indexed site on a scoped thread.
    if let Some(required) = a.scope[k] {
        if thread_scope() != Some(required) {
            return false;
        }
    }
    let key = splitmix64(index ^ splitmix64(salt)).wrapping_add((attempt as u64).rotate_left(17));
    let wants = (attempt == 0 && a.at[k].binary_search(&index).is_ok())
        || (a.threshold[k] > 0 && draw(a.seed, k, key) < a.threshold[k]);
    fire(k, wants, a.max[k])
}

/// Consumes a [`FaultKind::SlowEval`] opportunity; returns the configured
/// stall when it fires. Callers `sleep` for the returned duration.
pub fn eval_delay() -> Option<Duration> {
    if !armed() {
        return None;
    }
    if should_fault(FaultKind::SlowEval) {
        let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
        let ms = guard
            .as_ref()
            .map(|a| a.delay[FaultKind::SlowEval.index()])
            .unwrap_or(0);
        Some(Duration::from_millis(ms))
    } else {
        None
    }
}

/// The configured `delay_ms` for `kind` under the installed plan, without
/// consuming an opportunity. Sites that already decided to inject a
/// stall-style fault (via [`should_fault`] / [`should_fault_indexed`])
/// call this to learn how long to sleep.
pub fn delay_of(kind: FaultKind) -> Duration {
    if !armed() {
        return Duration::ZERO;
    }
    let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
    let ms = guard.as_ref().map(|a| a.delay[kind.index()]).unwrap_or(0);
    Duration::from_millis(ms)
}

/// Consumes one opportunity for `kind`; returns NaN when it fires, `value`
/// otherwise. Convenience for poisoning scalar outputs at serial sites.
pub fn poison_f64(kind: FaultKind, value: f64) -> f64 {
    if should_fault(kind) {
        f64::NAN
    } else {
        value
    }
}

/// Number of faults actually injected for `kind` since the last [`install`].
pub fn injected(kind: FaultKind) -> u64 {
    INJECTED[kind.index()].load(Ordering::Relaxed)
}

/// Total faults injected across all kinds since the last [`install`].
pub fn injected_total() -> u64 {
    INJECTED.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Per-kind counters since the last [`install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault kind the counters describe.
    pub kind: FaultKind,
    /// Decision points reached (armed or not fired included).
    pub opportunities: u64,
    /// Faults actually injected.
    pub injected: u64,
}

/// Snapshot of all per-kind counters, in [`FaultKind::ALL`] order.
pub fn stats() -> Vec<FaultStats> {
    FaultKind::ALL
        .into_iter()
        .map(|kind| FaultStats {
            kind,
            opportunities: OPPORTUNITIES[kind.index()].load(Ordering::Relaxed),
            injected: INJECTED[kind.index()].load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let plan = FaultPlan::new(7)
            .rule(FaultRule::rate(FaultKind::WorkerPanic, 0.25).max_faults(10))
            .rule(FaultRule::at(FaultKind::NanReward, &[3, 7, 19]))
            .rule(FaultRule::rate(FaultKind::SlowEval, 0.5).delay_ms(5));
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).expect("round trip parses");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::from_text("bogus 1").is_err());
        assert!(FaultPlan::from_text("fault not_a_kind rate 0.5").is_err());
        assert!(FaultPlan::from_text("fault sim_nan rate 1.5").is_err());
        assert!(FaultPlan::from_text("fault sim_nan rate abc").is_err());
        assert!(FaultPlan::from_text("seed").is_err());
        let err = FaultPlan::from_text("seed 1\nfault sim_nan frequency 2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("frequency"));
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let plan = FaultPlan::from_text("# header\n\n seed 9 # trailing\n").expect("parses");
        assert_eq!(plan.seed, 9);
        assert!(plan.rules.is_empty());
    }

    #[test]
    fn disarmed_hook_never_fires() {
        let _guard = test_lock();
        disarm();
        assert!(!armed());
        for kind in FaultKind::ALL {
            assert!(!should_fault(kind));
            assert!(!should_fault_indexed(kind, 0, 0, 0));
        }
        assert!(eval_delay().is_none());
        assert_eq!(poison_f64(FaultKind::NanReward, 1.5), 1.5);
    }

    #[test]
    fn explicit_indices_fire_exactly() {
        let _guard = test_lock();
        install(&FaultPlan::new(1).rule(FaultRule::at(FaultKind::GpFitFail, &[1, 4])));
        let fired: Vec<bool> = (0..6).map(|_| should_fault(FaultKind::GpFitFail)).collect();
        assert_eq!(fired, [false, true, false, false, true, false]);
        assert_eq!(injected(FaultKind::GpFitFail), 2);
        disarm();
    }

    #[test]
    fn rate_draws_are_deterministic_and_roughly_calibrated() {
        let _guard = test_lock();
        install(&FaultPlan::new(123).rule(FaultRule::rate(FaultKind::SimNan, 0.3)));
        let first: Vec<bool> = (0..1000).map(|_| should_fault(FaultKind::SimNan)).collect();
        let hits = first.iter().filter(|&&b| b).count();
        assert!((200..400).contains(&hits), "rate 0.3 gave {hits}/1000");
        // Re-installing the same plan resets counters and replays exactly.
        install(&FaultPlan::new(123).rule(FaultRule::rate(FaultKind::SimNan, 0.3)));
        let second: Vec<bool> = (0..1000).map(|_| should_fault(FaultKind::SimNan)).collect();
        assert_eq!(first, second);
        disarm();
    }

    #[test]
    fn max_faults_caps_injections() {
        let _guard = test_lock();
        install(&FaultPlan::new(5).rule(FaultRule::rate(FaultKind::NanReward, 1.0).max_faults(3)));
        let hits = (0..50)
            .filter(|_| should_fault(FaultKind::NanReward))
            .count();
        assert_eq!(hits, 3);
        assert_eq!(injected(FaultKind::NanReward), 3);
        disarm();
    }

    #[test]
    fn indexed_decisions_ignore_call_order() {
        let _guard = test_lock();
        let plan = FaultPlan::new(77).rule(FaultRule::rate(FaultKind::WorkerPanic, 0.4));
        install(&plan);
        let forward: Vec<bool> = (0..64)
            .map(|i| should_fault_indexed(FaultKind::WorkerPanic, i, 0, 0))
            .collect();
        install(&plan);
        let backward: Vec<bool> = (0..64)
            .rev()
            .map(|i| should_fault_indexed(FaultKind::WorkerPanic, i, 0, 0))
            .collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        // Retries draw independently: some first-attempt injections clear.
        install(&plan);
        let retried: Vec<bool> = (0..64)
            .map(|i| should_fault_indexed(FaultKind::WorkerPanic, i, 1, 0))
            .collect();
        assert_ne!(forward, retried);
        disarm();
    }

    #[test]
    fn explicit_indexed_faults_hit_first_attempt_only() {
        let _guard = test_lock();
        install(&FaultPlan::new(3).rule(FaultRule::at(FaultKind::WorkerPanic, &[2])));
        assert!(should_fault_indexed(FaultKind::WorkerPanic, 2, 0, 0));
        assert!(!should_fault_indexed(FaultKind::WorkerPanic, 2, 1, 0));
        assert!(!should_fault_indexed(FaultKind::WorkerPanic, 1, 0, 0));
        disarm();
    }

    #[test]
    fn slow_eval_reports_configured_delay() {
        let _guard = test_lock();
        install(&FaultPlan::new(2).rule(FaultRule::rate(FaultKind::SlowEval, 1.0).delay_ms(7)));
        assert_eq!(eval_delay(), Some(Duration::from_millis(7)));
        disarm();
    }

    #[test]
    fn stats_track_opportunities_and_injections() {
        let _guard = test_lock();
        install(&FaultPlan::new(11).rule(FaultRule::rate(FaultKind::SimNan, 1.0).max_faults(2)));
        for _ in 0..5 {
            let _ = should_fault(FaultKind::SimNan);
        }
        let s = stats();
        let sim = s
            .iter()
            .find(|s| s.kind == FaultKind::SimNan)
            .expect("sim stats");
        assert_eq!(sim.opportunities, 5);
        assert_eq!(sim.injected, 2);
        assert_eq!(injected_total(), 2);
        disarm();
    }

    #[test]
    fn scope_round_trips_through_text() {
        let plan = FaultPlan::new(4)
            .rule(FaultRule::rate(FaultKind::SimNan, 0.2).scope(12345))
            .rule(FaultRule::at(FaultKind::NanReward, &[1]).scope(scope_for("tenant-a")));
        let text = plan.to_text();
        assert!(text.contains("scope 12345"), "{text}");
        assert_eq!(FaultPlan::from_text(&text).expect("parses"), plan);
    }

    #[test]
    fn scoped_rule_fires_only_on_matching_thread() {
        let _guard = test_lock();
        let target = scope_for("tenant-a");
        install(&FaultPlan::new(8).rule(FaultRule::rate(FaultKind::NanReward, 1.0).scope(target)));
        // Unscoped thread: never fires.
        set_thread_scope(None);
        assert!(!should_fault(FaultKind::NanReward));
        // Wrong scope: never fires.
        set_thread_scope(Some(scope_for("tenant-b")));
        assert!(!should_fault(FaultKind::NanReward));
        // Matching scope: fires.
        set_thread_scope(Some(target));
        assert!(should_fault(FaultKind::NanReward));
        // Indexed sites apply the same filter.
        set_thread_scope(None);
        assert!(!should_fault_indexed(FaultKind::NanReward, 0, 0, 0));
        set_thread_scope(Some(target));
        assert!(should_fault_indexed(FaultKind::NanReward, 0, 0, 0));
        set_thread_scope(None);
        disarm();
    }

    #[test]
    fn scoped_threads_replay_per_scope_schedules() {
        let _guard = test_lock();
        let plan = FaultPlan::new(21).rule(FaultRule::rate(FaultKind::SimNan, 0.3));
        install(&plan);
        // A scoped "job": entering the scope zeroes its opportunity
        // counters, so the schedule is a pure function of (seed, scope).
        set_thread_scope(Some(7));
        let first: Vec<bool> = (0..64).map(|_| should_fault(FaultKind::SimNan)).collect();
        // Interleave consumption from another scope and from no scope —
        // with global counters this would shift the next job's indices.
        set_thread_scope(Some(9));
        let other: Vec<bool> = (0..64).map(|_| should_fault(FaultKind::SimNan)).collect();
        set_thread_scope(None);
        for _ in 0..17 {
            let _ = should_fault(FaultKind::SimNan);
        }
        // Re-entering scope 7 replays the identical schedule.
        set_thread_scope(Some(7));
        let second: Vec<bool> = (0..64).map(|_| should_fault(FaultKind::SimNan)).collect();
        assert_eq!(first, second);
        // Distinct scopes draw decorrelated schedules.
        assert_ne!(first, other);
        set_thread_scope(None);
        disarm();
    }

    #[test]
    fn network_kinds_round_trip_through_text() {
        let plan = FaultPlan::new(13)
            .rule(FaultRule::rate(FaultKind::ConnDrop, 0.1).max_faults(4))
            .rule(FaultRule::rate(FaultKind::PartialWrite, 0.05))
            .rule(FaultRule::rate(FaultKind::Stall, 0.2).delay_ms(9))
            .rule(FaultRule::at(FaultKind::GarbageFrame, &[2, 5]));
        let text = plan.to_text();
        assert!(text.contains("fault stall rate 0.2 delay_ms 9"), "{text}");
        assert_eq!(FaultPlan::from_text(&text).expect("parses"), plan);
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn delay_of_reports_stall_duration_without_consuming() {
        let _guard = test_lock();
        install(&FaultPlan::new(6).rule(FaultRule::rate(FaultKind::Stall, 1.0).delay_ms(12)));
        assert_eq!(delay_of(FaultKind::Stall), Duration::from_millis(12));
        assert_eq!(delay_of(FaultKind::Stall), Duration::from_millis(12));
        let s = stats();
        let stall = s
            .iter()
            .find(|s| s.kind == FaultKind::Stall)
            .expect("stall stats");
        assert_eq!(stall.opportunities, 0);
        disarm();
        assert_eq!(delay_of(FaultKind::Stall), Duration::ZERO);
    }

    #[test]
    fn scope_for_is_stable_and_distinct() {
        assert_eq!(scope_for("tenant-a"), scope_for("tenant-a"));
        assert_ne!(scope_for("tenant-a"), scope_for("tenant-b"));
        assert_ne!(scope_for(""), scope_for("a"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("yoso_chaos_test_plan");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("plan.txt");
        let plan = FaultPlan::new(99).rule(FaultRule::rate(FaultKind::GpPredictNan, 0.1));
        plan.save(&path).expect("save");
        assert_eq!(FaultPlan::load(&path).expect("load"), plan);
        std::fs::remove_file(&path).ok();
    }
}
