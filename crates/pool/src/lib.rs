//! Work-sharing thread pool underpinning every parallel stage of the
//! pipeline: exhaustive hardware sweeps, predictor sample collection,
//! batched candidate scoring and top-N reranking.
//!
//! # Design
//!
//! Workers self-schedule off a shared atomic index counter — the
//! single-queue equivalent of work stealing: an idle worker always grabs
//! the next unclaimed item, so imbalanced items (e.g. exact tiling
//! searches whose cost varies with layer shape) never leave threads idle
//! the way the previous fixed-chunk splitting did. Threads are scoped
//! (`std::thread::scope`), which is what lets closures borrow from the
//! caller under `#![forbid(unsafe_code)]`; spawning an OS thread costs
//! ~10 µs, noise next to the millisecond-scale items these maps carry.
//!
//! # Supervision
//!
//! Every map runs each attempt of each item under
//! `std::panic::catch_unwind`, so one panicking closure does not kill the
//! whole pool. A panicking item is retried twice, after a 1 ms and then
//! a 2 ms sleep; items claimed by a worker that nevertheless died are
//! re-run in a serial recovery pass after the join, so no slot is ever
//! left unfilled. Only an item that panics on all three attempts makes
//! [`parallel_map`] re-raise, with the last panic's message preserved.
//! Health counters (`pool.panics_caught`, `pool.retries`,
//! `pool.workers_lost`, `pool.items_recovered`) are emitted through
//! `yoso-trace` when telemetry is enabled.
//!
//! Deterministic worker-panic faults can be injected via `yoso-chaos`
//! ([`yoso_chaos::FaultKind::WorkerPanic`]): decisions are keyed on the
//! stable `(map sequence, item index, attempt)` triple, never on thread
//! interleaving, so a chaos run injects the same set of panics at any
//! thread count and retried items converge to their fault-free values.
//!
//! # Determinism
//!
//! [`parallel_map`] returns results in index order regardless of which
//! worker computed what. [`parallel_map_seeded`] additionally hands each
//! item an RNG derived from `(seed, index)` alone, so results are
//! invariant to the thread count: 1 thread and 64 threads produce
//! byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Saturating nanoseconds since `t0`.
fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Global default worker count: 0 means "auto" (one worker per
/// available hardware thread).
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Monotone map sequence number: salts chaos draws so distinct maps
/// inject at distinct items. Maps are issued serially from the search
/// thread, so the sequence itself is deterministic run-to-run.
static MAP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Retries after a panicking attempt before the panic is re-raised.
const MAX_RETRIES: u32 = 2;

/// The sleep before retry `k` (1-based) is `k × BACKOFF`: 1 ms, then 2 ms.
const BACKOFF: Duration = Duration::from_millis(1);

/// Overrides the global default worker count used when a map is called
/// with `threads == 0`. Passing 0 restores the auto default.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::SeqCst);
}

/// The global default worker count: the [`set_num_threads`] override if
/// set, otherwise `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    match NUM_THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

fn resolve(threads: usize, n: usize) -> usize {
    let threads = if threads == 0 { num_threads() } else { threads };
    threads.clamp(1, n.max(1))
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one item to its final verdict: attempt, catch the panic, back
/// off and retry within budget. `Err` carries the message
/// [`parallel_map`] re-raises once every attempt has panicked.
fn run_one<T, F>(i: usize, map_salt: u64, traced: bool, f: &F) -> Result<T, String>
where
    F: Fn(usize) -> T + Sync,
{
    let mut failed: u32 = 0;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if yoso_chaos::armed()
                && yoso_chaos::should_fault_indexed(
                    yoso_chaos::FaultKind::WorkerPanic,
                    i as u64,
                    failed,
                    map_salt,
                )
            {
                panic!("chaos: injected worker panic (item {i}, attempt {failed})");
            }
            f(i)
        }));
        let payload = match result {
            Ok(value) => return Ok(value),
            Err(payload) => payload,
        };
        if traced {
            yoso_trace::counter_add("pool.panics_caught", 1);
        }
        failed += 1;
        if failed > MAX_RETRIES {
            return Err(format!(
                "pool item {i} panicked after {failed} attempt(s): {}",
                panic_message(payload.as_ref())
            ));
        }
        if traced {
            yoso_trace::counter_add("pool.retries", 1);
        }
        std::thread::sleep(BACKOFF * failed);
    }
}

/// Applies `f` to `0..n` across worker threads and returns results in
/// index order. `threads == 0` uses the global default
/// ([`num_threads`]); otherwise exactly the requested count (clamped to
/// `n`) is used.
///
/// A panicking item is retried twice (see the crate docs) before the
/// panic is re-raised, so transient faults — e.g. chaos-injected worker
/// panics — are absorbed and deterministic items converge to their
/// fault-free values. `f` should therefore be idempotent, which every
/// pipeline map (pure function of the item index) already is.
///
/// When global telemetry is on ([`yoso_trace::enabled`]) each map
/// records `pool.maps` / `pool.items` counters, a `pool.map_wall` span,
/// and `pool.busy_ns` / `pool.thread_ns` — total worker-loop time vs.
/// total thread-time allocated, whose ratio is the pool utilization
/// (below 1.0 when the tail of the join leaves finished workers idle).
/// With telemetry off (the default) the only cost is one relaxed atomic
/// load.
///
/// # Panics
///
/// After every item has run, panics for the lowest-index item that
/// panicked on all three attempts, with the message `pool item {i}
/// panicked after 3 attempt(s): {last panic message}`.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve(threads, n);
    let map_salt = MAP_SEQ.fetch_add(1, Ordering::Relaxed);
    let traced = yoso_trace::enabled();
    let _map_span = traced.then(|| yoso_trace::span("pool.map_wall"));
    if traced {
        yoso_trace::counter_add("pool.maps", 1);
        yoso_trace::counter_add("pool.items", n as u64);
    }
    let results: Vec<Result<T, String>> = if threads == 1 || n <= 1 {
        let t0 = traced.then(Instant::now);
        let out = (0..n).map(|i| run_one(i, map_salt, traced, &f)).collect();
        if let Some(t0) = t0 {
            let elapsed = nanos_since(t0);
            yoso_trace::counter_add("pool.busy_ns", elapsed);
            yoso_trace::counter_add("pool.thread_ns", elapsed);
        }
        out
    } else {
        let t_map = traced.then(Instant::now);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let t0 = traced.then(Instant::now);
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, run_one(i, map_salt, traced, f)));
                        }
                        if let Some(t0) = t0 {
                            yoso_trace::counter_add("pool.busy_ns", nanos_since(t0));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                // Per-item panics are caught inside `run_one`, so a worker
                // thread dying is a should-not-happen (e.g. an unwind from
                // the telemetry layer). It is still survivable: its claimed
                // items stay `None` and the recovery pass below re-runs them.
                match handle.join() {
                    Ok(local) => {
                        for (i, v) in local {
                            slots[i] = Some(v);
                        }
                    }
                    Err(_) => {
                        if traced {
                            yoso_trace::counter_add("pool.workers_lost", 1);
                        }
                    }
                }
            }
        });
        if let Some(t_map) = t_map {
            yoso_trace::counter_add(
                "pool.thread_ns",
                nanos_since(t_map).saturating_mul(threads as u64),
            );
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(v) => v,
                // Respawn path: the item's worker died before reporting.
                None => {
                    if traced {
                        yoso_trace::counter_add("pool.items_recovered", 1);
                    }
                    run_one(i, map_salt, traced, &f)
                }
            })
            .collect()
    };
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect()
}

/// Derives the per-item RNG seed used by [`parallel_map_seeded`]:
/// a SplitMix64 hash of `(seed, index)`, so streams for different items
/// are independent and depend only on the pair.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::split_mix_64(&mut state)
}

/// Like [`parallel_map`], but hands `f` a deterministic per-item RNG
/// seeded from `(seed, index)` only — the output is identical for any
/// thread count, including 1. Retried items re-derive the same RNG, so
/// transient faults cannot perturb the result stream.
pub fn parallel_map_seeded<T, F>(n: usize, threads: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    parallel_map(n, threads, |i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
        f(i, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn preserves_order() {
        let v = parallel_map(100, 8, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn single_thread_and_empty() {
        assert_eq!(parallel_map(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_means_default() {
        assert_eq!(parallel_map(4, 0, |i| i * 2), vec![0, 2, 4, 6]);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn seeded_map_is_thread_count_invariant() {
        let draw = |_i: usize, rng: &mut StdRng| rng.random_range(0u64..1_000_000);
        let one = parallel_map_seeded(64, 1, 42, draw);
        let two = parallel_map_seeded(64, 2, 42, draw);
        let eight = parallel_map_seeded(64, 8, 42, draw);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        let other_seed = parallel_map_seeded(64, 8, 43, draw);
        assert_ne!(one, other_seed);
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
    }

    proptest::proptest! {
        /// The seeded map's output — including every value drawn from the
        /// per-item RNGs — is invariant to the worker count.
        #[test]
        fn seeded_map_invariant_to_thread_count(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..64,
        ) {
            let run = |threads: usize| {
                parallel_map_seeded(n, threads, seed, |i, rng| {
                    (i, rng.random::<u64>(), rng.random_range(0.0f64..1.0))
                })
            };
            let serial = run(1);
            proptest::prop_assert_eq!(&run(2), &serial);
            proptest::prop_assert_eq!(&run(8), &serial);
        }
    }

    // One test owns the global telemetry flag: concurrent tests in this
    // binary run maps too, so enabled-phase deltas are lower bounds and
    // the disabled phase runs while the flag is known off.
    #[test]
    fn telemetry_gating_on_maps() {
        yoso_trace::set_enabled(false);
        let before = yoso_trace::snapshot();
        parallel_map(16, 4, |i| i);
        let mid = yoso_trace::snapshot();
        assert_eq!(mid.counter("pool.maps"), before.counter("pool.maps"));

        yoso_trace::set_enabled(true);
        parallel_map(32, 4, |i| i * 3);
        parallel_map(8, 1, |i| i + 1);
        let after = yoso_trace::snapshot();
        yoso_trace::set_enabled(false);
        let d = |name: &str| after.counter(name) - mid.counter(name);
        assert!(d("pool.maps") >= 2);
        assert!(d("pool.items") >= 40);
        assert!(d("pool.busy_ns") > 0);
        assert!(d("pool.thread_ns") >= d("pool.busy_ns"));
        let walls = |s: &yoso_trace::RegistrySnapshot| {
            s.histogram("pool.map_wall").map_or(0, |h| h.count())
        };
        assert!(walls(&after) - walls(&mid) >= 2);
    }

    #[test]
    fn transient_panic_converges() {
        let tries: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        // Even items panic on their first two attempts and succeed on the
        // last one the budget allows.
        let out = parallel_map(6, 3, |i| {
            let attempt = tries[i].fetch_add(1, Ordering::SeqCst);
            if i % 2 == 0 && attempt < MAX_RETRIES {
                panic!("transient failure");
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        for (i, t) in tries.iter().enumerate() {
            let expected = if i % 2 == 0 { 3 } else { 1 };
            assert_eq!(t.load(Ordering::SeqCst), expected, "item {i}");
        }
    }

    #[test]
    fn always_panicking_item_reraises_after_three_attempts() {
        let tries: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(5, 2, |i| {
                tries[i].fetch_add(1, Ordering::SeqCst);
                if i >= 3 {
                    panic!("bad item {i}");
                }
                i
            })
        }))
        .unwrap_err();
        // Both failing items ran out their budget; the lowest index wins.
        assert_eq!(
            panic_message(payload.as_ref()),
            "pool item 3 panicked after 3 attempt(s): bad item 3"
        );
        let counts: Vec<u32> = tries.iter().map(|t| t.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1, 1, 1, 3, 3]);
    }

    #[test]
    fn chaos_injected_panics_converge_to_fault_free_values() {
        use yoso_chaos::{FaultKind, FaultPlan, FaultRule};
        let _guard = yoso_chaos::test_lock();
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        // `at` indices fire on the first attempt only; a rate rule capped
        // at two injections cannot panic one item three times either.
        for (rule, injections) in [
            (FaultRule::at(FaultKind::WorkerPanic, &[5, 17, 40]), 3),
            (
                FaultRule::rate(FaultKind::WorkerPanic, 0.4).max_faults(2),
                2,
            ),
        ] {
            yoso_chaos::install(&FaultPlan::new(2024).rule(rule));
            let faulted = parallel_map(64, 4, |i| i * i);
            let injected = yoso_chaos::injected(FaultKind::WorkerPanic);
            yoso_chaos::disarm();
            assert_eq!(injected, injections);
            assert_eq!(faulted, expected);
        }
    }
}
