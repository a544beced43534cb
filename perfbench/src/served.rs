//! `served_jobs`: an in-process `yoso-server` with the write-ahead
//! journal on, 2 runners and the tiny skeleton, driven by a closed loop
//! of 2 client connections on 2 threads. Each connection submits
//! streaming RL jobs back to back from a seeded job list in which a
//! fixed share of jobs repeats an earlier job's seed (a tenant re-running
//! a search) beside fresh work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use yoso_arch::NetworkSkeleton;
use yoso_client::Client;
use yoso_core::evaluation::{calibrate_constraints, Evaluator, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};
use yoso_server::journal::{Journal, Record};
use yoso_server::proto::{JobSpec, JobState, Reply};
use yoso_server::{Server, ServerConfig};
use yoso_trace::Trace;

use crate::common::{
    cache_layers, lines_digest, median, percentile, Out, RegistryDelta, TimedEvaluator,
};
use crate::spans::{Key, Tracer};
use crate::Opts;

const CONNECTIONS: usize = 2;
const RUNNERS: usize = 2;
const SETUPS: usize = 5;
/// One job in this many re-runs an earlier job's seed.
const REPEAT_EVERY: u64 = 4;
const TENANTS: usize = 4;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded job list: fresh search seeds, with about one job in
/// [`REPEAT_EVERY`] re-using the seed of an earlier job.
fn job_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = seed;
    let mut seeds: Vec<u64> = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix64(&mut rng);
        let s = if i > 0 && r.is_multiple_of(REPEAT_EVERY) {
            seeds[(splitmix64(&mut rng) % i as u64) as usize]
        } else {
            splitmix64(&mut rng) % 1_000_000_000
        };
        seeds.push(s);
    }
    seeds
}

fn spec(i: usize, seed: u64, reward: RewardConfig, iterations: usize) -> JobSpec {
    let mut spec = JobSpec::new(format!("tenant-{}", i % TENANTS), reward);
    spec.strategy = Strategy::Rl;
    spec.config = SearchConfig {
        iterations,
        rollouts_per_update: 4,
        seed,
        population: 20,
        tournament: 5,
    };
    spec
}

/// What one client saw of one job.
struct JobRun {
    idx: usize,
    job: u64,
    submit_ms: f64,
    first_event_ms: f64,
    gaps_ms: Vec<f64>,
    job_ms: f64,
    bytes: usize,
    lines: Vec<String>,
    best_reward: f64,
    error: Option<String>,
}

fn frame_bytes(r: &Reply) -> usize {
    r.to_json().len() + 1
}

/// Submits one streaming job and reads its frames until `job_done`.
fn drive(
    client: &mut Client,
    idx: usize,
    spec: &JobSpec,
    tr: &Tracer,
    parent: u32,
) -> Result<JobRun, String> {
    let err = |e: yoso_client::ClientError| e.to_string();
    let t0 = Instant::now();
    let job = client.submit(spec, true).map_err(err)?;
    let t_submit = Instant::now();
    let mut run = JobRun {
        idx,
        job,
        submit_ms: t_submit.duration_since(t0).as_secs_f64() * 1e3,
        first_event_ms: 0.0,
        gaps_ms: Vec::new(),
        job_ms: 0.0,
        bytes: frame_bytes(&Reply::Submitted { job }),
        lines: Vec::new(),
        best_reward: 0.0,
        error: None,
    };
    let mut last: Option<Instant> = None;
    let mut first: Option<Instant> = None;
    loop {
        let reply = client.next_event().map_err(err)?;
        run.bytes += frame_bytes(&reply);
        match reply {
            Reply::Event { line, .. } => {
                if line.starts_with("{\"event\":\"search_iter\"") {
                    let now = Instant::now();
                    match last {
                        Some(l) => run.gaps_ms.push(now.duration_since(l).as_secs_f64() * 1e3),
                        None => {
                            run.first_event_ms = now.duration_since(t0).as_secs_f64() * 1e3;
                            first = Some(now);
                        }
                    }
                    last = Some(now);
                    run.lines.push(line);
                }
            }
            Reply::Done(done) => {
                let end = Instant::now();
                run.job_ms = end.duration_since(t0).as_secs_f64() * 1e3;
                if done.state != JobState::Completed {
                    run.error = Some(format!(
                        "job {job} ended {}: {}",
                        done.state,
                        done.error.unwrap_or_default()
                    ));
                }
                run.best_reward = done.best_reward.unwrap_or(0.0);
                if let Some(front) = client.pareto_front(job) {
                    run.bytes += frame_bytes(&Reply::ParetoFront(front.clone()));
                }
                let id = tr.record("client.job", parent, Key::Job(job), t0, end);
                tr.record("client.submit", id, Key::Job(job), t0, t_submit);
                if let Some(f) = first {
                    tr.record("client.first_event_wait", id, Key::Job(job), t_submit, f);
                }
                return Ok(run);
            }
            other => return Err(format!("job {job}: unexpected frame {other:?}")),
        }
    }
}

/// Starts the server and waits until it answers a `stats` request.
fn start(
    o: &Opts,
    k: usize,
    skeleton: &NetworkSkeleton,
    seed: u64,
    tr: &Tracer,
    parent: u32,
) -> Result<(Server, Client, RewardConfig), String> {
    let root = o.work.join(format!("served-journal-{k}"));
    let _ = std::fs::remove_dir_all(&root);
    let constraints = tr.time("core.calibrate", parent, Key::None, |_| {
        calibrate_constraints(skeleton, 50, seed, 50.0)
    });
    let server = tr
        .time("server.start", parent, Key::None, |_| {
            Server::start(ServerConfig {
                max_concurrent_jobs: RUNNERS,
                queue_capacity: 64,
                checkpoint_root: Some(root),
                skeleton: skeleton.clone(),
                ..ServerConfig::default()
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let mut admin = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    admin.stats().map_err(|e| e.to_string())?;
    Ok((server, admin, RewardConfig::balanced(constraints)))
}

fn stop(server: Server, mut admin: Client) -> Result<(), String> {
    admin.shutdown_server().map_err(|e| e.to_string())?;
    drop(admin);
    server.shutdown();
    Ok(())
}

#[allow(clippy::too_many_lines)]
pub fn run(o: &Opts, tr: &Tracer, top: u32, out: &mut Out) -> Result<(), String> {
    let skeleton = NetworkSkeleton::tiny();
    let iterations = if o.smoke { 6 } else { 8 };
    let seed = o.unit_seed(0);

    // Set-up: calibration plus server start, several times from an
    // empty simulator cache; the last server takes the load.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        yoso_accel::cache::clear();
        let t = Instant::now();
        let started = tr.time("setup", top, Key::None, |id| {
            start(o, k, &skeleton, seed, tr, id)
        })?;
        setups.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            tr.time("server.stop", top, Key::None, |_| {
                stop(started.0, started.1)
            })?;
        } else {
            live = Some(started);
        }
    }
    let (server, mut admin, reward) = live.expect("at least one set-up");
    let addr = server.addr();

    let max_jobs = o.units.unwrap_or(if o.smoke { 12 } else { 100_000 });
    let seeds = job_seeds(seed, max_jobs);
    let next = AtomicUsize::new(0);
    let reg = yoso_trace::snapshot();
    let cache_before = yoso_accel::cache::stats();
    let runs = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let t_load = Instant::now();
    let deadline = t_load + Duration::from_secs_f64(o.seconds);
    tr.time("load", top, Key::None, |id| {
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| {
                    let mut client = Client::connect(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= max_jobs
                            || (o.units.is_none() && !o.smoke && Instant::now() >= deadline)
                        {
                            break;
                        }
                        let result = match &mut client {
                            Ok(c) => drive(c, i, &spec(i, seeds[i], reward, iterations), tr, id),
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        match result {
                            Ok(r) => runs.lock().expect("runs lock poisoned").push(r),
                            Err(e) => {
                                failures
                                    .lock()
                                    .expect("failures lock poisoned")
                                    .push(format!("job #{i}: {e}"));
                                client = Client::connect(addr);
                            }
                        }
                    }
                });
            }
        });
    });
    let load_s = t_load.elapsed().as_secs_f64();
    let d = RegistryDelta::new(reg);
    if o.traced {
        cache_layers(out, "L:accel.cache", &cache_before);
    }
    let stats = admin.stats().map_err(|e| e.to_string())?;
    tr.time("server.stop", top, Key::None, |_| stop(server, admin))?;

    let mut runs = runs.into_inner().expect("runs lock poisoned");
    runs.sort_by_key(|r| r.idx);
    let mut failures = failures.into_inner().expect("failures lock poisoned");
    let attempted = runs.len() + failures.len();
    for r in &runs {
        if let Some(e) = &r.error {
            failures.push(e.clone());
        } else if r.lines.len() != iterations {
            failures.push(format!(
                "job {} streamed {} search_iter frames, expected {iterations}",
                r.job,
                r.lines.len()
            ));
        }
    }
    if stats.failed != 0 {
        failures.push(format!("server reports {} failed jobs", stats.failed));
    }

    // Every served stream must be byte-identical to an in-process run of
    // the same spec. Jobs that share a seed share one in-process run.
    let mut order: Vec<u64> = Vec::new();
    let mut by_seed: HashMap<u64, Vec<usize>> = HashMap::new();
    for (k, r) in runs.iter().enumerate() {
        let s = seeds[r.idx];
        by_seed.entry(s).or_insert_with(|| {
            order.push(s);
            Vec::new()
        });
        by_seed.get_mut(&s).expect("just inserted").push(k);
    }
    if o.traced {
        // Same start state as the served load: an empty simulator cache.
        yoso_accel::cache::clear();
    }
    let next = AtomicUsize::new(0);
    let inproc: Mutex<HashMap<u64, (Vec<String>, f64)>> = Mutex::new(HashMap::new());
    let eval_logs = Mutex::new(Vec::new());
    tr.time("inprocess", top, Key::None, |id| {
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| {
                    let ev = SurrogateEvaluator::new(skeleton.clone());
                    let timed = TimedEvaluator::new(&ev, tr);
                    let evr: &dyn Evaluator = if o.traced { &timed } else { &ev };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&s) = order.get(i) else { break };
                        let job = runs[by_seed[&s][0]].job;
                        let trace = Trace::memory();
                        let t = Instant::now();
                        let res = tr.time("core.job_inproc", id, Key::Job(job), |jid| {
                            timed.begin_search(jid);
                            spec(0, s, reward, iterations)
                                .apply(SearchSession::builder())
                                .evaluator(evr)
                                .trace(trace.clone())
                                .run()
                        });
                        let t_ms = t.elapsed().as_secs_f64() * 1e3;
                        let lines = match res {
                            Ok(_) => trace
                                .lines()
                                .into_iter()
                                .filter(|l| l.starts_with("{\"event\":\"search_iter\""))
                                .collect(),
                            Err(e) => vec![format!("in-process run failed: {e}")],
                        };
                        inproc
                            .lock()
                            .expect("inproc lock poisoned")
                            .insert(s, (lines, t_ms));
                    }
                    eval_logs
                        .lock()
                        .expect("eval log lock poisoned")
                        .push(timed.take_log());
                });
            }
        });
    });
    let inproc = inproc.into_inner().expect("inproc lock poisoned");
    let mut digests = Vec::new();
    for r in &runs {
        let (lines, _) = &inproc[&seeds[r.idx]];
        if r.error.is_none() && &r.lines != lines {
            failures.push(format!(
                "job {} stream differs from the in-process run",
                r.job
            ));
        }
        digests.push(format!("j{}={:016x}", r.idx, lines_digest(&r.lines)));
    }

    let jobs = runs.len();
    let frames: usize = runs.iter().map(|r| r.lines.len()).sum();
    let job_ms: Vec<f64> = runs.iter().map(|r| r.job_ms).collect();
    out.u("units", jobs as u64);
    out.s("digests", digests.join(" "));
    out.f("setup_s", median(&setups));
    out.u("setup_samples", setups.len() as u64);
    out.f("work_s", load_s);
    out.f("e2e:candidates_per_s", frames as f64 / load_s);
    out.f("e2e:rl_candidates_per_s", frames as f64 / load_s);
    out.f("e2e:jobs_per_s", jobs as f64 / load_s);
    out.f("e2e:job_ms_p50", percentile(&job_ms, 0.5));
    out.f("e2e:job_ms_p95", percentile(&job_ms, 0.95));
    out.u("job_samples", jobs as u64);
    out.f(
        "e2e:best_reward",
        runs.iter().map(|r| r.best_reward).sum::<f64>() / jobs.max(1) as f64,
    );
    out.u("attempted", attempted as u64);
    out.problems.extend(failures);

    if o.traced {
        let col = |f: &dyn Fn(&JobRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
        let gaps: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.gaps_ms.iter().copied())
            .collect();
        let first = col(&|r| r.first_event_ms);
        out.f(
            "L:client.submit_ms_p50",
            percentile(&col(&|r| r.submit_ms), 0.5),
        );
        out.f("L:client.first_event_ms_p50", percentile(&first, 0.5));
        out.f("L:client.first_event_ms_p95", percentile(&first, 0.95));
        out.f("L:client.iter_gap_ms_p50", percentile(&gaps, 0.5));
        out.f("L:client.iter_gap_ms_p95", percentile(&gaps, 0.95));
        out.f(
            "L:client.bytes_per_job",
            runs.iter().map(|r| r.bytes).sum::<usize>() as f64 / jobs.max(1) as f64,
        );
        // Each distinct spec ran once in process, in the served order and
        // from an empty cache; pair it with its first served run.
        let first_runs: Vec<&JobRun> = order.iter().map(|s| &runs[by_seed[s][0]]).collect();
        let inproc_ms: Vec<f64> = first_runs.iter().map(|r| inproc[&seeds[r.idx]].1).collect();
        let diffs: Vec<f64> = first_runs
            .iter()
            .zip(&inproc_ms)
            .map(|(r, t)| r.job_ms - t)
            .collect();
        out.f("L:core.job_inproc_ms_p50", percentile(&inproc_ms, 0.5));
        out.f("L:server.overhead_ms_p50", percentile(&diffs, 0.5));
        out.u("L:server.journal_fsyncs", stats.journal_fsyncs);
        out.f("L:server.cache_hit_rate", stats.cache_hit_rate);
        out.u(
            "L:server.slow_client_evictions",
            stats.slow_client_evictions,
        );
        out.f("L:controller.sample_ms", d.hist_ms("controller.sample"));
        out.f("L:controller.update_ms", d.hist_ms("controller.update"));
        let logs = eval_logs.into_inner().expect("eval log lock poisoned");
        out.f(
            "L:core.eval_ms",
            logs.iter().map(|l| l.eval_ns).sum::<u64>() as f64 / 1e6,
        );
        out.u("L:core.eval_calls", logs.iter().map(|l| l.calls).sum());
        out.u(
            "L:core.eval_points",
            logs.iter().map(|l| l.points.len() as u64).sum(),
        );

        // The journal's append path on the recorded lines, in a scratch
        // directory, at the server's fsync cadence.
        let dir = o.work.join("served-journal-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::open(&dir, ServerConfig::default().journal_fsync_every)
            .map_err(|e| format!("journal open: {e}"))?;
        let mut append_us = Vec::with_capacity(frames);
        tr.time(
            "journal.replay",
            top,
            Key::None,
            |id| -> Result<(), String> {
                for r in &runs {
                    for line in &r.lines {
                        let rec = Record::Line {
                            job: r.job,
                            line: line.clone(),
                        };
                        let t = Instant::now();
                        journal
                            .append(&rec)
                            .map_err(|e| format!("journal append: {e}"))?;
                        let end = Instant::now();
                        append_us.push(end.duration_since(t).as_secs_f64() * 1e6);
                        tr.record("journal.append", id, Key::Job(r.job), t, end);
                    }
                }
                Ok(())
            },
        )?;
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        out.f("L:journal.append_us_p50", percentile(&append_us, 0.5));
    }
    for k in 0..SETUPS {
        let _ = std::fs::remove_dir_all(o.work.join(format!("served-journal-{k}")));
    }
    Ok(())
}
