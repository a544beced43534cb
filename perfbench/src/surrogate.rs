//! `surrogate_search`: RL, regularized evolution and random search with
//! equal budgets on the surrogate evaluator (capacity-model accuracy,
//! fast-simulator latency/energy) over the paper's skeleton. The
//! genotype compiler, the simulator and its cache, the controller and
//! the session loop do all the work; the HyperNet and GP do none.

use std::collections::HashSet;
use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_core::evaluation::{calibrate_constraints, Evaluation, Evaluator, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};

use crate::common::{
    cache_layers, check_history, design_stats, history_digest, median, search_layers, Out,
    RegistryDelta, TimedEvaluator,
};
use crate::spans::{Key, Tracer};
use crate::Opts;

/// Replays scored points through the public layer functions: compile,
/// surrogate accuracy, and the fast simulator from a cold cache and
/// again warm. Every recorded evaluation must come back bit for bit.
fn replay(
    ev: &SurrogateEvaluator,
    points: &[DesignPoint],
    evals: &[Evaluation],
    tr: &Tracer,
    parent: u32,
    out: &mut Out,
) {
    let sim = Simulator::fast();
    let (mut compile_ns, mut cold_ns, mut warm_ns, mut mismatches) = (0u128, 0u128, 0u128, 0usize);
    let mut unique = HashSet::new();
    for (i, (p, e)) in points.iter().zip(evals).enumerate() {
        let key = Key::Iter(i as u64);
        unique.insert(p.genotype);
        let t = Instant::now();
        let plan = tr.time("arch.compile", parent, key, |_| {
            ev.skeleton.compile(&p.genotype)
        });
        compile_ns += t.elapsed().as_nanos();
        yoso_accel::cache::clear();
        let t = Instant::now();
        let cold = tr.time("accel.sim_cold", parent, key, |_| {
            sim.simulate_plan(&plan, &p.hw)
        });
        cold_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let warm = tr.time("accel.sim_warm", parent, key, |_| {
            sim.simulate_plan(&plan, &p.hw)
        });
        warm_ns += t.elapsed().as_nanos();
        let acc = tr.time("core.surrogate_accuracy", parent, key, |_| {
            ev.surrogate_accuracy(p)
        });
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        if !same(acc, e.accuracy)
            || !same(cold.latency_ms, e.latency_ms)
            || !same(cold.energy_mj, e.energy_mj)
            || !same(warm.latency_ms, cold.latency_ms)
            || !same(warm.energy_mj, cold.energy_mj)
        {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        out.problems.push(format!(
            "surrogate replay: {mismatches} evaluations differ from the search's"
        ));
    }
    let n = points.len().max(1) as f64;
    out.f("L:arch.compile_us", compile_ns as f64 / 1e3 / n);
    out.f("L:accel.sim_cold_us", cold_ns as f64 / 1e3 / n);
    out.f("L:accel.sim_warm_us", warm_ns as f64 / 1e3 / n);
    out.f("L:core.unique_genotype_frac", unique.len() as f64 / n);
}

pub fn run(o: &Opts, tr: &Tracer, top: u32, out: &mut Out) -> Result<(), String> {
    let skeleton = if o.smoke {
        NetworkSkeleton::tiny()
    } else {
        NetworkSkeleton::paper_default()
    };
    let (candidates, calibration) = if o.smoke { (12, 30) } else { (150, 200) };
    let ev = SurrogateEvaluator::new(skeleton.clone());
    let timed = TimedEvaluator::new(&ev, tr);
    let evr: &dyn Evaluator = if o.traced { &timed } else { &ev };
    let strategies = [
        (Strategy::Rl, "search.rl", "rl"),
        (Strategy::Evolution, "search.evolution", "evolution"),
        (Strategy::Random, "search.random", "random"),
    ];
    let t_run = Instant::now();
    let mut setups = Vec::new();
    let mut per = [(0usize, 0.0f64); 3];
    let mut best_rewards = Vec::new();
    let mut digests = Vec::new();
    let mut unit = 0;
    while o.more_units(unit, t_run, 1) {
        let seed = o.unit_seed(unit);
        yoso_accel::cache::clear();
        let unit_span = tr.open("unit", top, Key::None);
        let t = Instant::now();
        let constraints = tr.time("setup", unit_span, Key::None, |id| {
            tr.time("core.calibrate", id, Key::None, |_| {
                calibrate_constraints(&skeleton, calibration, seed, 40.0)
            })
        });
        setups.push(t.elapsed().as_secs_f64());
        let reward = RewardConfig::balanced(constraints);
        let reg = yoso_trace::snapshot();
        let cache_before = yoso_accel::cache::stats();
        let mut unit_digests = Vec::new();
        let mut search_ms = 0.0;
        let mut rl_best = None;
        for (k, &(strategy, span, label)) in strategies.iter().enumerate() {
            let cfg = SearchConfig {
                iterations: candidates,
                rollouts_per_update: 10,
                seed,
                population: 20,
                tournament: 5,
            };
            let (outcome, secs) = tr.time(span, unit_span, Key::None, |id| {
                timed.begin_search(id);
                let t = Instant::now();
                let r = SearchSession::builder()
                    .evaluator(evr)
                    .reward(reward)
                    .strategy(strategy)
                    .config(cfg)
                    .run();
                (r, t.elapsed().as_secs_f64())
            });
            let outcome = outcome.map_err(|e| format!("{label}: {e}"))?;
            per[k].0 += outcome.history.len();
            per[k].1 += secs;
            search_ms += secs * 1e3;
            out.problems.extend(check_history(
                label,
                &outcome.history,
                outcome.quarantine.len(),
                candidates,
            ));
            unit_digests.push(format!("{label}={:016x}", history_digest(&outcome.history)));
            if strategy == Strategy::Rl {
                rl_best = Some(*outcome.best());
            }
        }
        digests.push(format!("u{unit}:{}", unit_digests.join(",")));
        if o.traced {
            cache_layers(out, "L:accel.cache", &cache_before);
        }
        let rl_best = rl_best.expect("the RL search ran");
        best_rewards.push(rl_best.reward);
        out.s(
            &format!("design_u{unit}"),
            design_stats(&skeleton, &rl_best.point),
        );
        if o.traced {
            let log = timed.take_log();
            search_layers(out, &log, &RegistryDelta::new(reg), search_ms);
            if log.points.len() != candidates * strategies.len() {
                out.problems
                    .push(format!("decorator saw {} points", log.points.len()));
            }
            tr.time("replay", unit_span, Key::None, |id| {
                replay(&ev, &log.points, &log.evals, tr, id, out)
            });
        }
        tr.close(unit_span);
        unit += 1;
    }
    let total: usize = per.iter().map(|p| p.0).sum();
    let total_s: f64 = per.iter().map(|p| p.1).sum();
    out.u("units", unit as u64);
    out.s("digests", digests.join(" "));
    out.f("setup_s", median(&setups));
    out.u("setup_samples", setups.len() as u64);
    out.f("work_s", setups.iter().sum::<f64>() + total_s);
    out.f("e2e:candidates_per_s", total as f64 / total_s);
    out.f("e2e:rl_candidates_per_s", per[0].0 as f64 / per[0].1);
    out.f("e2e:evolution_candidates_per_s", per[1].0 as f64 / per[1].1);
    out.f("e2e:random_candidates_per_s", per[2].0 as f64 / per[2].1);
    out.f(
        "e2e:best_reward",
        best_rewards.iter().sum::<f64>() / best_rewards.len() as f64,
    );
    out.u("attempted", total as u64);
    Ok(())
}
