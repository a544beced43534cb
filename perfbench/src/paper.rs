//! `paper_search`: the paper's pipeline on the fast evaluator (HyperNet
//! accuracy + exact GP latency/energy) — build the evaluator, RL search,
//! random search with the same candidate budget (Fig. 6(a)), then rerank
//! the RL top-N with full training and exact simulation.

use std::collections::HashSet;
use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, Genotype, NetworkSkeleton};
use yoso_core::evaluation::{
    calibrate_constraints, AccurateEvaluator, Evaluation, Evaluator, FastEvaluator, SurrogateKind,
};
use yoso_core::pipeline::finalize;
use yoso_core::reward::RewardConfig;
use yoso_core::search::{SearchConfig, SearchOutcome};
use yoso_core::session::{SearchSession, Strategy};
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::{HyperNet, HyperTrainConfig};
use yoso_nn::TrainConfig;
use yoso_predictor::perf::{collect_samples, PerfPredictor};

use crate::common::{
    cache_layers, check_history, design_stats, history_digest, median, ms, search_layers, Out,
    RegistryDelta, TimedEvaluator,
};
use crate::spans::{Key, Tracer, ROOT};
use crate::Opts;

struct Sizes {
    skeleton: NetworkSkeleton,
    data: SynthCifarConfig,
    hyper_epochs: usize,
    predictor_samples: usize,
    calibration_samples: usize,
    candidates: usize,
    rollouts: usize,
    top_n: usize,
    rerank_epochs: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            skeleton: NetworkSkeleton::tiny(),
            data: SynthCifarConfig::tiny(),
            hyper_epochs: 1,
            predictor_samples: 60,
            calibration_samples: 40,
            candidates: 8,
            rollouts: 4,
            top_n: 2,
            rerank_epochs: 1,
        }
    } else {
        Sizes {
            skeleton: NetworkSkeleton::small(),
            data: SynthCifarConfig::small(),
            hyper_epochs: 1,
            predictor_samples: 200,
            calibration_samples: 200,
            candidates: 20,
            rollouts: 10,
            top_n: 2,
            rerank_epochs: 1,
        }
    }
}

/// The fast evaluator plus the dataset it scores on.
struct Built {
    data: SynthCifar,
    fast: FastEvaluator,
    reward: RewardConfig,
}

/// Builds the evaluator with `FastEvaluator::build_with_surrogate`, as a
/// user would. The traced run makes the same public calls in the same
/// order one by one so each gets its own span.
fn setup(
    o: &Opts,
    sz: &Sizes,
    seed: u64,
    tr: &Tracer,
    parent: u32,
    out: &mut Out,
) -> Result<Built, String> {
    let data_cfg = SynthCifarConfig {
        seed,
        ..sz.data.clone()
    };
    let hyper_cfg = HyperTrainConfig {
        epochs: sz.hyper_epochs,
        batch_size: 32,
        seed,
        ..Default::default()
    };
    let sk = &sz.skeleton;
    let data = tr.time("dataset.generate", parent, Key::None, |_| {
        SynthCifar::generate(&data_cfg)
    });
    let fast = if o.traced {
        let hyper = tr.time("hypernet.train", parent, Key::None, |_| {
            let mut h = HyperNet::new(sk.clone(), seed);
            h.train(&data, &hyper_cfg);
            h
        });
        let before = yoso_accel::cache::stats();
        let samples = tr.time("accel.collect_samples", parent, Key::None, |_| {
            collect_samples(sk, &Simulator::exact(), sz.predictor_samples, seed ^ 0x5a5a)
        });
        cache_layers(out, "L:accel.setup", &before);
        let predictor = tr
            .time("predictor.fit", parent, Key::None, |_| {
                PerfPredictor::train_with(sk, &samples, SurrogateKind::Exact)
            })
            .map_err(|e| format!("GP fit: {e}"))?;
        FastEvaluator::from_parts(hyper, predictor, data.clone())
    } else {
        FastEvaluator::build_with_surrogate(
            sk,
            &data,
            &hyper_cfg,
            sz.predictor_samples,
            seed,
            SurrogateKind::Exact,
        )
        .map_err(|e| format!("evaluator build: {e}"))?
    };
    let constraints = tr.time("core.calibrate", parent, Key::None, |_| {
        calibrate_constraints(sk, sz.calibration_samples, seed, 40.0)
    });
    Ok(Built {
        data,
        fast,
        reward: RewardConfig::balanced(constraints),
    })
}

/// Accuracy of one genotype through the public layer functions, the
/// same f32 validation pass the fast evaluator runs: compile, inherit
/// HyperNet weights, forward the first `eval_subset` validation
/// examples in `eval_batch` chunks.
fn hypernet_accuracy(fast: &FastEvaluator, data: &SynthCifar, g: &Genotype) -> (f64, u64) {
    let hyper = fast.hypernet();
    let plan = hyper.skeleton().compile(g);
    let provider = hyper.provider(&plan);
    let n = data.val.len().min(fast.eval_subset.max(1));
    let subset: Vec<usize> = (0..n).collect();
    let (mut correct, mut total) = (0.0, 0usize);
    for chunk in subset.chunks(fast.eval_batch.max(1)) {
        let (images, labels) = data.val.batch(chunk);
        let mut graph = yoso_tensor::Graph::new();
        let logits = yoso_nn::forward_network(&plan, &mut graph, hyper.store(), &provider, images);
        correct += yoso_tensor::accuracy(graph.value(logits), &labels) * labels.len() as f64;
        total += labels.len();
    }
    (
        correct / total.max(1) as f64,
        plan.stats.total_macs * n as u64,
    )
}

fn stats_of(fast: &FastEvaluator, p: &DesignPoint) -> (yoso_arch::NetworkStats, (usize, usize)) {
    let plan = fast.hypernet().skeleton().compile(&p.genotype);
    (
        plan.stats,
        (
            p.genotype.normal.output_arity(),
            p.genotype.reduction.output_arity(),
        ),
    )
}

/// Replays scored points through the public layer functions and checks
/// every recorded evaluation bit for bit. With `layers` it also times
/// each layer per candidate and reports the per-layer metrics.
fn replay(
    b: &Built,
    points: &[DesignPoint],
    evals: &[Evaluation],
    tr: &Tracer,
    parent: u32,
    out: &mut Out,
    layers: bool,
) {
    let mut seen = HashSet::new();
    let (mut score_ns, mut macs, mut unique) = (0u128, 0u64, 0u64);
    let (mut predict_ns, mut compile_ns, mut sim_ns) = (0u128, 0u128, 0u128);
    let mut mismatches = 0usize;
    let sim = Simulator::exact();
    for (i, (p, e)) in points.iter().zip(evals).enumerate() {
        let key = Key::Iter(i as u64);
        if seen.insert(p.genotype) {
            unique += 1;
            let t = Instant::now();
            let (acc, m) = tr.time("hypernet.score", parent, key, |_| {
                hypernet_accuracy(&b.fast, &b.data, &p.genotype)
            });
            score_ns += t.elapsed().as_nanos();
            macs += m;
            if acc.to_bits() != e.accuracy.to_bits() {
                mismatches += 1;
            }
        }
        let t = Instant::now();
        let (stats, ar) = tr.time("arch.compile", parent, key, |_| stats_of(&b.fast, p));
        compile_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let (lat, en) = tr.time("predictor.predict", parent, key, |_| {
            b.fast.predictor().predict_from_stats(&stats, &p.hw, ar)
        });
        predict_ns += t.elapsed().as_nanos();
        if lat.to_bits() != e.latency_ms.to_bits() || en.to_bits() != e.energy_mj.to_bits() {
            mismatches += 1;
        }
        if layers {
            // The simulator the GP stands in for, from a cold cache.
            yoso_accel::cache::clear();
            let plan = b.fast.hypernet().skeleton().compile(&p.genotype);
            let t = Instant::now();
            tr.time("accel.sim_cold", parent, key, |_| {
                sim.simulate_plan(&plan, &p.hw)
            });
            sim_ns += t.elapsed().as_nanos();
        }
    }
    if mismatches > 0 {
        out.problems.push(format!(
            "paper replay: {mismatches} evaluations differ from the search's"
        ));
    }
    if !layers {
        return;
    }
    let n = points.len().max(1) as f64;
    out.f(
        "L:hypernet.score_ms",
        score_ns as f64 / 1e6 / unique.max(1) as f64,
    );
    out.f(
        "L:hypernet.gmac_per_s",
        macs as f64 / (score_ns as f64 / 1e9).max(1e-12) / 1e9,
    );
    out.f("L:core.unique_genotype_frac", unique as f64 / n);
    out.f("L:predictor.predict_us", predict_ns as f64 / 1e3 / n);
    out.f("L:arch.compile_us", compile_ns as f64 / 1e3 / n);
    out.f("L:accel.sim_cold_us", sim_ns as f64 / 1e3 / n);
    // One batched GP pass over every scored point, as the search's
    // batches run it.
    let xs: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let (s, ar) = stats_of(&b.fast, p);
            yoso_predictor::stats_features(&s, &p.hw, ar)
        })
        .collect();
    let t = Instant::now();
    tr.time("predictor.gp_batch", parent, Key::None, |_| {
        b.fast.predictor().predict_batch_from_features(&xs)
    });
    out.f("L:predictor.gp_ms", ms(t));
    out.u("L:predictor.gp_points", xs.len() as u64);
}

pub fn run(o: &Opts, tr: &Tracer, top: u32, out: &mut Out) -> Result<(), String> {
    let sz = sizes(o.smoke);
    let t_run = Instant::now();
    let mut setups = Vec::new();
    let (mut rl_n, mut rl_s, mut rnd_n, mut rnd_s, mut rerank_s) = (0usize, 0.0, 0usize, 0.0, 0.0);
    let mut best_rewards = Vec::new();
    let mut digests = Vec::new();
    let mut unit = 0;
    // Three units (each with its own evaluator build) even when they
    // outlast the time budget: one unit's throughput and memory peak
    // depend too much on the genotypes its seed happens to draw.
    while o.more_units(unit, t_run, 3) {
        let seed = o.unit_seed(unit);
        yoso_accel::cache::clear();
        let unit_span = tr.open("unit", top, Key::None);
        let t = Instant::now();
        let b = tr.time("setup", unit_span, Key::None, |id| {
            setup(o, &sz, seed, tr, id, out)
        })?;
        setups.push(t.elapsed().as_secs_f64());
        let timed = TimedEvaluator::new(&b.fast, tr);
        let ev: &dyn Evaluator = if o.traced { &timed } else { &b.fast };
        let reg = yoso_trace::snapshot();
        let cache_before = yoso_accel::cache::stats();
        let cfg = SearchConfig {
            iterations: sz.candidates,
            rollouts_per_update: sz.rollouts,
            seed,
            ..SearchConfig::default()
        };
        let search =
            |strategy: Strategy, name: &'static str| -> Result<(SearchOutcome, f64), String> {
                tr.time(name, unit_span, Key::None, |id| {
                    timed.begin_search(id);
                    let t = Instant::now();
                    let outcome = SearchSession::builder()
                        .evaluator(ev)
                        .reward(b.reward)
                        .strategy(strategy)
                        .config(cfg.clone())
                        .run()
                        .map_err(|e| format!("{name}: {e}"))?;
                    Ok((outcome, t.elapsed().as_secs_f64()))
                })
            };
        let (rl, t_rl) = search(Strategy::Rl, "search.rl")?;
        let (rnd, t_rnd) = search(Strategy::Random, "search.random")?;
        let search_s = t_rl + t_rnd;
        // Search-phase deltas, before the rerank adds pool and simulator
        // work of its own. The GP stands in for the simulator during the
        // searches, so the cache sees (almost) no lookups here.
        let search_delta = RegistryDelta::new(reg);
        if o.traced {
            cache_layers(out, "L:accel.cache", &cache_before);
        }
        rl_n += rl.history.len();
        rl_s += t_rl;
        rnd_n += rnd.history.len();
        rnd_s += t_rnd;
        let accurate = AccurateEvaluator::new(
            sz.skeleton.clone(),
            b.data.clone(),
            TrainConfig {
                epochs: sz.rerank_epochs,
                seed,
                ..TrainConfig::fast_test()
            },
        );
        let t = Instant::now();
        let finalists = tr
            .time("rerank", unit_span, Key::None, |_| {
                finalize(&rl, sz.top_n, &accurate, &b.reward)
            })
            .map_err(|e| format!("rerank: {e}"))?;
        rerank_s += t.elapsed().as_secs_f64();

        for (label, oc) in [("rl", &rl), ("random", &rnd)] {
            out.problems.extend(check_history(
                label,
                &oc.history,
                oc.quarantine.len(),
                sz.candidates,
            ));
        }
        if finalists.len() != sz.top_n.min(rl.history.len())
            || finalists.iter().any(|f| !f.accurate_reward.is_finite())
        {
            out.problems.push(format!(
                "rerank returned {} usable finalists",
                finalists.len()
            ));
        }
        best_rewards.push(rl.best().reward);
        digests.push(format!(
            "u{unit}:rl={:016x},random={:016x}",
            history_digest(&rl.history),
            history_digest(&rnd.history)
        ));
        let best = finalists.first().map_or(rl.best().point, |f| f.point);
        out.s(
            &format!("design_u{unit}"),
            design_stats(&sz.skeleton, &best),
        );

        if o.traced {
            let log = timed.take_log();
            search_layers(out, &log, &search_delta, search_s * 1e3);
            if log.points.len() != rl.history.len() + rnd.history.len() {
                out.problems.push(format!(
                    "decorator saw {} points for {} records",
                    log.points.len(),
                    rl.history.len() + rnd.history.len()
                ));
            }
            tr.time("replay", unit_span, Key::None, |id| {
                replay(&b, &log.points, &log.evals, tr, id, out, true)
            });
        } else {
            // Untraced runs check a few points; the traced run replays all.
            let picks: Vec<_> = [rl.best(), rnd.best(), &rl.history[rl.history.len() / 2]]
                .iter()
                .map(|r| (r.point, r.eval))
                .collect();
            let (p, e): (Vec<_>, Vec<_>) = picks.into_iter().unzip();
            replay(&b, &p, &e, tr, ROOT, out, false);
        }
        tr.close(unit_span);
        unit += 1;
    }
    out.u("units", unit as u64);
    out.s("digests", digests.join(" "));
    out.f("setup_s", median(&setups));
    out.u("setup_samples", setups.len() as u64);
    out.f(
        "work_s",
        setups.iter().sum::<f64>() + rl_s + rnd_s + rerank_s,
    );
    out.f(
        "e2e:candidates_per_s",
        (rl_n + rnd_n) as f64 / (rl_s + rnd_s),
    );
    out.f("e2e:rl_candidates_per_s", rl_n as f64 / rl_s);
    out.f("e2e:random_candidates_per_s", rnd_n as f64 / rnd_s);
    out.f("e2e:rerank_s", rerank_s / unit as f64);
    out.f(
        "e2e:best_reward",
        best_rewards.iter().sum::<f64>() / best_rewards.len() as f64,
    );
    out.u("attempted", (rl_n + rnd_n) as u64);
    Ok(())
}
