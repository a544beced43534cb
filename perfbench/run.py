#!/usr/bin/env python3
"""End-to-end YOSO benchmark.

    python3 perfbench/run.py --workload paper_search|surrogate_search|served_jobs
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Builds the `yoso-perfbench` package in
this directory (release profile, into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload in a fresh process and prints a
report, then as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off. With `--trace 1` an untraced
reference run and a traced run of the same inputs are made; the metrics
are the per-layer ones from the traced run, plus the tracing overhead
(traced against untraced wall time of the same work). The traced run's
spans are written to `.bench_work/<workload>-spans.jsonl`.

Both modes check the program's outputs (each workload's module in
`src/` says which checks it makes) and report `correct: false` on any
failed check. `--smoke` runs a reduced-size version of the
workload; the benchmark's own tests (`perfbench/test_run.py`) use it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_search", "surrogate_search", "served_jobs")

# End-to-end metrics: name -> (unit, better, workloads that produce it).
E2E = {
    "setup_s": ("s", "lower", WORKLOADS),
    "candidates_per_s": ("1/s", "higher", WORKLOADS),
    "rl_candidates_per_s": ("1/s", "higher", WORKLOADS),
    "random_candidates_per_s": ("1/s", "higher", ("paper_search", "surrogate_search")),
    "evolution_candidates_per_s": ("1/s", "higher", ("surrogate_search",)),
    "rerank_s": ("s", "lower", ("paper_search",)),
    "jobs_per_s": ("1/s", "higher", ("served_jobs",)),
    "job_ms_p50": ("ms", "lower", ("served_jobs",)),
    "job_ms_p95": ("ms", "lower", ("served_jobs",)),
    "best_reward": ("1", "higher", WORKLOADS),
    "peak_rss_mb": ("MiB", "lower", WORKLOADS),
    "fail_ratio": ("1", "lower", WORKLOADS),
}

P, S, V = "paper_search", "surrogate_search", "served_jobs"
# Per-layer metrics: name -> (unit, workloads on which the layer does work).
# On any other workload the layer does no work and the metric reads 0.
LAYER = {
    "dataset.generate_ms": ("ms", (P,)),
    "hypernet.train_ms": ("ms", (P,)),
    "accel.sample_ms": ("ms", (P,)),
    "accel.setup_hit_rate": ("1", (P,)),
    "predictor.fit_ms": ("ms", (P,)),
    "core.calibrate_ms": ("ms", WORKLOADS),
    "core.eval_ms": ("ms", WORKLOADS),
    "core.eval_calls": ("count", WORKLOADS),
    "core.eval_points": ("count", WORKLOADS),
    "core.loop_ms": ("ms", (P, S)),
    "controller.sample_ms": ("ms", WORKLOADS),
    "controller.update_ms": ("ms", WORKLOADS),
    "pool.busy_ms": ("ms", (P,)),
    "pool.items": ("count", (P,)),
    "pool.utilization": ("1", (P,)),
    "hypernet.score_ms": ("ms", (P,)),
    "hypernet.gmac_per_s": ("GMAC/s", (P,)),
    "core.unique_genotype_frac": ("1", (P, S)),
    "predictor.gp_ms": ("ms", (P,)),
    "predictor.gp_points": ("count", (P,)),
    "predictor.predict_us": ("us", (P,)),
    "arch.compile_us": ("us", (P, S)),
    "accel.sim_cold_us": ("us", (P, S)),
    "accel.sim_warm_us": ("us", (S,)),
    "accel.cache_hit_rate": ("1", (S, V)),
    "accel.cache_lookups": ("count", (S, V)),
    "accel.cache_entries": ("count", (S, V)),
    "client.submit_ms_p50": ("ms", (V,)),
    "client.first_event_ms_p50": ("ms", (V,)),
    "client.first_event_ms_p95": ("ms", (V,)),
    "client.iter_gap_ms_p50": ("ms", (V,)),
    "client.iter_gap_ms_p95": ("ms", (V,)),
    "client.bytes_per_job": ("B", (V,)),
    "core.job_inproc_ms_p50": ("ms", (V,)),
    "server.overhead_ms_p50": ("ms", (V,)),
    "journal.append_us_p50": ("us", (V,)),
    "server.journal_fsyncs": ("count", (V,)),
    "server.cache_hit_rate": ("1", (V,)),
    "server.slow_client_evictions": ("count", (V,)),
    "trace_overhead_pct": ("%", WORKLOADS),
    "unattributed_ms": ("ms", WORKLOADS),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file the benchmark builds from: the provenance of
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "third_party", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = []
        if os.path.isfile(base):
            paths = [base]
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def build():
    """Builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        log("perfbench: the repository's crates are not in this checkout")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if res.returncode != 0:
        log("perfbench: build failed")
        return None
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "yoso-perfbench")
    return exe if os.path.isfile(exe) else None


def round_(exe, workload, seed, work, extra):
    """Runs one round in a fresh process; returns its result object."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--work", work] + extra
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {res.returncode}: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def meta_of(r):
    return json.loads("{" + r["meta"] + "}")["meta"]


def designs_of(r):
    return {k: v for k, v in r.items() if k.startswith("design_u")}


def e2e_metrics(workload, r):
    m = {}
    for name, (_, _, wls) in E2E.items():
        if workload not in wls:
            continue
        if name == "setup_s":
            m[name] = r["setup_s"]
        elif name == "fail_ratio":
            m[name] = r["failed"] / max(r["attempted"], 1)
        else:
            m[name] = r["e2e:" + name]
    return m


def layer_metrics(workload, plain, traced, problems):
    m = {}
    for name, (_, wls) in LAYER.items():
        key = "L:" + name
        if name == "trace_overhead_pct":
            m[name] = 100.0 * (traced["work_s"] - plain["work_s"]) / plain["work_s"]
        elif key in traced:
            m[name] = traced[key]
        elif workload in wls:
            problems.append(f"traced run did not report {name}")
            m[name] = 0.0
        else:
            m[name] = 0.0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced-size run (tests)")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        sys.exit(1)
    workdir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(workdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    smoke = ["--smoke"] if args.smoke else []
    problems = []
    try:
        if args.trace == 0:
            plain = round_(exe, args.workload, args.seed, work,
                           ["--seconds", str(args.seconds)] + smoke)
            runs = [plain]
        else:
            # The untraced reference covers the same work as the traced run:
            # the first unit of a search workload, or the job count the
            # untraced load reached in the time budget.
            ref = ["--units", "1"] if args.workload != V else ["--seconds", str(args.seconds)]
            plain = round_(exe, args.workload, args.seed, work, ref + smoke)
            traced = round_(exe, args.workload, args.seed, work,
                            ["--units", str(plain["units"]), "--traced"] + smoke)
            runs = [plain, traced]
            if meta_of(plain) != meta_of(traced):
                problems.append("untraced and traced runs have different provenance; not compared")
            else:
                if plain["digests"] != traced["digests"]:
                    problems.append("search_iter digests differ between untraced and traced runs")
                if designs_of(plain) != designs_of(traced):
                    problems.append("best-design simulation differs between untraced and traced runs")
            spans = os.path.join(workdir, f"{args.workload}-spans.jsonl")
            shutil.move(traced["span_file"], spans)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in runs:
        if r["problems"]:
            problems += r["problem_text"].split(" | ")
    if args.trace == 1:
        metrics = layer_metrics(args.workload, plain, traced, problems)
    attempted = max(sum(r["attempted"] for r in runs), 1)
    failed = min(attempted, len(problems))
    plain["failed"] = failed
    plain["attempted"] = attempted

    meta = meta_of(plain)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (smoke)' if args.smoke else ''}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in meta.items())
          + f", seed={args.seed}, commit={git_commit()}, source={source_digest()}")
    print(f"units of work: {plain['units']}  wall: {plain['wall_s']:.2f} s")
    for d in plain["digests"].split():
        if not d.startswith("j"):
            print(f"digest {d}")
    if args.workload == V:
        print(f"job digests: {len(plain['digests'].split())} jobs, "
              f"combined {hashlib.sha256(plain['digests'].encode()).hexdigest()[:16]}")
    for k, v in sorted(designs_of(plain).items()):
        print(f"simulated best design ({k[7:]}): {v}")
    if designs_of(plain):
        print("(simulated figures from the accelerator model, which is not validated "
              "against hardware; no error figure is given)")

    e2e = e2e_metrics(args.workload, plain)
    for name, v in e2e.items():
        unit, better, _ = E2E[name]
        extra = f"  ({plain['job_samples']} jobs)" if name.startswith("job_ms") else ""
        print(f"  {name:28s} {v:14.6g} {unit:6s} ({better} is better){extra}")
    if args.trace == 1:
        print(f"per-layer (traced run, {traced['spans']} spans in .bench_work/{args.workload}-spans.jsonl):")
        for name, v in metrics.items():
            print(f"  {name:32s} {v:14.6g} {LAYER[name][0]}")
        out = {n: {"value": v, "unit": LAYER[n][0]} for n, v in metrics.items()}
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            gated = [m["name"] for m in json.load(f)["end_to_end"]]
        out = {n: {"value": e2e[n], "unit": E2E[n][0]} for n in gated}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
