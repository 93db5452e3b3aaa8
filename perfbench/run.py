#!/usr/bin/env python3
"""The Lynx simulator benchmark: both clocks, one command.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the simulator
and the repetition program (perfbench_rep) from source into
.bench_build/. Each repetition is a fresh process that builds the
world, runs one fixed simulated scenario and prints raw measurements;
this script runs repetitions until --seconds have passed, checks
every correctness gate, and prints the metrics. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, the tracing overhead, and writes a Chrome trace to
.bench_out/<workload>-seed<n>.trace.json.

Exit code: 0 when every gate passes, 1 when a gate fails (the result
line says "correct": false), 2 when the build or a repetition fails
(no result line).

    python3 perfbench/run.py --write-config

rewrites BENCHMARK.json at the repository root from the tables below.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BIN = BUILD / "perfbench_rep"

RUN_SECONDS = 30
BUILD_TIMEOUT_S = 850
REP_TIMEOUT_S = 120
# Never start a round that could end past this many seconds.
HARD_STOP_S = 150

WORKLOADS = {
    "echo_bf240": "open loop at 0.8x of Fig. 6 capacity, 240 mqueues, "
                  "20 us echo: host time is the per-message path "
                  "(engine, net, rdma, lynx, gio); the app does no work",
    "lenet_bf": "closed loop, one outstanding LeNet request (Fig. 8a): "
                "the real forward pass takes most host time, so engine "
                "changes should not move it",
    "cluster4_overload": "4 Bluefield machines at 1.5x ring capacity with "
                         "RSS and admission: the only workload that sheds, "
                         "times out and steers; also runs on the sharded "
                         "engine",
}

# (name, unit, better, bound)
END_TO_END = [
    ("host_req_per_s", "req/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_goodput_rps", "req/s", "higher", 0.05),
    ("sim_p50_us", "us", "lower", 0.05),
    ("sim_p99_us", "us", "lower", 0.15),
    ("sim_p999_us", "us", "lower", 0.25),
    ("served_ratio", "ratio", "higher", 0.05),
]

# Parts of a seed (see bench.cc): the sim-time metrics pool the
# latency samples of all parts, so that each repetition stays short
# (host-time medians over many processes) while the pooled window
# keeps >= 10,000 samples.
PARTS = {"echo_bf240": 12, "lenet_bf": 8, "cluster4_overload": 1}

# The same inputs on the sharded engine (4 shards, 2 threads). Its host
# time is too unsteady for an end-to-end metric on a shared host, so it
# runs beside its serial workload: once per untraced run for the
# bit-exactness gate, and every round of a traced run for sim.shard.*.
SHARDED_TWIN = {"cluster4_overload": "cluster4_sharded"}


def write_config():
    config = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in layers.PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(config, indent=2) + "\n")


def fail_hard(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring perfbench_rep up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_hard(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench_rep",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail_hard(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text()[-2000:]
                fail_hard(f"build failed ({' '.join(cmd[:2])}):\n{tail}")


def rep(workload, seed, part, trace_path=None):
    cmd = [str(BIN), "--workload", workload, "--seed", str(seed),
           "--part", str(part)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail_hard(f"{workload} repetition exceeded {REP_TIMEOUT_S} s")
    if p.returncode != 0:
        fail_hard(f"{workload} repetition exited {p.returncode}: "
                  f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def fingerprint(r, with_events=True):
    """Every sim-time result of a repetition (host time excluded)."""
    sim = dict(r["sim"])
    if not with_events:
        sim.pop("events")  # the sharded engine adds pre-lane drains
    return json.dumps({"part": r["part"], "sim": sim,
                       "registry": r["registry"], "config": r["config"]},
                      sort_keys=True)


def run_rounds(args, trace_path):
    """Repetitions in rounds until --seconds have passed.

    Round i runs part i % PARTS of the seed: one untraced repetition
    and, with --trace 1, one of the sharded twin and one traced
    repetition. Untraced runs make every part at least once and one
    part twice, so determinism is checked in every run.
    """
    parts = PARTS[args.workload]
    twin = SHARDED_TWIN.get(args.workload)
    reps = {"plain": [], "twin": [], "traced": []}
    if twin and not args.trace:
        reps["twin"].append(rep(twin, args.seed, 0))
    min_rounds = 1 if args.trace else parts + 1
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        part = rounds % parts
        reps["plain"].append(rep(args.workload, args.seed, part))
        if args.trace:
            if twin:
                reps["twin"].append(rep(twin, args.seed, part))
            reps["traced"].append(rep(args.workload, args.seed, part,
                                      trace_path))
        rounds += 1
        now = time.monotonic()
        if rounds >= min_rounds and now - start >= args.seconds:
            break
        if now - start + (now - t0) > HARD_STOP_S:
            break
    return reps


def gates(workload, reps):
    """Correctness gates. Returns ({gate: passed}, failed operations)."""
    every = [r for rs in reps.values() for r in rs]
    sims = [r["sim"] for r in every]
    checks = {
        "every response byte-valid":
            all(s["validation_failures_all"] == 0 for s in sims),
        "exact latency samples == LoadGen completions":
            all(s["exact_samples"] == s["completed"] == s["samples"] > 0
                for s in sims),
    }
    if sims[0]["open_loop"]:
        checks["open-loop ledger conserved, in_flight_end == 0"] = all(
            s["conserved"] and s["in_flight_end"] == 0 for s in sims)
    else:
        checks["closed loop: no timeouts"] = all(
            s["timeouts"] == 0 for s in sims)
    if workload == "lenet_bf":
        checks["every digit == LeNet::classify of its image"] = all(
            s["digits_checked"] == s["responses"] and
            s["digit_mismatches"] == 0 for s in sims)

    # Same (seed, part), same sim-time results: repeated parts, and a
    # traced repetition against the untraced one.
    by_part = {}
    for r in reps["plain"] + reps["traced"]:
        by_part.setdefault(r["part"], set()).add(fingerprint(r))
    repeats = len(reps["plain"]) + len(reps["traced"]) > len(by_part)
    checks["same seed, same sim-time results (repeated)"] = repeats and \
        all(len(f) == 1 for f in by_part.values())
    if not reps["traced"]:
        checks["every part of the seed ran"] = \
            len(by_part) == PARTS[workload]
    if reps["twin"]:
        serial = {r["part"]: fingerprint(r, False) for r in reps["plain"]}
        checks["sharded sim-time results == serial"] = all(
            fingerprint(r, False) == serial[r["part"]]
            for r in reps["twin"])
    failed = sum(s["validation_failures_all"] + s["digit_mismatches"] +
                 s["in_flight_end"] for s in sims)
    return checks, failed


def pooled(plain):
    """Sim-time results of the seed: its parts' samples pooled."""
    first = {}
    for r in plain:
        first.setdefault(r["part"], r["sim"])
    sims = list(first.values())
    lat = sorted(x for s in sims for x in s["latencies_ns"])

    def pct(p):
        return lat[max(1, math.ceil(p / 100 * len(lat))) - 1]

    sent = sum(s["sent"] for s in sims)
    return {
        "sim_goodput_rps": sum(s["goodput"] for s in sims) /
        sum(s["window_s"] for s in sims),
        "sim_p50_us": pct(50) / 1e3,
        "sim_p99_us": pct(99) / 1e3,
        "sim_p999_us": pct(99.9) / 1e3,
        "served_ratio": sum(layers.served(s) for s in sims) / sent,
    }


def end_to_end(plain):
    med = statistics.median
    return {
        "host_req_per_s": med(layers.host_req_per_s(r) for r in plain),
        "setup_s": med(r["host"]["setup_s"] for r in plain),
        "peak_rss_mb": med(r["host"]["peak_rss_mb"] for r in plain),
        **pooled(plain),
    }


def file_digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def manifest(args, plain):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, val = line.split("=", 1)
            cache[key.split(":", 1)[0]] = val
    sources = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
               if p.is_file() and "__pycache__" not in p.parts]
    return {
        "commit": commit,
        "source_sha256": file_digest(sources),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} "
                    f"({plain[0]['compiler']})",
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "workload_config_sha256": hashlib.sha256(json.dumps(
            plain[0]["config"], sort_keys=True).encode()).hexdigest()[:16],
        "repetitions": len(plain),
        "parts": PARTS[args.workload],
        "latency_samples": sum(
            len(r["sim"]["latencies_ns"])
            for r in {r["part"]: r for r in plain}.values()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-config", action="store_true",
                    help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args()
    if args.write_config:
        write_config()
        return 0
    if not args.workload:
        ap.error("--workload is required")

    build()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace_path = OUT / f"{tag}.trace.json" if args.trace else None
    reps = run_rounds(args, trace_path)
    plain = reps["plain"]
    checks, failed = gates(args.workload, reps)
    correct = all(checks.values())

    if args.trace:
        detail = layers.per_layer(reps["traced"], plain, reps["twin"])
        metrics = {n: {"value": d["value"], "unit": d["unit"]}
                   for n, d in detail.items()}
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        detail = {n: {"value": v, "unit": units[n]}
                  for n, v in end_to_end(plain).items()}
        metrics = detail

    man = manifest(args, plain)
    for name, ok in checks.items():
        print(f"gate {'ok  ' if ok else 'FAIL'} {name}")
    for name, d in detail.items():
        base = f"  ({d['num']:g} / {d['den']:g})" if "num" in d else ""
        print(f"{name:40s} {d['value']:16.6g} {d['unit']}{base}")
    if trace_path:
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    print("manifest: " + json.dumps(man, sort_keys=True))
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"manifest": man, "gates": checks, "metrics": detail}, indent=1))
    for name, ok in checks.items():
        if not ok:
            print(f"perfbench: gate failed: {name}", file=sys.stderr)

    attempted = sum(r["sim"]["issued"] for rs in reps.values() for r in rs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
