#!/usr/bin/env python3
"""The repository's benchmark: simulated cycles and simulator wall time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-steady --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload system --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --self-test

It builds perfbench/perfbench.ml with dune, then runs rounds
of the workload, each in a fresh process, until --seconds have passed.
The first round also runs the QEMU-style engine, whose cycles give
speedup_vs_qemu; later rounds run Captive only.  Every run is checked
against perfbench/golden.jsonl.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are BENCHMARK.json's end_to_end list, medians over rounds;
with --trace 1 they are its per_layer list, medians over traced rounds,
which alternate with untraced ones so the tracing overhead is measured.
Per-program rows are printed before that line, and every round's raw
output is kept under perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "perfbench.exe"
GOLDEN = HERE / "golden.jsonl"
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", str(ROOT), "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not EXE.exists():
        fail("build failed")


def run_round(workload, seed, trace=False, qemu=False, spans=None):
    """One round in a fresh process; returns its JSON object."""
    cmd = [str(EXE), "round", "--workload", workload, "--seed", str(seed),
           "--golden", str(GOLDEN)]
    if qemu:
        cmd.append("--qemu")
    if trace:
        cmd += ["--trace", "--spans", str(spans)]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} round timed out after {ROUND_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload} round failed:\n{r.stderr}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    out["qemu"] = qemu
    return out


def simulated(name):
    """Per-layer metrics that count simulated events, not host time."""
    return not name.endswith("_s") and name != "exec.ns_per_host_instr"


def sim_signature(rnd):
    """Everything simulated a round reports: must repeat bit for bit."""
    return {
        "sim_cycles": rnd["totals"]["sim_cycles"],
        "rows": [(r["name"], r["captive_cycles"]) for r in rnd["rows"]],
        "layers": {k: v for k, v in rnd["layers"].items()
                   if simulated(k) and not k.startswith("qemu.")},
    }


def consistency_errors(rounds):
    """Checks every run makes on its own rounds."""
    errs = []
    base = sim_signature(rounds[0])
    for rnd in rounds[1:]:
        if sim_signature(rnd) != base:
            errs.append(f"seed {rnd['seed']}: simulated numbers differ from seed {rounds[0]['seed']}")
    for rnd in rounds:
        t, lay = rnd["totals"], rnd["layers"]
        if lay["exec.sim_cycles"] + lay["jit.sim_cycles"] != t["sim_cycles"]:
            errs.append(f"seed {rnd['seed']}: exec.sim_cycles + jit.sim_cycles != sim_cycles")
    return errs


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def report(metric_specs, values, correct, attempted, failed):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def benchmark(workload, seed, seconds, trace):
    b = spec()
    if workload not in [w["name"] for w in b["workloads"]]:
        fail(f"unknown workload {workload}")
    build()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    t_start = time.monotonic()
    rounds = []
    # Round i shuffles the programs with seed*1000+i; only the first
    # round also runs the QEMU-style engine.  A traced run alternates
    # traced and untraced rounds, and needs at least one of each.
    while True:
        i = len(rounds)
        traced = trace and i % 2 == 0
        qemu = i == 0
        if len(rounds) >= 1 + trace:
            like = [r["wall_s"] for r in rounds if (r["trace"], r["qemu"]) == (traced, qemu)]
            est = statistics.median(like) if like else rounds[-1]["wall_s"]
            if time.monotonic() - t_start + est > seconds:
                break
        spans = OUT / f"spans-{tag}-r{i}.jsonl"
        rounds.append(run_round(workload, seed * 1000 + i, trace=traced, qemu=qemu, spans=spans))
    with open(OUT / f"record-{tag}.jsonl", "w") as f:
        for rnd in rounds:
            f.write(json.dumps(rnd) + "\n")
    for row in rounds[0]["rows"]:
        print(json.dumps(dict(kind="program", workload=workload, **row)))

    errs = consistency_errors(rounds)
    for e in errs:
        print(f"perfbench: {e}", file=sys.stderr)
    attempted = sum(r["totals"]["attempted"] for r in rounds)
    failed = sum(r["totals"]["failed"] for r in rounds)
    correct = failed == 0 and not errs

    def median(key, rs, where="totals"):
        return statistics.median(r[where][key] for r in rs)

    if not trace:
        # run_s sums each program's median over rounds, so one slow run
        # of one program does not move a whole round's total.
        runs = {}
        for rnd in rounds:
            for row in rnd["rows"]:
                runs.setdefault(row["name"], []).append(row["captive_run_s"])
        values = {
            "sim_cycles": rounds[0]["totals"]["sim_cycles"],
            "speedup_vs_qemu": rounds[0]["totals"]["speedup_vs_qemu"],
            "run_s": sum(statistics.median(v) for v in runs.values()),
            "setup_s": median("setup_s", rounds),
            "peak_rss_mb": median("peak_rss_mb", rounds),
            "pass_rate": (attempted - failed) / attempted,
        }
        report(b["end_to_end"], values, correct, attempted, failed)
        return
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    values = {k: median(k, traced, "layers") for k in traced[0]["layers"]}
    values.update({k: v for k, v in rounds[0]["layers"].items() if k.startswith("qemu.")})
    values["trace.run_s"] = median("run_s", traced)
    values["trace.untraced_run_s"] = median("run_s", plain)
    values["trace.run_s_overhead"] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1
    report(b["per_layer"], values, correct, attempted, failed)


# --- self-tests -------------------------------------------------------

def self_test():
    """Checks the benchmark itself; exits 1 if any fails."""
    build()
    OUT.mkdir(exist_ok=True)
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")

    # A guest that hangs and one that exits wrong are failures, found
    # within their 1 M-cycle caps, on both engines.
    t0 = time.monotonic()
    fx = run_round("fixtures", 1, qemu=True)
    verdicts = {r["name"]: (r["captive_verdict"], r["qemu_verdict"]) for r in fx["rows"]}
    check("fixture that hangs is a cycle-cap failure",
          verdicts["fixture-hang"] == ("cycle_cap_hit", "cycle_cap_hit"), str(verdicts))
    check("fixture that exits wrong is an exit-code failure",
          verdicts["fixture-wrong-exit"] == ("exit_mismatch", "exit_mismatch"), str(verdicts))
    check("fixture failures are counted",
          fx["totals"]["attempted"] == 4 and fx["totals"]["failed"] == 4, str(fx["totals"]))
    check("fixtures finish within their caps, not as hangs", time.monotonic() - t0 < 60)

    # Two runs (different program orders) repeat every simulated number.
    a = run_round("system", 1, qemu=True)
    b = run_round("system", 2, qemu=True)
    check("two runs give bit-identical sim_cycles and layer counters",
          sim_signature(a) == sim_signature(b))
    check("two runs give bit-identical speedup_vs_qemu",
          a["totals"]["speedup_vs_qemu"] == b["totals"]["speedup_vs_qemu"]
          and a["layers"]["qemu.sim_cycles"] == b["layers"]["qemu.sim_cycles"])
    check("golden outputs match on both engines", a["totals"]["failed"] == 0, str(a["rows"]))

    # Tracing changes no simulated cycle.
    t = run_round("system", 1, trace=True, qemu=True, spans=OUT / "spans-self-test.jsonl")
    check("traced run's simulated numbers equal the untraced run's",
          sim_signature(t) == sim_signature(a)
          and t["layers"]["qemu.sim_cycles"] == a["layers"]["qemu.sim_cycles"])
    check("spans are written", (OUT / "spans-self-test.jsonl").stat().st_size > 0)

    check("exec.sim_cycles + jit.sim_cycles = sim_cycles",
          not consistency_errors([a, t]))
    names = set(t["layers"]) | {"trace.run_s", "trace.untraced_run_s", "trace.run_s_overhead"}
    missing = [m["name"] for m in spec()["per_layer"] if m["name"] not in names]
    check("every per_layer metric in BENCHMARK.json is produced", not missing, str(missing))
    sys.exit(0 if all(results) else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif args.workload:
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        ap.error("--workload or --self-test is required")


if __name__ == "__main__":
    main()
