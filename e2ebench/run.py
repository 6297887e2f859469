#!/usr/bin/env python3
"""End-to-end benchmark of the `hermes` command.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload closed-verify --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --repeat 10 --seconds 30      # two sets of 10 runs per workload

It builds `hermes` and the probe with dune, then, for one workload:

  --trace 0  runs whole rounds of the workload's `hermes` commands, each an
             untraced child process, for about --seconds seconds, and
             reports the end-to-end metrics of BENCHMARK.json as medians
             over the rounds. Times are the CPU seconds (user + system) the
             commands spend from spawn to exit: on a shared virtual machine
             wall time also counts the time the hypervisor gives to other
             guests, which a 2-domain command waits out on either CPU. The
             OCaml runtime
             prints its exit statistics (OCAMLRUNPARAM=v=0x400), which give
             the allocation and peak-heap figures.
  --trace 1  runs one round of the commands, then the probe, which re-runs
             the same inputs in process and times each layer; it reports
             the per-layer metrics of BENCHMARK.json.

Either way the outputs are checked (see README.md) and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
HERMES = os.path.join("_build", "default", "bin", "hermes_cli.exe")
PROBE = os.path.join("_build", "default", BENCH_DIR, "probe", "probe.exe")
COMMAND_TIMEOUT_S = 150

# The workloads. Each round runs the same commands; `hermes run` flags
# are also handed to the probe, which builds the same setup from them.
CLOSED = "--sites 8 --mpl 16 --zipf 0.6"
OPEN64 = "--sites 64 --domains 2 --open-loop 800 --mpl 64 --dup 0.02"
# Full 2CM with --group-commit lets a resubmitted incarnation read from a
# different writer than its first incarnation did. At this fixed input the
# fault shows on every run (one transaction named in two global view
# distortions); on seeded inputs it shows on some seeds only, so the
# seeded command of open-gc-windowed runs without group commit.
GC_FAULT = OPEN64 + " --group-commit -n 1500 --seed 3"
EXPLORE_PINNED = "--sites 2 --txns 2 --commit-retries 2 --uaborts 0 --alive-fires 0"
EXPLORE_3SITE = "--sites 3 --txns 1 --uaborts 1 --commit-retries 1 --alive-fires 0"
# Must be found violating: a reduction that prunes counterexamples fails.
EXPLORE_ABLATION = (
    "--sites 2 --txns 1 --dups 1 --uaborts 0 --alive-fires 0 --commit-retries 0 --quorum counted"
)
# The traced run measures every layer. A layer the workload does not run
# is measured on a small companion input instead.
COMPANION_EXPLORE = "--sites 2 --txns 1"


def workload(name, seed):
    """(run flag strings, explore flag strings, companion runs, companion explores)."""
    if name == "closed-verify":
        return [f"{CLOSED} -n 2000 --seed {seed}"], [], [], [COMPANION_EXPLORE]
    if name == "open-gc-windowed":
        return [f"{OPEN64} -n 3000 --seed {seed}", GC_FAULT], [], [], [COMPANION_EXPLORE]
    if name == "explore-exhaust":
        return [], [EXPLORE_PINNED, EXPLORE_3SITE], [f"{CLOSED} -n 300 --seed {seed}"], []
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ["closed-verify", "open-gc-windowed", "explore-exhaust"]
SETUPS_PER_ROUND = 4
MIN_ROUNDS = 3


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def spawn(kind, flags):
    """Runs `hermes KIND FLAGS` untraced; returns (exit code, stdout, wall seconds, CPU
    seconds, gc stats). CPU seconds are user plus system time from spawn to exit."""
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env["OCAMLRUNPARAM"] = "v=0x400"
    argv = [HERMES, kind] + flags.split()
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime
    gc = {k: int(v) for k, v in re.findall(r"^(\w+_words): (\d+)$", p.stderr, re.M)}
    if "allocated_words" not in gc or "top_heap_words" not in gc:
        raise CheckFailed(f"hermes {kind} {flags}: no runtime statistics (exit {p.returncode})")
    return p.returncode, p.stdout, wall, cpu, gc


def grab(pattern, text, what):
    m = re.search(pattern, text, re.M)
    require(m is not None, f"{what}: output has no line matching {pattern!r}")
    return m.groups()


def quota(flags):
    return int(re.search(r"-n (\d+)", flags).group(1))


def check_run(flags, code, out):
    """Checks one `hermes run` output; returns ((summary, named gids), failed, verified ops)."""
    what = f"hermes run {flags}"
    committed, gave_up, retries, stuck = map(
        int, grab(r"^global txns: (\d+) committed, (\d+) gave up, (\d+) retries, (\d+) stuck$", out, what))
    require(committed + gave_up + stuck == quota(flags), f"{what}: committed + gave up + stuck != quota")
    require(stuck == 0, f"{what}: {stuck} transactions stuck")
    local_c, local_a = map(int, grab(r"^local txns: (\d+) committed, (\d+) aborted$", out, what))
    (sim_ms,) = grab(r"^throughput: [\d.]+ commits/s over ([\d.]+)ms simulated$", out, what)
    cert = tuple(map(int, grab(
        r"^certifier: (\d+) prepared, refusals ext/interval/dead (\d+)/(\d+)/(\d+), (\d+) resubmissions, "
        r"(\d+) commit retries, (\d+) DLU denials$", out, what)))
    forces = None
    if "--group-commit" in flags:
        forces, flushes = map(int, grab(r"^group commit: (\d+) log forces .*, (\d+) coord flushes", out, what))
    require(re.search(r"^local histories: rigorous at all sites$", out, re.M) is not None,
            f"{what}: a local history is not rigorous")
    require(re.search(r"^value consistency: trace and execution agree$", out, re.M) is not None,
            f"{what}: trace and execution disagree on values")
    (n_ops,) = map(int, grab(r"^committed projection: \d+ txns \(\d+ global, \d+ local\), (\d+) ops$", out, what))

    def cycle(graph):
        (text,) = grab(rf"^{graph}\(C\(H\)\): (acyclic|cycle .*)$", out, what)
        if text == "acyclic":
            return []
        return [int(t[1:]) for t in text[len("cycle "):].split("  [")[0].split(" -> ") if re.fullmatch(r"T\d+", t)]

    sg, cg = cycle("SG"), cycle("CG")
    distorted = [int(g) for g in re.findall(r"^global view distortion: T(\d+) at site", out, re.M)]
    require(code == (1 if distorted or cg else 0), f"{what}: exit {code} disagrees with the report")
    named = sorted(set(distorted) | set(sg) | set(cg))
    summary = {
        "committed": committed, "gave_up": gave_up, "retries": retries, "stuck": stuck,
        "local_committed": local_c, "local_aborted": local_a, "sim_ms": sim_ms,
        "prepared": cert[0], "refused_extension": cert[1], "refused_interval": cert[2],
        "refused_dead": cert[3], "resubmissions": cert[4], "commit_retries": cert[5],
        "dlu_denials": cert[6],
    }
    if forces is not None:
        summary["log_forces"], summary["gc_flushes"] = forces, flushes
    return (summary, named), gave_up + stuck + len(named), n_ops


def check_explore(flags, code, out):
    """Checks one `hermes explore --json` output; returns (findings, states)."""
    what = f"hermes explore {flags}"
    require(code == 0, f"{what}: exit {code}, expected 0 (exhausted, no violations)")
    st = json.loads(out.strip().splitlines()[-1])
    require(not st["truncated"], f"{what}: truncated")
    require(st["violations"] == 0, f"{what}: {st['violations']} violations")
    require(st["terminals"] >= 1, f"{what}: no terminal state")
    return st, st["states"]


def run_round(runs, explores):
    """One round of the workload's commands; per-command findings plus round totals."""
    wall = cpu = alloc = peak = units = failed = 0
    findings = []
    for kind, flags in [("run", f) for f in runs] + [("explore", f + " --json") for f in explores]:
        code, out, secs, cpu_secs, gc = spawn(kind, flags)
        wall += secs
        cpu += cpu_secs
        alloc += gc["allocated_words"] * 8 / 1e6
        peak = max(peak, gc["top_heap_words"] * 8 / 1e6)
        if kind == "run":
            found, n_failed, n = check_run(flags, code, out)
            failed += n_failed
        else:
            found, n = check_explore(flags, code, out)
        findings.append(found)
        units += n
    return {"wall": wall, "cpu": cpu, "alloc": alloc, "peak": peak, "units": units,
            "failed": failed, "findings": findings}


def setup_round(runs, explores):
    """CPU seconds of each command's fixed cost: one global transaction, or explore's initial state."""
    t = 0.0
    for flags in runs:
        code, _, _, secs, _ = spawn("run", re.sub(r"-n \d+", "-n 1", flags))
        require(code == 0, f"set-up run {flags}: exit {code}")
        t += secs
    for flags in explores:
        code, _, _, secs, _ = spawn("explore", flags + " --json --max-states 1")
        require(code == 2, f"set-up explore {flags}: exit {code}, expected 2 (truncated)")
        t += secs
    return t


def probe(mode, runs, explores):
    argv = [PROBE, mode]
    for f in runs:
        argv += ["--run", f]
    for f in explores:
        argv += ["--explore", f]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if p.returncode != 0:
        raise CheckFailed(f"probe {mode} failed (exit {p.returncode}): {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout)


def check_against_probe(runs, findings, probed):
    """The command's summary equals the in-process traced one-domain run's, and
    the fold over the raw history finds local commits agreeing with global decisions."""
    for flags, (summary, _), pr in zip(runs, findings, probed):
        ps = dict(pr["summary"])
        ps["sim_ms"] = "%.1f" % ps["sim_ms"]
        diff = {k: (v, ps.get(k)) for k, v in summary.items() if ps.get(k) != v}
        require(not diff, f"hermes run {flags}: command and traced run differ (command, traced): {diff}")
        require(pr["history_global_commits"] == summary["committed"],
                f"hermes run {flags}: history has {pr['history_global_commits']} global commits")
        require(not pr["fold_errors"], f"hermes run {flags}: {pr['fold_errors']}")


def check_ablation():
    code, out, _, _, _ = spawn("explore", EXPLORE_ABLATION + " --json")
    st = json.loads(out.strip().splitlines()[-1])
    require(code == 1 and st["violations"] > 0,
            f"hermes explore {EXPLORE_ABLATION}: exit {code}, {st['violations']} violations; expected violations")


def attempted_per_round(runs, explores):
    return sum(quota(f) for f in runs) + len(explores)


def untraced(name, seed, seconds, spec):
    runs, explores, _, _ = workload(name, seed)
    # Set-up samples are spread over the run, between the rounds, so that a
    # burst of load from other tenants of the host skews few of them.
    setups, rounds = [], []
    start = time.perf_counter()
    while True:
        setups += [setup_round(runs, explores) for _ in range(SETUPS_PER_ROUND)]
        rounds.append(run_round(runs, explores))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + rounds[-1]["wall"] > seconds:
            break
    print(f"{name}: {len(rounds)} rounds; wall (CPU) seconds per round "
          + " ".join(f"{r['wall']:.3f} ({r['cpu']:.3f})" for r in rounds), file=sys.stderr)
    # Every round ran the same inputs: the findings must repeat exactly.
    first = rounds[0]
    for r in rounds[1:]:
        require(r["findings"] == first["findings"], f"{name}: a round's findings differ from the first round's")
    if runs:
        check_against_probe(runs, first["findings"], probe("check", runs, [])["runs"])
    if explores:
        check_ablation()
    values = {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "alloc_mb": statistics.median(r["alloc"] for r in rounds),
        "peak_heap_mb": statistics.median(r["peak"] for r in rounds),
        "verified_units": statistics.median(r["units"] for r in rounds),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return len(rounds) * attempted_per_round(runs, explores), sum(r["failed"] for r in rounds), metrics


def traced(name, seed, spec):
    runs, explores, companion_runs, companion_explores = workload(name, seed)
    rnd = run_round(runs, explores)
    layers = probe("layers", runs + companion_runs, explores + companion_explores)
    check_against_probe(runs, rnd["findings"], layers["runs"][:len(runs)])
    for flags, found, pr in zip(explores, rnd["findings"][len(runs):], layers["explores"]):
        require(pr["states"] == found["states"], f"hermes explore {flags}: the probe visited {pr['states']} states")
    if explores:
        check_ablation()
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers["metrics"]]
    if missing:
        raise SystemExit(f"probe reports no value for {missing}")
    metrics = {m["name"]: {"value": layers["metrics"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return attempted_per_round(runs, explores), rnd["failed"], metrics


def build():
    p = subprocess.run(["dune", "build", "--root", ".", HERMES[len("_build/default/"):],
                        PROBE[len("_build/default/"):]], capture_output=True, text=True, timeout=870)
    if p.returncode != 0:
        raise SystemExit(f"build failed:\n{p.stdout}{p.stderr}")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, statistics.median(values), q3


def repeat(k, seconds, names):
    """Two sets of k runs per workload (seeds 1..k each); prints each end-to-end
    metric's median and quartiles per set, its spread and the gap between the sets."""
    gaps = {}
    for name in names:
        sets = []
        for _ in range(2):
            runs = []
            for seed in range(1, k + 1):
                p = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                                   capture_output=True, text=True, timeout=900)
                if p.returncode != 0:
                    raise SystemExit(f"{name} seed {seed} failed:\n{p.stdout}{p.stderr}")
                runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{name}: correct {correct}, failed share {' '.join(map(str, sorted(shares)))}")
        for metric in sets[0][0]["metrics"]:
            row = []
            for s in sets:
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in s])
                row.append((q1, med, q3))
            spread = max((q3 - q1) / med for q1, med, q3 in row if med)
            gap = (row[1][1] - row[0][1]) / row[0][1] if row[0][1] else 0.0
            gaps[metric] = max(gaps.get(metric, 0.0), abs(gap))
            print(f"  {metric:16s}" + "".join(f" | median {m:.4g} [{a:.4g}, {b:.4g}]" for a, m, b in row)
                  + f" | spread {spread:.3f} | gap {gap:+.3f}")
    print("largest gap between the two sets: " + ", ".join(f"{m} {g:.3f}" for m, g in gaps.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, metavar="K", help="two sets of K runs of each workload")
    a = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "hermes_cli.ml"))
            and os.path.isfile("BENCHMARK.json")):
        raise SystemExit("run from the root of a hermes source checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    if a.repeat:
        repeat(a.repeat, a.seconds, [a.workload] if a.workload else WORKLOADS)
        return
    if a.workload is None:
        raise SystemExit("--workload is required")
    correct = True
    try:
        if a.trace:
            attempted, failed, metrics = traced(a.workload, a.seed, spec)
        else:
            attempted, failed, metrics = untraced(a.workload, a.seed, a.seconds, spec)
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct, attempted, failed = False, 1, 0
        names = spec["per_layer"] if a.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
