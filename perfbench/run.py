#!/usr/bin/env python3
"""Run one workload of the Waltz end-to-end ledger and print its record.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check        # tiny load, every workload
    python3 perfbench/run.py --slowdown-test     # the injected-slowdown test
    python3 perfbench/run.py --write-reference   # regenerate reference.tsv

Run it from the repository root. It builds perfbench/ledger.exe with dune,
times set-up in several fresh processes, runs the workload for --seconds
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the host record. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
EXE = os.path.join(BUILD, "perfbench", "ledger.exe")
CLI = os.path.join(BUILD, "bin", "waltz_cli.exe")
OUT = os.path.join(HERE, "_out")
SETUP_SPAWNS = 15
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(*targets):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a Waltz source tree: %s is missing" % need)
    # The shared dune cache lives outside the tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT] + list(targets),
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def ledger(args, timeout=RUN_TIMEOUT_S):
    """Run the ledger once; return its last stdout line parsed as JSON."""
    r = subprocess.run([EXE] + args + ["--out", OUT], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=timeout)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("ledger %s exited with %d" % (" ".join(args), r.returncode))
    return json.loads(lines[-1])


HOST_KEYS = ("workload", "seed", "nproc", "domains", "batch", "ocaml", "reference_s",
             "refloop_checksum", "refloop_minor_words", "host.ref_ms", "host.ref_range",
             "host.wall_s", "norm_wall_s", "passes", "traced_passes", "inject",
             "class_norm_s", "mc_sem2", "mc_norm_s", "mc_raw_s")


def run(workload, seed, seconds, trace, tiny=False, inject=None):
    """One run: set-up processes, then the measured process. Returns the
    host record and the result record."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        setups = [ledger(["setup"] + common) for _ in range(SETUP_SPAWNS)]
    extra = ["--inject", inject] if inject else []
    rec = ledger(["run"] + common + ["--seconds", str(seconds), "--trace", str(int(trace))]
                 + extra)
    info = rec["info"]
    metrics = rec["metrics"]
    if not trace:
        setups.append(info)
        metrics["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
        info["setup_s_samples"] = [s["setup_s"] for s in setups]
    os.makedirs(OUT, exist_ok=True)
    name = "record-%s-%d-%d%s.json" % (workload, seed, int(trace), "-" + inject if inject else "")
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(rec, f, indent=1)
    for n in info.get("notes", []):
        print("note: " + n, file=sys.stderr)
    return ({k: info[k] for k in HOST_KEYS},
            {"correct": rec["correct"], "attempted": rec["attempted"],
             "failed": rec["failed"], "metrics": metrics})


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_check():
    """Tiny runs of every workload, untraced and traced: every named metric
    is present with its unit and a finite value, the reference loop is the
    same allocation-free computation everywhere, and every trace passes
    `waltz_cli trace-check`."""
    spec = benchmark_spec()
    problems = []
    checksums = set()
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            host, rec = run(w["name"], 1, 1, trace, tiny=True)
            back = json.loads(json.dumps(rec))
            tag = "%s/trace %d" % (w["name"], trace)
            if not back["correct"] or back["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d"
                                % (tag, back["correct"], back["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = back["metrics"]
            if set(got) != set(want):
                problems.append("%s: metrics differ: missing %s, extra %s"
                                % (tag, sorted(set(want) - set(got)),
                                   sorted(set(got) - set(want))))
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit:
                    problems.append("%s: %s unit %r, want %r" % (tag, name, m.get("unit"), unit))
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s value %r" % (tag, name, v))
            if host["refloop_minor_words"] != 0:
                problems.append("%s: the reference loop allocated %s minor words"
                                % (tag, host["refloop_minor_words"]))
            checksums.add(host["refloop_checksum"])
            if trace:
                path = os.path.join(OUT, "trace-%s-1.json" % w["name"])
                r = subprocess.run([CLI, "trace-check", path], cwd=ROOT,
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
                if r.returncode != 0:
                    problems.append("%s: trace-check: %s" % (tag, r.stdout.strip()))
            for name, unit in want.items():
                print("%-10s %-36s %16.6g %s" % (w["name"], name, got[name]["value"], unit))
            print("self-check %s: %d metrics, attempted %d, failed %d"
                  % (tag, len(got), back["attempted"], back["failed"]))
    if len(checksums) != 1:
        problems.append("reference loop checksums differ across workloads: %s" % sorted(checksums))
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    return 1 if problems else 0


# The injected slowdown: every operation of the class busy-waits an extra 20%
# of its own time. Each class exists on one workload only.
INJECTIONS = (("simulate", "sim-paper"), ("synthesis", "pulses"))
SLOWDOWN_REPEATS = 3


def slowdown_test(seconds, seed):
    """Show that an injected 20% slowdown of one operation class raises
    norm_wall_s past its bound, by 20% of the class's share, on the class's
    own workload, and on no other. Medians of SLOWDOWN_REPEATS runs on the
    home workload; one run elsewhere, where the class has no operations."""
    spec = benchmark_spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "norm_wall_s")
    names = [w["name"] for w in spec["workloads"]]
    seeds = [seed + k for k in range(SLOWDOWN_REPEATS)]

    def norm(w, inject, repeats):
        hosts = [run(w, s, seconds, False, inject=inject)[0] for s in seeds[:repeats]]
        return statistics.median(h["norm_wall_s"] for h in hosts), hosts[0]

    base = {w: norm(w, None, SLOWDOWN_REPEATS) for w in names}
    problems = []
    print("%-10s %-10s %10s %10s %8s %8s" % ("inject", "workload", "base s", "inject s",
                                              "rise", "expect"))
    for cls, home in INJECTIONS:
        for w in names:
            b, host = base[w]
            share = host["class_norm_s"].get(cls, 0.0) / host["norm_wall_s"]
            inj, _ = norm(w, cls, SLOWDOWN_REPEATS if w == home else 1)
            rise, expect = inj / b - 1, 0.2 * share
            print("%-10s %-10s %10.4f %10.4f %+8.3f %+8.3f" % (cls, w, b, inj, rise, expect))
            if w == home:
                if rise <= bound or abs(rise - expect) > 0.3 * expect:
                    problems.append("%s on %s: rise %+.3f, expected %+.3f and above the %.2f bound"
                                    % (cls, w, rise, expect, bound))
            elif share > 0 or abs(rise) >= bound:
                problems.append("%s on %s: share %.3f, rise %+.3f" % (cls, w, share, rise))
    for p in problems:
        print("slowdown-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--slowdown-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    if a.self_check:
        build("./perfbench/ledger.exe", "./bin/waltz_cli.exe")
    else:
        build("./perfbench/ledger.exe")
    os.makedirs(OUT, exist_ok=True)
    if a.self_check:
        sys.exit(self_check())
    if a.slowdown_test:
        sys.exit(slowdown_test(a.seconds, a.seed))
    if a.write_reference:
        sys.exit(subprocess.run([EXE, "reference"], cwd=ROOT, timeout=1800).returncode)
    if a.workload not in {w["name"] for w in benchmark_spec()["workloads"]}:
        fail("unknown workload %r" % a.workload)
    host, rec = run(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(host))
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
