#!/usr/bin/env python3
"""The perf gate: perfbench pairs of a base revision against the change.

    python3 scripts/pair_gate.py <base-revision>

The change is the working tree this script lives in. The base is exported
with `git archive <base> | tar -x` into a temporary directory: a plain
copy, not a worktree. Each tree builds perfbench with `--release --offline`
into its own `CARGO_TARGET_DIR=<tree>/.bench_build` and runs it from its
own root, so the two sides' `.bench_build/perfbench-out` never mix.

It runs PAIRS pairs of each workload in WORKLOADS at the seed whose
reference digests `perfbench/src/check.rs` keeps, so every iteration is
digest-checked, alternating which side runs first. `rep-exhaustive` times
the rep engine and 165k fork-join tasks; `warm-figures` times cache reads,
parsing, stats and rendering, and its `setup_s` is a cold smoke sweep of
swarm, gossip and rep.

The rule is the benchmark's own, with the end-to-end metrics, their
`better` and their `bound` read from the base's BENCHMARK.json (a change
cannot loosen the bound it is judged by). A (workload, metric) row fails
when the change is worse in at least nine tenths of the pairs (ties count
for neither side) and its median is worse than the parent's by more than
the bound. A workload's `failed` row fails when the change fails a larger
share of its attempted iterations than the parent. A run that exits
non-zero fails the gate at once. Prints one row per workload and metric;
exits 1 if any row fails.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

WORKLOADS = ("rep-exhaustive", "warm-figures")
PAIRS = 10
SEED = 24301
# One iteration of rep-exhaustive; ~100 warm-figures passes after its set-up.
SECONDS = 1
WORSE_SHARE = 0.9

Row = namedtuple("Row", "metric parent change rel worse ok")


def decide(pairs, metrics):
    """The verdict on one workload's pairs.

    `pairs` holds (parent, change) results, each the parsed last line of a
    perfbench run; `metrics` is BENCHMARK.json's `end_to_end` list. Returns
    one Row per metric, then a `failed` row comparing the failed shares.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        worse = sum(c > p if lower else c < p for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        if pm:
            rel = (cm - pm) / abs(pm)
        else:
            rel = math.copysign(math.inf, cm - pm) if cm != pm else 0.0
        regressed = (rel if lower else -rel) > m["bound"]
        ok = not (worse >= WORSE_SHARE * len(pairs) and regressed)
        rows.append(Row(name, pm, cm, rel, worse, ok))
    share = []
    for side in (0, 1):
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        share.append(failed / max(1, attempted))
    rows.append(Row("failed", share[0], share[1], share[1] - share[0], None, share[1] <= share[0]))
    return rows


def build(tree):
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=tree, env=env, check=True)


def run(tree, workload):
    """One perfbench run from the tree's root: the parsed last stdout line."""
    cmd = [str(tree / ".bench_build/release/perfbench"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"pair gate: {workload} in {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} <base-revision>")
    change = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="pair-gate-") as tmp:
        parent = Path(tmp)
        archive = subprocess.Popen(["git", "-C", str(change), "archive", argv[1]],
                                   stdout=subprocess.PIPE)
        tar = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or tar.returncode != 0:
            sys.exit(f"pair gate: cannot export {argv[1]}")
        metrics = json.loads((parent / "BENCHMARK.json").read_text())["end_to_end"]
        for tree in (parent, change):
            build(tree)
        pairs = {w: [] for w in WORKLOADS}
        for i in range(PAIRS):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for w in WORKLOADS:
                got = {tree: run(tree, w) for tree in order}
                pairs[w].append((got[parent], got[change]))
                wall = [got[t]["metrics"]["wall_s"]["value"] for t in (parent, change)]
                print(f"pair {i + 1}/{PAIRS} {w}: wall_s {wall[0]:.4g} -> {wall[1]:.4g}",
                      file=sys.stderr, flush=True)

    print(f"{'workload':<16}{'metric':<13}{'parent':>12}{'change':>12}{'rel':>9}"
          f"{'worse':>7}  verdict")
    passed = True
    for w in WORKLOADS:
        for r in decide(pairs[w], metrics):
            worse = "-" if r.worse is None else f"{r.worse}/{len(pairs[w])}"
            print(f"{w:<16}{r.metric:<13}{r.parent:>12.6g}{r.change:>12.6g}{r.rel:>+9.1%}"
                  f"{worse:>7}  {'pass' if r.ok else 'FAIL'}")
            passed &= r.ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
