"""Time-to-steady-state benchmark for momentmg.

    python3 bench/run_bench.py --workload couette-m4-2level --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py            # every workload, seed 0, once each

Each solve runs in a fresh single-threaded Python process (``worker.py``)
started from the repository's ``src/``; solves are repeated for about
``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` each
round is an untraced solve followed by a traced one, and the run reports
the per-layer metrics.  Every solve is checked (``checks.py``); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only when
every solve converged and passed every check.
"""

from __future__ import annotations

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
OUT = HERE / "out"
# a run must end within 180 s: no round is started that could not finish by this
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class SolveFailed(Exception):
    pass


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def solve_once(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One solve in a fresh process; ``setup_s`` runs from the process start
    to the call of ``solve``."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--config", str(HERE / "configs" / f"{workload}.cfg"), "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--out", str(OUT)]
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise SolveFailed(f"{workload} seed {seed}: no result within the run limit") from None
    if proc.returncode != 0:
        raise SolveFailed(f"{workload} seed {seed}: worker exited {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["solve_start"] - started
    return record


def fastest_solve(records: list[dict]) -> float:
    """The solve time of one run: each solve cut into its outer iterations
    (the first with the initial residual, plus what follows the last), the
    fastest time of each piece over the run's solves, summed.

    Every solve of a run has the same input, so a piece does the same work
    in each.  On a shared host the same work alternates between a fast speed
    and stretches of seconds to minutes up to 80 % slower, while a
    neighbour loads the machine.  A run's median moves with the share of
    slow stretches that fall into it, and its fastest whole solve needs a
    fast stretch as long as a solve; a piece of 5-150 ms finds a fast moment
    unless the whole run is loaded.  No interference makes a piece faster,
    and a slower program makes every piece slower."""
    return sum(min(piece) for piece in zip(*(r["solve_pieces_s"] for r in records)))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds of solves for about ``seconds``; returns the result
    object.

    ``solve_s`` is the solve with every outer iteration at its fastest over
    the run (``fastest_solve``), ``setup_s`` the fastest set-up of the run;
    every other metric is the median over the rounds."""
    names = spec()["per_layer" if trace else "end_to_end"]
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    rounds, problems = [], []
    attempted = failed = 0
    while True:
        t_round = time.monotonic()
        round_ = []
        for traced in ((False, True) if trace else (False,)):
            attempted += 1
            try:
                record = solve_once(workload, seed, traced, deadline)
            except SolveFailed as exc:
                failed += 1
                problems.append(str(exc))
                break
            if not record["converged"]:
                failed += 1
            round_.append(record)
        if len(round_) == (2 if trace else 1):
            rounds.append(round_)
        # stop when another round would end more than half a round past
        # --seconds, so a run measures about --seconds whatever the round length
        now = time.monotonic()
        round_s = now - t_round
        if failed or now + round_s / 2 >= t_begin + seconds or now + round_s > deadline:
            break
    if not rounds:
        raise SolveFailed("; ".join(problems) or "no solve finished")

    records = [record for round_ in rounds for record in round_]
    for record in records:
        problems += [f"{check}: {msg}" for check, msgs in record["checks"].items()
                     for msg in msgs]
    Ks = {record["iterations"] for record in records}
    if len(Ks) != 1:
        problems.append(f"iteration counts differ between solves of one input: {sorted(Ks)}")

    def median(key, index=0):
        return statistics.median(round_[index][key] for round_ in rounds)

    def fastest(index=0):
        return fastest_solve([round_[index] for round_ in rounds])

    if trace:
        metrics = {name: statistics.median(r[1]["layers"][name] for r in rounds)
                   for name in rounds[0][1]["layers"]}
        metrics["trace.overhead_s"] = fastest(1) - fastest(0)
    else:
        metrics = {"solve_s": fastest(), "iterations": rounds[0][0]["iterations"],
                   "setup_s": min(round_[0]["setup_s"] for round_ in rounds),
                   "peak_rss_mb": median("peak_rss_mb")}
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"{workload}: FAIL {problem}", file=sys.stderr)
    print(f"{workload}  largest asymmetry = {max(r['asymmetry'] for r in records):.3g}"
          f"  largest fixed-point move = {max(r['fixed_point_move'] for r in records):.3g}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names if m["name"] in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="momentmg time-to-steady-state benchmark")
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all, once each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "momentmg" / "__init__.py").is_file():
        print(f"error: no momentmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec()["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {workloads}", file=sys.stderr)
        return 2

    ok, results = True, {}
    for workload in [args.workload] if args.workload else workloads:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except SolveFailed as exc:
            print(f"{workload}: FAIL {exc}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
        print(f"{workload}  attempted = {result['attempted']}  failed = {result['failed']}"
              f"  correct = {result['correct']}")
        ok = ok and result["correct"] and result["failed"] == 0
        results[workload] = result
    print(json.dumps(result if args.workload else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
