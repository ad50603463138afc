"""zetalab benchmark: four workloads, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload scan_small_q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload, untraced then traced

A run repeats whole rounds, as many as end nearest to --seconds.  A round is the same
seeded set of operations every time, run in one fresh worker process
(worker.py), so in-process caches are warm only where one zetalab session
would warm them.  Every output is checked against the independent references
of refs.py or against properties the method must have; an operation that
raises or fails a check counts as failed.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics untraced, the per-layer metrics traced).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import tracing  # noqa: E402

SCAN_BUDGET = 1e-8  # lfunc.scan's default certified absolute error
LVALUE_BUDGET = 1e-9  # cmd_lvalue's default target
NUMERIC_TOL = 1e-9
WORKER_TIMEOUT = 150.0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "results_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run or check a round."""


# ---------------------------------------------------------------------------
# inputs, made from the seed alone
# ---------------------------------------------------------------------------


# Scan moduli go in ascending order, as a scan visits them: a seeded shuffle
# moved a round's time by up to 30% between seeds, the same in repeated runs.


def inputs_scan_small_q(seed: int) -> list:
    rng = random.Random(f"scan_small_q:{seed}")
    start = refs.SMALL_WINDOW[0] + rng.randrange(refs.SMALL_STARTS)
    return [("scan", {"moduli": list(range(start, start + refs.SMALL_LENGTH))})]


def inputs_scan_large_q(seed: int) -> list:
    rng = random.Random(f"scan_large_q:{seed}")
    ref = refs.load("scan_large_q")
    # five primes, so that the median operation is a prime modulus in every
    # round: the first modulus of a process pays 0.5-1 s more for its first
    # large allocations, and with three primes the median fell on the seeded
    # composite, whose cost varies by 30% between the seven candidates
    moduli = rng.sample(ref["primes"], 5) + ref["power_of_two"] + [rng.choice(ref["composites"])]
    return [("scan", {"moduli": sorted(moduli)})]


def inputs_lvalue_points(seed: int) -> list:
    rng = random.Random(f"lvalue_points:{seed}")
    queries = []
    for stratum in refs.load("lvalue_points")["strata"]:
        entry = rng.choice(stratum)
        queries.append([entry["q"], rng.choice(entry["chars"])[0]])
    rng.shuffle(queries)
    return [("lvalue", {"queries": queries})]


def inputs_local_identities(seed: int) -> list:
    # verify and oracle keep their default seed: it changes the symbolic
    # inputs and the cost by up to 2x, so the workload seed drives only the
    # benchmark's numeric evaluation points.  nmax and npoints are below
    # their defaults (6 and 20), so that a run holds two rounds: one round
    # at the defaults took 28-37 s and left one sample of each call a run.
    return [("verify", {"nmax": 4, "check_seed": seed, "points": 2}),
            ("oracle", {"npoints": 5}),
            ("bounds", {"qs": None})]


WORKLOADS = {
    "scan_small_q": inputs_scan_small_q,
    "scan_large_q": inputs_scan_large_q,
    "lvalue_points": inputs_lvalue_points,
    "local_identities": inputs_local_identities,
}


# ---------------------------------------------------------------------------
# checks: each returns (ok per operation, results produced, failure messages)
# ---------------------------------------------------------------------------


def check_scan(ops: list, workload: str) -> tuple:
    moduli = refs.load(workload)["moduli"]
    oks, results, msgs = [], 0, []
    for op in ops:
        q = op["q"]
        problems = [op["error"]] if "error" in op else _scan_problems(op, moduli.get(str(q)))
        oks.append(not problems)
        results += op.get("count") or 0
        msgs += [f"scan q={q}: {p}" for p in problems]
    return oks, results, msgs


def _scan_problems(op: dict, ref) -> list:
    q, recs = op["q"], op["records"]
    want = refs.primitive_count(q)
    problems = [] if op["count"] == want else [f"{op['count']} primitive characters, want {want}"]
    if not refs.has_primitive(q):
        return problems + ([f"{len(recs)} records for q = 2 mod 4"] if recs else [])
    if len(recs) != 1 or recs[0][0] != q:
        return problems + [f"records {recs}, want one for q = {q}"]
    _, label, abs_l = recs[0]
    tol = SCAN_BUDGET + ref["err"]
    if abs(abs_l - ref["max"]) > tol:
        problems.append(f"max |L| {abs_l!r} vs reference {ref['max']!r} (tol {tol:.1e})")
    if label not in ref["labels"] or abs(ref["labels"][label][0] - ref["max"]) > tol:
        problems.append(f"label {label} is not a maximizer (reference {sorted(ref['labels'])})")
    elif abs_l > ref["labels"][label][1]:
        problems.append(f"|L| {abs_l!r} above the convexity envelope {ref['labels'][label][1]!r}")
    return problems


def check_lvalue(ops: list, workload: str) -> tuple:
    pool = {(e["q"], c[0]): (complex(c[1], c[2]), e["err"])
            for stratum in refs.load(workload)["strata"] for e in stratum for c in e["chars"]}
    oks, msgs = [], []
    for op in ops:
        problems = [op["error"]] if "error" in op else []
        if not problems:
            ref, err = pool[op["q"], op["label"]]
            value = complex(*op["value"])
            if abs(value - ref) > LVALUE_BUDGET + err:
                problems.append(f"L = {value!r}, reference {ref!r}")
            if abs(abs(value) - op["conj_abs"]) > 2 * LVALUE_BUDGET:
                problems.append(f"|L(chi)| = {abs(value)!r} but |L(conj chi)| = {op['conj_abs']!r}")
            if op["pass"] is not True:
                problems.append("the program's own Hurwitz cross-check failed")
        oks.append(not problems)
        msgs += [f"lvalue q={op['q']} label={op['label']}: {p}" for p in problems]
    return oks, len(ops), msgs


def _each_op(check):
    """Lift a check of one local_identities call to the (oks, results, msgs) of all calls."""

    def checked(ops: list, workload: str) -> tuple:
        oks, msgs = [], []
        for op in ops:
            o, m = check(op)
            oks += o
            msgs += m
        return oks, len(oks), msgs

    return checked


@_each_op
def check_verify(op: dict) -> tuple:
    oks = [ok is True for _, ok in op["checks"]]
    msgs = [f"verify {cid} did not reduce to zero" for cid, ok in op["checks"] if ok is not True]
    for cid, diff, scale in op["numeric"]:
        oks.append(diff <= NUMERIC_TOL * scale)
        if not oks[-1]:
            msgs.append(f"numeric {cid}: residual {diff:.3e} (scale {scale:.3e})")
    return oks, msgs


@_each_op
def check_oracle(op: dict) -> tuple:
    oks, msgs = [], []
    for formula, closed, probe in op["comparisons"]:
        closed, probe = complex(*closed), complex(*probe)
        rel = abs(closed - probe) / max(1.0, abs(closed))
        oks.append(rel <= op["tol"])
        if not oks[-1]:
            msgs.append(f"oracle {formula}: relative error {rel:.3e} > {op['tol']:g}")
    exact = [ok is True for ok in op["coset"] + [op["transition"]]]
    oks += exact
    if not all(exact):
        msgs.append("oracle coset-mass or transition-system check failed")
    return oks, msgs


def bound_ratio(kind: str, case: dict) -> float:
    """The case's lhs over its finite-q bound (README, "Finite-q forms of the bounds").

    zeta_ratio_decay and herm_decay carry the frequency factor l^order of
    q^(-ls); the other kinds compare against the stated shape as is.
    """
    if kind == "zeta_ratio_decay":
        return case["ratio"] / case["l"] ** case["n"]
    if kind == "herm_decay":
        return case["ratio"] / case["l"] ** (case["k1"] + case["k2"])
    return case["ratio"]


@_each_op
def check_bounds(op: dict) -> tuple:
    oks, msgs = [], []
    for rep in op["kinds"]:
        kind = rep["kind"]
        for c in rep["cases"]:
            oks.append(rep["constant"] == 10.0 and bound_ratio(kind, c) <= 1.0)
            if not oks[-1]:
                msgs.append(f"bound {kind} case {c}: ratio {bound_ratio(kind, c):.4f} > 1")
    return oks, msgs


CHECKS = {"scan": check_scan, "lvalue": check_lvalue, "verify": check_verify,
          "oracle": check_oracle, "bounds": check_bounds}


def check_round(workload: str, outputs: list) -> tuple:
    """(ok per operation, results, messages) for one round's worker outputs."""
    oks, results, msgs = [], 0, []
    for out in outputs:
        o, r, m = CHECKS[out["part"]](out["ops"], workload)
        oks, results, msgs = oks + o, results + r, msgs + m
    return oks, results, msgs


# ---------------------------------------------------------------------------
# rounds and metrics
# ---------------------------------------------------------------------------


def _worker_env() -> dict:
    # single-threaded BLAS: on the 2-vCPU machine this was tuned on, two BLAS
    # threads made scan_large_q slower (median wall_s 9.7 s against 8.7 s) and
    # less steady, since a matrix product waits for its slower thread
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_process(parts: list, trace: bool, deadline: float) -> dict:
    """One fresh worker process running the parts in order; returns its output plus its set-up time."""
    job = json.dumps({"parts": parts, "trace": trace})
    timeout = min(WORKER_TIMEOUT, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("no time left for another worker process")
    spawned = time.monotonic()
    names = "+".join(part for part, _ in parts)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job, text=True,
                              capture_output=True, timeout=timeout, cwd=ROOT, env=_worker_env())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {names} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {names} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["first_op_at"] - spawned
    return out


def run_round(workload: str, parts: list, trace: bool, deadline: float) -> dict:
    proc = run_process(parts, trace, deadline)
    outputs = proc["parts"]
    oks, results, msgs = check_round(workload, outputs)
    op_times = [op["t"] for out in outputs for op in out["ops"]]
    rnd = {
        "proc": proc,
        "oks": oks,
        "results": results,
        "msgs": msgs,
        "wall_s": sum(op_times),
        "op_times": op_times,
        "setup_s": proc["setup_s"],
        "peak_rss_mb": proc["peak_rss_mb"],
    }
    if trace:
        rnd["layers"] = tracing.round_metrics([proc["spans"], proc["setup_spans"]],
                                              rnd["wall_s"], proc["missing"])
        rnd["shares"] = tracing.layer_shares([proc["spans"]], rnd["wall_s"])
        rnd["missing"] = sorted(proc["missing"])
    return rnd


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 parts: list | None = None) -> dict:
    """Whole rounds, as many as end nearest to `seconds`; returns the result object and a report.

    A traced run writes its spans to out/<workload>-seed<seed>.spans.jsonl.
    """
    parts = parts if parts is not None else WORKLOADS[workload](seed)
    start = time.monotonic()
    deadline = start + 170.0
    rounds = []
    elapsed = 0.0
    # another round starts only while it would end less than half a round
    # past `seconds`, so runs of 12-14 s rounds do not overshoot by a round
    while not rounds or elapsed + elapsed / len(rounds) / 2 < seconds:
        rounds.append(run_round(workload, parts, trace, deadline))
        elapsed = time.monotonic() - start
    attempted = sum(len(r["oks"]) for r in rounds)
    failed = sum(r["oks"].count(False) for r in rounds)
    # every round attempts the same operations; anything else is a broken run
    correct = len({len(r["oks"]) for r in rounds}) == 1
    walls = [r["wall_s"] for r in rounds]
    op_times = [t for r in rounds for t in r["op_times"]]
    report = {
        "rounds": len(rounds),
        "ops_timed": len(op_times),
        "msgs": [m for r in rounds for m in r["msgs"]],
    }
    if len(op_times) >= 200:  # ten samples beyond the 95th percentile
        report["op_p95_ms"] = 1e3 * percentile(op_times, 95)
    if trace:
        metrics, unstable = tracing.combine_rounds([r["layers"] for r in rounds])
        metrics = {k: {"value": v, "unit": tracing.METRICS[k][0]} for k, v in metrics.items()}
        correct &= not unstable
        report.update(unstable=unstable, missing=rounds[0]["missing"],
                      shares=_median_shares([r["shares"] for r in rounds]))
        spans_out = HERE / "out" / f"{workload}-seed{seed}.spans.jsonl"
        spans_out.parent.mkdir(exist_ok=True)
        with spans_out.open("w") as fh:
            for i, r in enumerate(rounds):
                fh.write(json.dumps({"round": i, "parts": [out["part"] for out in r["proc"]["parts"]],
                                     "setup_spans": r["proc"]["setup_spans"],
                                     "spans": r["proc"]["spans"]}) + "\n")
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": statistics.median(walls),
            "results_per_s": statistics.median(r["results"] / r["wall_s"] for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(op_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "report": report}


def _median_shares(per_round: list) -> dict:
    layers = {k for shares in per_round for k in shares}
    med = {k: statistics.median(s.get(k, 0.0) for s in per_round) for k in layers}
    return dict(sorted(med.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# printing and entry point
# ---------------------------------------------------------------------------


def print_report(workload: str, seed: int, trace: bool, run: dict) -> None:
    res, rep = run["result"], run["report"]
    print(f"{workload}  seed {seed}  trace {int(trace)}  rounds {rep['rounds']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if "op_p95_ms" in rep:
        print(f"  {'op_p95_ms (not gated)':32s} {rep['op_p95_ms']:14.6g} ms   "
              f"({rep['ops_timed']} operations)")
    if trace:
        print("  layer self time as a share of the traced wall_s:")
        for layer, share in rep["shares"].items():
            print(f"    {layer:30s} {100 * share:6.1f} %")
        for name in rep["unstable"]:
            print(f"  count {name} differs between rounds")
        for name in rep["missing"]:
            print(f"  hook target {name} is missing; its metrics are not reported")
    for msg in rep["msgs"][:20]:
        print(f"  FAILED {msg}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, with the tracing overhead."""
    summary = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        print_report(workload, seed, False, plain)
        traced = run_workload(workload, seed, seconds, trace=True)
        print_report(workload, seed, True, traced)
        untraced_wall = plain["result"]["metrics"]["wall_s"]["value"]
        traced_wall = traced["result"]["metrics"]["trace.wall_s"]["value"]
        print(f"  tracing overhead: {traced_wall - untraced_wall:+.3f} s "
              f"({100 * (traced_wall / untraced_wall - 1):+.1f} % of wall_s)\n")
        summary[workload] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "metrics": plain["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
        }
    ok = all(s["correct"] and s["failed"] == 0 for s in summary.values())
    print(json.dumps({"correct": ok, "attempted": sum(s["attempted"] for s in summary.values()),
                      "failed": sum(s["failed"] for s in summary.values()), "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all of them, untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zetalab" / "__init__.py").is_file():
        print(f"perfbench: no zetalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        trace = bool(args.trace)
        run = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, trace, run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
