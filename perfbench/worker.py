"""The one fresh process of a benchmark round, as a zetalab session is one process.

Reads a job from stdin (JSON: parts, a list of [part, inputs] run in order
in this one process, and trace), imports zetalab from the checkout's src/,
sets up, times each operation, gathers what the checks in run.py need with
timing and tracing off, and writes one JSON object to stdout: the ops of
each part, the peak RSS and, traced, the spans of the whole process.  Times
are perf_counter seconds; "first_op_at" is time.monotonic() when the first
timed operation starts, so the parent can measure set-up from the moment it
started this process.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_zetalab():
    src = ROOT / "src"
    if not (src / "zetalab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zetalab sources under {src}")
    sys.path.insert(0, str(src))
    from zetalab import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: zetalab imported from {cli.__file__}, not from {src}")


def setup(tracer) -> None:
    """The one-time builds every process pays: bump derivatives and the contour table."""
    from zetalab import lfunc, mellin

    with tracer.span("mellin.cutoff", "mellin.h0_eval"):
        mellin.h0_eval(1.5)  # first call builds the sympy diff + lambdify derivatives
    with tracer.paused():
        # contour table and gamma-line integrals of both parities
        lfunc.l_central(lfunc.character_by_label(3, "1"))
        lfunc.l_central(lfunc.character_by_label(5, "2"))


def run_scan(inputs, tracer):
    from zetalab import lfunc

    counted = {}
    enumerate_characters = lfunc.enumerate_characters

    def counting(q):  # records how many primitive characters the scan evaluated
        chars = enumerate_characters(q)
        counted[q] = len(chars)
        return chars

    lfunc.enumerate_characters = counting
    ops = []
    for q in inputs["moduli"]:
        t0 = time.perf_counter()
        try:
            recs = lfunc.scan(q, q)
        except lfunc.LfuncError as exc:
            ops.append({"q": q, "t": time.perf_counter() - t0, "error": str(exc)})
            continue
        ops.append({"q": q, "t": time.perf_counter() - t0, "count": counted.get(q),
                    "records": [[r.q, r.label, r.abs_l] for r in recs]})
    return ops


def run_lvalue(inputs, tracer):
    from zetalab import cli, lfunc

    ops = []
    for q, label in inputs["queries"]:
        t0 = time.perf_counter()
        try:
            rep = cli.cmd_lvalue(cli.RunConfig(command="lvalue", q=q, label=label))
        except lfunc.LfuncError as exc:
            ops.append({"q": q, "label": label, "t": time.perf_counter() - t0, "error": str(exc)})
            continue
        dt = time.perf_counter() - t0
        with tracer.paused():
            conj = lfunc.l_central(lfunc.character_by_label(q, label).conj())
        ops.append({"q": q, "label": label, "t": dt, "value": rep["value"],
                    "pass": rep.get("pass"), "conj_abs": abs(conj)})
    return ops


def run_verify(inputs, tracer):
    from zetalab import cli

    t0 = time.perf_counter()
    rep = cli.cmd_verify(cli.RunConfig(nmax=inputs["nmax"]))
    dt = time.perf_counter() - t0
    with tracer.paused():
        numeric = numeric_identities(inputs["nmax"], inputs["check_seed"], inputs["points"])
    return [{"t": dt, "checks": [[c["id"], c["pass"]] for c in rep["checks"]],
             "passed": rep["passed"], "numeric": numeric}]


def run_oracle(inputs, tracer):
    from zetalab import cli

    t0 = time.perf_counter()
    rep = cli.cmd_oracle(cli.RunConfig(command="oracle", npoints=inputs["npoints"]))
    dt = time.perf_counter() - t0
    return [{"t": dt, "tol": rep["tol"], "passed": rep["passed"],
             "comparisons": [[r["formula"], r["closed"], r["oracle"]] for r in rep["comparisons"]],
             "coset": [c["pass"] for c in rep["coset_checks"]],
             "transition": rep["transition_system"]["pass"]}]


def run_bounds(inputs, tracer):
    from zetalab import locgl2

    # the four kinds are one operation, so that a round's operations are the
    # three calls verify, oracle and bounds, of comparable cost
    kwargs = {"qs": tuple(inputs["qs"])} if inputs["qs"] else {}
    kinds = []
    t0 = time.perf_counter()
    for kind in ("c_decay", "zeta_ratio_decay", "herm_decay", "vertical_line"):
        kinds.append((kind, locgl2.bound_check(kind, constant=10.0, **kwargs)))
    dt = time.perf_counter() - t0
    return [{"t": dt, "kinds": [{"kind": kind, "constant": rep.constant, "cases": rep.cases}
                                for kind, rep in kinds]}]


def numeric_identities(nmax: int, seed: int, npoints: int) -> list:
    """Identities of the verify suite evaluated side by side at seeded numeric points.

    Each side is substituted on its own and combined in floating point, so an
    identity that only normalises to zero symbolically would show here.
    Returns [id, |lhs - rhs|, scale] rows.
    """
    from zetalab import locgl2
    from zetalab.symring import EvalPoint

    rng = random.Random(seed)
    vectors = locgl2.classical_vectors(nmax)
    rows = []
    for i in range(npoints):
        small = lambda: complex(rng.uniform(-0.35, 0.35), rng.uniform(-2.0, 2.0))  # noqa: E731
        p = EvalPoint(q=rng.choice((2, 3, 5, 7, 11)), s=complex(rng.uniform(1.5, 3.0),
                      rng.uniform(-2.0, 2.0)), s0=small(), s1=small(), s2=small())

        def sub(elem):
            return elem.substitute(p)

        def row(cid, vals, target):
            rows.append([f"{cid}@point{i}", abs(sum(vals) - target),
                         max(1.0, sum(abs(v) for v in vals))])

        for m in range(0, min(10, 4 + nmax) + 1):
            table = locgl2.coset_masses(m)
            row(f"mass_partition[m={m}]", [sub(w) for w in table.masses] + [sub(table.tail)], 1.0)
        for l in range(nmax + 1):
            for lp in range(l, nmax + 1):
                table = locgl2.coset_masses(max(l, lp))
                vals = [sub(vectors.entry(l, n)) * sub(vectors.entry(lp, n)) * sub(w)
                        for n, w in enumerate(table.masses)]
                vals.append(sub(vectors.entry(l, l)) * sub(vectors.entry(lp, lp)) * sub(table.tail))
                row(f"orthonormality[{l},{lp}]", vals, 1.0 if l == lp else 0.0)
        for k in range(1, nmax + 1):
            row(f"dimension[{k}]", [sub(locgl2.dimension(k)), -sub(vectors.entry(k, k)) ** 2], 0.0)
        lmax = min(6, nmax)
        ratios = [sub(locgl2.zeta_ratio(l).value) for l in range(lmax + 1)]
        t_val = p.generator_values()[2]  # T = q^(-s)
        for n in range(lmax + 1):
            row(f"translate_identity[n={n}]",
                [sub(locgl2.transition_coeff(n, l)) * ratios[l] for l in range(n + 1)], t_val**n)
        raw0 = sub(locgl2.intertwining_eigenvalue(0).value)
        for l in range(1, min(4, nmax) + 1):
            raw = sub(locgl2.intertwining_eigenvalue(l).value) / raw0
            row(f"mu_vs_raw[l={l}]", [sub(locgl2.mu_factor("finite", l).value), -raw], 0.0)
    return rows


PARTS = {"scan": run_scan, "lvalue": run_lvalue, "verify": run_verify, "oracle": run_oracle,
         "bounds": run_bounds}


def main() -> None:
    job = json.load(sys.stdin)
    import_zetalab()
    import tracing

    tracer = tracing.Tracer()
    if job["trace"]:
        tracing.install(tracer)
        tracer.active = True
    setup(tracer)
    setup_spans, tracer.spans = tracer.spans, []
    first_op_at = time.monotonic()
    parts = [{"part": part, "ops": PARTS[part](inputs, tracer)} for part, inputs in job["parts"]]
    tracer.active = False
    out = {"first_op_at": first_op_at, "parts": parts,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if job["trace"]:
        out.update(spans=tracer.spans, setup_spans=setup_spans, missing=tracer.missing)
    json.dump(out, sys.stdout, default=lambda x: x.item())  # numpy scalars in reports


if __name__ == "__main__":
    main()
