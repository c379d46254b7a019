"""Benchmark of the landaulab CLI campaigns, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Runs the real entry point, ``landaulab.cli.main(argv)``, in this process,
one campaign call at a time (a closed loop with one client), repeating the
workload's seeded round until ``--seconds`` are used up.  Every call writes
its ``--no-timestamp`` JSON report (and CSV where the workload asks for
one); the benchmark checks the exit code, the report's pass flag and that
repeated calls give byte-identical reports.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which the public functions of the eight
landaulab modules are wrapped from outside (see ``tracer.py``) and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(environment, per-campaign timings with quartiles, report digests) go to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``; traced runs also
write every span to ``spans.tsv.gz`` there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# stdlib-only modules beside this file; numpy and landaulab are imported
# only after the BLAS thread cap is set
from tracer import CAMPAIGN_FUNCS, SPAN_NAMES, Tracer, write_spans
from workloads import WORKLOADS, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
# confirms a gain claim; not run while a change is being written
HELD_OUT_SEED = 90917

SETUP_SAMPLES = {"full": 9, "tiny": 3}

END_TO_END = {
    "round_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_share": "share",
    "tol_headroom_dec": "dec",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "quadrature.nodes": "count",
        "quadrature.coarse_share": "share",
        "quadrature.bytes_computed": "B",
        "quadrature.support_failures": "count",
        "waves.elements_per_jet": "ratio",
        "classical.integrate.steps": "count",
        "cli.csv_bytes": "B",
        "report.json_bytes": "B",
    })
    units.update({f"wall_s.{c}": "s" for c in CAMPAIGN_FUNCS})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 \
        else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, blas_threads: int) -> dict:
    import numpy as np
    import landaulab
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "landaulab": landaulab.__version__,
        "commit": git_commit(),
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``landaulab.cli`` is
    imported, one sample per fresh process."""
    env = child_env()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls the child every 50 ms, which
        # would quantise the measurement
        subprocess.run([sys.executable, "-c", "import landaulab.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Campaign calls and rounds
# ---------------------------------------------------------------------------


def headroom(check: dict) -> float:
    tol = check["tolerance"]
    return math.log10(tol / max(check["deviation"], 1e-16 * tol))


def run_call(cli, call, slot: int, outdir: Path) -> dict:
    """One timed ``cli.main`` call; the report is read and checked after
    the clock stops."""
    json_path = outdir / f"call{slot}.json"
    csv_path = outdir / f"call{slot}.csv"
    for path in (json_path, csv_path):
        path.unlink(missing_ok=True)
    argv = [*call.argv, "--no-timestamp", "--json-out", str(json_path)]
    if call.csv:
        argv += ["--csv-out", str(csv_path)]
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the generated input
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising campaign is a failed operation; go on
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0

    out = {"campaign": call.campaign, "slot": slot, "wall_s": wall, "rc": rc,
           "digest": None, "checks": 0, "failed_checks": 0,
           "json_bytes": 0, "csv_bytes": 0, "headroom": []}
    if error is None and json_path.exists():
        data = json_path.read_bytes()
        report = json.loads(data)
        out["digest"] = hashlib.sha256(data).hexdigest()
        out["json_bytes"] = len(data)
        out["checks"] = len(report["checks"])
        out["failed_checks"] = sum(not c["pass"] for c in report["checks"])
        out["headroom"] = [headroom(c) for c in report["checks"]
                           if c["tolerance"] > 0]
        out["pass"] = bool(report["pass"])
    if call.csv and csv_path.exists():
        out["csv_bytes"] = csv_path.stat().st_size
    if error is not None:
        out["error"] = error
        print(f"campaign {call.campaign} raised:\n{error}", file=sys.stderr)
    out["attempted"] = max(out["checks"], 1)
    out["failed"] = out["failed_checks"]
    if out["failed"] == 0 and (rc != 0 or not out.get("pass", False)):
        out["failed"] = 1
    return out


class Reference:
    """A fixed mix of the kinds of work the campaigns do, timed between
    campaign calls: an interpreted float loop, ``math.fsum`` over lists
    (including a weighted complex reduction shaped like the quadrature
    layer's), complex numpy exponentials and a small matrix product.  The
    shared host's speed drifts by tens of percent over seconds to minutes;
    dividing each call by the reference timed around it removes most of
    that drift."""

    def __init__(self):
        import numpy as np
        gen = np.random.default_rng(0)
        self.np = np
        self.mat = gen.standard_normal((120, 120))
        self.vec = gen.standard_normal(4000)
        self.values = self.vec.tolist()
        self.integrand = np.exp(1j * gen.standard_normal(8000))
        self.weights = gen.random(8000)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(50_000):
            acc += i * 0.5
        for _ in range(5):
            acc += math.fsum(self.values)
            acc += float(np.exp(1j * self.vec).real.sum())
            acc += float((self.mat @ self.mat)[0, 0])
            prod = self.integrand * self.weights
            acc += math.fsum(prod.real.tolist()) + math.fsum(prod.imag.tolist())
        return time.perf_counter() - t0


def run_round(cli, calls, outdir: Path, reference: Reference,
              tracer=None) -> dict:
    """One pass over the round's calls, with the reference timed before
    each call and after the last; a call's reference time is the mean of
    the two around it."""
    refs = [reference()]
    results = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, c in enumerate(calls):
            results.append(run_call(cli, c, i, outdir))
            refs.append(reference())
    for r, before, after in zip(results, refs, refs[1:]):
        r["ref_s"] = 0.5 * (before + after)
    return {"wall_s": sum(r["wall_s"] for r in results),
            "wall_ref": sum(r["wall_s"] / r["ref_s"] for r in results),
            "calls": results}


def closed_loop(step, seconds: float) -> list:
    """Call ``step`` until the next call would end after ``seconds``; at
    least once."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) > 1:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"n": len(vals), "median": statistics.median(vals),
            "q1": q1, "q3": q3, "min": vals[0], "max": vals[-1]}


def campaign_walls(rounds: list[dict]) -> dict:
    walls: dict = {}
    for rnd in rounds:
        for r in rnd["calls"]:
            walls.setdefault(r["campaign"], []).append(r["wall_s"])
    return {c: quartiles(w) for c, w in walls.items()}


def digests_consistent(rounds: list[dict]) -> bool:
    """Every slot of the round gave one and the same report bytes."""
    slots = list(zip(*(rnd["calls"] for rnd in rounds)))
    return all(len({r["digest"] for r in slot}) == 1 and slot[0]["digest"]
               for slot in slots)


def layer_metrics(tracers, traced_rounds, plain_rounds) -> dict:
    per_round = []
    for tr, rnd in zip(tracers, traced_rounds):
        tot = tr.totals()
        m = {}
        for name in tr.names:
            m[f"{name}.calls"] = tot["calls"][name]
            m[f"{name}.self_s"] = tot["self_s"][name]
        fine = tr.counts["quadrature.fine_nodes"]
        coarse = tr.counts["quadrature.coarse_nodes"]
        jets = tot["calls"]["waves.WaveForm.jet"]
        m.update({
            "quadrature.nodes": fine + coarse,
            "quadrature.coarse_share":
                coarse / (fine + coarse) if fine + coarse else 0.0,
            "quadrature.bytes_computed": tr.counts["quadrature.bytes_computed"],
            "quadrature.support_failures":
                tr.counts["quadrature.support_failures"],
            "waves.elements_per_jet":
                tot["calls"]["quadrature.integrate_values"] / jets
                if jets else 0.0,
            "classical.integrate.steps": tr.counts["classical.integrate.steps"],
            "cli.csv_bytes": sum(r["csv_bytes"] for r in rnd["calls"]),
            "report.json_bytes": sum(r["json_bytes"] for r in rnd["calls"]),
        })
        per_round.append(m)
    metrics = {k: statistics.median(m[k] for m in per_round)
               for k in per_round[0]}
    walls = campaign_walls(plain_rounds)
    for c in CAMPAIGN_FUNCS:
        metrics[f"wall_s.{c}"] = walls[c]["median"] if c in walls else 0.0
    # speed-normalised and paired with the untraced round just before it,
    # then converted back to seconds, so that host drift cancels
    ref_s = statistics.median(r["ref_s"] for rnd in plain_rounds
                              for r in rnd["calls"])
    metrics["trace.overhead_s"] = ref_s * statistics.median(
        t["wall_ref"] - p["wall_ref"]
        for p, t in zip(plain_rounds, traced_rounds))
    return metrics


def account_gap(tracers) -> float:
    """Largest share of a traced campaign call's wall time that the self
    times of its spans do not account for."""
    gap = 0.0
    for tr in tracers:
        for root, total in tr.call_accounts():
            gap = max(gap, abs(root - total) / root if root else 0.0)
    return gap


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {HELD_OUT_SEED} is held out for "
                         "confirming gain claims")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every campaign, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "landaulab" / "cli.py").is_file():
        print(f"landaulab sources not found under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from landaulab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported {cli.__file__}, not the checkout's landaulab",
              file=sys.stderr)
        return 2

    calls = make_round(args.workload, args.seed, args.size)
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = environment(args.workload, args.seed, blas_threads)
    reference = Reference()

    tracers: list = []
    if args.trace:
        def pair():
            plain = run_round(cli, calls, outdir, reference)
            tracers.append(Tracer())
            return plain, run_round(cli, calls, outdir, reference,
                                    tracers[-1])
        pairs = closed_loop(pair, args.seconds)
        plain_rounds = [p for p, _ in pairs]
        traced_rounds = [t for _, t in pairs]
        rounds = plain_rounds + traced_rounds
    else:
        setup = measure_setup(SETUP_SAMPLES[args.size])
        rounds = closed_loop(
            lambda: run_round(cli, calls, outdir, reference), args.seconds)
        plain_rounds, traced_rounds = rounds, []

    results = [r for rnd in rounds for r in rnd["calls"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    consistent = digests_consistent(rounds)
    correct = failed == 0 and consistent

    detail = {"environment": env, "calls": [c.argv for c in calls],
              "rounds": len(plain_rounds), "traced_rounds": len(traced_rounds),
              "round_s": quartiles([r["wall_s"] for r in plain_rounds]),
              "round_ref": quartiles([r["wall_ref"] for r in plain_rounds]),
              "reference_s": quartiles([r["ref_s"] for rnd in plain_rounds
                                        for r in rnd["calls"]]),
              "campaigns": campaign_walls(plain_rounds),
              "digests": [r["digest"] for r in plain_rounds[0]["calls"]],
              "digests_consistent": consistent,
              "attempted": attempted, "failed": failed}
    if args.trace:
        metrics = layer_metrics(tracers, traced_rounds, plain_rounds)
        units = per_layer_units()
        detail["traced_round_s"] = quartiles(
            [r["wall_s"] for r in traced_rounds])
        detail["unaccounted_share"] = account_gap(tracers)
        write_spans(outdir / "spans.tsv.gz", tracers)
    else:
        heads = [h for r in results for h in r["headroom"]]
        metrics = {
            "round_ref": detail["round_ref"]["median"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": 1.0 - failed / attempted,
            "tol_headroom_dec": min(heads) if heads else 0.0,
        }
        units = END_TO_END
        detail["setup_s"] = quartiles(setup)
    detail["metrics"] = metrics
    (outdir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain_rounds)} correct={correct} "
          f"checks={attempted} failed={failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for c, q in detail["campaigns"].items():
        print(f"  {c:<16} median {q['median']:.4f} s  "
              f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
