"""Seeded campaign inputs for the three benchmark workloads.

A workload turns its seed into one *round*: the list of CLI calls that
yields every verdict for one generated input.  The runner repeats the same
round in a closed loop, so repeated calls of one round must produce
byte-identical reports.  Only generated command-line arguments reach the
program; output flags (``--no-timestamp``, ``--json-out``, ``--csv-out``)
are added by the runner.

``size="tiny"`` shrinks every campaign for the self-test; the benchmark
itself always runs ``size="full"``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Call", "WORKLOADS", "make_round"]


@dataclass(frozen=True)
class Call:
    campaign: str
    argv: tuple[str, ...]
    csv: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _phi_text(rng: random.Random) -> str:
    """Full cubic gauge function in u1, u2 with the coefficient ranges of
    ``campaigns.default_gauges``: +-0.1 up to quadratic order, +-0.05 for
    the cubic terms.  Every monomial is present so that the work per call
    does not depend on the seed."""
    parts = []
    for deg in (1, 2, 3):
        bound = 0.1 if deg <= 2 else 0.05
        for i in range(deg, -1, -1):
            c = rng.uniform(-bound, bound)
            factors = [f"{abs(c):.6f}"]
            for var, k in (("u1", i), ("u2", deg - i)):
                if k:
                    factors.append(var if k == 1 else f"{var}^{k}")
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {'*'.join(factors)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def scan(rng: random.Random, size: str) -> list[Call]:
    """gauge-scan over the five fixed shears plus the seeded quadratic and
    cubic gauges of ``default_gauges(--seed)``."""
    levels, grid, nmax = (("2", "40", "16") if size == "full"
                          else ("1", "40", "6"))
    argv = ("gauge-scan", "--seed", str(rng.randrange(1, 2 ** 31)),
            "--scan-levels", levels, "--grid", grid, "--nmax", nmax)
    return [Call("gauge-scan", argv)]


def tables(rng: random.Random, size: str) -> list[Call]:
    """Both eigenbasis tables with their CSV, then the basis change, in one
    seeded gauge: shear alpha in the span of the default gauges and a full
    cubic gauge function."""
    alpha = _num(rng.uniform(-1.0, 2.0))
    phi = _phi_text(rng)
    grid, nmax = ("56", "16") if size == "full" else ("56", "12")
    gauge = (f"--alpha={alpha}", f"--phi={phi}", "--grid", grid)
    return [
        Call("reproduce-tables",
             ("reproduce-tables", *gauge, "--nmax", nmax), csv=True),
        Call("basis-change",
             ("basis-change", *gauge, "--seed", str(rng.randrange(1, 2 ** 31)))),
    ]


def _physical_set(rng: random.Random, sign: int) -> dict:
    m = rng.uniform(0.5, 2.0)
    q = sign * rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 2.0)
    hbar = rng.uniform(0.6, 1.8)
    omega = abs(q * b) / m
    lam = math.sqrt(hbar / (m * omega))
    x0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return {
        "phys": (f"--mass={_num(m)}", f"--charge={_num(q)}",
                 f"--bfield={_num(b)}", f"--hbar={_num(hbar)}"),
        "x0": (f"--x0={_num(x0[0])},{_num(x0[1])}",),
        "energy": (f"--energy={_num(rng.uniform(0.5, 2.0) * hbar * omega)}",),
        "centre": (f"--centre={_num(x0[0] + lam * rng.uniform(-1.0, 1.0))},"
                   f"{_num(x0[1] + lam * rng.uniform(-1.0, 1.0))}",),
    }


def dynamics(rng: random.Random, size: str) -> list[Call]:
    """A batch of seeded physical parameter sets, alternating the sign of
    qB, each run through verify-algebra, classical-sim and heisenberg-demo."""
    n_sets = 6 if size == "full" else 2
    algebra = () if size == "full" else ("--nmax", "6")
    orbit = () if size == "full" else ("--steps", "400")
    demo = () if size == "full" else ("--grid", "40")
    calls = []
    for k in range(n_sets):
        s = _physical_set(rng, 1 if k % 2 == 0 else -1)
        calls += [
            Call("verify-algebra",
                 ("verify-algebra", *s["phys"], *s["x0"], *algebra)),
            Call("classical-sim",
                 ("classical-sim", *s["phys"], *s["x0"], *s["energy"],
                  *s["centre"], *orbit), csv=True),
            Call("heisenberg-demo", ("heisenberg-demo", *s["phys"], *demo)),
        ]
    return calls


WORKLOADS = {"scan": scan, "tables": tables, "dynamics": dynamics}


def make_round(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The calls of one round of ``workload``; the same seed gives the same
    calls."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), size)
