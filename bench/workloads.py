"""Seeded input generators for the three benchmark workloads.

Every coefficient is drawn from a grammar family whose integral Theta has
a closed form (constant, linear, or a constant plus a sum of bounded
sinusoids), so the generator knows the answers before the program runs:
the expected exit code of each ``run`` op and, where the validity window
of a deformed scenario closes, its edge ``t*``.  For a window op the
dilation coefficient is kept positive, so Theta is increasing, a target
edge ``t*`` is chosen, and ``c1 = exp(-Theta(t*))/z`` fixes the initial
state.

The generator stays inside the piecewise-smooth regime the README
documents.  Pulses narrower than the 0.02 window-scan step currently make
``run`` grind for minutes (an open defect), so no such inputs are drawn
until that work is bounded.

Each coefficient role has one template per family.  Families rotate
within each round of op kinds, so any prefix of the op list holds a
balanced mix, and the seed moves every parameter by a few percent of its
template value.  So every seed gives the same mix of op kinds and
coefficient shapes and does comparable work, while the inputs, their
digest and the outputs change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("classical_sweep", "deformed_sweep", "pointwise")

# the checks of booksis.invariants.ALL_CHECKS, each run on 20 random
# states (or scenarios), as one op per pool; solution-residual, the slow
# one, runs twice more with other seeds so that the pointwise tail (the
# 11th-slowest op of a run) lands among its executions in every run
CHECKS = (
    "chart-round-trip", "chart-canonicity", "bracket-book", "commutator-book",
    "bracket-deformed", "commutator-deformed", "sis-pushforward",
    "moment-pushforward", "hamiltonian-consistency", "solution-residual",
    "solution-symplectic", "solution-residual", "solution-residual",
)
CHECK_COUNT = 20

DEVIATION_TOL = 1e-6   # scenario default deviation tolerance
WINDOW_TOL = 1e-9      # acceptance tolerance on window edges


def _r(x: float) -> float:
    """Round a drawn parameter so its text form parses back to the same
    float that the closed-form answers use."""
    return round(x, 4)


@dataclass(frozen=True)
class Coef:
    """c + s*t + sum(amp*sin(freq*t + phase)) with closed-form integral."""

    c: float
    s: float = 0.0
    waves: tuple[tuple[float, float, float], ...] = ()

    def text(self) -> str:
        out = repr(self.c)
        if self.s:
            out += f" {'+' if self.s > 0 else '-'} {abs(self.s)!r}*t"
        for amp, freq, phase in self.waves:
            out += (f" {'+' if amp > 0 else '-'} {abs(amp)!r}"
                    f"*sin({freq!r}*t + {phase!r})")
        return out

    def integral(self, a: float, t: float) -> float:
        """int_a^t of the coefficient, exactly."""
        return (self.c * (t - a) + 0.5 * self.s * (t * t - a * a) + sum(
            amp / w * (math.cos(w * a + f) - math.cos(w * t + f))
            for amp, w, f in self.waves))

    def lower_bound(self, t_end: float) -> float:
        """Lower bound of the coefficient on [0, t_end]."""
        return (self.c + min(0.0, self.s * t_end)
                - sum(abs(a) for a, _, _ in self.waves))


def _jitter(rng: random.Random, base: Coef, rel: float = 0.06) -> Coef:
    """``base`` with every scale parameter moved by up to ``rel`` of its
    value and every phase by up to 0.3 rad."""
    def scale(x):
        return _r(x * (1.0 + rng.uniform(-rel, rel)))
    return Coef(scale(base.c), scale(base.s), tuple(
        (scale(a), scale(w), _r(f + rng.uniform(-0.3, 0.3))) for a, w, f in base.waves))


def _near(rng: random.Random, x: float, rel: float) -> float:
    return _r(x * (1.0 + rng.uniform(-rel, rel)))


# One template per family -- constant, linear, one sinusoid, two sinusoids
# -- for each coefficient role.
TEMPLATES = {
    # dilation rate of the canonical system, either sign
    "rate": (Coef(0.15), Coef(0.05, 0.04), Coef(0.1, 0.0, ((0.3, 1.0, 0.5),)),
             Coef(0.05, 0.0, ((0.2, 0.8, 1.0), (0.15, 1.4, 2.0)))),
    # translation / source term
    "source": (Coef(0.4), Coef(-0.2, 0.06), Coef(0.2, 0.0, ((0.3, 1.2, 0.0),)),
               Coef(0.1, 0.0, ((0.25, 0.7, 0.3), (0.15, 1.5, 4.0)))),
    # positive dilation rate: Theta increases, so windows have one edge
    "rate+": (Coef(0.5), Coef(0.45, 0.05), Coef(0.5, 0.0, ((0.25, 1.0, 0.0),)),
              Coef(0.5, 0.0, ((0.15, 0.9, 1.0), (0.1, 1.5, 2.5)))),
    # infection rate rho0
    "rho0": (Coef(1.0), Coef(0.9, 0.04), Coef(1.0, 0.0, ((0.4, 1.0, 0.0),)),
             Coef(0.95, 0.0, ((0.25, 0.9, 0.5), (0.15, 1.6, 3.0)))),
    # second SIS coefficient b, positive
    "b": (Coef(1.0), Coef(0.9, 0.03), Coef(1.0, 0.0, ((0.2, 1.1, 1.0),)),
          Coef(1.0, 0.0, ((0.15, 0.8, 2.0), (0.1, 1.3, 0.5)))),
}


def _coef(rng: random.Random, role: str, family: int) -> Coef:
    coef = _jitter(rng, TEMPLATES[role][family % 4])
    if role in ("rate+", "rho0", "b") and coef.lower_bound(10.0) <= 0.1:
        raise ValueError(f"template {role}/{family} is not positive")
    return coef


def _edge(theta, level: float, lo: float, hi: float) -> float:
    """First t in [lo, hi] with theta(t) = level for increasing theta."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if theta(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sis_canonical(q: float, p: float) -> tuple[float, float]:
    """(q, p) -> (x, y) of the SIS chart."""
    d = q * q * p * p - 1.0
    return d / p, q * p * p / d


def _deformed_c1(z: float, x0: float) -> float:
    """c1 = (1 - exp(-z x0))/z, as fitted from the initial state."""
    return -math.expm1(-z * x0) / z


def _scenario(model, coefficients, initial, chart, t_end, n, z=None):
    doc = {
        "model": model,
        "coefficients": {k: c.text() for k, c in coefficients.items()},
        "initial": {"chart": chart, "values": list(initial)},
        "grid": {"t_start": 0.0, "t_end": t_end, "n_samples": n},
    }
    if z is not None:
        doc["z"] = z
    return doc


def _sis_start(rng):
    # q p near 2 with b > 0 keeps c1 I(t) > 1: the solution never meets
    # the singular locus q^2 p^2 = 1
    return _near(rng, 2.0 / 3.0, 0.05), _near(rng, 3.0, 0.05)


# --- classical_sweep ----------------------------------------------------------

def _book_doc(rng, fam):
    return _scenario("book-canonical",
                     {"bA": _coef(rng, "rate", fam), "bB": _coef(rng, "source", fam + 1)},
                     (_near(rng, 1.0, 0.1), _near(rng, 0.5, 0.1)), "xy", 4.0, 81)


def _sis_doc(rng, fam):
    return _scenario("sis", {"rho0": _coef(rng, "rho0", fam), "b": _coef(rng, "b", fam + 1)},
                     _sis_start(rng), "qp", 4.0, 81)


def _constant_doc(rng):
    return _scenario("sis-constant", {"rho0": Coef(_near(rng, 1.0, 0.1))},
                     _sis_start(rng), "qp", 5.0, 101)


def _moments_doc(rng):
    q0, p0 = _sis_start(rng)
    return _scenario("moments", {"rho0": Coef(_near(rng, 1.0, 0.1))},
                     (q0, 1.0 / (p0 * p0)), "moments", 4.0, 81)


def classical_ops(rng: random.Random, rounds: int = 12) -> list[dict]:
    """Per round: three fast constant-rate ops (sis-constant, moments) and
    four seasonal ones, one of each coefficient family.  A run's cost
    rises with the family, so the fast ops take the first three-sevenths
    of the latency order and the family-0 runs the next seventh: the
    median falls in the middle of that one cluster."""
    docs = []
    for k in range(rounds):
        extra = _constant_doc(rng) if k % 2 else _moments_doc(rng)
        docs += [_book_doc(rng, k), _sis_doc(rng, k + 1), _constant_doc(rng),
                 _book_doc(rng, k + 2), _sis_doc(rng, k + 3), _moments_doc(rng), extra]
    return _unique([{"kind": "run", "scenario": d, "exit": 0, "edge": None}
                    for d in docs])


# --- deformed_sweep -------------------------------------------------------------

DEFORMED_T_END, DEFORMED_N = 1.6, 9


def _deformed_book(rng, fam, z):
    """Deformed book scenario whose window stays open past the scan
    horizon t_end + 1 (1 - z c1 exp(Theta) >= 0.4 there)."""
    b_a = _coef(rng, "rate+", fam)
    x0, y0 = _near(rng, 0.4, 0.1), _near(rng, 0.8, 0.1)
    z = _near(rng, z, 0.1)
    peak = z * _deformed_c1(z, x0) * math.exp(b_a.integral(0.0, DEFORMED_T_END + 1.0))
    if peak > 0.6:
        z = _r(z * 0.6 / peak)
    return _scenario("deformed-book", {"bA": b_a, "bB": _coef(rng, "source", fam + 1)},
                     (x0, y0), "xy", DEFORMED_T_END, DEFORMED_N, z)


def _deformed_book_exit(rng, fam):
    """Deformed book scenario whose window closes between two grid points
    in the last third of the grid: run exits 3 at the analytic edge."""
    b_a = _coef(rng, "rate+", fam)
    step = DEFORMED_T_END / (DEFORMED_N - 1)
    t_star = step * (5 + fam % 2 + rng.uniform(0.4, 0.6))
    z = _near(rng, 0.75, 0.1)
    theta = lambda t: b_a.integral(0.0, t)  # noqa: E731
    x0 = -math.log(-math.expm1(-theta(t_star))) / z
    edge = _edge(theta, math.log(1.0 / (z * _deformed_c1(z, x0))), 0.0, DEFORMED_T_END)
    doc = _scenario("deformed-book", {"bA": b_a, "bB": _coef(rng, "source", fam + 1)},
                    (x0, _near(rng, 0.8, 0.1)), "xy", DEFORMED_T_END, DEFORMED_N, z)
    return doc, edge


def _deformed_sis(rng, fam, z):
    """Deformed SIS scenario; returns it with the window edge that run
    reports (None when the window stays open past t_end + 1)."""
    rho0 = _coef(rng, "rho0", fam)
    q0, p0 = _sis_start(rng)
    z = _near(rng, z, 0.1)
    x0, _ = _sis_canonical(q0, p0)
    theta = lambda t: rho0.integral(0.0, t)  # noqa: E731
    level = math.log(1.0 / (z * _deformed_c1(z, x0)))
    edge = _edge(theta, level, 0.0, 4.0) if theta(4.0) > level else None
    # end the grid well short of the edge, where the chart image of the
    # solution leaves the region the oracle resolves to the tolerance
    t_end = 1.2 if edge is None else _r(min(1.2, edge - 0.5))
    doc = _scenario("deformed-sis", {"rho0": rho0, "b": _coef(rng, "b", fam + 1)},
                    (q0, p0), "qp", t_end, 7, z)
    return doc, (edge if edge is not None and edge <= t_end + 1.0 else None)


def deformed_ops(rng: random.Random, rounds: int = 8) -> list[dict]:
    """Per round: run on deformed-book, deformed-sis and a window-exit
    scenario, compare on deformed-book and deformed-sis.  A op's cost
    rises with its coefficient family, whatever its kind.  The first four
    ops rotate through the families; the deformed-sis compare is always
    family 1.  So family 1 holds two-fifths of the ops, the second fifth
    to the three-fifths point of the latency order, and the median falls
    inside that one cluster."""
    ops = []
    for k in range(rounds):
        sis_doc, sis_edge = _deformed_sis(rng, k + 1, 0.08)
        exit_doc, exit_edge = _deformed_book_exit(rng, k + 2)
        ops += [
            {"kind": "run", "scenario": _deformed_book(rng, k, 0.06), "exit": 0, "edge": None},
            {"kind": "run", "scenario": sis_doc, "exit": 0, "edge": sis_edge},
            {"kind": "run", "scenario": exit_doc, "exit": 3, "edge": exit_edge},
            {"kind": "compare", "scenario": _deformed_book(rng, k + 3, 0.03), "exit": 0},
            {"kind": "compare", "scenario": _deformed_sis(rng, 1, 0.03)[0], "exit": 0},
        ]
    return _unique(ops)


# --- pointwise ---------------------------------------------------------------------

def _exact_op(rng, k):
    return {
        "kind": "exact_solution",
        "bA": _coef(rng, "rate", k).text(), "bB": _coef(rng, "source", k + 1).text(),
        "c": (_near(rng, 1.0, 0.1), _near(rng, 0.5, 0.1)), "t": _near(rng, 3.0, 0.05),
    }


def _sis_op(rng, k):
    q0, p0 = _sis_start(rng)
    return {
        "kind": "sis_exact_solution",
        "rho0": _coef(rng, "rho0", k).text(), "b": _coef(rng, "b", k + 1).text(),
        "c": _sis_canonical(q0, p0), "start": (q0, p0), "t": _near(rng, 3.0, 0.05),
    }


def _deformed_op(rng, k):
    doc = _deformed_book(rng, k, 0.06)
    x0, y0 = doc["initial"]["values"]
    return {
        "kind": "deformed_exact_solution",
        "bA": doc["coefficients"]["bA"], "bB": doc["coefficients"]["bB"],
        "z": doc["z"], "c": (_deformed_c1(doc["z"], x0), y0), "start": (x0, y0),
        "t": _near(rng, 1.3, 0.05),
    }


def _deformed_sis_op(rng, k):
    doc, _ = _deformed_sis(rng, k, 0.08)
    q0, p0 = doc["initial"]["values"]
    x0, y0 = _sis_canonical(q0, p0)
    return {
        "kind": "deformed_sis_exact_solution",
        "rho0": doc["coefficients"]["rho0"], "b": doc["coefficients"]["b"],
        "z": doc["z"], "c": (_deformed_c1(doc["z"], x0), y0), "start": (q0, p0),
        "t": _r(min(_near(rng, 1.0, 0.03), doc["grid"]["t_end"])),
    }


def _window_op(rng, k):
    """Window locate at a horizon past the edge (two rounds in three) or
    short of it."""
    b_a = _coef(rng, "rate+", k)
    z = _near(rng, 0.6, 0.1)
    t_star = _near(rng, 1.2, 0.1)
    theta = lambda t: b_a.integral(0.0, t)  # noqa: E731
    c1 = math.exp(-theta(t_star)) / z
    beyond = k % 3 != 2
    horizon = _r(t_star + 0.5 if beyond else t_star - 0.2)
    return {
        "kind": "validity_window", "bA": b_a.text(), "bB": "1", "z": z,
        "c1": c1, "horizon": horizon,
        "edge": _edge(theta, math.log(1.0 / (z * c1)), 0.0, horizon) if beyond else None,
    }


def pointwise_ops(rng: random.Random, rounds: int = 36) -> list[dict]:
    """Per round: two canonical queries (constant or linear rate), three
    SIS queries of one family, two deformed queries and a window locate.
    The SIS queries of family 1 (linear rho0, one-sinusoid b) and the
    linear-rate canonical ones cost alike, within about 15% for every
    draw, and together they span the median, so op_p50_ms reads one
    cluster rather than a step between two."""
    ops = []
    for k in range(rounds):
        ops += [_exact_op(rng, k % 2), _sis_op(rng, 1), _deformed_op(rng, k),
                _sis_op(rng, 1), _exact_op(rng, (k + 1) % 2), _deformed_sis_op(rng, k + 1),
                _sis_op(rng, 1), _window_op(rng, k)]
        # the checks, spread over the rounds
        for j in range(len(CHECKS) * k // rounds, len(CHECKS) * (k + 1) // rounds):
            ops.append({"kind": "run_check", "name": CHECKS[j],
                        "seed": rng.randrange(1 << 30), "count": CHECK_COUNT})
    return ops


def _unique(ops: list[dict]) -> list[dict]:
    """Name each scenario op uniquely (op_<index>), which names its files."""
    for i, op in enumerate(ops):
        op["name"] = f"op{i:03d}"
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of ``workload`` for ``seed``; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classical_sweep":
        return classical_ops(rng)
    if workload == "deformed_sweep":
        return deformed_ops(rng)
    if workload == "pointwise":
        return pointwise_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list[dict]) -> str:
    """sha256 of the canonical JSON form of an op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
