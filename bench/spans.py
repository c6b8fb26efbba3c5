"""Outside-in tracer for the booksis layers.

The tracer edits nothing under ``src/``.  It replaces public functions
and methods of each layer module with wrappers, in every ``booksis``
module namespace that binds them, and restores the originals on
``uninstall``.  A wrapper records a span -- name, start, end and the
enclosing span -- on a call stack.  When a span closes it is folded into
per-name totals (calls, inclusive time, self time), because a deformed
``run`` opens hundreds of thousands of coefficient spans and keeping each
one would dominate memory.  Self time is a span's duration minus the time
its direct child spans cover.

Per-layer figures derived at the boundaries:

- a ``CumulativeIntegral`` call is a *hit* when it opened no ``integrate``
  span (it was served from a checkpoint);
- integrand evaluations are counted at the ``integrate`` boundary by
  wrapping the integrand; panels are evaluations / 15 (Kronrod-15);
- closed-form evaluator calls inside a ``cli.run`` span are split by
  whether they precede that run's first ``integrate_ode`` span (the exact
  sweep) or follow it (the residual pass);
- oracle work counts come from the returned ``OdeSolution.stats``.

Boundaries that a later version of the package no longer has are skipped
and listed in ``missing``; the tracer never fails a run for them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute or "Class.method", span name); span names are
# "<layer>.<what>" and the layer is the booksis module the code lives in
BOUNDARIES = (
    ("timefn", "CoefficientFunction.__call__", "timefn.call"),
    ("timefn", "parse_expression", "timefn.parse"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("quadrature", "CumulativeIntegral.value", "quadrature.cumulative"),
    ("quadrature", "CumulativeIntegral.__call__", "quadrature.cumulative"),
    ("canonical", "exact_solution", "canonical.exact"),
    ("canonical", "rhs", "canonical.rhs"),
    ("canonical", "poisson_bracket", "canonical.fd"),
    ("canonical", "vf_commutator", "canonical.fd"),
    ("sis", "sis_exact_solution", "sis.exact"),
    ("sis", "sis_constant_solution", "sis.eval"),
    ("sis", "sis_rhs", "sis.rhs"),
    ("sis", "moment_rhs", "sis.rhs"),
    ("sis", "to_canonical", "sis.chart"),
    ("sis", "from_canonical", "sis.chart"),
    ("sis", "moments_from_state", "sis.chart"),
    ("sis", "state_from_moments", "sis.chart"),
    ("deformed", "deformed_exact_solution", "deformed.exact"),
    ("deformed", "deformed_sis_exact_solution", "deformed.exact"),
    ("deformed", "validity_window", "deformed.window"),
    ("deformed", "deformed_rhs", "deformed.rhs"),
    ("deformed", "deformed_sis_rhs", "deformed.rhs"),
    ("deformed", "perturbed_rhs_first_order", "deformed.rhs"),
    ("deformed", "deformed_poisson_bracket_defect", "deformed.fd"),
    ("deformed", "deformed_commutator_defect", "deformed.fd"),
    ("oracle", "integrate_ode", "oracle.integrate_ode"),
    ("invariants", "run_check", "invariants.check"),
    ("cli", "run_scenario", "cli.run"),
    ("cli", "compare_scenario", "cli.compare"),
)

# factories whose returned evaluator is a closed-form evaluation span
EVALUATOR_FACTORIES = (
    ("canonical", "solution_evaluator", "canonical"),
    ("sis", "sis_solution_evaluator", "sis"),
    ("deformed", "deformed_solution_evaluator", "deformed"),
    ("deformed", "deformed_sis_solution_evaluator", "deformed"),
)

_NAME, _START, _CHILD, _FLAG = range(4)


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.cumulative_hits = 0
        self.integrand_evals = 0
        self.oracle_stats = defaultdict(int)
        self.sweep_eval_s = 0.0
        self.residual_eval_s = 0.0
        self.missing: list[str] = []
        self._stack = [["root", 0.0, 0.0, False]]
        self._run = None          # the open cli.run frame
        self._eval_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0.0, False]
            if before is not None:
                args, kwargs = before(frame, args, kwargs)
            stack.append(frame)
            frame[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[_START]
                stack.pop()
                stack[-1][_CHILD] += dur
                entry = totals[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[_CHILD]
                if after is not None:
                    after(frame, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_integrate(self, frame, args, kwargs):
        parent = self._stack[-1]
        if parent[_NAME] == "quadrature.cumulative":
            parent[_FLAG] = True   # the checkpoint cache missed
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            self.integrand_evals += getattr(x, "size", 1)
            return f(x)

        return (counted, *args[1:]), kwargs

    def _after_cumulative(self, frame, dur):
        if not frame[_FLAG]:
            self.cumulative_hits += 1

    def _before_run(self, frame, args, kwargs):
        frame[_FLAG] = False       # becomes True once the oracle has run
        frame.append(self._run)
        self._run = frame
        return args, kwargs

    def _after_run(self, frame, dur):
        self._run = frame[-1]

    def _before_oracle(self, frame, args, kwargs):
        if self._run is not None:
            self._run[_FLAG] = True
        return args, kwargs

    def _before_eval(self, frame, args, kwargs):
        self._eval_depth += 1
        return args, kwargs

    def _after_eval(self, frame, dur):
        self._eval_depth -= 1
        if self._eval_depth == 0 and self._run is not None:
            if self._run[_FLAG]:
                self.residual_eval_s += dur
            else:
                self.sweep_eval_s += dur

    def _oracle(self, fn):
        span = self._span("oracle.integrate_ode", fn, before=self._before_oracle)

        def wrapper(*args, **kwargs):
            solution = span(*args, **kwargs)
            for key, value in solution.stats.items():
                self.oracle_stats[key] += value
            return solution

        return wrapper

    def _factory(self, layer, fn):
        build = self._span(f"{layer}.build", fn)

        def wrapper(*args, **kwargs):
            return self._span(f"{layer}.eval", build(*args, **kwargs),
                              before=self._before_eval, after=self._after_eval)

        return wrapper

    def _wrapper_for(self, name, fn):
        if name == "quadrature.integrate":
            return self._span(name, fn, before=self._before_integrate)
        if name == "quadrature.cumulative":
            return self._span(name, fn, after=self._after_cumulative)
        if name == "oracle.integrate_ode":
            return self._oracle(fn)
        if name == "cli.run":
            return self._span(name, fn, before=self._before_run, after=self._after_run)
        if name == "sis.eval":
            return self._span(name, fn, before=self._before_eval, after=self._after_eval)
        return self._span(name, fn)

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "booksis") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module, attr, name in BOUNDARIES:
            self._patch(modules, package, module, attr,
                        lambda fn, name=name: self._wrapper_for(name, fn))
        for module, attr, layer in EVALUATOR_FACTORIES:
            self._patch(modules, package, module, attr,
                        lambda fn, layer=layer: self._factory(layer, fn))

    def _patch(self, modules, package, module, attr, make) -> None:
        home = sys.modules.get(f"{package}.{module}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        if owner_name:
            self._set(owner, method, wrapped)
            return
        # rebind the function wherever a booksis module imported it by name
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- figures -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def inclusive_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n.split(".")[0] == layer)
