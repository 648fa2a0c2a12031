"""Per-layer tracing of opcalc from outside the package.

The tracer replaces selected public functions with timing wrappers, in their
defining module and in every opcalc module that imported the name (module
globals resolve at call time, so the wrappers see real calls), and wraps the
integrand callables handed to the quadrature drivers and the fields handed to
the propagator solvers, so points and evaluations are counted where the work
happens.  Spans (name, start, end, parent, job) stay in memory until the run
writes them out.  Nothing inside the package changes; ``uninstall`` restores
every replaced binding.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pkgutil
import statistics
import time
from collections import Counter, defaultdict

# Public functions that get a span, by defining module.
SPANNED = {
    "core": ("eigen_decompose", "matrix_exp", "pair"),
    "quadrature": ("contour_quadrature", "simplex_integrate", "adaptive_gauss_kronrod",
                   "halfline_integrate"),
    "divdiff": ("dd_recursive", "dd_explicit", "dd_contour", "dd_hermite", "dd_power"),
    "funcalc": ("apply_function", "apply_via_eig", "funcalc_n", "funcalc_elementary",
                "dd_tensor", "dd_apply"),
    "ncseries": ("newton_interpolate", "taylor_expand", "dyson_exp"),
    "magnus": ("magnus_solve", "rk_reference"),
    "rearrange": ("rearrange_lhs", "rearrange_rhs_F", "rearrange_rhs_G"),
    "cli": ("main",),
}
# Called thousands of times per job: counted, not spanned.
COUNTED = {
    "magnus": ("magnus_rhs",),
    "rearrange": ("kernel_F", "kernel_G"),
}
# Quadrature drivers, the short name of their layer, and the ``stats`` key
# each writes on success.
ENGINES = {
    "contour_quadrature": ("contour", "contour_nodes"),
    "simplex_integrate": ("simplex", "simplex_order"),
    "adaptive_gauss_kronrod": ("gk", "gk_panels"),
}


def _modules() -> dict:
    """Every opcalc module by short name, the package itself under ''.

    Private modules are skipped: importing a ``__main__`` would run the CLI.
    """
    pkg = importlib.import_module("opcalc")
    modules = {info.name: importlib.import_module(f"opcalc.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)
               if not info.name.startswith("_")}
    modules[""] = pkg
    return modules


def resolve() -> dict:
    """Map 'module.name' to the function object for every wrapped name.

    Raises ``AttributeError`` when a name no longer exists, so a rename fails
    loudly instead of silently dropping a layer's numbers.
    """
    out = {}
    for table in (SPANNED, COUNTED):
        for mod, names in table.items():
            module = importlib.import_module(f"opcalc.{mod}")
            for name in names:
                fn = getattr(module, name)
                if not callable(fn):
                    raise AttributeError(f"opcalc.{mod}.{name} is not callable")
                out[f"{mod}.{name}"] = fn
    verify = importlib.import_module("opcalc.verify")
    for check in verify.BATTERY:
        out[f"verify.{check.__name__}"] = check
    return out


class Tracer:
    """Spans and counters for one traced run; install, run jobs, uninstall."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()     # ("typed"|"untyped", class name)
        self.accepted_nodes: list[int] = []
        self.job = None
        self._stack: list[int] = []
        self._seen: dict[int, BaseException] = {}   # keeps ids from being reused
        self._patches: list[tuple] = []
        self._typed = importlib.import_module("opcalc.errors").OpcalcError

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _error(self, exc: BaseException) -> None:
        if id(exc) in self._seen:
            return
        self._seen[id(exc)] = exc
        kind = "typed" if isinstance(exc, self._typed) else "untyped"
        self.errors[(kind, type(exc).__name__)] += 1

    def start_job(self, job) -> None:
        self.job = job
        self._seen.clear()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(exc)
                if after is not None:
                    after(None, exc)
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, None)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(exc)
                raise

        return wrapper

    def _integrand(self, layer: str, fn, size):
        """Time and count an integrand; ``size(args)`` gives its point count."""
        tracer = self
        span = f"quadrature.{layer}.integrand"

        def integrand(*args):
            tracer.counts[f"{span}.points"] += size(args)
            idx = tracer._open(span)
            try:
                return fn(*args)
            finally:
                tracer._close(idx)

        return integrand

    def _engine_hook(self, func: str):
        layer, stats_key = ENGINES[func]
        tracer = self

        def hook(args, kwargs):
            args = list(args)
            args[0] = tracer._integrand(layer, args[0], lambda a: len(a[0]))
            before = tracer.counts[f"quadrature.{layer}.integrand.points"]
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            n = args[1] if func == "simplex_integrate" and len(args) > 1 else kwargs.get("n")

            def after(result, exc):
                points = tracer.counts[f"quadrature.{layer}.integrand.points"] - before
                if exc is not None:
                    if type(exc).__name__ == "QuadratureNoConvergence":
                        tracer.counts[f"quadrature.{layer}.no_convergence"] += 1
                    return
                if func == "contour_quadrature":
                    accepted = stats.get(stats_key, points)
                    tracer.accepted_nodes.append(accepted)
                elif func == "simplex_integrate":
                    q = stats.get(stats_key)
                    # a one-level schedule returns without recording an order
                    accepted = points if q is None or not n else q**n
                else:
                    accepted = points
                tracer.counts[f"quadrature.{layer}.accepted_points"] += accepted

            return tuple(args), kwargs, after

        return hook

    def _grid_hook(self, args, kwargs):
        """Count evaluations of f on the tensor grid of funcalc_n."""
        args = list(args)
        f = args[0]
        tracer = self

        def counting(inner):
            def fn(*zs):
                out = inner(*zs)
                tracer.counts["funcalc.funcalc_n.grid_points"] += getattr(out, "size", 1)
                return out
            return fn

        if dataclasses.is_dataclass(f):
            args[0] = dataclasses.replace(f, fn=counting(f.fn))
        else:
            args[0] = counting(f)
        return tuple(args), kwargs, None

    def _field_hook(self, args, kwargs):
        args = list(args)
        field = args[0]
        tracer = self

        def counted_field(t):
            tracer.counts["magnus.field_evals"] += 1
            return field(t)

        args[0] = counted_field
        return tuple(args), kwargs, None

    def _hook_for(self, name: str):
        if name in ENGINES:
            return self._engine_hook(name)
        if name == "funcalc_n":
            return self._grid_hook
        if name in ("magnus_solve", "rk_reference"):
            return self._field_hook
        return None

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        replacements = {}
        for mod, names in SPANNED.items():
            for name in names:
                fn = getattr(modules[mod], name)
                replacements[id(fn)] = self._spanned(f"{mod}.{name}", fn,
                                                     self._hook_for(name))
        for mod, names in COUNTED.items():
            for name in names:
                fn = getattr(modules[mod], name)
                replacements[id(fn)] = self._counted(f"{mod}.{name}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and callable(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        battery = modules["verify"].BATTERY
        for k, check in enumerate(list(battery)):
            self._patches.append((battery, k, check))
            battery[k] = self._spanned(f"verify.{check.__name__}", check)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patches):
            if isinstance(target, list):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, check_names: list[str]) -> dict[str, float]:
        """Per-layer metrics by name (see README.md for the table)."""
        total = defaultdict(float)       # inclusive seconds by span name
        calls = Counter()
        self_by = defaultdict(float)     # self seconds by span name
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            self_by[name] += own

        def module_self(mod: str) -> float:
            return sum(v for k, v in self_by.items() if k.startswith(mod + "."))

        m: dict[str, float] = {}
        for func, (layer, _) in ENGINES.items():
            q = f"quadrature.{layer}"
            points = self.counts[f"{q}.integrand.points"]
            if layer == "gk":
                m[f"{q}.panels"] = calls[f"{q}.integrand"]
            else:
                m[f"{q}.calls"] = calls[f"quadrature.{func}"]
                m[f"{q}.points"] = points
                m[f"{q}.useful_ratio"] = (
                    self.counts[f"{q}.accepted_points"] / points if points else 0.0)
            m[f"{q}.integrand_s"] = total[f"{q}.integrand"]
            m[f"{q}.self_s"] = self_by[f"quadrature.{func}"]
        m["quadrature.contour.accepted_nodes_p50"] = (
            statistics.median(self.accepted_nodes) if self.accepted_nodes else 0)
        m["quadrature.contour.no_convergence"] = self.counts["quadrature.contour.no_convergence"]
        for fn in ("apply_function", "funcalc_n", "dd_apply", "dd_tensor"):
            m[f"funcalc.{fn}.calls"] = calls[f"funcalc.{fn}"]
            m[f"funcalc.{fn}.s"] = total[f"funcalc.{fn}"]
        m["funcalc.funcalc_n.grid_points"] = self.counts["funcalc.funcalc_n.grid_points"]
        m["funcalc.self_s"] = module_self("funcalc")
        for fn in ("dd_contour", "dd_hermite"):
            m[f"divdiff.{fn}.s"] = total[f"divdiff.{fn}"]
        m["divdiff.self_s"] = module_self("divdiff")
        for fn in ("newton_interpolate", "taylor_expand", "dyson_exp"):
            m[f"ncseries.{fn}.s"] = total[f"ncseries.{fn}"]
        m["ncseries.self_s"] = module_self("ncseries")
        m["magnus.rhs_evals"] = self.counts["magnus.magnus_rhs"]
        m["magnus.field_evals"] = self.counts["magnus.field_evals"]
        for fn in ("magnus_solve", "rk_reference"):
            m[f"magnus.{fn}.s"] = total[f"magnus.{fn}"]
        m["magnus.self_s"] = module_self("magnus")
        m["rearrange.kernel_calls"] = (self.counts["rearrange.kernel_F"]
                                       + self.counts["rearrange.kernel_G"])
        for fn in ("rearrange_lhs", "rearrange_rhs_F", "rearrange_rhs_G"):
            m[f"rearrange.{fn}.s"] = total[f"rearrange.{fn}"]
        for fn in ("eigen_decompose", "matrix_exp", "pair"):
            m[f"core.{fn}.calls"] = calls[f"core.{fn}"]
            m[f"core.{fn}.s"] = total[f"core.{fn}"]
        for check in check_names:
            m[f"verify.{check}.s"] = total[f"verify.{check}"]
        m["cli.self_s"] = self_by["cli.main"]
        m["errors.typed"] = sum(v for (k, _), v in self.errors.items() if k == "typed")
        m["errors.untyped"] = sum(v for (k, _), v in self.errors.items() if k == "untyped")
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
