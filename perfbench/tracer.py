"""Spans around slitkit's public functions, installed from outside the package.

Each wrapped function records calls, inclusive seconds (``.s``) and self
seconds (``.self_s``: inclusive time minus the time of wrapped callees).
A wrapper replaces the name on the object the caller actually looks it
up on (``slitkit.solver.frame_fields``, not only ``slitkit.geometry``),
and every binding counts its own calls, so a binding the program no
longer uses shows up as zero calls instead of as zero seconds.
"""

from __future__ import annotations

import time
import types

import scipy.sparse.linalg

import slitkit.cli
import slitkit.expansion
import slitkit.freeboundary
import slitkit.geometry
import slitkit.neumann
import slitkit.solver
import slitkit.whitney
import slitkit.xrpoly


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.binding_calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.top_s = 0.0            # inclusive time of outermost spans
        self._child_s: list[float] = []

    def add(self, key: str, value: float) -> None:
        """Add to a counter that no wrapper owns, such as CG iterations."""
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, owner, attr: str, name: str, prepare=None, count=None,
             counts: tuple = ()) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``.

        ``prepare(kwargs)`` may rewrite keyword arguments before the call;
        ``count(args, kwargs, result)`` returns the extra counters named in
        ``counts`` for ``name``.
        """
        orig = getattr(owner, attr)      # a renamed function fails here, loudly
        binding = f"{owner.__name__}.{attr}"
        self.binding_calls[binding] = 0
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in counts:
            stats.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            self.binding_calls[binding] += 1
            if prepare is not None:
                kwargs = prepare(kwargs)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                stats["calls"] += 1
                stats["s"] += dt
                stats["self_s"] += dt - child
                if self._child_s:
                    self._child_s[-1] += dt
                else:
                    self.top_s += dt
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + val
            return result

        setattr(owner, attr, wrapper)

    def flat(self) -> dict[str, float]:
        """``{"<module>.<function>.<counter>": value}`` over every layer."""
        out = {f"{layer}.{key}": val for layer, st in self.stats.items()
               for key, val in st.items()}
        out.update(self.counters)
        return out


def _cg_iterations(tracer: Tracer):
    def prepare(kwargs):
        user_cb = kwargs.get("callback")

        def callback(xk):
            tracer.add("solver.cg.iters", 1)
            if user_cb is not None:
                user_cb(xk)

        return {**kwargs, "callback": callback}

    return prepare


def _extension_points(args, kwargs, result):
    return {"points": len(result)}


def _frame_points(args, kwargs, result):
    return {"points": int(result["d"].size)}


def _unknowns(args, kwargs, result):
    return {"unknowns": int((~result.dirichlet_mask & ~result.slit_mask).sum())}


def install() -> Tracer:
    """Wrap every public layer of slitkit and return the recording tracer."""
    tr = Tracer()
    tr.counters.update({"solver.cg.iters": 0, "cli.bytes_written": 0})
    sk = slitkit
    # solver reaches scipy through its module global ``spla``; give it a
    # private copy so the wrappers do not leak into scipy itself
    spla = types.ModuleType("slitkit.solver.spla")
    spla.__dict__.update({k: v for k, v in vars(scipy.sparse.linalg).items()
                          if not k.startswith("__")})
    sk.solver.spla = spla
    tr.wrap(spla, "cg", "solver.cg", prepare=_cg_iterations(tr))
    tr.wrap(spla, "splu", "solver.splu")
    tr.wrap(spla, "spsolve", "solver.spsolve")

    # frame_fields is bound by name in solver and whitney at import time
    for owner in (sk.geometry, sk.solver, sk.whitney):
        tr.wrap(owner, "frame_fields", "geometry.frame_fields", count=_frame_points,
                counts=("points",))
    for owner in (sk.solver, sk.freeboundary):
        tr.wrap(owner, "solve_series_2d", "solver.solve_series_2d")

    tr.wrap(sk.solver, "solve_fd", "solver.solve_fd", count=_unknowns, counts=("unknowns",))
    for fn in ("solve_disc_2d", "check_barrier", "compute_energy"):
        tr.wrap(sk.solver, fn, f"solver.{fn}")
    for fn in ("gamma_jet", "foot_jet", "parabola_geometry"):
        tr.wrap(sk.geometry, fn, f"geometry.{fn}")
    for fn in ("solve_approximating", "laplacian_of_product"):
        tr.wrap(sk.xrpoly, fn, f"xrpoly.{fn}")
    for fn in ("fit_tangent", "rate_report", "derivative_rate_checks",
               "formal_gradient", "formal_hessian"):
        tr.wrap(sk.expansion, fn, f"expansion.{fn}")
    for fn in ("weighted_laplacian_bracket", "constant_T", "t_nu_on_edge",
               "solve_pair_systems", "quotient", "fit_quotient_expansion",
               "neumann_rate"):
        tr.wrap(sk.neumann, fn, f"neumann.{fn}")
    tr.wrap(sk.whitney, "build_mollifier", "whitney.build_mollifier")
    tr.wrap(sk.whitney, "whitney_extend", "whitney.whitney_extend",
            count=_extension_points, counts=("points",))
    tr.wrap(sk.whitney, "verify_jet_match", "whitney.verify_jet_match")
    for fn in ("tip_coefficient", "solve_free_boundary"):
        tr.wrap(sk.freeboundary, fn, f"freeboundary.{fn}")
    tr.wrap(sk.cli, "main", "cli.main")
    return tr
