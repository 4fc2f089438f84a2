"""Span recorder for the traced benchmark run.

The recorder wraps public functions in the thetasum module namespaces
(``qs.pow_real``, ``th.build``, ``tr.ft_quadrature``, ``sm.lhs_sum``, ...).
The package calls across layers through those module attributes, so a
wrapper sees every internal call too.  Spans stay in memory as flat records
and are written out once at the end; nothing in ``src/`` is changed.

A span's self time is its duration minus the part of it covered by its
direct child spans.
"""

from __future__ import annotations

import json
from time import perf_counter

# functions wrapped in a traced run, by layer (a module of thetasum)
TRACED = {
    "qseries": ("pow_real", "mul", "lincomb", "rescale", "evaluate"),
    "theta": ("build", "theta_series", "dual", "jacobi_residual"),
    "transform": ("ft_gausspoly", "ft_quadrature"),
    "summation": ("verify", "lhs_sum", "rhs_sum"),
    "hermite": ("hermite_coeff_quadrature", "gaussian_hermite_coeff"),
    "cli": ("main",),
}


def _build_extra(args, result):
    spec, L = args[0], args[1]
    return {"coeffs": int(result.coeffs.size), "key": f"{spec!r}@{int(L)}"}


# per-span facts recorded from a wrapped call's arguments and result
_EXTRA = {
    "qseries.pow_real": lambda args, result: {"coeffs": int(result.coeffs.size)},
    "theta.build": _build_extra,
    "summation.verify": lambda args, result: {
        "L_used": result.L_used, "L_star_used": result.L_star_used},
}


class Tracer:
    """In-memory spans: [name, start, end, parent, op, ticks0, ticks1, extra].

    ``extra`` stays None when the call raised, and is a dict once it returned.

    ``ticks`` is a counter that benchmark-owned callables bump (one tick per
    profile evaluation); each span records the ticks that happened inside it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.ticks = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = _EXTRA.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   self.ticks, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[6] = self.ticks
                stack.pop()
            rec[7] = extra(args, result) if extra is not None else {}
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.op, self.ticks, self.ticks, None])

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function; ``modules`` maps layer -> module object."""
        for layer, names in TRACED.items():
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr in names:
                orig = getattr(mod, attr)
                self._restore.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def root_seconds(spans: list[list]) -> dict[int, float]:
    """Total duration of each operation's top-level spans, by operation index."""
    out: dict[int, float] = {}
    for rec in spans:
        if rec[3] < 0:
            out[rec[4]] = out.get(rec[4], 0.0) + rec[2] - rec[1]
    return out


def _ancestor(spans: list[list], i: int, names: tuple[str, ...]) -> int:
    p = spans[i][3]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][3]
    return p


def layer_metrics(spans: list[list], n_ops: int, n_verify: int) -> dict[str, float]:
    """Per-operation layer metrics from a finished span list.

    Times are ms per operation; ``calls``/``coeffs``/``evals`` are counts per
    operation; ``orders_tried`` is per verify call and ``L_used`` per verify
    call that returned a report.
    """
    selfs = self_times(spans)
    ops = max(n_ops, 1)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def self_ms(name):
        return 1e3 * sum(selfs[i] for i in by_name.get(name, ())) / ops

    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        for attr in names:
            out[f"{layer}.{attr}.self_ms"] = self_ms(f"{layer}.{attr}")
        out[f"{layer}.self_ms"] = sum(out[f"{layer}.{a}.self_ms"] for a in names)
    out["cli.import_ms"] = self_ms("cli.import")
    out["cli.self_ms"] += out["cli.import_ms"]
    out["cli.main_ms"] = 1e3 * sum(spans[i][2] - spans[i][1]
                                   for i in by_name.get("cli.main", ())) / ops

    def done(name):  # spans of calls that returned
        return [i for i in by_name.get(name, ()) if spans[i][7] is not None]

    out["qseries.pow_real.coeffs"] = sum(
        spans[i][7]["coeffs"] for i in done("qseries.pow_real")) / ops

    sides = ("summation.lhs_sum", "summation.rhs_sum")
    builds = done("theta.build")
    # a build is useful when its series was summed: the last build of a side
    # that returned, or any build outside a summation side (a table)
    coeffs_all = sum(spans[i][7]["coeffs"] for i in builds)
    last_in_side: dict[int, int] = {}
    orders = 0
    seen: set[tuple[int, str]] = set()
    repeats = 0
    for i in builds:
        side = _ancestor(spans, i, sides)
        if side >= 0:
            orders += 1
            if spans[side][7] is not None:  # that side returned a sum
                last_in_side[side] = i
        key = (spans[i][4], spans[i][7]["key"])
        repeats += key in seen
        seen.add(key)
    useful = set(last_in_side.values()) | {
        i for i in builds if _ancestor(spans, i, sides) < 0}
    out["theta.build.calls"] = len(by_name.get("theta.build", ())) / ops
    out["theta.build.coeffs_out"] = coeffs_all / ops
    out["theta.build.useful_ratio"] = (
        sum(spans[i][7]["coeffs"] for i in useful) / coeffs_all if coeffs_all else 1.0)
    out["theta.build.repeat_share"] = repeats / len(builds) if builds else 0.0

    quad = by_name.get("transform.ft_quadrature", ())
    evals = sum(spans[i][6] - spans[i][5] for i in quad)
    out["transform.ft_quadrature.calls"] = len(quad) / ops
    out["transform.profile_evals"] = evals / ops
    out["transform.profile_evals_per_shell"] = evals / len(quad) if quad else 0.0

    verifies = [spans[i][7] for i in done("summation.verify")]
    nv = max(len(verifies), 1)
    out["summation.orders_tried"] = orders / max(n_verify, 1)
    out["summation.L_used"] = sum(v["L_used"] for v in verifies) / nv
    out["summation.L_star_used"] = sum(v["L_star_used"] for v in verifies) / nv
    out["trace.spans"] = len(spans) / ops
    out["trace.attributed_ms"] = 1e3 * sum(selfs) / ops
    return out
