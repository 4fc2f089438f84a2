"""Generalized theta series: the coefficients of theta specs, on numpy.

The specs themselves, their duals, the modular-relation residual,
``KINDS``, the table every kind-dependent number here is read from, and the
exponent slack ``_OFFSET_TOL`` live in ``spec`` (pure Python) and are
re-exported here.  Each term's ``_term_grid`` decides its grid, the points
(offset + g j)/D its coefficients lie on, and the series they come from,
which a ``_TermBuilder`` grows.  ``shells`` lists every term point by point
on that grid, with no QSeries (the one listing behind the shell sums and
``coeff_table``, the package's public listing of a spec's coefficients);
``side`` keeps a shell sum's view of that listing for the process, next to
the builders and each kind's table of log coefficients.  ``build``
scatters the terms onto one QSeries, and ``theta_series`` is the
lattice-sum reference of one theta function: neither is exported, the
tests of the reference route and the traced benchmark call them, and they
import ``qseries`` when called, so no command loads it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CoefficientOverflow, _whole
from .spec import (  # noqa: F401  (re-exported: th.ThetaSpec, th.dual, ...)
    _OFFSET_TOL,
    _POWER_SUM_TOL,
    _PRODUCT_FACTOR_CAP,
    KINDS,
    PRESETS,
    ThetaFactor,
    ThetaSpec,
    _json_number,
    _kind,
    coeff_bound,
    dual,
    jacobi_residual,
    preset,
    theta_eval_product,
)

# -- single theta functions ---------------------------------------------


def theta_series(kind: int, L: int) -> QSeries:
    """Series of one theta function, complete for exponents <= L: the lattice
    sum over n in Z of sign^n q^{(n+a)^2}, with a^2 its ``KINDS`` row's shift
    (theta2 on the grid 1/4), the reference for the builders' triple product.
    """
    from .qseries import QSeries  # here: no command loads the reference route
    row = KINDS[_kind(kind)]
    L = _whole(L, "order", 0)
    D = Fraction(row.shift).denominator
    a, offset = math.sqrt(row.shift), int(D * row.shift)
    out = np.zeros(D * L + 1)
    for n in range(-math.isqrt(L) - 1, math.isqrt(L) + 1):
        i = int(D * (n + a) ** 2) - offset
        if i < out.size:
            out[i] += row.sign ** n
    return QSeries(D, offset, out)


# -- term coefficients -------------------------------------------------


# k [x^k] log P(x), x = q^{2 - odd}, collects w * a from each divisor pair
# a * j = k, w = _LOG_W[kind][a % 2, j % 2]: -1 where a factor (1 - q^{2m})
# is 1 - x^a (no odd a at odd = 1), and -2 (-sign)^j where a squared factor
# is 1 + sign x^a (no even a at odd = 1).  Derived once: every grow reads it.
_LOG_W = {kind: np.array([[-(1 - a * r.odd) - 2 * (-r.sign) ** j * (1 - (1 - a) * r.odd)
                           for j in (0, 1)] for a in (0, 1)], dtype=np.float64)
          for kind, r in KINDS.items()}


# the kind whose series a lone factor of each odd takes: theta2, or theta3
# for theta3 and theta4 alike (theta4 is theta3 at -x)
_SERIES_KIND = {r.odd: kind for kind, r in KINDS.items() if r.sign > 0}
_NO_LOGS = np.zeros(0)  # a kind's log table before its first use
_NO_LOGS.flags.writeable = False


def _log_coeffs(kind: int, n: int, lo: int = 0) -> np.ndarray:
    """e[k - lo - 1] = k [x^k] log P(x) for lo < k <= n: exact integers in f64.

    theta(q) = 2^two q^shift P(q^{2 - odd}) by the kind's row.  The values
    are a read-only slice of the kind's table e_1..e_M, one per process, an
    entry of the process cache under ("log", kind), counted in
    ``_CACHE_BYTES``.  Asked past M it grows to max(n, 2M): every divisor
    pair a * j = k in (M, new end] adds its weight in one ``bincount``.  The
    sums are exact, so a table grown in pieces holds the bits of one made
    in one step.  The caller holds ``_cache_lock`` and evicts: the table is
    marked used and counted but evicts nothing, so that a builder marked
    used after it is kept before it (``_TermBuilder._grow``).
    """
    key = ("log", kind)
    table = _cache.get(key, _NO_LOGS)
    M = table.size  # 0 where the table is not cached
    if n > M:
        top = max(n, 2 * M)
        a = np.arange(1, top + 1)
        count = top // a - M // a         # the j with M < a j <= top
        start = np.cumsum(count) - count  # where the pairs of each a start
        j = np.arange(count.sum()) + np.repeat(M // a + 1 - start, count)
        a = np.repeat(a, count)
        w = _LOG_W[kind]
        new = np.bincount(a * j - M - 1, weights=a * w[a % 2, j % 2], minlength=top - M)
        table = np.concatenate([table, new])
        table.flags.writeable = False
        _cache[key] = table
        _use(key, 8 * (top - M), evict=False)
    elif M:
        _use(key, 0, evict=False)
    return table[lo:n]


class _TermGrid(NamedTuple):
    """Where a term's coefficients lie, and the series they come from.

    The term prod theta_kind(q^s)^p lies on the points (offset + g j)/D,
    j >= 0: D is the least common denominator of the scales, g the gcd of
    the factors' steps s D (2 - odd), and offset sums p s D shift over the
    factors' ``KINDS`` rows.  By the Jacobi triple product its coefficient
    at j is 2^a (``prefactor``, a sums p two) times b_j of the series exp(sum
    p log P_kind(x^k)) in x = q^{g/D}, each factor's log at its stride k =
    s D (2 - odd) / g (``parts``: kind, power, stride).  That series is
    ``key``: a term with one factor of positive power takes the series of
    its row's odd and its power, since a scale only stretches the grid and
    theta4 is theta3 at -x, whose b_j take the sign (-1)^j
    (``alternate``); any other term is its own series, keyed by its factors.
    """

    D: int
    g: int
    offset: float
    prefactor: float
    scales: tuple     # per factor (num, den, s D), what ``top`` reads
    key: tuple
    parts: tuple
    alternate: bool

    def top(self, L: int) -> int:
        """Last index on the 1/D grid exact at order L: each factor covers ceil(L/s) s."""
        return min(max(1, -(-L * den // num)) * sD for num, den, sD in self.scales)


def _term_grid(factors: tuple[ThetaFactor, ...]) -> _TermGrid:
    """The ``_TermGrid`` of a term's factors."""
    fs = [f for f in factors if f.power > 0.0]  # a power of 0 is the factor 1
    D = math.lcm(*(f.scale.denominator for f in fs))
    # scale s = num/den as (num, den, s D): each factor's variable is
    # x = q^{step/D}, and the recurrence runs in units of g
    scales = tuple((f.scale.numerator, f.scale.denominator, int(f.scale * D)) for f in fs)
    rows = [KINDS[f.kind] for f in fs]
    steps = [sD * (2 - row.odd) for row, (_, _, sD) in zip(rows, scales)]
    g = math.gcd(*steps)
    offset = math.fsum(f.power * sD * row.shift for f, row, (_, _, sD) in zip(fs, rows, scales))
    prefactor = 2.0 ** math.fsum(f.power * row.two for f, row in zip(fs, rows))
    if len(fs) == 1:
        (f,), (row,) = fs, rows
        return _TermGrid(D, g, offset, prefactor, scales, (row.odd, f.power),
                         ((_SERIES_KIND[row.odd], f.power, 1),), row.sign < 0)
    parts = tuple((f.kind, f.power, step // g) for f, step in zip(fs, steps))
    return _TermGrid(D, g, offset, prefactor, scales, tuple(factors), parts, False)


class _TermBuilder:
    """Coefficients b_j of the series of a term's factors (``_TermGrid``),
    grown in place.

    The factor logs h are added at their strides and the exp recurrence

        n b_n = sum_{k=1..n} h_k b_{n-k},  b_0 = 1,

    gives the series.  The recurrence is online: asked for a higher index,
    the builder extends h and runs it only for the new indices, and each
    b_n sees the same operands as in a build from scratch, so a grown
    series is bit-identical to one built in one step.  Fed with the divisor
    sums of ``_log_coeffs`` it stays within ~1e-12 of the running maximum
    of the coefficients to n = 4096 (the tests check it against mpmath and
    lattice counts).  ``_builder`` keeps one per series for the process,
    so theta3(q)^p, theta4(q^3)^p and theta3(q^{1/2})^p share one.
    """

    def __init__(self, grid: _TermGrid):
        self.key, self.parts = grid.key, grid.parts
        self.h = np.zeros(1)
        self.b = np.ones(1)

    def _grow(self, N: int) -> None:
        """Extend h and b to index N, computing only the indices above the old end.

        The caller holds ``_cache_lock``: a grow is whole before another starts.
        The builder is marked used after the log tables it reads, and only
        then is anything evicted, so a table is evicted before the builder
        it serves: a builder that with its tables is past ``_CACHE_BYTES``
        is kept, and not regrown from index 0 at its next call.
        """
        n0 = self.b.size - 1
        h = np.zeros(N + 1)
        h[:n0 + 1] = self.h
        for kind, power, k in self.parts:
            j0 = n0 // k
            h[(j0 + 1) * k::k] += power * k * _log_coeffs(kind, N // k, j0)
        hr = np.ascontiguousarray(h[::-1])  # hr[N-n:N] = h_n .. h_1
        b = np.zeros(N + 1)
        b[:n0 + 1] = self.b
        with np.errstate(over="ignore", invalid="ignore"):  # shells and build refuse non-finite b
            for n in range(n0 + 1, N + 1):
                b[n] = np.dot(hr[N - n:N], b[:n]) / n
        self.h, self.b = h, b
        if _cache.get(self.key) is self:
            _use(self.key, 16 * (N - n0))
        else:  # evicted while in use: its bytes are not counted
            _evict()

    @property
    def nbytes(self) -> int:
        """Bytes of h and b, what the cache counts for the builder."""
        return self.h.nbytes + self.b.nbytes

    def coeffs(self, n: int) -> np.ndarray:
        """b_0..b_n of the series."""
        with _cache_lock:
            if n >= self.b.size:
                self._grow(n)
            return self.b[:n + 1]  # a view: read, never written; a grow fills a new array


_CACHE_BYTES = 2**22  # most bytes cached in all: builders' h and b, sides' arrays, log tables
_cache: OrderedDict = OrderedDict()  # key -> builder, side or log table, least recently used first
_cache_lock = threading.Lock()       # guards _cache, _held and every grow
_held = 0                            # bytes of the cached entries


def _use(key, added: int, evict: bool = True) -> None:
    """Mark key most recently used and count ``added`` more bytes held;
    then, unless ``evict`` is False, ``_evict``."""
    global _held
    _cache.move_to_end(key)
    _held += added
    if evict:
        _evict()


def _evict() -> None:
    """Evict from the least recently used end while the bytes held are too many."""
    global _held
    while _held > _CACHE_BYTES and len(_cache) > 1:
        _held -= _cache.popitem(last=False)[1].nbytes


def _builder(grid: _TermGrid) -> _TermBuilder:
    """The process-wide builder of a term's series, ``grid.key``, made on first use."""
    with _cache_lock:
        term = _cache.get(grid.key)
        new = term is None
        if new:
            term = _cache[grid.key] = _TermBuilder(grid)
        _use(grid.key, term.nbytes if new else 0)  # a new builder holds h_0 and b_0
        return term


def _clear_builders() -> None:
    """Drop every cached builder, side and log table."""
    global _held
    with _cache_lock:
        _cache.clear()
        _held = 0


def _terms(spec: ThetaSpec, L: int) -> list[tuple[float, _TermGrid, np.ndarray]]:
    """Each term's coefficient times its 2^a prefactor, its grid, and its
    coefficients b_0..b_{top(L) // g}, each with its sign."""
    L = _whole(L, "order", 0)
    out = []
    for coeff, factors in spec.terms:
        grid = _term_grid(factors)
        b = _builder(grid).coeffs(grid.top(L) // grid.g)
        if grid.alternate:  # 0 - b, not -b: a zero stays +0, as theta4's own recurrence gives
            b = b.copy()
            b[1::2] = 0.0 - b[1::2]
        out.append((coeff * grid.prefactor, grid, b))
    return out


def build(spec: ThetaSpec, L: int) -> QSeries:
    """QSeries of the spec, coefficients exact for exponents up to ~L.

    ``qseries.lincomb`` merges the terms, and raises ``OffsetMismatch`` for
    terms on no common grid.  Each term comes from its ``_builder``, grown
    only past the order an earlier call of this process reached.  Not
    exported: ``coeff_table`` lists the same coefficients, each term on its
    own grid; the tests of the reference route and the traced benchmark
    call this.
    """
    from . import qseries as qs  # here: no command loads the reference route
    series = []
    for c, grid, b in _terms(spec, L):
        coeffs = np.zeros(grid.top(L) + 1)
        coeffs[::grid.g] = b
        series.append((c, qs.QSeries(grid.D, grid.offset, coeffs)))
    return qs.lincomb(series)


class Shells(NamedTuple):
    term: np.ndarray  # the term of each point, stable-sorted by exponent A
    A: np.ndarray
    N: np.ndarray     # its coefficient, times the term coefficient and 2^a prefactor
    step: tuple       # per term: its grid step g/D
    top: tuple        # per term: the exponent of its last computed point


def shells(spec: ThetaSpec, L: int) -> Shells:
    """Every point (offset + g j)/D of each term of the spec to order L, on
    the grid its recurrence runs on, sorted by exponent.  A scaled
    coefficient that is not a finite double raises ``CoefficientOverflow``."""
    pieces = _terms(spec, L)
    term = np.repeat(np.arange(len(pieces)), [b.size for _, _, b in pieces])
    A = np.concatenate([(t.offset + t.g * np.arange(b.size)) / t.D for _, t, b in pieces])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        N = np.concatenate([c * b for c, _, b in pieces])
    if not np.all(np.isfinite(N)):
        raise CoefficientOverflow("non-finite coefficient")
    if len(pieces) > 1:  # a term's own exponents are sorted already
        by_A = np.argsort(A, kind="stable")
        term, A, N = term[by_A], A[by_A], N[by_A]
    per_term = [(t.g / t.D, (t.offset + t.g * (b.size - 1)) / t.D) for _, t, b in pieces]
    return Shells(term, A, N, *zip(*per_term))


def _coeff_growth(A: np.ndarray, N: np.ndarray, d: float) -> float:
    """log C of the measured constant with |N_l| <= C max(A_l, 1)^d on the
    built range, times a margin of 4.  A and N are nonempty, N nonzero."""
    return math.log(4.0) + float(np.max(np.log(np.abs(N)) - d * np.log(np.maximum(A, 1.0))))


class Side(NamedTuple):
    """The nonzero points of ``shells`` at one order, as a shell sum reads them.

    The arrays are read-only: ``side`` keeps them for the process and
    hands the same ones to every caller.
    """

    A: np.ndarray
    N: np.ndarray
    radii: np.ndarray  # the distinct sqrt(A), in order
    at: np.ndarray | None  # each point's radius in radii; None where no two points share A
    step: tuple        # per term: its grid step g/D
    top: tuple         # per term: the exponent of its last computed point
    log_C: tuple       # per term: its ``_coeff_growth``, None without a nonzero point

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays, what the cache counts for the side."""
        return sum(column.nbytes for column in self[:4] if column is not None)


def _side_key(spec: ThetaSpec, L: int) -> tuple:
    """The spec and the order as plain numbers: no ``Fraction`` to hash."""
    return (L, spec.dim_d, *((c, *((f.kind, f.power, f.scale.numerator, f.scale.denominator)
                                    for f in fs)) for c, fs in spec.terms))


def side(spec: ThetaSpec, L: int) -> Side:
    """The nonzero points of ``shells(spec, L)``, their distinct radii and
    each term's growth constant: all a shell sum derives from the spec at
    order L.  Kept in the process cache next to the builders, so a later
    sum of the same spec at that order lists, sorts and measures nothing."""
    L = _whole(L, "order", 0)
    key = _side_key(spec, L)
    with _cache_lock:
        kept = _cache.get(key)
        if kept is not None:
            _use(key, 0)
            return kept
    # made outside the lock, which the builders take; a thread racing on the
    # same key makes the same bytes, and only the first is counted
    listing = shells(spec, L)
    nonzero = listing.N != 0.0
    which, A, N = (column[nonzero] for column in listing[:3])
    first = np.ones(A.size, dtype=bool)  # first point at each distinct exponent
    first[1:] = A[1:] != A[:-1]
    log_C = tuple(_coeff_growth(A[mine], N[mine], spec.dim_d) if mine.any() else None
                  for mine in (which == i for i in range(len(listing.step))))
    made = Side(A, N, np.sqrt(A[first]), None if first.all() else np.cumsum(first) - 1,
                listing.step, listing.top, log_C)
    for column in made[:4]:
        if column is not None:
            column.flags.writeable = False
    with _cache_lock:
        if key not in _cache:
            _cache[key] = made
            _use(key, made.nbytes)
    return made


def coeff_table(spec: ThetaSpec, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents A <= L of the spec, sorted, and its coefficients N there: the
    points of ``shells``, added where they coincide within ``_OFFSET_TOL``."""
    listing = shells(spec, L)
    first = np.r_[True, np.diff(listing.A) > _OFFSET_TOL]
    A, N = listing.A[first], np.bincount(np.cumsum(first) - 1, weights=listing.N)
    if not np.all(np.isfinite(N)):  # two finite coefficients can add to an overflow
        raise CoefficientOverflow("non-finite coefficient")
    keep = A <= L + _OFFSET_TOL
    return A[keep], N[keep]
