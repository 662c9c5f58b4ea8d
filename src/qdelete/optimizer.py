"""Derivative-free search over the coupling sphere.

Every metric depends only on the couplings u = row0 + row1 = (g, h, e, f) and
m1p, and valid machines fill exactly the sphere |u|^2 = 2 in C^4 times
[-1, 1].  A search point is a raw real 9-vector: u as interleaved (re, im)
pairs, scaled onto the sphere, and theta with m1p = cos(theta); no penalty
terms are involved.  Nelder-Mead simplex searches run from independently
seeded random starts, and the best point over all restarts is decoded into a
machine whose rows are orthonormal by construction.

Objectives are maximized: average fidelity, negated average distortion, or a
weighted combination.  `scorer` builds the one scoring function of a solve
from the metrics module's certified gaps, `fidelity_gap` and
`distortion_gap`, which it takes in plain floats; it resolves the weights
once and skips a term of weight zero.  Both gaps are sums of squares, so no
score passes the certified optimum wf - wd * D*.  `_sphere_point` holds the
decode rule, and both `decode` and the search's objective call it.  An
evaluation builds no complex number, no `Couplings` and no `BlankState` and
records one float, the best objective so far; a restart's `HistoryEntry`
records are built after its search.  The returned machine's averages come
once from the simulation oracle's exact averages, `metrics.averages`.

The simplex is `minimize`: scipy's adaptive Nelder-Mead on plain float lists,
with tied vertices in index order on every CPU, and no command imports scipy.
A caller can replace that one module-level binding to wrap every search.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import add, itemgetter, sub
from typing import NamedTuple

import numpy as np

from . import metrics
from .machine import BlankState, MachineParams, couplings, require_valid

RAW_DIM = 9

OBJECTIVE_MAX_FIDELITY = "max-fidelity"
OBJECTIVE_MIN_DISTORTION = "min-distortion"
OBJECTIVE_WEIGHTED = "weighted"
OBJECTIVES = (OBJECTIVE_MAX_FIDELITY, OBJECTIVE_MIN_DISTORTION, OBJECTIVE_WEIGHTED)

#: (wf, wd) of the unweighted objectives; the weighted one takes the config's.
#: Max-fidelity then scores 1.0 * Fbar, which is bit-equal to Fbar.
_WEIGHTS = {OBJECTIVE_MAX_FIDELITY: (1.0, 0.0), OBJECTIVE_MIN_DISTORTION: (0.0, 1.0)}

#: Minimization value returned for raw points that fail to decode.  A real
#: point's value wd * Dbar - wf * Fbar is finite but has no fixed bound, since
#: Dbar >= D* = 2/5 - 3pi/32 (about 0.1055) for any weight wd; only infinity is
#: worse than every real point, so the simplex always moves away from it.
_DEGENERATE_PENALTY = math.inf

#: Raw points whose coupling vector is shorter than this fail to decode.
_DEGENERACY_TOL = 1e-12


class DecodeError(ValueError):
    """A raw search point does not decode to a machine; the search scores it as a penalty."""


@dataclass(frozen=True)
class OptConfig:
    """Search configuration; restarts use seeds seed, seed+1, ..."""

    objective: str = OBJECTIVE_MAX_FIDELITY
    weight_fidelity: float = 1.0
    weight_distortion: float = 1.0
    restarts: int = 16
    max_iters: int = 800
    seed: int = 0
    tol: float = 1e-10

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.tol < math.inf:  # false for NaN; ints compare exactly
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")
        weights = (self.weight_fidelity, self.weight_distortion)
        # the scorer multiplies a float by each weight, which an int beyond float overflows
        if not all(0 <= w <= sys.float_info.max for w in weights):
            raise ValueError(f"weights must be finite and non-negative, got {weights}")
        if self.objective == OBJECTIVE_WEIGHTED and weights == (0, 0):
            raise ValueError("objective weights must not both be zero")


class HistoryEntry(NamedTuple):
    """Best objective seen so far, recorded at each objective evaluation."""

    restart: int
    evaluation: int
    objective: float


@dataclass(frozen=True)
class OptResult:
    best_machine: MachineParams
    best_objective: float
    avg_fidelity: float
    avg_distortion: float
    iterations_used: int
    history: list[HistoryEntry] = field(repr=False)


def _centroid(points: list[list[float]]) -> list[float]:
    """The mean of 9 points, each coordinate summed left to right.

    That is the order of numpy's ``add.reduce`` along axis 0.  ``sum()`` is
    not used: it compensates its rounding since Python 3.12.  Each coordinate
    is one written-out chain x0 + x1 + ... + x8, with no call per addition.
    """
    means = []
    for x0, x1, x2, x3, x4, x5, x6, x7, x8 in zip(*points):
        means.append((x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8) / 9)
    return means


def minimize(
    fun: Callable[[list[float]], float],
    x0: list[float],
    *,
    maxiter: int,
    tol: float,
) -> tuple[list[float], int]:
    """Adaptive Nelder-Mead from ``x0``; returns the best vertex and the iteration count.

    Bit for bit ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"adaptive": True, "maxiter": maxiter, "xatol": tol, "fatol": tol})``
    (scipy 1.17's ``_minimize_neldermead``), its ``x`` and ``nit``: the same
    coefficients, initial simplex, expressions, branch tests and stopping
    rule, which stops once every vertex is within ``tol`` of the best one in
    each coordinate and in value.  Tied vertices keep their index order (scipy's
    wherever numpy's argsort is stable): the initial simplex and each shrink
    are sorted stably, and otherwise the one new vertex goes after its ties.
    The simplex has the search's `RAW_DIM` coordinates, so its centroid is
    written out as one left-to-right sum of 9 terms, in numpy's ``add.reduce``
    order, and its bits are scipy's too; any other length is a ``ValueError``.
    ``fun`` gets each point as a new list of floats, never changed afterwards.
    """
    n = len(x0)
    if n != RAW_DIM:
        raise ValueError(f"x0 must have {RAW_DIM} entries, got {n}")
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n  # and rho = 1
    expand, outside, inside = 1 + chi, 1 + psi, 1 - psi
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k, v in enumerate(x0):
        y = x0.copy()
        y[k] = 1.05 * v if v != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]

    def sort():
        order = itemgetter(*sorted(range(len(fsim)), key=fsim.__getitem__))
        sim[:], fsim[:] = order(sim), order(fsim)

    sort()
    nit = 1
    while nit < maxiter:
        best, fbest = sim[0], fsim[0]
        # fsim ascends, so its largest spread |f - fbest| is the worst vertex's
        if abs(fsim[-1] - fbest) <= tol and all(
            abs(x - b) <= tol for row in sim[1:] for x, b in zip(row, best)
        ):
            break
        xbar, worst = _centroid(sim[:-1]), sim[-1]
        xr = [2 * b - w for b, w in zip(xbar, worst)]
        fxr = fun(xr)
        if fxr < fbest:
            xe = [expand * b - chi * w for b, w in zip(xbar, worst)]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [outside * b - psi * w for b, w in zip(xbar, worst)]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:
                xc = [inside * b + psi * w for b, w in zip(xbar, worst)]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex; n vertices move, so all are sorted
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
                sort()
        # the rest ascends: put the last vertex after its ties, as a stable sort does
        k = bisect_right(fsim, fsim[-1], 0, n)
        sim.insert(k, sim.pop())
        fsim.insert(k, fsim.pop())
        nit += 1
    return sim[0], nit


def _sphere_point(raw: list[float]) -> tuple[float, ...]:
    """The decode rule: a raw point of 9 floats as its couplings' 8 real coordinates and m1p.

    The coordinates are (re, im) of u = (g, h, e, f) scaled to |u|^2 = 2, each
    one product by sqrt(2)/|u|, and m1p = cos(theta).  Raises
    :class:`DecodeError` unless the point is 9 real numbers, all finite, whose
    |u| (``math.hypot``) does not overflow and is at least 1e-12.  Plain
    Python, since it runs at every search evaluation.
    """
    try:
        g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im, theta = raw
        norm = math.hypot(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im)
    except (TypeError, ValueError):
        raise DecodeError(f"raw point must be {RAW_DIM} real numbers") from None
    if not (math.isfinite(norm) and math.isfinite(theta)):
        raise DecodeError("raw point has non-finite entries or an overflowing norm")
    if norm < _DEGENERACY_TOL:
        raise DecodeError("coupling vector is numerically zero")
    k = math.sqrt(2.0) / norm
    return (g_re * k, g_im * k, h_re * k, h_im * k, e_re * k, e_im * k, f_re * k, f_im * k,
            math.cos(theta))


def decode(raw) -> MachineParams:
    """Decode a raw 9-vector into a valid machine with its couplings and m1p.

    The rows are u/2 -+ w with w = conj(-h, g, -f, e)/2, which is orthogonal
    to u with |w|^2 = 1/2, so they are orthonormal for every u.  Each coupling
    is the complex (x - y*0, x*0 + y) of its scaled coordinates x, y: the
    complex128 product of the raw pair and sqrt(2)/|u|, signed zeros
    included.  Each entry rounds every product once, as numpy's complex128
    loops do without FMA, so its bits are the same on every host.  Raises
    :class:`DecodeError` where `_sphere_point` does, and for a point that
    is ragged, complex or an int beyond float.
    """
    try:
        if np.iscomplexobj(raw):  # a cast to float would drop the imaginary parts
            raise TypeError
        raw = np.asarray(raw, dtype=float).tolist()
    except (TypeError, ValueError, OverflowError):  # ragged, not real, or an int beyond float
        raise DecodeError(f"raw point must be {RAW_DIM} real numbers") from None
    *coordinates, m1p = _sphere_point(raw)
    pairs = zip(coordinates[0::2], coordinates[1::2])
    g, h, e, f = (complex(x - y * 0.0, x * 0.0 + y) for x, y in pairs)
    half = (g / 2, h / 2, e / 2, f / 2)
    w = (h.conjugate() * -0.5, g.conjugate() * 0.5, f.conjugate() * -0.5, e.conjugate() * 0.5)
    return MachineParams(*map(sub, half, w), *map(add, half, w), BlankState(m1p))


def encode(p: MachineParams) -> np.ndarray:
    """A raw point of ``p``'s couplings and m1p; decoding it keeps p's metrics."""
    u = np.array(couplings(p), dtype=complex)
    return np.append(u.view(float), math.acos(p.sigma.m1p))


def sample_raw(rng: np.random.Generator) -> np.ndarray:
    """Draw a standard-normal raw point; it fails to decode with probability 0.

    Cold search restarts start from these, and `diagnose` samples them decoded.
    """
    return rng.standard_normal(RAW_DIM)


def scorer(cfg: OptConfig) -> Callable[..., float]:
    """The objective wf * Fbar - wd * Dbar of a point of the coupling sphere; larger is better.

    The returned function takes the point's 8 real coordinates and m1p as
    plain floats, as `_sphere_point` gives them, and builds no record.  It
    scores wf * (1 - fidelity_gap) - wd * (D* + distortion_gap), the
    certified gaps of `metrics` with D* = `metrics.MIN_AVG_DISTORTION`.  Both
    gaps are never negative, so the score never passes wf - wd * D*, and it
    equals it on the optimal family.  The weights are resolved here, once,
    and a term of weight zero is not computed.  The value is still bit for
    bit the full formula's, because on the sphere Fbar >= 1/3 and Dbar > 0
    make w * Xbar equal to w, a signed zero, when w is zero: wf * Fbar - (+-0)
    is wf * Fbar, and (+-0) * Fbar - wd * Dbar is wf - wd * Dbar.
    """
    wf, wd = _WEIGHTS.get(cfg.objective, (cfg.weight_fidelity, cfg.weight_distortion))
    fidelity_gap, distortion_gap = metrics.fidelity_gap, metrics.distortion_gap
    d_star = metrics.MIN_AVG_DISTORTION
    if wd == 0:
        return lambda *point: wf * (1.0 - fidelity_gap(*point))
    if wf == 0:  # the 9 names spare a slice of the point at every evaluation
        return lambda g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im, m1p: wf - wd * (
            d_star + distortion_gap(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im))
    return lambda g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im, m1p: (
        wf * (1.0 - fidelity_gap(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im, m1p))
        - wd * (d_star + distortion_gap(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im))
    )


def optimize(cfg: OptConfig, warm_start: MachineParams | None = None) -> OptResult:
    """Run the restart loop and return the best machine found.

    Deterministic for a fixed config: restart r starts from a point drawn
    with seed cfg.seed + r (or from ``warm_start`` for restart 0, when
    given).  The history records the global best-so-far objective at every
    evaluation, so it is monotone non-decreasing.
    """
    history: list[HistoryEntry] = []
    bests: list[float] = []  # the best objective so far at each evaluation of this restart
    best_value = -math.inf
    best_raw: list[float] | None = None
    iterations_used = 0
    value_of = scorer(cfg)

    def negated_objective(raw):
        nonlocal best_value, best_raw
        try:
            point = _sphere_point(raw)
        except DecodeError:
            bests.append(best_value)
            return _DEGENERATE_PENALTY
        value = value_of(*point)
        if value > best_value:
            best_value = value
            best_raw = raw  # minimize never changes a point it has passed
        bests.append(best_value)
        return -value

    for restart in range(cfg.restarts):
        if restart == 0 and warm_start is not None:
            require_valid(warm_start)
            x0 = encode(warm_start)
        else:
            x0 = sample_raw(np.random.default_rng(cfg.seed + restart))
        _, nit = minimize(negated_objective, x0.tolist(), maxiter=cfg.max_iters, tol=cfg.tol)
        iterations_used += nit
        rows = zip(repeat(restart), count(1), bests)
        history.extend(map(tuple.__new__, repeat(HistoryEntry), rows))  # HistoryEntry._make, in C
        bests.clear()

    assert best_raw is not None  # every restart evaluates its start point
    best_machine = decode(best_raw)
    avg_fidelity, avg_distortion = metrics.averages(best_machine)
    return OptResult(
        best_machine=best_machine,
        best_objective=best_value,
        avg_fidelity=avg_fidelity,
        avg_distortion=avg_distortion,
        iterations_used=iterations_used,
        history=history,
    )
