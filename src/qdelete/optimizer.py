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
from the plain-scalar closed forms of the metrics module; it resolves
the weights once and skips a term of weight zero.  An evaluation builds no
`Couplings` and no `BlankState`; it records one float, the best objective
so far, and the `HistoryEntry` records of a restart are built in one pass
after its search.  The simulation-quadrature oracle checks the returned
machine's averages once per solve.

The simplex is `minimize`, scipy's adaptive Nelder-Mead repeated on plain
float lists, so no command imports scipy.  It stays a module-level name, so a
caller can replace that one binding to wrap every Nelder-Mead run.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import count, repeat
from operator import add, itemgetter
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

#: Minimization value returned for raw points that fail to decode; large
#: enough that the simplex always moves away from degenerate points.
_DEGENERATE_PENALTY = 1e6

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
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")
        if self.objective == OBJECTIVE_WEIGHTED:
            weights = (self.weight_fidelity, self.weight_distortion)
            if not all(math.isfinite(w) and w >= 0 for w in weights):
                raise ValueError(f"weights must be finite and non-negative, got {weights}")
            if weights == (0, 0):
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
    """Mean of the points, each coordinate summed left to right.

    That is the order of numpy's ``add.reduce`` along axis 0.  ``sum()`` is
    not used: it compensates its rounding since Python 3.12.
    """
    n = len(points)
    return [s / n for s in reduce(partial(map, add), points[1:], points[0])]


def minimize(
    fun: Callable[[list[float]], float],
    x0: list[float],
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> tuple[list[float], int]:
    """Adaptive Nelder-Mead from ``x0``; returns the best vertex and the iteration count.

    Bit for bit ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"adaptive": True, "maxiter": ..., "xatol": ..., "fatol": ...})``
    (scipy 1.17's ``_minimize_neldermead``), its ``x`` and ``nit``: the same
    coefficients, initial simplex, expressions, branch tests and stopping
    rule.  ``fun`` gets each point as a new list of floats, which is never
    changed afterwards.  The vertices are ordered by numpy's argsort, as
    scipy's are, since ``sorted`` orders ties differently.
    """
    n = len(x0)
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
        order = itemgetter(*np.array(fsim).argsort().tolist())
        sim[:] = order(sim)
        fsim[:] = order(fsim)

    sort()
    sort()  # as scipy does; argsort need not be stable, so this may reorder ties
    nit = 1
    while nit < maxiter:
        best, fbest = sim[0], fsim[0]
        # fsim ascends, so its largest spread |f - fbest| is the worst vertex's
        if abs(fsim[-1] - fbest) <= fatol and all(
            abs(x - b) <= xatol for row in sim[1:] for x, b in zip(row, best)
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
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
        nit += 1
        sort()
    return sim[0], nit


def _sphere_point(raw: list[float]) -> tuple[list[complex], float]:
    """Couplings u scaled to |u|^2 = 2 and m1p = cos(theta) of a raw point of 9 floats.

    Plain Python, since it runs at every search evaluation.
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
    u = [complex(g_re, g_im) * k, complex(h_re, h_im) * k, complex(e_re, e_im) * k,
         complex(f_re, f_im) * k]
    return u, math.cos(theta)


def decode(raw) -> MachineParams:
    """Decode a raw 9-vector into a valid machine with its couplings and m1p.

    The rows are u/2 -+ w with w = conj(-h, g, -f, e)/2, which is orthogonal
    to u with |w|^2 = 1/2, so they are orthonormal for every u.  Raises
    :class:`DecodeError` for a wrong shape, non-finite entries, |u| < 1e-12
    or a |u| that overflows.
    """
    try:
        raw = np.asarray(raw, dtype=float).tolist()
    except (TypeError, ValueError):  # ragged nesting or entries that are no numbers
        raise DecodeError(f"raw point must be {RAW_DIM} real numbers") from None
    u, m1p = _sphere_point(raw)
    u = np.array(u)
    w = u[[1, 0, 3, 2]].conj() * np.array([-0.5, 0.5, -0.5, 0.5])
    return MachineParams.from_rows(u / 2 - w, u / 2 + w, BlankState(m1p))


def encode(p: MachineParams) -> np.ndarray:
    """A raw point of ``p``'s couplings and m1p; decoding it keeps p's metrics."""
    u = np.array(couplings(p), dtype=complex)
    return np.append(u.view(float), math.acos(p.sigma.m1p))


def sample_raw(rng: np.random.Generator) -> np.ndarray:
    """Draw a standard-normal raw point; it fails to decode with probability 0."""
    return rng.standard_normal(RAW_DIM)


def random_machine(rng: np.random.Generator) -> MachineParams:
    """Draw a valid machine: rows from the QR of a complex Gaussian 4x2, m1p = cos N(0,1)."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return MachineParams.from_rows(q[:, 0], q[:, 1], BlankState(math.cos(rng.standard_normal())))


def scorer(cfg: OptConfig) -> Callable[[list[complex], float], float]:
    """The objective wf * Fbar - wd * Dbar of a point of the coupling sphere; larger is better.

    The returned function takes the couplings u = (g, h, e, f) and m1p as
    plain scalars, as `_sphere_point` gives them, and builds no record.
    Fbar = 1 - k/6 with k = `metrics.fidelity_deficit`, which the simulation
    oracle realizes; Dbar is `metrics.avg_distortion` at its default, exact
    cross constant.  The weights are resolved here, once, and a term of
    weight zero is not computed.  The value is still bit for bit the full
    formula's, because on the sphere Fbar >= 1/3 and Dbar > 0 make w * Xbar
    equal to w, a signed zero, when w is zero: wf * Fbar - (+-0) is
    wf * Fbar, and (+-0) * Fbar - wd * Dbar is wf - wd * Dbar.
    """
    wf, wd = _WEIGHTS.get(cfg.objective, (cfg.weight_fidelity, cfg.weight_distortion))
    deficit, coefficients = metrics.fidelity_deficit, metrics.distortion_coefficients
    avg_distortion = metrics.avg_distortion
    if wd == 0:
        return lambda u, m1p: wf * (1.0 - deficit(*u, m1p) / 6.0)
    if wf == 0:
        return lambda u, m1p: wf - wd * avg_distortion(*coefficients(*u))
    return lambda u, m1p: (
        wf * (1.0 - deficit(*u, m1p) / 6.0) - wd * avg_distortion(*coefficients(*u))
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
            u, m1p = _sphere_point(raw)
        except DecodeError:
            bests.append(best_value)
            return _DEGENERATE_PENALTY
        value = value_of(u, m1p)
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
        _, nit = minimize(
            negated_objective, x0.tolist(), maxiter=cfg.max_iters, xatol=cfg.tol, fatol=cfg.tol
        )
        iterations_used += nit
        history.extend(map(HistoryEntry, repeat(restart), count(1), bests))
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
