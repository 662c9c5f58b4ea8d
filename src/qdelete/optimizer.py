"""Derivative-free search over the coupling sphere.

Every metric depends only on the couplings u = row0 + row1 = (g, h, e, f) and
m1p, and valid machines fill exactly the sphere |u|^2 = 2 in C^4 times
[-1, 1].  A search point is a raw real 9-vector: u as interleaved (re, im)
pairs, scaled onto the sphere, and theta with m1p = cos(theta); no penalty
terms are involved.  Nelder-Mead simplex searches run from independently
seeded random starts, and the best point over all restarts is decoded into a
machine whose rows are orthonormal by construction.

Objectives are maximized: average fidelity, negated average distortion, or a
weighted combination, all scored by one formula on the closed-form averages
of the metrics module.  The simulation-quadrature oracle checks the returned
machine's averages once per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import metrics
from .machine import BlankState, Couplings, MachineParams, couplings, require_valid

RAW_DIM = 9

OBJECTIVE_MAX_FIDELITY = "max-fidelity"
OBJECTIVE_MIN_DISTORTION = "min-distortion"
OBJECTIVE_WEIGHTED = "weighted"
OBJECTIVES = (OBJECTIVE_MAX_FIDELITY, OBJECTIVE_MIN_DISTORTION, OBJECTIVE_WEIGHTED)

#: (wf, wd) of the unweighted objectives; the weighted one takes the config's.
#: 1.0 * Fbar - 0.0 * Dbar is bit-equal to Fbar.
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


@dataclass(frozen=True)
class HistoryEntry:
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


def _sphere_point(raw: np.ndarray) -> tuple[list[complex], float]:
    """Couplings u scaled to |u|^2 = 2 and m1p = cos(theta) of a raw float array.

    After `raw.tolist()` it is plain Python, since it runs at every search evaluation.
    """
    if raw.shape != (RAW_DIM,):
        raise DecodeError(f"raw point must have shape ({RAW_DIM},), got {raw.shape}")
    r = raw.tolist()
    norm = math.hypot(*r[0:8])
    if not (math.isfinite(norm) and math.isfinite(r[8])):
        raise DecodeError("raw point has non-finite entries or an overflowing norm")
    if norm < _DEGENERACY_TOL:
        raise DecodeError("coupling vector is numerically zero")
    k = math.sqrt(2.0) / norm
    return [complex(r[i], r[i + 1]) * k for i in range(0, 8, 2)], math.cos(r[8])


def decode(raw) -> MachineParams:
    """Decode a raw 9-vector into a valid machine with its couplings and m1p.

    The rows are u/2 -+ w with w = conj(-h, g, -f, e)/2, which is orthogonal
    to u with |w|^2 = 1/2, so they are orthonormal for every u.  Raises
    :class:`DecodeError` for a wrong shape, non-finite entries, |u| < 1e-12
    or a |u| that overflows.
    """
    u, m1p = _sphere_point(np.asarray(raw, dtype=float))
    u = np.array(u)
    w = u[[1, 0, 3, 2]].conj() * np.array([-0.5, 0.5, -0.5, 0.5])
    return MachineParams.from_rows(u / 2 - w, u / 2 + w, BlankState(m1p))


def encode(p: MachineParams) -> np.ndarray:
    """A raw point of ``p``'s couplings and m1p; decoding it keeps p's metrics."""
    c = couplings(p)
    u = np.array([c.g, c.h, c.e, c.f], dtype=complex)
    return np.append(u.view(float), math.acos(p.sigma.m1p))


def sample_raw(rng: np.random.Generator) -> np.ndarray:
    """Draw a standard-normal raw point; it fails to decode with probability 0."""
    return rng.standard_normal(RAW_DIM)


def random_machine(rng: np.random.Generator) -> MachineParams:
    """Draw a valid machine: rows from the QR of a complex Gaussian 4x2, m1p = cos N(0,1)."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return MachineParams.from_rows(q[:, 0], q[:, 1], BlankState(math.cos(rng.standard_normal())))


def score(c: Couplings, sigma: BlankState, cfg: OptConfig) -> float:
    """Objective wf * Fbar - wd * Dbar of a point of the coupling sphere; larger is better.

    Fbar = 1 - k/6 with k the consistent-mode deficit, which the simulation
    oracle realizes; Dbar is the analytic-mode average distortion.
    """
    fbar = 1.0 - metrics.fidelity_deficit(c, sigma) / 6.0
    dbar = metrics.avg_distortion(metrics.distortion_coefficients(c))
    wf, wd = _WEIGHTS.get(cfg.objective, (cfg.weight_fidelity, cfg.weight_distortion))
    return wf * fbar - wd * dbar


def optimize(cfg: OptConfig, warm_start: MachineParams | None = None) -> OptResult:
    """Run the restart loop and return the best machine found.

    Deterministic for a fixed config: restart r starts from a point drawn
    with seed cfg.seed + r (or from ``warm_start`` for restart 0, when
    given).  The history records the global best-so-far objective at every
    evaluation, so it is monotone non-decreasing.
    """
    history: list[HistoryEntry] = []
    best_value = -math.inf
    best_raw: np.ndarray | None = None
    iterations_used = 0

    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        if restart == 0 and warm_start is not None:
            require_valid(warm_start)
            x0 = encode(warm_start)
        else:
            x0 = sample_raw(rng)

        evaluation = 0

        def negated_objective(raw):
            nonlocal evaluation, best_value, best_raw
            evaluation += 1
            try:
                u, m1p = _sphere_point(raw)
            except DecodeError:
                history.append(HistoryEntry(restart, evaluation, best_value))
                return _DEGENERATE_PENALTY
            value = score(Couplings(*u), BlankState(m1p), cfg)
            if value > best_value:
                best_value = value
                best_raw = raw  # minimize passes each point as its own copy
            history.append(HistoryEntry(restart, evaluation, best_value))
            return -value

        result = minimize(
            negated_objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "xatol": cfg.tol,
                "fatol": cfg.tol,
                "adaptive": True,
            },
        )
        iterations_used += int(result.nit)

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
