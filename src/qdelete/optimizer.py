"""Derivative-free search over the machine's isometry constraint manifold.

A search point is a raw real 17-vector: two complex 4-vectors (interleaved
re/im) plus an angle theta with m1p = cos(theta).  Decoding normalizes the
first vector and Gram-Schmidt-orthonormalizes the second against it, so every
decoded machine satisfies the isometry conditions by construction; no penalty
terms are involved.  Nelder-Mead simplex searches run from independently
seeded random starts and the best machine over all restarts is returned.

Objectives are maximized: average fidelity, negated average distortion, or a
weighted combination, all scored by one formula on the closed-form averages
of the metrics module.  The simulation-quadrature oracle checks the returned
machine once per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import metrics
from .machine import BlankState, MachineParams, couplings, require_valid

RAW_DIM = 17

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

#: Raw vectors closer than this to a degenerate configuration fail to decode.
_DEGENERACY_TOL = 1e-12


class DecodeError(ValueError):
    """A raw search point does not decode to a machine; redraw and retry."""


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


def decode(raw) -> MachineParams:
    """Decode a raw 17-vector into a valid machine.

    raw[0:8] and raw[8:16] hold the two amplitude rows as interleaved
    (re, im) pairs; raw[16] is theta with m1p = cos(theta).  The first row is
    normalized, the second is orthonormalized against it.  Raises
    :class:`DecodeError` for non-finite input, a near-zero first row, or a
    second row within 1e-12 of the span of the first.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (RAW_DIM,):
        raise DecodeError(f"raw point must have shape ({RAW_DIM},), got {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise DecodeError("raw point has non-finite entries")

    pairs0 = raw[0:8].reshape(4, 2)
    pairs1 = raw[8:16].reshape(4, 2)
    v0 = pairs0[:, 0] + 1j * pairs0[:, 1]
    v1 = pairs1[:, 0] + 1j * pairs1[:, 1]

    n0 = np.linalg.norm(v0)
    if n0 < _DEGENERACY_TOL:
        raise DecodeError("first row vector is numerically zero")
    v0 = v0 / n0

    n1 = np.linalg.norm(v1)
    if n1 < _DEGENERACY_TOL:
        raise DecodeError("second row vector is numerically zero")
    v1 = v1 / n1
    residual = v1 - np.vdot(v0, v1) * v0
    n_res = np.linalg.norm(residual)
    if n_res < _DEGENERACY_TOL:
        raise DecodeError("second row vector lies in the span of the first")
    v1 = residual / n_res

    return MachineParams.from_rows(v0, v1, BlankState(math.cos(raw[16])))


def encode(p: MachineParams) -> np.ndarray:
    """Inverse of :func:`decode` for machines whose rows are already orthonormal."""
    raw = np.empty(RAW_DIM)
    row0, row1 = p.row0(), p.row1()
    raw[0:8] = np.column_stack([row0.real, row0.imag]).ravel()
    raw[8:16] = np.column_stack([row1.real, row1.imag]).ravel()
    raw[16] = math.acos(max(-1.0, min(1.0, p.sigma.m1p)))
    return raw


def sample_raw(rng: np.random.Generator) -> np.ndarray:
    """Draw a standard-normal raw point, redrawing until it decodes."""
    while True:
        raw = rng.standard_normal(RAW_DIM)
        try:
            decode(raw)
        except DecodeError:
            continue
        return raw


def random_machine(rng: np.random.Generator) -> MachineParams:
    """Draw a random valid machine (Gaussian rows, orthonormalized)."""
    return decode(sample_raw(rng))


def evaluate(p: MachineParams, cfg: OptConfig) -> float:
    """Objective wf * Fbar - wd * Dbar of a valid machine; larger is better.

    Fbar = 1 - k/6 with k the consistent-mode deficit, which the simulation
    oracle realizes; Dbar is the analytic-mode average distortion.
    """
    require_valid(p)
    c = couplings(p)
    fbar = 1.0 - metrics.fidelity_deficit(c, p.sigma) / 6.0
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
                p = decode(raw)
            except DecodeError:
                history.append(HistoryEntry(restart, evaluation, best_value))
                return _DEGENERATE_PENALTY
            value = evaluate(p, cfg)
            if value > best_value:
                best_value = value
                best_raw = np.array(raw, dtype=float)
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
    return OptResult(
        best_machine=best_machine,
        best_objective=best_value,
        avg_fidelity=metrics.avg_fidelity_quadrature(best_machine),
        avg_distortion=metrics.avg_distortion_quadrature(
            metrics.distortion_coefficients(couplings(best_machine))
        ),
        iterations_used=iterations_used,
        history=history,
    )
