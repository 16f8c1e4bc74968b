"""Geometric measure of entanglement via coherent-state overlap maximization.

For a symmetric state the closest product state is itself symmetric, so the
maximization of |<product|state>|^2 runs over the two-sphere of collective
coherent states

    |alpha, beta> = sum_r sqrt(C(N,r)) cos^r(b/2) sin^(N-r)(b/2)
                    e^{-i(N-r) alpha} |weight r>,

with beta = pi the all-|0> product state and beta = 0 the all-|1> one.  The
landscape F(alpha, beta) is smooth with at most O(N) basins, so a coarse grid
plus simplex ascent from the best cells and from every Majorana point (and
antipode) finds the global maximum reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import SymmetricState, binom
from .stellar import majorana_points

GRID_DEFAULT = 64
CPP_MATCH_TOL = 1e-9
RING_VAR_TOL = 1e-10
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class CoherentPoint:
    """Sphere point (azimuth alpha, polar beta) labelling a coherent product state."""

    alpha: float
    beta: float

    def __post_init__(self):
        alpha = float(self.alpha)
        beta = float(self.beta) % (2 * math.pi)
        if beta > math.pi:
            beta = 2 * math.pi - beta
            alpha = alpha + math.pi
        alpha %= 2 * math.pi
        if beta < _POLE_TOL or beta > math.pi - _POLE_TOL:
            alpha = 0.0
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", min(max(beta, 0.0), math.pi))

    def xyz(self) -> np.ndarray:
        return np.array(
            [
                math.sin(self.beta) * math.cos(self.alpha),
                math.sin(self.beta) * math.sin(self.alpha),
                math.cos(self.beta),
            ]
        )


@dataclass(frozen=True)
class EntanglementReport:
    eg: float
    log_eg: float
    f_max: float
    cpps: tuple
    ring: bool = False
    landscape_samples: np.ndarray | None = field(default=None, repr=False)


def coherent_coefficients(n: int, alpha: float, beta: float) -> np.ndarray:
    """Weight-basis coefficients of the coherent product state at (alpha, beta)."""
    r = np.arange(n + 1)
    mag = np.array(
        [
            math.sqrt(binom(n, int(j)))
            * math.cos(beta / 2) ** int(j)
            * math.sin(beta / 2) ** int(n - j)
            for j in r
        ]
    )
    return mag * np.exp(-1j * (n - r) * alpha)


def coherent_overlap(s: SymmetricState, alpha: float, beta: float) -> complex:
    """<alpha, beta | s>."""
    return complex(np.vdot(coherent_coefficients(s.n, alpha, beta), s.c))


def overlap_landscape(s: SymmetricState, alphas, betas) -> np.ndarray:
    """F(alpha, beta) = |<alpha,beta|s>|^2 on the outer grid alphas x betas."""
    n = s.n
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    r = np.arange(n + 1)
    mag = np.array([math.sqrt(binom(n, int(j))) for j in r])
    cosb = np.cos(betas / 2.0)[None, :] ** r[:, None]
    sinb = np.sin(betas / 2.0)[None, :] ** (n - r)[:, None]
    radial = mag[:, None] * cosb * sinb
    phases = np.exp(1j * np.outer(n - r, alphas))
    amp = np.einsum("r,ra,rb->ab", s.c, phases, radial)
    return np.abs(amp) ** 2


def _f_point(s: SymmetricState, x) -> float:
    return float(overlap_landscape(s, [x[0]], [x[1]])[0, 0])


def overlap_gradient(s: SymmetricState, alpha: float, beta: float, h: float = 1e-6):
    """Central-difference gradient of F; the formula continues smoothly
    through the poles, so no special casing is needed."""
    da = (_f_point(s, (alpha + h, beta)) - _f_point(s, (alpha - h, beta))) / (2 * h)
    db = (_f_point(s, (alpha, beta + h)) - _f_point(s, (alpha, beta - h))) / (2 * h)
    return np.array([da, db])


def geometric_measure(
    s: SymmetricState,
    grid: int = GRID_DEFAULT,
    restarts: int = 8,
    keep_landscape: bool = False,
) -> EntanglementReport:
    """Geometric entanglement report with all closest product points found.

    ``restarts`` caps the number of top grid cells refined (Majorana points
    and their antipodes are always used as extra seeds).
    """
    from scipy import optimize

    n = s.n
    alphas = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    betas = np.linspace(0.0, math.pi, grid)
    f_grid = overlap_landscape(s, alphas, betas)

    seeds = [(0.0, 0.0), (0.0, math.pi)]
    flat = np.argsort(f_grid, axis=None)[::-1]
    for idx in flat[: max(restarts, 1)]:
        ia, ib = np.unravel_index(idx, f_grid.shape)
        seeds.append((float(alphas[ia]), float(betas[ib])))
    for root, _ in majorana_points(s).points:
        a_m, b_m = root.angles()
        seeds.append((a_m, math.pi - b_m))
        seeds.append((a_m + math.pi, b_m))

    def refine(seed):
        res = optimize.minimize(
            lambda x: -_f_point(s, x),
            np.asarray(seed, dtype=float),
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 600},
        )
        value = -res.fun
        point = CoherentPoint(res.x[0], res.x[1])
        # a result one ulp shy of a pole is the pole
        if point.beta < 1e-6 or point.beta > math.pi - 1e-6:
            pole = 0.0 if point.beta < 1e-6 else math.pi
            pole_value = _f_point(s, (0.0, pole))
            if pole_value >= value - 1e-12:
                value, point = pole_value, CoherentPoint(0.0, pole)
        return value, point

    candidates = [refine(seed) for seed in seeds]
    candidates.append((float(f_grid.max()), _grid_argmax(f_grid, alphas, betas)))

    f_max = max(v for v, _ in candidates)
    cpps: list[CoherentPoint] = []
    for value, point in sorted(candidates, key=lambda t: -t[0]):
        if value < f_max - CPP_MATCH_TOL:
            break
        if all(np.linalg.norm(point.xyz() - q.xyz()) > 1e-5 for q in cpps):
            cpps.append(point)

    ring = False
    rep = cpps[0]
    if _POLE_TOL < rep.beta < math.pi - _POLE_TOL:
        ring_vals = overlap_landscape(s, np.linspace(0, 2 * math.pi, 64, endpoint=False), [rep.beta])
        ring = bool(np.var(ring_vals) < RING_VAR_TOL)

    f_max = min(f_max, 1.0)
    eg = 1.0 - f_max
    report_grid = None
    if keep_landscape:
        report_grid = np.stack(np.meshgrid(alphas, betas, indexing="ij") + (f_grid,), axis=-1)
    return EntanglementReport(
        eg=eg,
        log_eg=-math.log2(f_max),
        f_max=f_max,
        cpps=tuple(cpps),
        ring=ring,
        landscape_samples=report_grid,
    )


def _grid_argmax(f_grid, alphas, betas) -> CoherentPoint:
    ia, ib = np.unravel_index(int(np.argmax(f_grid)), f_grid.shape)
    return CoherentPoint(float(alphas[ia]), float(betas[ib]))


def dicke_closed_form(n: int, l: int) -> tuple[float, CoherentPoint]:
    """Exact geometric measure and optimizer for the weight-l Dicke state.

    eg = 1 - C(n,l) (l/n)^l ((n-l)/n)^(n-l) with 0^0 = 1; the optimizer sits
    at tan(beta/2) = sqrt((n-l)/l), degenerating to the poles at l = 0, n.
    """
    if not 0 <= l <= n:
        raise ValueError(f"index {l} outside 0..{n}")
    f_max = binom(n, l) * (l / n) ** l * ((n - l) / n) ** (n - l)
    if l == 0:
        beta = math.pi
    elif l == n:
        beta = 0.0
    else:
        beta = 2.0 * math.atan(math.sqrt((n - l) / l))
    return 1.0 - f_max, CoherentPoint(0.0, beta)
