"""Majorana constellations: root extraction, reconstruction, collective rotations.

A symmetric N-qubit state with weight coefficients c_l is encoded by the
polynomial

    P(z) = sum_m (-1)^m sqrt(C(N, m)) c_{N-m} z^m,

whose roots z = tan(beta/2) e^{i alpha} are the orientations of the N
constituent spinors (z = 0 is |0>, the north pole).  When deg P = D < N the
remaining N - D spinors sit at the point at infinity (|1>, beta = pi), as the
inverted-coordinate polynomial shows.  Reconstruction multiplies the root
factors back together; collective single-qubit maps act on the amplitudes
(rotations through the spectrum of J_y, other maps through the exact Mobius
substitution), so degenerate roots and roots at infinity never need to be
located to map a state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .states import (
    DEFAULT_TOL,
    Spinor,
    SymmetricState,
    canonical_distance,
    sqrt_binomials,
)

REBUILD_TOL = 1e-10
# a structure coarser than all-simple must rebuild the state within this
# factor of the all-simple rebuild distance (itself floored at (n + 1) eps)
STRUCTURE_FACTOR = 16.0
GCD_RTOL = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ProjectiveRoot:
    """Point (z : w) of the projective line; w = 0 is the point at infinity.

    Stored with the larger-magnitude component scaled to 1.
    """

    z: complex
    w: complex

    def __post_init__(self):
        z, w = complex(self.z), complex(self.w)
        if z == 0 and w == 0:
            raise ValueError("(0 : 0) is not a projective point")
        if abs(z) >= abs(w):
            z, w = 1.0 + 0.0j, w / z
        else:
            z, w = z / w, 1.0 + 0.0j
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @classmethod
    def from_complex(cls, value: complex) -> "ProjectiveRoot":
        return cls(complex(value), 1.0)

    @classmethod
    def infinity(cls) -> "ProjectiveRoot":
        return cls(1.0, 0.0)

    @classmethod
    def zero(cls) -> "ProjectiveRoot":
        return cls(0.0, 1.0)

    @classmethod
    def from_angles(cls, alpha: float, beta: float) -> "ProjectiveRoot":
        return cls(math.sin(beta / 2) * np.exp(1j * alpha), math.cos(beta / 2))

    @property
    def is_infinity(self) -> bool:
        return self.w == 0

    def value(self) -> complex:
        """Affine coordinate z/w; raises at infinity."""
        if self.is_infinity:
            raise ValueError("point at infinity has no affine coordinate")
        return self.z / self.w

    def angles(self) -> tuple[float, float]:
        """(alpha, beta) of the spinor this root encodes; alpha = 0 at the poles."""
        beta = 2.0 * math.atan2(abs(self.z), abs(self.w))
        if abs(self.z) < 1e-15 or abs(self.w) < 1e-15:
            return 0.0, beta
        alpha = float(np.angle(self.z * np.conj(self.w))) % (2 * math.pi)
        return alpha, beta

    def spinor(self) -> Spinor:
        alpha, beta = self.angles()
        return Spinor.from_angles(alpha, beta)


def chordal_distance(p: ProjectiveRoot, q: ProjectiveRoot) -> float:
    """Scale-free metric |z_p w_q - z_q w_p| / (|p| |q|); treats infinity symmetrically."""
    num = abs(p.z * q.w - q.z * p.w)
    return num / (math.hypot(abs(p.z), abs(p.w)) * math.hypot(abs(q.z), abs(q.w)))


class MajoranaConstellation:
    """Unordered multiset of projective points with multiplicities summing to n.

    Immutable.  Results are often kept in bulk, so each point is stored as
    its smaller projective component t (the larger one is 1), packed as
    complex128 bytes, with a bitmask marking the points stored as (1 : t);
    the multiplicities are stored only when some point is multiple.
    ``points`` builds the (ProjectiveRoot, mult) pairs on access.
    """

    __slots__ = ("n", "_coords", "_far", "_mults")

    def __init__(self, n: int, points):
        pairs = [(p, int(m)) for p, m in points]
        total = sum(m for _, m in pairs)
        if total != n:
            raise ValueError(f"multiplicities sum to {total}, expected {n}")
        mults = tuple(m for _, m in pairs)
        object.__setattr__(self, "n", n)
        coords = np.array([p.z if p.w == 1 else p.w for p, _ in pairs], dtype=complex)
        object.__setattr__(self, "_coords", coords.tobytes())
        object.__setattr__(self, "_far", sum(1 << i for i, (p, _) in enumerate(pairs) if p.w != 1))
        object.__setattr__(self, "_mults", mults if any(m > 1 for m in mults) else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, MajoranaConstellation):
            return NotImplemented
        return self.n == other.n and self.points == other.points

    def __hash__(self):
        return hash((self.n, self.points))

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), (self.n, self.points)

    def __repr__(self):
        return f"MajoranaConstellation(n={self.n}, points={self.points!r})"

    @property
    def points(self) -> tuple:
        coords = np.frombuffer(self._coords, dtype=complex).tolist()
        return tuple(
            (ProjectiveRoot(1.0, t) if self._far >> i & 1 else ProjectiveRoot(t, 1.0), m)
            for i, (t, m) in enumerate(zip(coords, self._point_mults()))
        )

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(sorted(self._point_mults(), reverse=True))

    def _point_mults(self) -> tuple[int, ...]:
        return self._mults or (1,) * (len(self._coords) // 16)

    def spinors(self) -> list[Spinor]:
        """Constituent spinors, each repeated by its multiplicity."""
        out = []
        for p, m in self.points:
            out.extend([p.spinor()] * m)
        return out

    def matched_distance(self, other: "MajoranaConstellation") -> float:
        """Max chordal distance under the best pairing of expanded point lists."""
        mine = [p for p, m in self.points for _ in range(m)]
        theirs = [p for p, m in other.points for _ in range(m)]
        if len(mine) != len(theirs):
            raise ValueError("point counts differ")
        worst = 0.0
        remaining = list(theirs)
        for p in mine:
            dists = [chordal_distance(p, q) for q in remaining]
            j = int(np.argmin(dists))
            worst = max(worst, dists[j])
            remaining.pop(j)
        return worst


def _dicke_weights(n: int) -> np.ndarray:
    """Signed weights (-1)^m sqrt(C(n, m)), m = 0..n, linking p_m = w_m c_{N-m}."""
    out = sqrt_binomials(n)
    out[1::2] *= -1.0
    return out


def majorana_polynomial(s: SymmetricState) -> np.ndarray:
    """Coefficients p_0 .. p_N (ascending powers) of the root polynomial."""
    return _dicke_weights(s.n) * s.c[::-1]


def _power(factor: np.ndarray, m: int) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for _ in range(m):
        out = np.convolve(out, factor)
    return out


def _root_polynomial(points) -> np.ndarray:
    """Ascending coefficients of prod (w z - z_root)^m over (ProjectiveRoot, m) pairs.

    Every point contributes m to the degree count, so the result always has
    sum(m) + 1 entries; the point at infinity contributes the constant -1 and
    leaves the top coefficients zero.  Points far out enter as (w z - 1) with
    small w, so no factor carries a huge coordinate.
    """
    poly = np.ones(1, dtype=complex)
    for root, mult in points:
        poly = np.convolve(poly, _power(np.array([-root.z, root.w]), mult))
    return poly


def state_from_constellation(c: MajoranaConstellation) -> SymmetricState:
    """Symmetric state whose root multiset is the given constellation."""
    p = _root_polynomial(c.points)
    return SymmetricState(c.n, (p / _dicke_weights(c.n))[::-1])


class ConstellationError(ValueError):
    """No candidate constellation rebuilds the input state within REBUILD_TOL."""


def _rebuild_distance(const: MajoranaConstellation, s: SymmetricState) -> float:
    return canonical_distance(state_from_constellation(const).c, s.c)


def _newton_disks(core: np.ndarray, scale: np.ndarray, roots: np.ndarray):
    """Projective coordinates and Newton inclusion radii of the raw roots.

    Each root is taken in the chart where its coordinate x has |x| <= 1 (the
    reversed polynomial for |z| > 1).  The disk |x - x0| <= d |P(x0)| / |P'(x0)|
    holds a root of the degree-d polynomial.  Both evaluations are bounded
    against an absolute error gamma on every unit-norm amplitude, i.e.
    gamma |w_m| on p_m (``scale`` holds |w_m|): that covers the rounding of
    the evaluation (|c| <= 1) and amplitudes that carry rounding from an
    earlier computation such as a rotation.  A root whose |P'| does not clear
    its bound gets an infinite radius.  A chart disk of radius r lies inside
    the chordal ball of radius r about its center, so disks are compared
    through the chordal metric.
    """
    d = len(core) - 1
    inside = np.abs(roots) <= 1.0
    x = roots.copy()
    x[~inside] = 1.0 / roots[~inside]
    coeffs = np.where(inside[:, None], core, core[::-1])
    scale = np.where(inside[:, None], scale, scale[::-1])
    powers = np.cumprod(np.hstack([np.ones((len(x), 1)), np.repeat(x[:, None], d, axis=1)]), axis=1)
    k = np.arange(1, d + 1)
    gamma = 2.0 * (d + 1) * _EPS
    value = np.abs((coeffs * powers).sum(axis=1)) + gamma * (scale * np.abs(powers)).sum(axis=1)
    slope = np.abs((k * coeffs[:, 1:] * powers[:, :-1]).sum(axis=1)) - gamma * (
        k * scale[:, 1:] * np.abs(powers[:, :-1])
    ).sum(axis=1)
    radius = np.full(len(x), np.inf)
    ok = slope > 0.0
    radius[ok] = d * value[ok] / slope[ok]
    return np.where(inside, x, 1.0), np.where(inside, 1.0, x), radius


def _overlap_groups(zz, ww, radius) -> list[np.ndarray]:
    """Connected components of the graph of overlapping Newton disks."""
    norms = np.hypot(np.abs(zz), np.abs(ww))
    chord = np.abs(np.outer(zz, ww) - np.outer(ww, zz)) / np.outer(norms, norms)
    adjacent = chord <= radius[:, None] + radius[None, :]
    if np.count_nonzero(adjacent) == len(zz):
        return [np.array([i]) for i in range(len(zz))]
    label = np.full(len(zz), -1)
    groups = []
    for i in range(len(zz)):
        if label[i] >= 0:
            continue
        label[i] = len(groups)
        members, frontier = [i], [i]
        while frontier:
            new = np.flatnonzero(adjacent[frontier].any(axis=0) & (label < 0))
            label[new] = len(groups)
            members.extend(new)
            frontier = list(new)
        groups.append(np.array(members))
    return groups


def _centroid(zz, ww) -> ProjectiveRoot:
    """Mean of a cluster of projective points, in the chart holding most of them.

    The eps^(1/m) scatter of an m-fold root cancels in the mean of its m
    eigenvalues, which is accurate to first order in either chart.
    """
    if 2 * np.count_nonzero(np.abs(zz) <= np.abs(ww)) >= len(zz):
        return ProjectiveRoot(complex(np.mean(zz / ww)), 1.0)
    return ProjectiveRoot(1.0, complex(np.mean(ww / zz)))


def _convolution_matrix(f: np.ndarray, k: int) -> np.ndarray:
    """Matrix of g -> f * g on ascending coefficient vectors of degree k."""
    out = np.zeros((len(f) + k, k + 1), dtype=complex)
    for j in range(k + 1):
        out[j : j + len(f), j] = f
    return out


def _gcd_structures(core: np.ndarray, k_min: int):
    """Candidate structures from the numerical GCD of P and P' (Zeng 2005).

    With k distinct roots, P = u v and P' = u w where v holds each root once,
    so P' v - P w = 0 and [C_k(P') | -C_{k-1}(P)] is rank deficient from k on.
    For each k >= k_min whose smallest singular value is below GCD_RTOL of the
    largest, the null vector gives v and w; the roots of v are the distinct
    points, and since w / v = P'/P = sum m_i / (z - z_i) the residues
    w(z_i) / v'(z_i) are the multiplicities.  A k is proposed only when these
    are positive integers (within 1/4) summing to deg P.  Residues are taken
    in the chart where |z_i| <= 1.
    """
    d = len(core) - 1
    p = core / np.linalg.norm(core)
    dp = npoly.polyder(p)
    scale = np.linalg.norm(dp)
    dp = dp / scale
    for k in range(max(k_min, 1), d):
        sylvester = np.hstack([_convolution_matrix(dp, k), -_convolution_matrix(p, k - 1)])
        _, sv, vh = np.linalg.svd(sylvester, full_matrices=False)
        if sv[-1] > GCD_RTOL * sv[0]:
            continue
        null = vh[-1].conj()
        v, w = null[: k + 1], null[k + 1 :]
        points = np.roots(v[::-1])
        if len(points) != k:
            continue
        inside = np.abs(points) <= 1.0
        residues = np.empty(k, dtype=complex)
        z = points[inside]
        residues[inside] = npoly.polyval(z, w) / npoly.polyval(z, npoly.polyder(v))
        zeta = 1.0 / points[~inside]
        residues[~inside] = -npoly.polyval(zeta, w[::-1]) / (
            zeta * npoly.polyval(zeta, npoly.polyder(v[::-1]))
        )
        residues *= scale
        mults = np.rint(residues.real)
        if np.max(np.abs(residues - mults)) > 0.25 or mults.min() < 1 or mults.sum() != d:
            continue
        yield [(ProjectiveRoot.from_complex(z), int(m)) for z, m in zip(points, mults)]


def _joint_polish_positions(n: int, fixed, free, target_c):
    """Gauss-Newton refinement of root positions at fixed multiplicities.

    Per-root refinement bottoms out at eps/sep^m when multiple roots sit close
    together, but the joint positions-to-amplitudes map of a given structure
    stays well conditioned (Zeng's pejorative manifold).  The residual
    c(t)/<target, c(t)> - target is holomorphic in the positions, so its
    Jacobian is exact: the derivative along point i is m_i times the product
    with one factor of point i removed.  Each free point moves in the chart
    where its coordinate t has |t| <= 1 at the start: the factor is z - t,
    or t z - 1 for points beyond the unit circle.

    ``fixed`` and ``free`` are (ProjectiveRoot, mult) pairs; the fixed ones
    hold still.  Returns the refined free pairs and the final residual norm.
    """
    weights = _dicke_weights(n)
    base = _root_polynomial(fixed)
    mults = [m for _, m in free]
    near = np.array([root.w == 1.0 for root, _ in free])
    t = np.array([root.z if z_chart else root.w for (root, _), z_chart in zip(free, near)])

    def points(t):
        return [
            (ProjectiveRoot(ti, 1.0) if z_chart else ProjectiveRoot(1.0, ti), m)
            for ti, z_chart, m in zip(t, near, mults)
        ]

    def amplitudes_and_jacobian(t):
        factors = [np.array([-ti, 1.0]) if z_chart else np.array([-1.0, ti])
                   for ti, z_chart in zip(t, near)]
        blocks = [_power(f, m) for f, m in zip(factors, mults)]
        prefix = [base]
        for block in blocks:
            prefix.append(np.convolve(prefix[-1], block))
        suffix = [np.ones(1, dtype=complex)]
        for block in reversed(blocks):
            suffix.append(np.convolve(block, suffix[-1]))
        suffix.reverse()
        cols = []
        for i, (f, m) in enumerate(zip(factors, mults)):
            rest = np.convolve(np.convolve(prefix[i], suffix[i + 1]), _power(f, m - 1))
            dp = -m * np.append(rest, 0.0) if near[i] else m * np.insert(rest, 0, 0.0)
            cols.append((dp / weights)[::-1])
        return (prefix[-1] / weights)[::-1], cols

    best_t, best_norm = t, math.inf
    for _ in range(21):  # at most 20 steps
        c, cols = amplitudes_and_jacobian(t)
        alpha = np.vdot(target_c, c)
        if not np.isfinite(alpha) or alpha == 0:
            break
        r = c / alpha - target_c
        norm = float(np.linalg.norm(r))
        # on the right structure the residual falls quadratically down to
        # rounding level; anything slower is stagnation or a wrong structure
        if not norm < 0.5 * best_norm:
            break
        best_t, best_norm = t, norm
        if norm < 1e-15:
            break
        jc = np.column_stack([d / alpha - c * np.vdot(target_c, d) / alpha**2 for d in cols])
        jac = np.block([[jc.real, -jc.imag], [jc.imag, jc.real]])
        sol, *_ = np.linalg.lstsq(jac, -np.concatenate([r.real, r.imag]), rcond=None)
        step = sol[: len(t)] + 1j * sol[len(t) :]
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 10.0:
            break
        t = t + step
    return points(best_t), best_norm


def majorana_points(s: SymmetricState) -> MajoranaConstellation:
    """Roots of the state polynomial with multiplicities, including infinity.

    The multiplicity structure is found first and the positions refined
    second (Zeng, Math. Comp. 74 (2005) 869-903):

    1. Exactly zero amplitudes give the roots at zero and infinity (a nonzero
       amplitude, however small, carries genuine positions: an m-fold point
       at chordal distance d from a pole leaves amplitudes of order d^m); the
       rest of the polynomial goes to ``np.roots``.
    2. Each raw root gets a Newton inclusion disk.  When all disks are
       disjoint every root is simple.
    3. Otherwise each group of overlapping disks is one candidate point with
       the group's size as multiplicity.
    4. Failing that, the numerical GCD of P and P' proposes the number of
       distinct points, the points and their multiplicities.
    5. The all-simple constellation is the last candidate.

    Candidates run from the coarsest to the all-simple one; steps 3 and 4
    are refined jointly by Gauss-Newton.  A coarser candidate is returned
    only when it explains the state at rounding level: its rebuild distance
    is within STRUCTURE_FACTOR of the all-simple one's (floored at
    (n + 1) eps) and within REBUILD_TOL.  A generic state squeezed by an
    ill-conditioned map can sit within 1e-12 of a degenerate one while its
    own roots rebuild it to 1e-15; the evidence then favours the simple
    roots.  The all-simple constellation is returned when it rebuilds within
    REBUILD_TOL; otherwise ConstellationError is raised.
    """
    n = s.n
    p = majorana_polynomial(s)
    nonzero = np.flatnonzero(p)
    low, deg = int(nonzero[0]), int(nonzero[-1])
    structural = ((ProjectiveRoot.zero(), low), (ProjectiveRoot.infinity(), n - deg))
    fixed = [(root, m) for root, m in structural if m]
    core = p[low : deg + 1]
    roots = np.roots(core[::-1])
    zz, ww, radius = _newton_disks(core, np.abs(_dicke_weights(n)[low : deg + 1]), roots)
    simple = MajoranaConstellation(
        n, tuple(fixed + [(ProjectiveRoot(z, w), 1) for z, w in zip(zz, ww)])
    )
    dist = _rebuild_distance(simple, s)
    groups = _overlap_groups(zz, ww, radius)
    if len(groups) < len(roots):
        bound = min(REBUILD_TOL, STRUCTURE_FACTOR * max(dist, (n + 1) * _EPS))
        # disjoint groups each hold a root, so P has at least len(groups) distinct roots
        candidates = itertools.chain(
            [[(_centroid(zz[g], ww[g]), len(g)) for g in groups]],
            _gcd_structures(core, len(groups)),
        )
        for free in candidates:
            polished, _ = _joint_polish_positions(n, fixed, free, s.c)
            const = MajoranaConstellation(n, tuple(fixed + polished))
            if _rebuild_distance(const, s) <= bound:
                return const
    if not dist <= REBUILD_TOL:
        raise ConstellationError(
            f"no constellation rebuilds the state within {REBUILD_TOL:.0e} "
            f"(all-simple rebuild distance {dist:.2e})"
        )
    return simple


def symmetrize(spinors, method: str = "polynomial") -> SymmetricState:
    """Normalized symmetrization of a list of spinors.

    ``polynomial`` multiplies the root factors (any N); ``permutations`` sums
    the N! tensor products literally and is the slow cross-check.
    """
    spinors = list(spinors)
    if not spinors:
        raise ValueError("need at least one spinor")
    if method == "permutations":
        from .states import symmetrize_by_permutations

        return symmetrize_by_permutations(spinors)
    if method != "polynomial":
        raise ValueError(f"unknown method {method!r}")
    return state_from_constellation(constellation_from_spinors(spinors))


def constellation_from_spinors(spinors) -> MajoranaConstellation:
    """Constellation with one point per spinor (no clustering)."""
    spinors = list(spinors)
    return MajoranaConstellation(
        len(spinors), tuple((ProjectiveRoot(sp.b, sp.a), 1) for sp in spinors)
    )


def mobius_root(root: ProjectiveRoot, a: np.ndarray) -> ProjectiveRoot:
    """Image of a projective root under an invertible single-qubit map."""
    a = np.asarray(a, dtype=complex)
    w_new = a[0, 0] * root.w + a[0, 1] * root.z
    z_new = a[1, 0] * root.w + a[1, 1] * root.z
    return ProjectiveRoot(z_new, w_new)


def _mobius_polynomial(p: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the state polynomial after the map a on every spinor.

    Exact substitution: Q(w) = sum_l p_l (a10 - a00 w)^l (a01 w - a11)^{n-l},
    which carries roots (including degenerate ones and infinity) to their
    Mobius images without locating them.
    """
    a = np.asarray(a, dtype=complex)
    top = np.array([a[1, 0], -a[0, 0]])
    bot = np.array([-a[1, 1], a[0, 1]])
    top_pows = [np.array([1.0 + 0.0j])]
    bot_pows = [np.array([1.0 + 0.0j])]
    for _ in range(n):
        top_pows.append(npoly.polymul(top_pows[-1], top))
        bot_pows.append(npoly.polymul(bot_pows[-1], bot))
    q = np.zeros(n + 1, dtype=complex)
    for l in range(n + 1):
        if p[l] == 0:
            continue
        term = p[l] * npoly.polymul(top_pows[l], bot_pows[n - l])
        q[: len(term)] += term
    return q


def _collective_rotation(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dicke amplitudes after the unitary u acts on every qubit, up to a global phase.

    Up to phase u = Rz(alpha) Ry(beta) Rz(gamma) (``euler_su2``).  A z
    rotation by phi multiplies the weight-k amplitude by exp(i phi (k - n/2)).
    Ry(beta) acts as exp(-i beta J_y), and J_y = T B T^-1 with T = diag(i^k)
    and B real symmetric tridiagonal, B[k+1, k] = sqrt((k+1)(n-k)) / 2.  B's
    eigenvalues are exactly k - n/2, so with those and B's eigenvectors the
    map is accurate to about n eps at any n, where substituting into the
    root polynomial loses about 1e-8 at n = 64 to cancellation between its
    binomially weighted terms.
    """
    n = len(c) - 1
    u = u / np.sqrt(np.linalg.det(u))
    half_sum = -np.angle(u[0, 0])  # (alpha + gamma) / 2
    half_diff = np.angle(u[1, 0])  # (alpha - gamma) / 2
    beta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    k = np.arange(n + 1)
    m = k - n / 2.0
    ladder = 0.5 * np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    _, vec = np.linalg.eigh(np.diag(ladder, -1) + np.diag(ladder, 1))
    twist = np.array([1.0, 1j, -1.0, -1j])[k % 4]
    x = np.exp(1j * (half_sum - half_diff) * m) * c / twist
    x = twist * (vec @ (np.exp(-1j * beta * m) * (vec.T @ x)))
    return np.exp(1j * (half_sum + half_diff) * m) * x


def apply_single_qubit_map(s: SymmetricState, a: np.ndarray) -> SymmetricState:
    """State after applying the same invertible 2x2 map to every qubit.

    A map that is unitary up to scale goes through ``_collective_rotation``;
    any other map through the exact Mobius substitution, which keeps a
    state given by few exact amplitudes (a Dicke state) exactly degenerate.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("map must be 2x2")
    if abs(np.linalg.det(a)) < 1e-12 * np.linalg.norm(a) ** 2:
        raise ValueError("map is singular")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] - sv[1] <= 64 * _EPS * sv[0]:
        return SymmetricState(s.n, _collective_rotation(a, s.c))
    weights = _dicke_weights(s.n)
    q = _mobius_polynomial(weights * s.c[::-1], a, s.n)
    return SymmetricState(s.n, (q / weights)[::-1])


def su2_rotate(s: SymmetricState, u: np.ndarray, tol: float = DEFAULT_TOL) -> SymmetricState:
    """Collective rotation of a symmetric state by an SU(2) matrix."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > math.sqrt(tol):
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(u) - 1.0) > math.sqrt(tol):
        raise ValueError("matrix is not special unitary")
    return apply_single_qubit_map(s, u)


def euler_su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SU(2) rotation Rz(alpha) Ry(beta) Rz(gamma)."""
    rz1 = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
    ry = np.array(
        [
            [math.cos(beta / 2), -math.sin(beta / 2)],
            [math.sin(beta / 2), math.cos(beta / 2)],
        ],
        dtype=complex,
    )
    rz2 = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    return rz1 @ ry @ rz2


def _wigner_d_entries(n: int, alpha: float, beta: float) -> np.ndarray:
    """``wigner_d_column`` for l = 0..n at once, with one weight vector."""
    l = np.arange(n + 1)
    return (
        sqrt_binomials(n)
        * math.cos(beta / 2) ** (n - l)
        * (-math.sin(beta / 2)) ** l
        * np.exp(1j * (l - n / 2) * alpha)
    )


def wigner_d_column(n: int, l: int, alpha: float, beta: float) -> complex:
    """Rotation-matrix element sqrt(C(n,l)) cos^{n-l}(b/2) (-sin(b/2))^l e^{i(l-n/2)a}.

    ``l`` indexes the collective ladder from the all-|1> end, i.e. it counts
    |0> qubits; the entry pairing the weight-w coefficient is l = n - w.
    """
    if not 0 <= l <= n:
        raise ValueError(f"index {l} outside 0..{n}")
    return complex(_wigner_d_entries(n, alpha, beta)[l])


def majorana_projection(s: SymmetricState, alpha: float, beta: float) -> complex:
    """Amplitude of |1...1> after rotating the direction (alpha, beta) to +z.

    Vanishes exactly when (alpha, beta) is the orientation of any Majorana
    point of the state.
    """
    return complex(np.dot(s.c[::-1], _wigner_d_entries(s.n, alpha, beta)))
