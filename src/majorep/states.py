"""State containers and basis conversions for permutation-symmetric qubits.

Conventions used throughout the package:

* A symmetric N-qubit pure state is stored as the N+1 complex amplitudes
  ``c[l]`` on the Dicke states of Hamming weight l (l qubits in |1>),
  i.e. the collective basis vector with J_z eigenvalue N/2 - l.
* Dense states index the computational basis with qubit 1 as the most
  significant bit.
* Every constructor normalizes and fixes the global phase so that the
  first coefficient above the noise floor is real and positive; equality
  of states is tested on these canonical forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
OPT_TOL = 1e-6

_PHASE_FLOOR = 1e-12


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient (0 outside the valid range)."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n, the Dicke-basis weights.

    Each binomial is shifted down to a float-sized integer before the square
    root and scaled back by a power of two, so the weights stay finite while
    sqrt(C(n, k)) itself fits a float (n up to about 2040); converting C(n, k)
    to a float directly overflows from n of about 1030.
    """
    out = np.empty(n + 1)
    b = 1
    for k in range(n + 1):
        shift = max(b.bit_length() - 1000, 0) // 2
        out[k] = math.sqrt(float(b >> (2 * shift))) * 2.0**shift
        b = b * (n - k) // (k + 1)
    return out


def canonicalize(vec):
    """Normalize and rotate a nonzero complex vector to canonical phase.

    The first entry with magnitude above ``_PHASE_FLOOR`` times the norm is
    made real and positive.
    """
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("cannot canonicalize the zero vector")
    vec = vec / norm
    idx = np.flatnonzero(np.abs(vec) > _PHASE_FLOOR)
    if idx.size == 0:
        raise ValueError("vector is numerically zero")
    pivot = vec[idx[0]]
    return vec * (abs(pivot) / pivot)


def canonical_distance(x, y) -> float:
    """Distance between two coefficient vectors as rays: min over phases of |x - e^{ia} y|.

    Both vectors are normalized and y's global phase is aligned to x through
    their overlap.  Aligning on a fixed pivot entry instead would inherit that
    entry's relative rounding error, which is large when the entry is tiny.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cannot compare with the zero vector")
    x, y = x / nx, y / ny
    overlap = np.vdot(y, x)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(x - phase * y))


def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every computational index 0 .. 2^n - 1."""
    idx = np.arange(2**n, dtype=np.uint32)
    w = np.zeros(2**n, dtype=np.int64)
    while idx.any():
        w += idx & 1
        idx >>= 1
    return w


@dataclass(frozen=True)
class Spinor:
    """Single-qubit pure state with amplitudes (a, b) on (|0>, |1>)."""

    a: complex
    b: complex

    def __post_init__(self):
        norm = math.hypot(abs(self.a), abs(self.b))
        if norm == 0.0:
            raise ValueError("spinor must be nonzero")
        if abs(norm - 1.0) > 1e-6:
            object.__setattr__(self, "a", self.a / norm)
            object.__setattr__(self, "b", self.b / norm)

    @classmethod
    def from_angles(cls, alpha: float, beta: float) -> "Spinor":
        """Spinor at azimuth alpha, polar angle beta on the unit sphere."""
        return cls(
            math.cos(beta / 2) * np.exp(-0.5j * alpha),
            math.sin(beta / 2) * np.exp(0.5j * alpha),
        )

    def angles(self) -> tuple[float, float]:
        """(alpha, beta) orientation; alpha = 0 at the poles."""
        beta = 2.0 * math.atan2(abs(self.b), abs(self.a))
        if abs(self.a) <= _PHASE_FLOOR or abs(self.b) <= _PHASE_FLOOR:
            return 0.0, beta
        alpha = float(np.angle(self.b * np.conj(self.a))) % (2 * math.pi)
        return alpha, beta

    def vec(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)

    def canonical(self) -> np.ndarray:
        return canonicalize(self.vec())

    def isclose(self, other: "Spinor", tol: float = DEFAULT_TOL) -> bool:
        """Equality up to a global phase."""
        return float(np.linalg.norm(self.canonical() - other.canonical())) <= tol


@dataclass(frozen=True, slots=True)
class SymmetricState:
    """Symmetric N-qubit pure state in the weight-indexed Dicke basis."""

    n: int
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} coefficients, got {c.shape}")
        c = canonicalize(c)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def isclose(self, other: "SymmetricState", tol: float = DEFAULT_TOL) -> bool:
        return self.n == other.n and self.distance(other) <= tol

    def distance(self, other: "SymmetricState") -> float:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return canonical_distance(self.c, other.c)


@dataclass(frozen=True)
class FullState:
    """Dense n-qubit pure state; qubit 1 is the most significant bit."""

    n: int
    amp: np.ndarray = field(repr=False)

    MAX_DENSE = 12

    def __post_init__(self):
        if not 1 <= self.n <= self.MAX_DENSE:
            raise ValueError(f"dense states support 1..{self.MAX_DENSE} qubits")
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got {amp.shape}")
        amp = canonicalize(amp)
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def isclose(self, other: "FullState", tol: float = DEFAULT_TOL) -> bool:
        return self.n == other.n and float(np.linalg.norm(self.amp - other.amp)) <= tol


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix tagged with its basis.

    ``basis`` is "symmetric" (the k+1 Dicke states of k retained qubits) or
    "computational" (all 2^k bitstrings); ``k`` is the retained qubit count.
    """

    mat: np.ndarray = field(repr=False)
    basis: str
    k: int

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        expected = self.k + 1 if self.basis == "symmetric" else 2**self.k
        if self.basis not in ("symmetric", "computational"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if mat.shape[0] != expected:
            raise ValueError(f"basis {self.basis!r} with k={self.k} needs dim {expected}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise if not Hermitian, PSD, and trace one within tol."""
        if np.max(np.abs(self.mat - self.mat.conj().T)) > tol:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(self.mat) - 1.0) > tol:
            raise ValueError("trace is not 1")
        evals = np.linalg.eigvalsh(self.mat)
        if evals.min() < -tol:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")

    def rank(self, tol: float = 1e-10) -> int:
        evals = np.linalg.eigvalsh(self.mat)
        return int(np.sum(evals > tol))

    def eigenpairs(self):
        """Eigenvalues (descending, clipped at 0) and matching eigenvectors."""
        evals, evecs = np.linalg.eigh(self.mat)
        order = np.argsort(evals)[::-1]
        return np.clip(evals[order], 0.0, None), evecs[:, order]


def dicke_state(n: int, l: int) -> SymmetricState:
    """Dicke state of n qubits with l excitations (Hamming weight l)."""
    if not 0 <= l <= n:
        raise ValueError(f"excitation index {l} outside 0..{n}")
    c = np.zeros(n + 1, dtype=complex)
    c[l] = 1.0
    return SymmetricState(n, c)


def ghz_state(n: int) -> SymmetricState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    c = np.zeros(n + 1, dtype=complex)
    c[0] = c[n] = 1.0 / math.sqrt(2.0)
    return SymmetricState(n, c)


def w_state(n: int) -> SymmetricState:
    """Single-excitation Dicke state."""
    return dicke_state(n, 1)


def expand_to_full(s: SymmetricState) -> FullState:
    """Dense computational-basis expansion of a symmetric state."""
    if s.n > FullState.MAX_DENSE:
        raise ValueError(f"n={s.n} too large for dense expansion")
    w = hamming_weights(s.n)
    return FullState(s.n, s.c[w] / sqrt_binomials(s.n)[w])


def project_to_symmetric(f: FullState, tol: float = DEFAULT_TOL):
    """Project a dense state onto the symmetric subspace.

    Returns ``(SymmetricState, residual)`` where residual is the norm of the
    discarded non-symmetric component, computed from the difference vector
    (the identity residual^2 = 1 - sum |c_l|^2 loses half the digits near
    zero).  Raises for states with numerically no symmetric part (e.g. the
    two-qubit singlet).
    """
    w = hamming_weights(f.n)
    root = sqrt_binomials(f.n)
    c = np.array([f.amp[w == l].sum() for l in range(f.n + 1)], dtype=complex) / root
    projected = c[w] / root[w]
    residual = float(np.linalg.norm(f.amp - projected))
    if float(np.sum(np.abs(c) ** 2)) < tol:
        raise ValueError("state has no symmetric component")
    return SymmetricState(f.n, c), residual


def overlap(x, y) -> complex:
    """Inner product <x|y> of two states; mixed representations are expanded."""
    if x.n != y.n:
        raise ValueError("qubit counts differ")
    if isinstance(x, SymmetricState) and isinstance(y, SymmetricState):
        return complex(np.vdot(x.c, y.c))
    xa = x.amp if isinstance(x, FullState) else expand_to_full(x).amp
    ya = y.amp if isinstance(y, FullState) else expand_to_full(y).amp
    return complex(np.vdot(xa, ya))


def fidelity(x, y) -> float:
    """|<x|y>|, insensitive to either state's phase convention."""
    return abs(overlap(x, y))


def symmetrize_by_permutations(spinors) -> SymmetricState:
    """Sum of all N! permuted tensor products, normalized.

    Literal construction, exponentially slow; kept as the independent oracle
    for the polynomial symmetrization path.  Capped at 9 qubits.
    """
    spinors = list(spinors)
    n = len(spinors)
    if not 1 <= n <= 9:
        raise ValueError("permutation symmetrization supports 1..9 qubits")
    vecs = [sp.vec() for sp in spinors]
    total = np.zeros(2**n, dtype=complex)
    for perm in itertools.permutations(range(n)):
        term = vecs[perm[0]]
        for q in perm[1:]:
            term = np.kron(term, vecs[q])
        total += term
    if np.linalg.norm(total) < 1e-14:
        raise ValueError("symmetrization vanished")
    sym, residual = project_to_symmetric(FullState(n, total))
    assert residual < 1e-10
    return sym


def random_symmetric_state(n, rng, zero_head: int = 0, zero_tail: int = 0) -> SymmetricState:
    """Haar-like random symmetric state; optionally zero the first/last coefficients."""
    if zero_head + zero_tail > n:
        raise ValueError("cannot zero every coefficient")
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    if zero_head:
        c[:zero_head] = 0.0
    if zero_tail:
        c[n + 1 - zero_tail:] = 0.0
    return SymmetricState(n, c)


def random_full_state(n, rng) -> FullState:
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return FullState(n, amp)


def random_su2(rng) -> np.ndarray:
    """Haar-random SU(2) matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))
    det = np.linalg.det(q)
    return q / np.sqrt(det)


def random_ilo(rng, min_det: float = 1e-3) -> np.ndarray:
    """Random invertible 2x2 complex matrix (resampled away from singularity)."""
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) > min_det * np.linalg.norm(m) ** 2 / 2:
            return m
