"""Reduced density matrices, entanglement witnesses, and state reconstruction.

The two-distinct-spinor family and its non-symmetric generalization have
rank-2 marginals over any N-1 qubits, which makes a whole-state search
tractable: purify the first marginal with a single ancilla qubit, then pick
the residual 2x2 unitary gauge on the ancilla that matches the second
marginal.  That match is a quadratic form in the gauge, so the best gauges
are the top eigenvectors of a 4x4 matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    FullState,
    SymmetricState,
    binom,
    hamming_weights,
)


class MarginalRankError(ValueError):
    """First marginal has rank above 2; outside the supported family."""


class InconsistentMarginalsError(ValueError):
    """No pure state reproduces both marginals to the requested tolerance."""


def rdm_symmetric(s: SymmetricState, k: int) -> DensityMatrix:
    """Partial trace over n-k qubits, in the Dicke basis of the k kept qubits.

    Splitting each global Dicke state across the cut gives amplitudes
    A[j, m] = c[j+m] sqrt(C(k,j) C(n-k,m) / C(n,j+m)), and the reduced state
    is A A^dagger.  For k = n-1 the rank is at most 2.
    """
    n = s.n
    if not 1 <= k < n:
        raise ValueError(f"retained count {k} outside 1..{n - 1}")
    rest = n - k
    a = np.zeros((k + 1, rest + 1), dtype=complex)
    for j in range(k + 1):
        for m in range(rest + 1):
            a[j, m] = s.c[j + m] * math.sqrt(binom(k, j) * binom(rest, m) / binom(n, j + m))
    return DensityMatrix(a @ a.conj().T, "symmetric", k)


def rdm_full(f: FullState, keep) -> DensityMatrix:
    """Exact partial trace of a dense pure state onto the ordered qubit subset."""
    keep = tuple(int(q) for q in keep)
    if not keep:
        raise ValueError("keep set is empty")
    if len(set(keep)) != len(keep) or any(not 1 <= q <= f.n for q in keep):
        raise ValueError(f"keep set {keep} invalid for {f.n} qubits")
    axes = [q - 1 for q in keep]
    rest = [ax for ax in range(f.n) if ax not in axes]
    t = f.amp.reshape([2] * f.n).transpose(axes + rest).reshape(2 ** len(keep), -1)
    return DensityMatrix(t @ t.conj().T, "computational", len(keep))


def dicke_basis_matrix(k: int) -> np.ndarray:
    """2^k x (k+1) isometry whose columns are the k-qubit Dicke states."""
    w = hamming_weights(k)
    b = np.zeros((2**k, k + 1), dtype=complex)
    for i in range(2**k):
        b[i, w[i]] = 1.0 / math.sqrt(binom(k, int(w[i])))
    return b


def to_computational(dm: DensityMatrix) -> DensityMatrix:
    """Embed a symmetric-basis density matrix into the computational basis."""
    if dm.basis == "computational":
        return dm
    b = dicke_basis_matrix(dm.k)
    return DensityMatrix(b @ dm.mat @ b.conj().T, "computational", dm.k)


def concurrence(rho, tol: float = 1e-8) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError("concurrence needs a 4x4 matrix")
    if np.max(np.abs(mat - mat.conj().T)) > tol or np.linalg.eigvalsh(mat).min() < -tol:
        raise ValueError("input is not a valid density matrix")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    lam = np.sqrt(np.clip(np.linalg.eigvals(mat @ yy @ mat.conj() @ yy).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def three_tangle(f: FullState) -> float:
    """Residual three-party entanglement of a three-qubit pure state."""
    if f.n != 3:
        raise ValueError("tangle is defined for 3 qubits")
    a = f.amp
    d1 = (
        a[0] ** 2 * a[7] ** 2
        + a[1] ** 2 * a[6] ** 2
        + a[2] ** 2 * a[5] ** 2
        + a[4] ** 2 * a[3] ** 2
    )
    d2 = (
        a[0] * a[7] * a[3] * a[4]
        + a[0] * a[7] * a[5] * a[2]
        + a[0] * a[7] * a[6] * a[1]
        + a[3] * a[4] * a[5] * a[2]
        + a[3] * a[4] * a[6] * a[1]
        + a[5] * a[2] * a[6] * a[1]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def dnk_state(n: int, k: int, d0: complex, d1: complex) -> SymmetricState:
    """Representative of the two-spinor family: n-k spinors |0> and k copies
    of d0|0> + d1|1>, symmetrized.

    Weight coefficients are c_r = sqrt(C(n,r)) (n-r)!/((n-k)!(k-r)!)
    d0^(k-r) d1^r for r <= k, zero above, then normalized.
    """
    if not 1 <= k <= n // 2:
        raise ValueError(f"k={k} outside 1..{n // 2}")
    d0, d1 = complex(d0), complex(d1)
    if d1 == 0:
        raise ValueError("d1 = 0 leaves the two-spinor family")
    norm = math.hypot(abs(d0), abs(d1))
    d0, d1 = d0 / norm, d1 / norm
    c = np.zeros(n + 1, dtype=complex)
    for r in range(k + 1):
        alpha_r = (
            math.factorial(n - r)
            / (math.factorial(n - k) * math.factorial(k - r))
            * d0 ** (k - r)
            * d1**r
        )
        c[r] = math.sqrt(binom(n, r)) * alpha_r
    return SymmetricState(n, c)


def weight_combinations(n: int, r: int) -> list[tuple[int, ...]]:
    """Weight-r one-position tuples (1-based) in the family's reference order.

    Colexicographic: all tuples within the first n-1 positions come first, so
    the block with qubit n in |0> precedes the block with qubit n in |1>.
    """
    combos = itertools.combinations(range(1, n + 1), r)
    return sorted(combos, key=lambda t: t[::-1])


def _positions_to_index(n: int, positions) -> int:
    idx = 0
    for q in positions:
        idx |= 1 << (n - q)
    return idx


def generalized_dicke_state(n: int, k: int, alphas, a) -> FullState:
    """Superposition of fixed-weight bitstrings with per-string coefficients.

    ``alphas[r]`` multiplies the whole weight-r block and ``a[r][i]`` the i-th
    weight-r bitstring in :func:`weight_combinations` order.  Generally not
    permutation symmetric.
    """
    if n > FullState.MAX_DENSE:
        raise ValueError(f"n={n} too large for dense construction")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    alphas = [complex(x) for x in alphas]
    if len(alphas) != k + 1:
        raise ValueError(f"need {k + 1} block coefficients, got {len(alphas)}")
    amp = np.zeros(2**n, dtype=complex)
    for r in range(k + 1):
        coeffs = np.asarray(a[r], dtype=complex)
        if coeffs.shape != (binom(n, r),):
            raise ValueError(f"weight-{r} block needs {binom(n, r)} coefficients")
        for i, positions in enumerate(weight_combinations(n, r)):
            amp[_positions_to_index(n, positions)] = alphas[r] * coeffs[i]
    if np.linalg.norm(amp) < 1e-14:
        raise ValueError("all coefficients vanish")
    return FullState(n, amp)


def uniqueness_conditions(n: int, k: int, a) -> bool:
    """Whether two marginals determine the generalized state uniquely.

    Requires, among the top-weight coefficients a[k], a nonzero entry whose
    bitstring has qubit 1 in |0> in each of the two blocks (qubit n in |0>
    and qubit n in |1>).
    """
    coeffs = np.asarray(a[k], dtype=complex)
    combos = weight_combinations(n, k)
    if coeffs.shape != (len(combos),):
        raise ValueError(f"weight-{k} block needs {len(combos)} coefficients")
    split = binom(n - 1, k)
    cond1 = any(coeffs[i] != 0 and 1 not in combos[i] for i in range(split))
    cond2 = any(coeffs[i] != 0 and 1 not in combos[i] for i in range(split, len(combos)))
    return cond1 and cond2


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a two-marginal reconstruction.

    ``status`` is "unique" or "ambiguous"; ``candidates`` holds one
    representative per distinct compatible state, best residual first.
    ``gauge_gap`` is the gap between the two largest eigenvalues of the gauge
    form; zero means a continuum of gauges fits equally well.
    """

    status: str
    state: FullState | None
    candidates: tuple
    residual: float
    gauge_gap: float

    @property
    def is_ambiguous(self) -> bool:
        return self.status == "ambiguous"


# U.ravel() = _SU2_BASIS @ q for U = [[a, b], [-conj(b), conj(a)]] and
# q = (Re a, Im a, Re b, Im b) on the unit three-sphere
_SU2_BASIS = np.array(
    [
        [1, 1j, 0, 0],
        [0, 0, 1, 1j],
        [0, 0, -1, 1j],
        [1, -1j, 0, 0],
    ]
)


def reconstruct_from_two_marginals(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    fit_tol: float = 1e-7,
    rank_tol: float = 1e-8,
    distinct_tol: float = 1e-6,
    seed: int | None = None,
) -> ReconstructionResult:
    """Search for an n-qubit pure state with the two given (n-1)-qubit marginals.

    ``rho_a`` covers qubits 1..n-1 and ``rho_b`` qubits 2..n.  The first
    marginal must have rank at most 2; its purification by one ancilla qubit
    is then unique up to a 2x2 unitary on the ancilla.  The mismatch with the
    second marginal is a fixed quadratic form in that gauge, so the best
    gauges are the top eigenvectors of a real symmetric 4x4 matrix; every
    eigenvector within ``fit_tol`` of the second marginal is a candidate.
    Distinct candidates mean the marginals do not pin the state down
    (GHZ-type inputs), which a degenerate top eigenvalue certifies.  The
    search is deterministic: ``seed`` is accepted and ignored.
    """
    rho_a = to_computational(rho_a)
    rho_b = to_computational(rho_b)
    if rho_a.k != rho_b.k:
        raise ValueError("marginals cover different qubit counts")
    n = rho_a.k + 1
    dim = 2 ** (n - 1)

    evals, evecs = rho_a.eigenpairs()
    if len(evals) > 2 and evals[2] > rank_tol:
        raise MarginalRankError(
            f"first marginal has rank above 2 (third eigenvalue {evals[2]:.3e})"
        )
    lam = np.sqrt(np.clip(evals[:2], 0.0, None))
    v = evecs[:, :2]
    target = rho_b.mat

    def amplitudes(q):
        u = (_SU2_BASIS @ q).reshape(2, 2)
        return (v * lam) @ u.T

    def exact_residual(q):
        amp = amplitudes(q).reshape(2, dim)
        rb = amp.T @ amp.conj()
        return float(np.linalg.norm(rb - target))

    # With psi = sum_i lam_i v_i (x) u_i, the induced second marginal is
    # sum_ij lam_i lam_j C_ij (x) u_i u_j*, and orthonormality of the u_i
    # makes |rho_B|^2 constant, so the mismatch is const - 2 uf* . M . uf
    # over uf = U.ravel(); the global phase of U cancels.
    v_split = v.T.reshape(2, 2, -1)  # [i, qubit-1 bit, qubits 2..n-1]
    c_mats = np.einsum("ibr,jbs->ijrs", v_split, v_split.conj())
    t_blocks = target.reshape(-1, 2, target.shape[0] // 2, 2)
    kform = np.einsum(
        "rpsq,ijrs,i,j->ijpq", t_blocks.conj(), c_mats, lam, lam
    )
    mform = kform.transpose(3, 1, 2, 0).reshape(4, 4)
    # for real q, q . (G* M G) . q = q . Re(G* M G) . q
    qform = (_SU2_BASIS.conj().T @ mform @ _SU2_BASIS).real
    weights, gauges = np.linalg.eigh(qform)
    gauge_gap = float(weights[-1] - weights[-2])

    found = []
    # residual^2 falls as the eigenvalue grows, so scan from the top down
    for q in gauges.T[::-1]:
        residual = exact_residual(q)
        if residual > fit_tol:
            break
        found.append((residual, FullState(n, amplitudes(q).reshape(-1))))
    if not found:
        raise InconsistentMarginalsError(
            f"best marginal mismatch {residual:.3e} exceeds tolerance {fit_tol:.1e}"
        )

    found.sort(key=lambda t: t[0])
    classes: list[tuple[float, FullState]] = []
    for residual, state in found:
        if all(
            abs(np.vdot(state.amp, other.amp)) < 1.0 - distinct_tol for _, other in classes
        ):
            classes.append((residual, state))
    candidates = tuple(state for _, state in classes)
    if len(classes) > 1:
        return ReconstructionResult("ambiguous", None, candidates, classes[0][0], gauge_gap)
    return ReconstructionResult("unique", candidates[0], candidates, classes[0][0], gauge_gap)


def _ptrace_apply(delta: np.ndarray, psi_tensor: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply an operator on the given tensor axes, identity elsewhere."""
    k = len(axes)
    op = delta.reshape([2] * (2 * k))
    out = np.tensordot(op, psi_tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def marginal_match_search(
    targets,
    n: int,
    restarts: int = 24,
    tol: float = 1e-6,
    distinct_tol: float = 1e-6,
    seed: int | None = 0,
    maxiter: int = 2000,
) -> list[FullState]:
    """All pure n-qubit states reproducing every target marginal.

    ``targets`` is a list of (keep, DensityMatrix) pairs.  Runs multistart
    local least squares over the full 2^n-dimensional state space with an
    analytic gradient; minima with residual below ``tol`` are deduplicated by
    fidelity and returned best first.  An empty list is a valid outcome.
    """
    from scipy import optimize

    if n > 8:
        raise ValueError("search supported up to 8 qubits")
    prepared = []
    for keep, dm in targets:
        keep = tuple(int(q) for q in keep)
        mat = to_computational(dm).mat if isinstance(dm, DensityMatrix) else np.asarray(dm)
        prepared.append(([q - 1 for q in keep], mat))

    dim = 2**n

    def split(x):
        return x[:dim] + 1j * x[dim:]

    def objective(x):
        psi = split(x)
        s = float(np.vdot(psi, psi).real)
        tens = psi.reshape([2] * n)
        f = 0.0
        grad_psi = np.zeros(dim, dtype=complex)
        for axes, tgt in prepared:
            rest = [ax for ax in range(n) if ax not in axes]
            m = tens.transpose(axes + rest).reshape(2 ** len(axes), -1)
            delta = (m @ m.conj().T) / s - tgt
            f += float(np.sum(np.abs(delta) ** 2))
            e_psi = _ptrace_apply(delta, tens, axes).reshape(-1)
            inner = float(np.vdot(psi, e_psi).real)
            grad_psi += 2.0 * (e_psi / s - (inner / s**2) * psi)
        grad = np.concatenate([2.0 * grad_psi.real, 2.0 * grad_psi.imag])
        return f, grad

    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(restarts):
        x0 = rng.standard_normal(2 * dim)
        starts.append(x0 / np.linalg.norm(x0))

    def fit(x0):
        res = optimize.minimize(
            objective, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": maxiter, "ftol": 1e-18, "gtol": 1e-12},
        )
        return math.sqrt(max(res.fun, 0.0)), res.x

    fits = [fit(x0) for x0 in starts]

    hits = []
    for residual, x in fits:
        if residual <= tol:
            hits.append((residual, FullState(n, split(x))))

    hits.sort(key=lambda t: t[0])
    out: list[FullState] = []
    for _, state in hits:
        if all(abs(np.vdot(state.amp, other.amp)) < 1.0 - distinct_tol for other in out):
            out.append(state)
    return out
