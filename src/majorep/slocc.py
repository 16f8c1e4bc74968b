"""SLOCC family classification for symmetric states.

Two symmetric states connected by stochastic local operations share the same
degeneracy configuration: the sorted multiplicities of their Majorana points.
The configuration is a complete family label; for diversity degree >= 4 each
configuration still contains a continuum of inequivalent states, so equality
of configurations is necessary but not sufficient there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .states import SymmetricState
from .stellar import apply_single_qubit_map, majorana_points

COND_WARN = 1e8


@dataclass(frozen=True)
class DegeneracyConfiguration:
    """Sorted Majorana-point multiplicities n_1 >= ... >= n_d."""

    mults: tuple[int, ...]

    def __post_init__(self):
        mults = tuple(int(m) for m in self.mults)
        if not mults or any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if list(mults) != sorted(mults, reverse=True):
            raise ValueError("multiplicities must be sorted non-increasing")
        object.__setattr__(self, "mults", mults)

    @property
    def n(self) -> int:
        return sum(self.mults)

    @property
    def diversity(self) -> int:
        return len(self.mults)

    def label(self) -> str:
        return "D_{" + ",".join(str(m) for m in self.mults) + "}"


@dataclass(frozen=True)
class LocalOperation:
    """Invertible 2x2 map applied identically to every qubit."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("operation must be 2x2")
        if abs(np.linalg.det(m)) < 1e-12 * np.linalg.norm(m) ** 2:
            raise ValueError("operation is singular")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.m))

    @property
    def cond(self) -> float:
        return float(np.linalg.cond(self.m))


def classify(s: SymmetricState) -> DegeneracyConfiguration:
    """Degeneracy configuration of a symmetric state, from its verified constellation."""
    return DegeneracyConfiguration(majorana_points(s).multiplicities)


def apply_ilo(s: SymmetricState, a) -> SymmetricState:
    """Apply an identical invertible local operation to every qubit.

    Acts on the amplitudes without locating the roots (``apply_single_qubit_map``)
    and renormalizes; the degeneracy configuration is preserved, up to the
    rounding an ill-conditioned map amplifies.
    """
    op = a if isinstance(a, LocalOperation) else LocalOperation(np.asarray(a))
    if op.cond > COND_WARN:
        warnings.warn(
            f"local operation condition number {op.cond:.2e}; result may be inaccurate",
            stacklevel=2,
        )
    return apply_single_qubit_map(s, op.m)


def same_family(s1: SymmetricState, s2: SymmetricState) -> bool:
    """True when both states carry the same degeneracy configuration.

    This is family equality, not full SLOCC equivalence: configurations with
    diversity degree >= 4 contain continuous ranges of SLOCC classes.
    """
    if s1.n != s2.n:
        raise ValueError("qubit counts differ")
    return classify(s1) == classify(s2)
