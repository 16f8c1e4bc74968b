"""JSON and CSV round-trips for the documented wire formats.

State document:        {"n", "basis": "dicke"|"computational", "re", "im"}
Constellation:         {"n", "points": [{"alpha", "beta", "mult"}]}  (beta = pi is infinity)
Density matrix:        {"dim", "basis": "symmetric"|"computational", "k", "re", "im"}
Configuration:         {"mults", "diversity", "label"}
"""

from __future__ import annotations

import io
import numbers

import numpy as np

from .geomeasure import EntanglementReport
from .slocc import DegeneracyConfiguration
from .states import DensityMatrix, FullState, SymmetricState
from .stellar import MajoranaConstellation, ProjectiveRoot


class FormatError(ValueError):
    """Document does not match the expected schema."""


def _require(doc: dict, *keys):
    for key in keys:
        if key not in doc:
            raise FormatError(f"missing field {key!r}")


def _integer(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FormatError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _complex_entries(doc: dict) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != im.shape:
        raise FormatError(f"re and im shapes differ: {re.shape} vs {im.shape}")
    bad = np.flatnonzero(~(np.isfinite(re) & np.isfinite(im)))
    if bad.size:
        raise FormatError(f"non-finite entries (NaN or infinity) at flat indices {bad.tolist()}")
    return re + 1j * im


def state_to_dict(state) -> dict:
    if isinstance(state, SymmetricState):
        vec, basis = state.c, "dicke"
    elif isinstance(state, FullState):
        vec, basis = state.amp, "computational"
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return {
        "n": state.n,
        "basis": basis,
        "re": [float(x) for x in vec.real],
        "im": [float(x) for x in vec.imag],
    }


def state_from_dict(doc: dict):
    _require(doc, "n", "basis", "re", "im")
    vec = _complex_entries(doc)
    n = _integer(doc, "n")
    if doc["basis"] == "dicke":
        return SymmetricState(n, vec)
    if doc["basis"] == "computational":
        return FullState(n, vec)
    raise FormatError(f"unknown basis {doc['basis']!r}")


def constellation_to_dict(const: MajoranaConstellation) -> dict:
    points = []
    for root, mult in const.points:
        alpha, beta = root.angles()
        points.append({"alpha": float(alpha), "beta": float(beta), "mult": int(mult)})
    return {"n": const.n, "points": points}


def constellation_from_dict(doc: dict) -> MajoranaConstellation:
    _require(doc, "n", "points")
    points = []
    for entry in doc["points"]:
        _require(entry, "alpha", "beta", "mult")
        points.append(
            (ProjectiveRoot.from_angles(float(entry["alpha"]), float(entry["beta"])),
             _integer(entry, "mult"))
        )
    return MajoranaConstellation(_integer(doc, "n"), tuple(points))


def constellation_to_csv(const: MajoranaConstellation) -> str:
    buf = io.StringIO()
    buf.write("alpha,beta,multiplicity\n")
    for root, mult in const.points:
        alpha, beta = root.angles()
        buf.write(f"{alpha:.12f},{beta:.12f},{mult}\n")
    return buf.getvalue()


def density_to_dict(dm: DensityMatrix) -> dict:
    return {
        "dim": dm.dim,
        "basis": dm.basis,
        "k": dm.k,
        "re": [[float(x) for x in row] for row in dm.mat.real],
        "im": [[float(x) for x in row] for row in dm.mat.imag],
    }


def density_from_dict(doc: dict) -> DensityMatrix:
    _require(doc, "dim", "basis", "k", "re", "im")
    dm = DensityMatrix(_complex_entries(doc), str(doc["basis"]), _integer(doc, "k"))
    if dm.dim != _integer(doc, "dim"):
        raise FormatError("dim field does not match matrix shape")
    return dm


def configuration_to_dict(config: DegeneracyConfiguration) -> dict:
    return {
        "mults": list(config.mults),
        "diversity": config.diversity,
        "label": config.label(),
    }


def report_to_dict(report: EntanglementReport) -> dict:
    return {
        "eg": report.eg,
        "log_eg": report.log_eg,
        "f_max": report.f_max,
        "ring": report.ring,
        "cpps": [{"alpha": p.alpha, "beta": p.beta} for p in report.cpps],
    }


def landscape_to_csv(alphas, betas, f_grid) -> str:
    buf = io.StringIO()
    buf.write("alpha,beta,F\n")
    for ia, alpha in enumerate(alphas):
        for ib, beta in enumerate(betas):
            buf.write(f"{alpha:.12f},{beta:.12f},{f_grid[ia, ib]:.12e}\n")
    return buf.getvalue()
