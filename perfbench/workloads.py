"""Inputs, operations and correctness checks of the four workloads.

Every input is generated from the workload seed during set-up; the package
only ever sees the generated inputs.  A round is a fixed list of slots, one
operation each; a slot's inputs form a pool that successive rounds walk
through.  Each operation is checked after the timed phase against reference
values computed here, outside the timed phase and without the package's
algorithms, so a faster wrong answer shows as a failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import majorep as mj
from majorep import serialize

REBUILD_TOL = 1e-9
EG_TOL = 1e-8
FIDELITY_TOL = 1e-8
CPP_TOL = 1e-6


@dataclass
class Slot:
    """One operation per round; ``group`` is small / large / degenerate / other."""

    cls: str
    group: str
    pool: list
    known_defect: bool = False  # degenerate family: rebuild and label measured, not gated


@dataclass
class Outcome:
    ok: bool
    kind: str = ""  # what failed, when not ok
    info: dict = field(default_factory=dict)


class Calls:
    """Public entry points the operations call; the traced run swaps in wrappers."""

    def __init__(self):
        self.majorana_points = mj.majorana_points
        self.state_from_constellation = mj.state_from_constellation
        self.classify = mj.classify
        self.apply_ilo = mj.apply_ilo
        self.geometric_measure = mj.geometric_measure
        self.reconstruct_from_two_marginals = mj.reconstruct_from_two_marginals


# ---------------------------------------------------------------- references
def symmetric_from_points(const) -> np.ndarray:
    """Dicke coefficients c_r = E_r / sqrt(C(n, r)) of the symmetrized spinors,
    where E_r is the x^r coefficient of prod (w_i + z_i x) over the points."""
    poly = np.array([1.0 + 0.0j])
    for root, mult in const.points:
        for _ in range(mult):
            poly = np.convolve(poly, np.array([root.w, root.z]))
    n = len(poly) - 1
    return poly / np.sqrt([math.comb(n, r) for r in range(n + 1)])


def landscape(c: np.ndarray, alphas, betas) -> np.ndarray:
    """|<alpha, beta|s>|^2 from the coherent-state expansion, on a grid."""
    n = len(c) - 1
    r = np.arange(n + 1)
    mag = np.sqrt([float(math.comb(n, k)) for k in r])
    half = np.asarray(betas, dtype=float)[None, :] / 2.0
    radial = mag[:, None] * np.cos(half) ** r[:, None] * np.sin(half) ** (n - r)[:, None]
    phase = np.exp(1j * np.outer(n - r, np.asarray(alphas, dtype=float)))
    amp = (c[:, None] * phase).T @ radial
    return np.abs(amp) ** 2


def reference_fmax(c: np.ndarray, grid: int = 96, keep: int = 6, steps: int = 24) -> float:
    """Largest overlap found by a fine grid plus shrinking local grids around its best cells."""
    alphas = np.linspace(0.0, 2 * math.pi, 2 * grid, endpoint=False)
    betas = np.linspace(0.0, math.pi, grid + 1)
    f = landscape(c, alphas, betas)
    best = 0.0
    for idx in np.argsort(f, axis=None)[::-1][:keep]:
        ia, ib = np.unravel_index(idx, f.shape)
        a0, b0, h = alphas[ia], betas[ib], math.pi / grid
        for _ in range(steps):
            local_a = a0 + h * np.linspace(-2, 2, 9)
            local_b = np.clip(b0 + h * np.linspace(-2, 2, 9), 0.0, math.pi)
            fl = landscape(c, local_a, local_b)
            ja, jb = np.unravel_index(int(np.argmax(fl)), fl.shape)
            a0, b0, h = local_a[ja], local_b[jb], h / 3.0
        best = max(best, float(fl.max()))
    return max(best, float(f.max()))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def rebuild_distance(const, c: np.ndarray) -> float:
    return mj.canonical_distance(symmetric_from_points(const), c)


# ------------------------------------------------------------ constellations
def random_spinor(rng) -> mj.Spinor:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return mj.Spinor(v[0], v[1])


def degenerate_state(mults, rng) -> mj.SymmetricState:
    spinors = []
    for m in mults:
        spinors += [random_spinor(rng)] * m
    return mj.symmetrize(spinors)


def family_label(mults) -> str:
    return "D_{" + ",".join(map(str, mults)) + "}"


def degenerate_families(n: int):
    """D_{n-1,1}, D_{n/2,n/2}, D_{n-2,1,1}, D_{3,...,3}, D_{10,10,10} where they exist at n."""
    fams = [(n - 1, 1), (n // 2, n // 2), (n - 2, 1, 1)]
    if n % 3 == 0:
        fams.append((3,) * (n // 3))
    if n == 30:
        fams.append((10, 10, 10))
    return fams


class Constellations:
    """Random states and degenerate families through points, rebuild, classify, ILO, classify.

    The local map is a Haar-random SU(2) matrix: it keeps chordal distances,
    so an operation's cost and label depend on the state's own root
    structure.  General invertible maps squeeze roots together and are
    measured on a probe in the traced run (``slocc.general_ilo.*``).  The
    families at n = 24 and 30 cost 0.1 to 3 s per input, varying a
    hundredfold between inputs of one family, so a few of them would decide a
    20 s run's throughput; they run once each after the timed phase
    (``after``), checked and counted like every other operation.
    """

    name = "constellations"
    random_sizes = ((4, 2), (8, 3), (16, 2), (32, 1))  # (N, slots per round)
    degenerate_sizes = (8, 16)
    after_sizes = (24, 30)
    pool = 32  # fresh inputs each round: per-input cost varies a hundredfold

    def __init__(self, rng, smoke: bool = False):
        if smoke:
            self.random_sizes, self.degenerate_sizes, self.after_sizes, self.pool = \
                ((4, 1), (8, 1)), (8,), (), 1
        self.slots = []
        top = self.random_sizes[-1][0]
        for n, count in self.random_sizes:
            group = "small" if n == self.random_sizes[0][0] else "large" if n == top else "other"
            for _ in range(count):
                pool = [(mj.random_symmetric_state(n, rng), mj.random_su2(rng), (1,) * n)
                        for _ in range(self.pool)]
                self.slots.append(Slot(f"random@{n}", group, pool))
        for n in self.degenerate_sizes:
            for mults in degenerate_families(n):
                self.slots.append(Slot(f"{family_label(mults)}@{n}", "degenerate",
                                       self.family_pool(mults, self.pool, rng),
                                       known_defect=True))
        self.after = [Slot(f"{family_label(mults)}@{n}", "degenerate",
                           self.family_pool(mults, 1, rng), known_defect=True)
                      for n in self.after_sizes for mults in degenerate_families(n)]

    @staticmethod
    def family_pool(mults, size, rng):
        return [(degenerate_state(mults, rng), mj.random_su2(rng), tuple(mults))
                for _ in range(size)]

    def warm_up(self, calls: Calls, rng) -> None:
        s = mj.random_symmetric_state(4, rng)
        calls.state_from_constellation(calls.majorana_points(s))
        calls.classify(calls.apply_ilo(s, mj.random_su2(rng)))

    @staticmethod
    def run(calls: Calls, item):
        s, a, _ = item
        const = calls.majorana_points(s)
        rebuilt = calls.state_from_constellation(const)
        before = calls.classify(s)
        after = calls.classify(calls.apply_ilo(s, a))
        return const, rebuilt, before.mults, after.mults

    @staticmethod
    def check(item, out) -> Outcome:
        """Gate every operation; on degenerate families, measure the known defect.

        Every input: no raised error, a constellation and two labels that each
        count n points, and a ``state_from_constellation`` result equal to the
        independent expansion of the constellation it was given.  Generic
        inputs: the constellation rebuilds the input within 1e-9 and both labels
        are all ones.  On the degenerate families the package mislabels some
        inputs and returns an unchecked fallback constellation for a few (its
        multiplicity defect, ROADMAP items 2 and 3); there the rebuild distance
        and the family label are measured, not gated: ``info["defect"]`` names
        what went wrong and the run reports it by family.
        """
        s, _, mults = item
        const, rebuilt, before, after = out
        expanded = symmetric_from_points(const)
        dist = mj.canonical_distance(expanded, s.c)
        info = {"rebuild": dist, "labels_ok": int(before == mults) + int(after == mults),
                "family": f"{family_label(mults)}@{s.n}"}
        counts = (sum(m for _, m in const.points), sum(before), sum(after))
        if counts != (s.n,) * 3:
            return Outcome(False, "count", info)
        if mj.canonical_distance(rebuilt.c, expanded) > REBUILD_TOL:
            return Outcome(False, "rebuild", info)
        wrong = "rebuild" if not dist <= REBUILD_TOL else "label" if info["labels_ok"] < 2 else ""
        if set(mults) != {1}:
            if wrong:
                info["defect"] = wrong
            return Outcome(True, info=info)
        return Outcome(not wrong, wrong, info)


# ------------------------------------------------------------------- entangle
class Entangle:
    name = "entangle"
    after: list = []
    # (N, slots per round): two N=32 slots keep the ten slowest operations of a run
    # inside one class, and three Dicke slots per size put the median well inside
    # the cluster of cheap inputs, so neither statistic jumps between classes
    random_sizes = ((4, 2), (8, 1), (16, 1), (32, 2))
    special_sizes = (8, 16, 24)
    pool = 12

    def __init__(self, rng, smoke: bool = False):
        if smoke:
            self.random_sizes, self.special_sizes, self.pool = ((4, 1), (8, 1)), (8,), 1
        self.slots = []
        top = self.random_sizes[-1][0]
        for n, count in self.random_sizes:
            group = "small" if n == self.random_sizes[0][0] else "large" if n == top else "other"
            for _ in range(count):
                pool = [("random", mj.random_symmetric_state(n, rng), None)
                        for _ in range(self.pool)]
                self.slots.append(Slot(f"random@{n}", group, pool))
        for n in self.special_sizes:
            for _ in range(3):
                pool = []
                for _ in range(self.pool):
                    l = int(rng.integers(1, n))
                    pool.append(("dicke", mj.dicke_state(n, l), l))
                self.slots.append(Slot(f"dicke@{n}", "degenerate", pool))
            self.slots.append(Slot(f"ghz@{n}", "degenerate", [("ghz", mj.ghz_state(n), None)]))

    def warm_up(self, calls: Calls, rng) -> None:
        calls.geometric_measure(mj.random_symmetric_state(4, rng))

    @staticmethod
    def run(calls: Calls, item):
        return calls.geometric_measure(item[1])

    @staticmethod
    def check(item, report) -> Outcome:
        kind, s, l = item
        betas = [p.beta for p in report.cpps]
        if kind == "dicke":
            eg, point = mj.dicke_closed_form(s.n, l)
            found = int(any(abs(b - point.beta) <= CPP_TOL for b in betas))
            info = {"expected": 1, "found": found}
            if abs(report.eg - eg) > EG_TOL:
                return Outcome(False, "value", info)
            return Outcome(report.ring and found == 1, "cpp", info)
        if kind == "ghz":
            found = sum(any(abs(b - pole) <= CPP_TOL for b in betas) for pole in (0.0, math.pi))
            info = {"expected": 2, "found": found}
            if abs(report.eg - 0.5) > EG_TOL:
                return Outcome(False, "value", info)
            return Outcome(found == 2, "cpp", info)
        if not report.cpps:
            return Outcome(False, "cpp")
        claimed = 1.0 - report.eg
        at_cpp = float(landscape(s.c, [report.cpps[0].alpha], [report.cpps[0].beta])[0, 0])
        f_ref = reference_fmax(s.c)
        return Outcome(abs(at_cpp - claimed) <= EG_TOL and f_ref <= claimed + EG_TOL, "value",
                       {"f_ref_gap": f_ref - claimed})


# ---------------------------------------------------------------- reconstruct
def marginals(full: mj.FullState, timer: list):
    t0 = time.perf_counter()
    rho_a = mj.rdm_full(full, range(1, full.n))
    rho_b = mj.rdm_full(full, range(2, full.n + 1))
    timer.append(time.perf_counter() - t0)
    return rho_a, rho_b


def random_gdicke(n: int, k: int, rng) -> mj.FullState:
    alphas = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
    a = [rng.standard_normal(math.comb(n, r)) + 1j * rng.standard_normal(math.comb(n, r))
         for r in range(k + 1)]
    return mj.generalized_dicke_state(n, k, alphas, a)


class Reconstruct:
    """Two-marginal reconstruction of dnk, generalized Dicke and GHZ states.

    dnk states use k = n // 2, the family member with the widest support: the
    cost of the dense eigensolve depends on k.  n = 12 costs about 5 s per
    call, so a 20 s run would hold three or four of them and no steady tail;
    it runs once per run after the timed phase (``after``), checked and
    counted, its time in the report.
    """

    name = "reconstruct"
    # (n, pool size): fresh inputs each round where memory allows (n = 11 holds 32 MB each)
    dnk_sizes = ((6, 32), (8, 32), (10, 8), (11, 3))
    after_sizes = (12,)
    gdicke_sizes = (6, 8)
    ghz_sizes = (6, 8, 10)
    pool = 32

    def __init__(self, rng, smoke: bool = False):
        if smoke:
            self.dnk_sizes, self.after_sizes, self.gdicke_sizes, self.ghz_sizes, self.pool = \
                ((5, 1), (6, 1)), (), (6,), (6,), 1
        self.rdm_full_s: list[float] = []
        self.slots = []
        top = self.dnk_sizes[-1][0]
        for n, size in self.dnk_sizes:
            group = ("small" if n == self.dnk_sizes[0][0] else "large" if n == top else "other")
            self.slots.append(Slot(f"dnk@{n}", group, [self.dnk(n, rng) for _ in range(size)]))
        self.after = [Slot(f"dnk@{n}", "large", [self.dnk(n, rng)]) for n in self.after_sizes]
        for n in self.gdicke_sizes:
            pool = []
            for _ in range(self.pool):
                full = random_gdicke(n, 2, rng)
                pool.append(("unique", full.amp, marginals(full, self.rdm_full_s)))
            self.slots.append(Slot(f"gdicke@{n}", "other", pool))
        for n in self.ghz_sizes:
            full = mj.expand_to_full(mj.ghz_state(n))
            self.slots.append(Slot(f"ghz@{n}", "degenerate",
                                   [("ambiguous", full.amp, marginals(full, self.rdm_full_s))]))

    def dnk(self, n: int, rng):
        d0, d1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        full = mj.expand_to_full(mj.dnk_state(n, n // 2, d0, d1))
        return "unique", full.amp, marginals(full, self.rdm_full_s)

    def warm_up(self, calls: Calls, rng) -> None:
        full = mj.expand_to_full(mj.dnk_state(4, 1, 0.6, 0.8))
        calls.reconstruct_from_two_marginals(*marginals(full, []))

    @staticmethod
    def run(calls: Calls, item):
        return calls.reconstruct_from_two_marginals(*item[2])

    @staticmethod
    def check(item, result) -> Outcome:
        expect, amp, _ = item
        if expect == "ambiguous" or result.is_ambiguous:
            return Outcome(expect == "ambiguous" and result.is_ambiguous, "status")
        fid = fidelity(result.state.amp, amp)
        return Outcome(fid >= 1.0 - FIDELITY_TOL, "fidelity", {"infidelity": 1.0 - fid})


# ------------------------------------------------------------------- pipeline
class Pipeline:
    """CLI child processes, one at a time, each fed the previous one's stdout."""

    name = "pipeline"
    after: list = []
    chains = (("points", "large"), ("classify", "large"),
              ("entangle", "small"), ("reconstruct", "degenerate"))
    pool = 8

    workdir = os.path.join(".perfbench", "tmp")

    def __init__(self, rng, smoke: bool = False):
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.slots = []
        for chain, group in self.chains:
            pool = []
            for _ in range(1 if smoke else self.pool):
                if chain == "reconstruct":
                    d0, d1 = rng.uniform(0.2, 1.0, 2)
                    pool.append((chain, f"{d0:.6f}", f"{d1:.6f}"))
                else:
                    pool.append((chain, int(rng.integers(0, 2**31)), None))
            self.slots.append(Slot(f"{chain}@cli", group, pool))
        self.children: list[tuple[str, float]] = []  # (subcommand, wall s)

    def cli(self, *args, stdin: str | None = None) -> str:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "majorep.cli", *args], input=stdin,
                              capture_output=True, text=True, env=self.env, timeout=120)
        self.children.append((args[0], time.perf_counter() - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"majorep {args[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
        return proc.stdout

    def warm_up(self, calls: Calls, rng) -> None:
        self.cli("gen", "ghz", "--n", "2")
        self.children.clear()

    def run(self, calls: Calls, item):
        chain, a, b = item
        if chain == "reconstruct":
            state = self.cli("gen", "dnk", "--n", "6", "--k", "2", "--d0", a, "--d1", b)
            paths = [os.path.join(self.workdir, f"rho_{tag}.json") for tag in "ab"]
            for path, keep in zip(paths, ("1,2,3,4,5", "2,3,4,5,6")):
                with open(path, "w") as fh:
                    fh.write(self.cli("rdm", "--keep", keep, stdin=state))
            return state, self.cli("reconstruct", *paths)
        if chain == "entangle":
            state = self.cli("gen", "ghz", "--n", "4")
            return state, self.cli("entangle", stdin=state)
        state = self.cli("gen", "random", "--n", "8", "--seed", str(a))
        extra = ("--json",) if chain == "classify" else ()
        return state, self.cli(chain, *extra, stdin=state)

    @staticmethod
    def check(item, out) -> Outcome:
        chain = item[0]
        state_doc, result = out
        state = serialize.state_from_dict(json.loads(state_doc))
        if chain == "points":
            const = serialize.constellation_from_dict(json.loads(result))
            dist = rebuild_distance(const, state.c)
            return Outcome(dist <= REBUILD_TOL, "rebuild", {"rebuild": dist})
        if chain == "classify":
            return Outcome(json.loads(result)["mults"] == [1] * state.n, "label")
        if chain == "entangle":
            doc = json.loads(result)
            betas = [p["beta"] for p in doc["cpps"]]
            poles = sum(any(abs(b - pole) <= CPP_TOL for b in betas) for pole in (0.0, math.pi))
            return Outcome(abs(doc["eg"] - 0.5) <= EG_TOL and poles == 2, "value")
        got = serialize.state_from_dict(json.loads(result))
        fid = fidelity(got.amp, mj.expand_to_full(state).amp)
        return Outcome(fid >= 1.0 - FIDELITY_TOL, "fidelity")


WORKLOADS = {w.name: w for w in (Constellations, Entangle, Reconstruct, Pipeline)}
