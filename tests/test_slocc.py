import numpy as np
import pytest

import majorep as mj
from majorep.stellar import REBUILD_TOL
from oracles import collective_operator

OMEGA = np.exp(2j * np.pi / 3)
ETA_TO_GHZ = np.array([[1.0, OMEGA], [1.0, OMEGA**2]])


class TestClassify:
    def test_product_state(self, rng):
        sp = mj.Spinor.from_angles(0.3, 1.2)
        s = mj.symmetrize([sp] * 6)
        config = mj.classify(s)
        assert config.mults == (6,)
        assert config.diversity == 1
        assert config.label() == "D_{6}"

    def test_dicke_states(self):
        for n, k in [(4, 1), (5, 2), (8, 3)]:
            assert mj.classify(mj.dicke_state(n, k)).mults == (n - k, k)

    def test_ghz_full_diversity(self):
        for n in (3, 5, 8):
            config = mj.classify(mj.ghz_state(n))
            assert config.mults == (1,) * n
            assert config.diversity == n

    def test_dnk_family(self):
        for n, k in [(5, 2), (7, 3), (8, 4)]:
            s = mj.dnk_state(n, k, 0.6, 0.8j)
            assert mj.classify(s).mults == (n - k, k)


class TestApplyIlo:
    def test_identity(self, rng):
        s = mj.random_symmetric_state(4, rng)
        assert mj.apply_ilo(s, np.eye(2)).distance(s) <= 1e-12

    def test_eta_to_ghz(self, eta_state):
        image = mj.apply_ilo(eta_state, ETA_TO_GHZ)
        assert mj.fidelity(image, mj.ghz_state(3)) >= 1 - 1e-12

    def test_against_dense_action(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = mj.random_symmetric_state(n, rng)
            a = mj.random_ilo(rng)
            fast = mj.apply_ilo(s, a)
            dense = collective_operator(a, n) @ mj.expand_to_full(s).amp
            slow, residual = mj.project_to_symmetric(mj.FullState(n, dense))
            assert residual <= 1e-9
            assert fast.distance(slow) <= 1e-8

    def test_configuration_preserved_on_dicke(self, rng):
        s = mj.dicke_state(4, 1)
        for _ in range(100):
            a = mj.random_ilo(rng)
            assert mj.classify(mj.apply_ilo(s, a)).mults == (3, 1)

    def test_inverse_restores(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = mj.random_symmetric_state(n, rng)
            a = mj.random_ilo(rng)
            back = mj.apply_ilo(mj.apply_ilo(s, a), np.linalg.inv(a))
            assert back.distance(s) <= 1e-8

    def test_singular_rejected(self, rng):
        s = mj.random_symmetric_state(3, rng)
        with pytest.raises(ValueError):
            mj.apply_ilo(s, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_condition_number_warning(self, rng):
        s = mj.random_symmetric_state(3, rng)
        nearly_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        with pytest.warns(UserWarning):
            mj.apply_ilo(s, nearly_singular)


class TestSameFamily:
    def test_eta_and_ghz(self, eta_state):
        assert mj.same_family(eta_state, mj.ghz_state(3))

    def test_different_dicke_families(self):
        assert not mj.same_family(mj.dicke_state(4, 1), mj.dicke_state(4, 2))

    def test_reflexive(self, rng):
        s = mj.random_symmetric_state(5, rng)
        assert mj.same_family(s, s)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mj.same_family(mj.ghz_state(3), mj.ghz_state(4))


class TestFamilyCount:
    @staticmethod
    def partitions(n, largest=None):
        if n == 0:
            yield ()
            return
        largest = n if largest is None else largest
        for first in range(min(n, largest), 0, -1):
            for rest in TestFamilyCount.partitions(n - first, first):
                yield (first,) + rest

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 3), (4, 5), (5, 7)])
    def test_every_partition_realized(self, n, expected):
        seen = set()
        sites = [0.37 + 0.21j, -1.4 + 0.8j, 0.9 - 1.1j, -0.25 - 0.65j, 2.1 + 0.3j]
        for part in self.partitions(n):
            points = tuple(
                (mj.ProjectiveRoot.from_complex(sites[i]), m) for i, m in enumerate(part)
            )
            s = mj.state_from_constellation(mj.MajoranaConstellation(n, points))
            config = mj.classify(s)
            assert config.mults == part
            seen.add(config.mults)
        assert len(seen) == expected


class TestLocalOperation:
    def test_reports_determinant_and_condition(self):
        op = mj.LocalOperation(ETA_TO_GHZ)
        assert abs(op.det) > 0
        assert op.cond >= 1.0

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            mj.LocalOperation(np.array([[1.0, 1.0], [1.0, 1.0]]))


def _random_spinor(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return mj.Spinor(*(v / np.linalg.norm(v)))


# Families whose structure is hard to read in double precision: an m-fold
# point scatters its eigenvalues by eps^(1/m), up to 0.3 at m = 29, so high
# multiplicities and nearby points interpenetrate.
FAMILY_DRAWS = [
    ((14, 1, 1), 25), ((15, 1), 25), ((8, 8), 25), ((7, 1), 25),
    ((22, 1, 1), 10), ((10, 10, 10), 10),
]


class TestFamilyRegressions:
    @pytest.mark.parametrize(
        "mults,draw",
        [(mults, draw) for mults, count in FAMILY_DRAWS for draw in range(count)],
        ids=lambda v: "D_{" + ",".join(map(str, v)) + "}" if isinstance(v, tuple) else str(v),
    )
    def test_exact_label_and_rebuild(self, mults, draw):
        rng = np.random.default_rng([sum(mults), len(mults), draw])
        spinors = []
        for m in mults:
            spinors += [_random_spinor(rng)] * m
        s = mj.symmetrize(spinors)
        const = mj.majorana_points(s)
        assert const.multiplicities == mults
        assert mj.canonical_distance(mj.state_from_constellation(const).c, s.c) <= REBUILD_TOL
        assert mj.classify(mj.su2_rotate(s, mj.random_su2(rng))).mults == mults


class TestSqueezedGenericStates:
    # A general invertible map can squeeze a generic state's roots so close
    # together that it sits within 1e-12 of a degenerate configuration, while
    # its own simple roots rebuild it to 1e-15.  Its family is still all-simple.
    # The first seed's draws are perfbench's traced general-ILO probe at seed 2.
    @pytest.mark.parametrize(
        "seed,sizes",
        [([2, 19], (16,) * 8 + (32,) * 4), ([16, 32], (16,) * 25 + (32,) * 25)],
        ids=["probe-seed-2", "fixed-seed"],
    )
    def test_stays_all_simple(self, seed, sizes):
        rng = np.random.default_rng(seed)
        wrong = []
        for i, n in enumerate(sizes):
            s = mj.apply_ilo(mj.random_symmetric_state(n, rng), mj.random_ilo(rng))
            mults = mj.classify(s).mults
            if mults != (1,) * n:
                wrong.append((i, n, mults[:3]))
        assert wrong == []
