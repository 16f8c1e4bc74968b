import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import majorep as mj
import majorep.stellar as stellar
from majorep import serialize
from majorep.cli import main
from majorep.stellar import REBUILD_TOL
from oracles import collective_operator

S2 = 1.0 / math.sqrt(2.0)


def random_state(seed, n, zero_head=0, zero_tail=0):
    gen = np.random.default_rng(seed)
    return mj.random_symmetric_state(n, gen, zero_head=zero_head, zero_tail=zero_tail)


class TestPolynomial:
    def test_ghz3(self):
        p = mj.majorana_polynomial(mj.ghz_state(3))
        assert np.allclose(p, np.array([1, 0, 0, -1]) * S2)

    def test_bell_sum(self):
        bell = mj.SymmetricState(2, [S2, 0, S2])
        p = mj.majorana_polynomial(bell)
        assert np.allclose(p, np.array([1, 0, 1]) * S2)

    def test_degree_drop_for_dicke(self):
        p = mj.majorana_polynomial(mj.dicke_state(4, 1))
        assert np.flatnonzero(np.abs(p) > 0).tolist() == [3]


class TestPoints:
    def test_ghz3_cube_roots(self):
        const = mj.majorana_points(mj.ghz_state(3))
        angles = sorted(root.angles()[0] for root, _ in const.points)
        assert np.allclose(angles, [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-12)
        assert all(abs(root.angles()[1] - np.pi / 2) < 1e-12 for root, _ in const.points)

    def test_dicke_axis_points(self):
        const = mj.majorana_points(mj.dicke_state(3, 2))
        by_mult = {m: root for root, m in const.points}
        assert not by_mult[1].is_infinity and abs(by_mult[1].value()) < 1e-14
        assert by_mult[2].is_infinity

    def test_bell_equator(self):
        bell = mj.SymmetricState(2, [S2, 0, S2])
        values = sorted(
            (root.value() for root, _ in mj.majorana_points(bell).points),
            key=lambda z: z.imag,
        )
        assert np.allclose(values, [-1j, 1j], atol=1e-12)

    def test_count_conservation(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            s = mj.random_symmetric_state(n, rng)
            const = mj.majorana_points(s)
            assert sum(m for _, m in const.points) == n


class TestRoundtrip:
    def test_random_states(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 11))
            s = mj.random_symmetric_state(n, rng)
            back = mj.state_from_constellation(mj.majorana_points(s))
            assert back.distance(s) <= 1e-9

    def test_forced_degenerate_coefficients(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 11))
            s = mj.random_symmetric_state(
                n, rng, zero_head=int(rng.integers(0, 3)), zero_tail=int(rng.integers(0, 2))
            )
            back = mj.state_from_constellation(mj.majorana_points(s))
            assert back.distance(s) <= 1e-9

    @given(st.integers(0, 10_000), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, n):
        s = random_state(seed, n)
        back = mj.state_from_constellation(mj.majorana_points(s))
        assert back.distance(s) <= 1e-9

    def test_axis_constellations(self):
        all_zero = mj.MajoranaConstellation(4, ((mj.ProjectiveRoot.zero(), 4),))
        assert mj.state_from_constellation(all_zero).distance(mj.dicke_state(4, 0)) <= 1e-14
        mixed = mj.MajoranaConstellation(
            3, ((mj.ProjectiveRoot.zero(), 1), (mj.ProjectiveRoot.infinity(), 2))
        )
        assert mj.state_from_constellation(mixed).distance(mj.dicke_state(3, 2)) <= 1e-14

    def test_multiple_root_recovery(self):
        pts = (
            (mj.ProjectiveRoot.from_complex(0.4 - 0.2j), 3),
            (mj.ProjectiveRoot.from_complex(-1.1 + 0.6j), 2),
        )
        s = mj.state_from_constellation(mj.MajoranaConstellation(5, pts))
        const = mj.majorana_points(s)
        assert const.multiplicities == (3, 2)
        rebuilt = mj.state_from_constellation(const)
        assert rebuilt.distance(s) <= REBUILD_TOL

    def test_close_but_distinct_roots_not_merged(self):
        pts = (
            (mj.ProjectiveRoot.from_complex(0.5), 1),
            (mj.ProjectiveRoot.from_complex(0.5 + 1e-4), 1),
            (mj.ProjectiveRoot.from_complex(-2.0), 1),
        )
        s = mj.state_from_constellation(mj.MajoranaConstellation(3, pts))
        assert mj.majorana_points(s).multiplicities == (1, 1, 1)


class TestRotation:
    def test_identity(self, rng):
        s = mj.random_symmetric_state(5, rng)
        assert mj.su2_rotate(s, np.eye(2)).distance(s) <= 1e-12

    def test_against_dense_operator(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            s = mj.random_symmetric_state(n, rng)
            u = mj.random_su2(rng)
            fast = mj.su2_rotate(s, u)
            dense = collective_operator(u, n) @ mj.expand_to_full(s).amp
            slow, residual = mj.project_to_symmetric(mj.FullState(n, dense))
            assert residual <= 1e-10
            assert fast.distance(slow) <= 1e-9

    def test_equivariance_of_constellation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = mj.random_symmetric_state(n, rng)
            u = mj.random_su2(rng)
            rotated_const = mj.majorana_points(mj.su2_rotate(s, u))
            mapped = mj.MajoranaConstellation(
                n,
                tuple((mj.mobius_root(r, u), m) for r, m in mj.majorana_points(s).points),
            )
            assert rotated_const.matched_distance(mapped) <= 1e-8

    def test_root_to_pole_kills_top_amplitude(self, rng):
        s = mj.random_symmetric_state(5, rng)
        root, _ = mj.majorana_points(s).points[0]
        alpha, beta = root.angles()
        u = mj.euler_su2(alpha, beta, 0.0).conj().T
        rotated = mj.su2_rotate(s, u)
        assert abs(rotated.c[-1]) <= 1e-9

    def test_rejects_non_unitary(self, rng):
        s = mj.random_symmetric_state(3, rng)
        with pytest.raises(ValueError):
            mj.su2_rotate(s, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestWignerColumn:
    def test_top_entry(self):
        assert mj.wigner_d_column(4, 0, 0.0, 0.0) == pytest.approx(1.0)

    def test_unit_column_norm(self):
        for alpha in np.linspace(0, 2 * np.pi, 7):
            for beta in np.linspace(0, np.pi, 7):
                total = sum(
                    abs(mj.wigner_d_column(5, l, alpha, beta)) ** 2 for l in range(6)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_projection_vanishes_at_roots(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            s = mj.random_symmetric_state(n, rng)
            for root, _ in mj.majorana_points(s).points:
                alpha, beta = root.angles()
                assert abs(mj.majorana_projection(s, alpha, beta)) <= 1e-8

    def test_projection_generically_nonzero(self, rng):
        s = mj.random_symmetric_state(4, rng)
        assert abs(mj.majorana_projection(s, 0.123, 1.0)) > 1e-6


class TestProjectiveRoot:
    def test_canonical_scaling(self):
        r = mj.ProjectiveRoot(4.0, 2.0)
        assert r.z == 1.0 and r.w == pytest.approx(0.5)

    def test_chordal_metric_symmetry(self, rng):
        pts = [mj.ProjectiveRoot.from_complex(complex(*rng.standard_normal(2))) for _ in range(6)]
        pts.append(mj.ProjectiveRoot.infinity())
        for a in pts:
            for b in pts:
                assert mj.chordal_distance(a, b) == pytest.approx(
                    mj.chordal_distance(b, a), abs=1e-15
                )
                if a is b:
                    assert mj.chordal_distance(a, b) == 0.0

    def test_infinity_angles(self):
        assert mj.ProjectiveRoot.infinity().angles() == (0.0, np.pi)

    def test_angle_roundtrip(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(0.05, np.pi - 0.05)
            a2, b2 = mj.ProjectiveRoot.from_angles(alpha, beta).angles()
            assert a2 == pytest.approx(alpha, abs=1e-12)
            assert b2 == pytest.approx(beta, abs=1e-12)


class TestLargeN:
    @given(st.integers(0, 10_000), st.integers(2, 128))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_to_128(self, seed, n):
        s = random_state(seed, n)
        back = mj.state_from_constellation(mj.majorana_points(s))
        assert back.distance(s) <= 1e-9

    def test_small_end_amplitudes_are_not_structural_zeros(self):
        # p_m = ±sqrt(C(N, m)) c_{N-m} spans ~2^(N/2), so genuine end
        # coefficients sit far below max|p| at N = 96
        s = random_state(7, 96)
        const = mj.majorana_points(s)
        assert const.multiplicities == (1,) * 96
        assert mj.state_from_constellation(const).distance(s) <= 1e-9

    def test_polynomial_finite_at_1100(self):
        n = 1100
        s = random_state(3, n)
        p = mj.majorana_polynomial(s)
        assert np.all(np.isfinite(p))
        log_weight = 0.5 * (math.lgamma(n + 1) - 2 * math.lgamma(n // 2 + 1))
        assert math.log(abs(p[n // 2]) / abs(s.c[n // 2])) == pytest.approx(log_weight, rel=1e-12)

    def test_weights_match_exact_binomials(self):
        for n in (1, 2, 7, 30, 61):
            c = np.ones(n + 1) / math.sqrt(n + 1)
            p = mj.majorana_polynomial(mj.SymmetricState(n, c))
            expected = [(-1) ** m * math.sqrt(math.comb(n, m)) for m in range(n + 1)]
            np.testing.assert_allclose(p, np.array(expected) / math.sqrt(n + 1), rtol=1e-14)

    def test_projection_finite_at_1100(self):
        n = 1100
        amp = mj.majorana_projection(mj.dicke_state(n, n // 2), 0.0, math.pi / 2)
        # |d|^2 = C(n, n/2) / 2^n, the central binomial probability
        log_expected = math.lgamma(n + 1) - 2 * math.lgamma(n // 2 + 1) - n * math.log(2)
        assert math.log(abs(amp) ** 2) == pytest.approx(log_expected, rel=1e-12)

    def test_rotation_round_trip_at_128(self):
        s = random_state(11, 128)
        u = mj.random_su2(np.random.default_rng(12))
        assert mj.su2_rotate(mj.su2_rotate(s, u), u.conj().T).distance(s) <= 1e-12

    @pytest.mark.parametrize("mults", [(63, 1), (62, 1, 1)])
    def test_rotated_family_at_64(self, mults):
        # the rotation must leave a degenerate state within rounding of its
        # family; substituting into the root polynomial lost 1e-8 here
        rng = np.random.default_rng([64, len(mults)])
        for _ in range(5):
            spinors = []
            for m in mults:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                spinors += [mj.Spinor(*(v / np.linalg.norm(v)))] * m
            s = mj.su2_rotate(mj.symmetrize(spinors), mj.random_su2(rng))
            assert mj.classify(s).mults == mults


class TestNoUncheckedConstellation:
    @pytest.fixture
    def nothing_rebuilds(self, monkeypatch):
        monkeypatch.setattr(stellar, "_rebuild_distance", lambda const, s: 1.0)

    def test_failed_rebuild_raises(self, nothing_rebuilds):
        with pytest.raises(mj.ConstellationError) as info:
            mj.majorana_points(mj.ghz_state(3))
        assert isinstance(info.value, ValueError)
        with pytest.raises(mj.ConstellationError):
            mj.classify(mj.dicke_state(4, 1))

    @pytest.mark.parametrize("command", ["points", "classify"])
    def test_cli_exit_3(self, nothing_rebuilds, monkeypatch, capsys, command):
        doc = json.dumps(serialize.state_to_dict(mj.ghz_state(3)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main([command]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no constellation rebuilds" in captured.err


def test_constellation_copies_and_pickles():
    import copy
    import pickle

    const = mj.majorana_points(random_state(5, 6))
    assert copy.deepcopy(const) == const
    assert pickle.loads(pickle.dumps(const)) == const
