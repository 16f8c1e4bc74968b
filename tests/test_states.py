import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import majorep as mj
from oracles import brute_symmetrize, dicke_vector

S2 = 1.0 / math.sqrt(2.0)


class TestDicke:
    def test_three_qubit_coefficients(self):
        d = mj.dicke_state(3, 2)
        assert np.allclose(d.c, [0, 0, 1, 0])

    def test_single_qubit_cases(self):
        assert np.allclose(mj.dicke_state(1, 0).c, [1, 0])
        assert np.allclose(mj.dicke_state(1, 1).c, [0, 1])

    def test_expansion_against_enumeration(self):
        for n, l in [(3, 2), (4, 2), (5, 0), (5, 5), (6, 3)]:
            full = mj.expand_to_full(mj.dicke_state(n, l))
            assert np.allclose(full.amp, dicke_vector(n, l), atol=1e-12)

    def test_weight_two_uniform_amplitudes(self):
        full = mj.expand_to_full(mj.dicke_state(4, 2))
        nonzero = full.amp[np.abs(full.amp) > 0]
        assert len(nonzero) == 6
        assert np.allclose(nonzero, 1 / math.sqrt(6))

    def test_orthonormality_exact(self):
        for l in range(5):
            for lp in range(5):
                ov = mj.overlap(mj.dicke_state(4, l), mj.dicke_state(4, lp))
                assert ov == (1.0 if l == lp else 0.0)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            mj.dicke_state(3, 4)
        with pytest.raises(ValueError):
            mj.dicke_state(3, -1)


class TestGHZ:
    def test_qubit_expansion(self):
        full = mj.expand_to_full(mj.ghz_state(3))
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b111] = S2
        assert np.allclose(full.amp, expected)

    def test_two_qubits_is_bell(self):
        full = mj.expand_to_full(mj.ghz_state(2))
        assert np.allclose(full.amp, [S2, 0, 0, S2])

    def test_overlap_with_polar_dicke(self):
        assert mj.overlap(mj.dicke_state(4, 0), mj.ghz_state(4)) == pytest.approx(S2)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            mj.ghz_state(1)


class TestProjection:
    def test_roundtrip(self, rng):
        for n in range(1, 13):
            s = mj.random_symmetric_state(n, rng)
            back, residual = mj.project_to_symmetric(mj.expand_to_full(s))
            assert residual <= 1e-10
            assert back.distance(s) <= 1e-10

    def test_single_excitation_component(self):
        amp = np.zeros(4, dtype=complex)
        amp[0b01] = 1.0
        sym, residual = mj.project_to_symmetric(mj.FullState(2, amp))
        assert np.allclose(sym.c, [0, 1, 0])
        assert residual == pytest.approx(S2, abs=1e-12)

    def test_singlet_rejected(self):
        amp = np.zeros(4, dtype=complex)
        amp[0b01], amp[0b10] = S2, -S2
        with pytest.raises(ValueError):
            mj.project_to_symmetric(mj.FullState(2, amp))


class TestOverlap:
    def test_self_overlap(self, rng):
        s = mj.random_symmetric_state(5, rng)
        assert mj.overlap(s, s) == pytest.approx(1.0)

    def test_mixed_representations(self, rng):
        s = mj.random_symmetric_state(4, rng)
        f = mj.expand_to_full(s)
        assert mj.overlap(s, f) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mj.overlap(mj.ghz_state(2), mj.ghz_state(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_phase_invariance(self, salt):
        gen = np.random.default_rng(salt)
        x = mj.random_symmetric_state(4, gen)
        y = mj.random_symmetric_state(4, gen)
        phase = np.exp(1j * gen.uniform(0, 2 * np.pi))
        y2 = mj.SymmetricState(4, phase * y.c)
        assert abs(mj.overlap(x, y)) == pytest.approx(abs(mj.overlap(x, y2)), abs=1e-12)


class TestSymmetrize:
    def test_two_spinor_example(self):
        s = mj.symmetrize([mj.Spinor(1, 0), mj.Spinor(0, 1)])
        assert np.allclose(s.c, [0, 1, 0])

    def test_product_state(self):
        sp = mj.Spinor.from_angles(0.7, 1.1)
        s = mj.symmetrize([sp] * 5)
        full = mj.expand_to_full(s)
        single = sp.vec()
        dense = single
        for _ in range(4):
            dense = np.kron(dense, single)
        assert abs(np.vdot(full.amp, dense)) == pytest.approx(1.0, abs=1e-12)

    def test_table_superposition_row(self):
        plus = mj.symmetrize([mj.Spinor(S2, S2), mj.Spinor(1, 0), mj.Spinor(0, 1)])
        expected = np.zeros(8, dtype=complex)
        for idx in (0b001, 0b010, 0b100, 0b011, 0b101, 0b110):
            expected[idx] = 1 / math.sqrt(6)
        assert np.allclose(mj.expand_to_full(plus).amp, expected, atol=1e-12)

    def test_permutation_invariance(self, rng):
        spinors = [
            mj.Spinor.from_angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            for _ in range(5)
        ]
        a = mj.symmetrize(spinors)
        order = rng.permutation(5)
        b = mj.symmetrize([spinors[i] for i in order])
        assert a.distance(b) <= 1e-10

    def test_against_permutation_sum(self, rng):
        for n in range(2, 7):
            spinors = [
                mj.Spinor.from_angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
                for _ in range(n)
            ]
            fast = mj.symmetrize(spinors)
            slow = mj.FullState(n, brute_symmetrize([sp.vec() for sp in spinors]))
            slow_sym, _ = mj.project_to_symmetric(slow)
            assert fast.distance(slow_sym) <= 1e-9


class TestCanonicalForm:
    def test_first_significant_coefficient_positive(self, rng):
        for _ in range(20):
            s = mj.random_symmetric_state(4, rng)
            pivot = s.c[np.flatnonzero(np.abs(s.c) > 1e-12)[0]]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0

    def test_phase_quotient(self, rng):
        s = mj.random_symmetric_state(6, rng)
        rotated = mj.SymmetricState(6, np.exp(0.71j) * s.c)
        assert s.distance(rotated) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mj.SymmetricState(2, np.zeros(3))

    def test_distance_ignores_phase_of_tiny_leading_entry(self):
        # a leading amplitude of 1e-10 whose phase is lost to rounding must not
        # turn two equal rays into distant canonical forms
        x = np.array([1e-10, 0.6, 0.8])
        y = np.array([1e-10j, 0.6, 0.8])
        assert mj.canonical_distance(x, y) <= 2e-10
        assert mj.SymmetricState(2, x).distance(mj.SymmetricState(2, y)) <= 2e-10
        assert mj.canonical_distance(x, -1j * x) <= 1e-15


class TestDensityMatrix:
    def test_validation(self, rng):
        s = mj.random_symmetric_state(4, rng)
        dm = mj.rdm_symmetric(s, 2)
        dm.validate()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            mj.DensityMatrix(np.eye(3) / 3, "computational", 2)
        with pytest.raises(ValueError):
            mj.DensityMatrix(np.eye(4) / 4, "symmetric", 2)

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            mj.DensityMatrix(bad, "computational", 1).validate()


class TestSpinor:
    def test_angle_roundtrip(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(0.05, np.pi - 0.05)
            a2, b2 = mj.Spinor.from_angles(alpha, beta).angles()
            assert a2 == pytest.approx(alpha, abs=1e-12)
            assert b2 == pytest.approx(beta, abs=1e-12)

    def test_phase_free_equality(self):
        sp = mj.Spinor.from_angles(1.0, 2.0)
        rotated = mj.Spinor(sp.a * np.exp(0.4j), sp.b * np.exp(0.4j))
        assert sp.isclose(rotated)
