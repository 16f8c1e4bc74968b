import itertools
import math

import numpy as np
import pytest

import majorep as mj
from oracles import brute_symmetrize, dense_partial_trace

S6 = 1.0 / math.sqrt(6.0)


def random_local_unitaries(rng, count):
    return [mj.random_su2(rng) for _ in range(count)]


class TestRdmSymmetric:
    def test_eta_rank_two_decomposition(self, eta_state):
        dm = mj.rdm_symmetric(eta_state, 2)
        assert dm.rank() == 2
        chi0 = np.zeros(4, dtype=complex)
        chi0[[0b10, 0b01, 0b11]] = S6
        chi1 = np.zeros(4, dtype=complex)
        chi1[[0b00, 0b01, 0b10]] = S6
        expected = np.outer(chi0, chi0.conj()) + np.outer(chi1, chi1.conj())
        assert np.allclose(mj.to_computational(dm).mat, expected, atol=1e-12)

    def test_product_state_projector(self):
        s = mj.dicke_state(5, 0)
        for k in (1, 2, 4):
            dm = mj.rdm_symmetric(s, k)
            expected = np.zeros((k + 1, k + 1))
            expected[0, 0] = 1.0
            assert np.allclose(dm.mat, expected)

    def test_ghz_dephased_mixture(self):
        dm = mj.to_computational(mj.rdm_symmetric(mj.ghz_state(3), 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(dm.mat, expected, atol=1e-12)

    def test_agrees_with_dense_trace_on_every_subset(self, rng):
        for n in range(2, 9):
            s = mj.random_symmetric_state(n, rng)
            rho_full = np.outer(mj.expand_to_full(s).amp, mj.expand_to_full(s).amp.conj())
            for k in range(1, n):
                sym = mj.to_computational(mj.rdm_symmetric(s, k)).mat
                for keep in itertools.combinations(range(1, n + 1), k):
                    dense = dense_partial_trace(rho_full, n, keep)
                    assert np.max(np.abs(sym - dense)) <= 1e-10

    def test_validity(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            s = mj.random_symmetric_state(n, rng)
            dm = mj.rdm_symmetric(s, int(rng.integers(1, n)))
            dm.validate(tol=1e-10)

    def test_last_cut_rank_two_for_dnk(self, rng):
        for n, k in [(5, 2), (6, 3), (8, 4)]:
            s = mj.dnk_state(n, k, 0.6, 0.8)
            assert mj.rdm_symmetric(s, n - 1).rank() <= 2

    def test_bad_k(self, rng):
        s = mj.random_symmetric_state(4, rng)
        with pytest.raises(ValueError):
            mj.rdm_symmetric(s, 0)
        with pytest.raises(ValueError):
            mj.rdm_symmetric(s, 4)


class TestRdmFull:
    def test_keep_all(self, rng):
        f = mj.random_full_state(3, rng)
        dm = mj.rdm_full(f, (1, 2, 3))
        assert np.allclose(dm.mat, np.outer(f.amp, f.amp.conj()))

    def test_ghz4_three_qubit_marginal(self):
        f = mj.expand_to_full(mj.ghz_state(4))
        dm = mj.rdm_full(f, (1, 2, 3))
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 0.5
        assert np.allclose(dm.mat, expected)

    def test_matches_elementwise_trace(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 7))
            f = mj.random_full_state(n, rng)
            rho = np.outer(f.amp, f.amp.conj())
            k = int(rng.integers(1, n + 1))
            keep = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)))
            assert np.allclose(
                mj.rdm_full(f, keep).mat, dense_partial_trace(rho, n, keep), atol=1e-12
            )

    def test_keep_order_permutes_basis(self, rng):
        f = mj.random_full_state(3, rng)
        a = mj.rdm_full(f, (1, 2)).mat
        b = mj.rdm_full(f, (2, 1)).mat
        swap = [0, 2, 1, 3]
        assert np.allclose(a, b[np.ix_(swap, swap)])

    def test_invalid_subsets(self, rng):
        f = mj.random_full_state(3, rng)
        for keep in [(), (0,), (4,), (1, 1)]:
            with pytest.raises(ValueError):
                mj.rdm_full(f, keep)


class TestChiPair:
    @staticmethod
    def chi_states():
        chi1 = np.zeros(16, dtype=complex)
        chi1[[0b0000, 0b0001, 0b1111]] = 1 / math.sqrt(3)
        chi2 = chi1.copy()
        chi2[0b1111] = -1 / math.sqrt(3)
        return mj.FullState(4, chi1), mj.FullState(4, chi2)

    def test_three_shared_one_distinct(self):
        f1, f2 = self.chi_states()
        for keep in [(2, 3, 4), (1, 3, 4), (1, 2, 4)]:
            diff = np.linalg.norm(mj.rdm_full(f1, keep).mat - mj.rdm_full(f2, keep).mat)
            assert diff <= 1e-10
        diff = np.linalg.norm(mj.rdm_full(f1, (1, 2, 3)).mat - mj.rdm_full(f2, (1, 2, 3)).mat)
        assert diff >= 0.1


class TestConcurrence:
    def test_ghz_pairs_vanish(self):
        f = mj.expand_to_full(mj.ghz_state(3))
        for keep in [(1, 2), (1, 3), (2, 3)]:
            assert mj.concurrence(mj.rdm_full(f, keep)) <= 1e-9

    def test_eta_pairs_one_third(self, eta_state):
        f = mj.expand_to_full(eta_state)
        for keep in [(1, 2), (1, 3), (2, 3)]:
            assert mj.concurrence(mj.rdm_full(f, keep)) == pytest.approx(1 / 3, abs=1e-8)

    def test_bell_pair_maximal(self):
        f = mj.expand_to_full(mj.dicke_state(2, 1))
        assert mj.concurrence(mj.rdm_full(f, (1, 2))) == pytest.approx(1.0, abs=1e-10)

    def test_local_unitary_invariance(self, rng, eta_state):
        f = mj.expand_to_full(eta_state)
        base = mj.concurrence(mj.rdm_full(f, (1, 2)))
        for _ in range(50):
            u = np.kron(mj.random_su2(rng), mj.random_su2(rng))
            rho = u @ mj.rdm_full(f, (1, 2)).mat @ u.conj().T
            val = mj.concurrence(mj.DensityMatrix(rho, "computational", 2))
            assert val == pytest.approx(base, abs=1e-8)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            mj.concurrence(np.diag([1.0, 1.0, -0.5, -0.5]))


class TestThreeTangle:
    def test_reference_values(self, eta_state):
        assert mj.three_tangle(mj.expand_to_full(mj.ghz_state(3))) == pytest.approx(1.0, abs=1e-12)
        assert mj.three_tangle(mj.expand_to_full(eta_state)) == pytest.approx(1 / 3, abs=1e-12)
        assert mj.three_tangle(mj.expand_to_full(mj.dicke_state(3, 0))) == pytest.approx(0.0, abs=1e-12)
        assert mj.three_tangle(mj.expand_to_full(mj.w_state(3))) == pytest.approx(0.0, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        f = mj.expand_to_full(mj.ghz_state(3))
        for _ in range(50):
            us = [mj.random_su2(rng) for _ in range(3)]
            op = np.kron(np.kron(us[0], us[1]), us[2])
            rotated = mj.FullState(3, op @ f.amp)
            assert mj.three_tangle(rotated) == pytest.approx(1.0, abs=1e-8)

    def test_wrong_size(self, rng):
        with pytest.raises(ValueError):
            mj.three_tangle(mj.random_full_state(2, rng))


class TestDnkState:
    def test_reduces_to_dicke(self):
        s = mj.dnk_state(5, 2, 0.0, 1.0)
        assert s.distance(mj.dicke_state(5, 2)) <= 1e-12

    def test_matches_brute_symmetrization(self, rng):
        for n, k in [(4, 1), (5, 2), (6, 3)]:
            d0, d1 = 1 / math.sqrt(2), 1j / math.sqrt(2)
            s = mj.dnk_state(n, k, d0, d1)
            spinors = [np.array([1.0, 0.0])] * (n - k) + [np.array([d0, d1])] * k
            dense = brute_symmetrize(spinors)
            slow, _ = mj.project_to_symmetric(mj.FullState(n, dense))
            assert s.distance(slow) <= 1e-9

    def test_classification(self):
        assert mj.classify(mj.dnk_state(7, 3, 0.6, 0.8)).mults == (4, 3)

    def test_top_weight_cutoff(self):
        s = mj.dnk_state(6, 2, 0.3, math.sqrt(1 - 0.09))
        assert np.allclose(s.c[3:], 0.0)

    def test_rejects_zero_d1(self):
        with pytest.raises(ValueError):
            mj.dnk_state(4, 1, 1.0, 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            mj.dnk_state(4, 3, 0.6, 0.8)


class TestGeneralizedDicke:
    def test_uniform_coefficients_are_symmetric(self):
        n, k = 5, 2
        a = [np.ones(math.comb(n, r)) for r in range(k + 1)]
        g = mj.generalized_dicke_state(n, k, [0.5, 1.0, 0.25], a)
        _, residual = mj.project_to_symmetric(g)
        assert residual <= 1e-12

    def test_single_term_product_state(self):
        a = [[1.0], [1.0, 0.0, 0.0, 0.0]]
        g = mj.generalized_dicke_state(4, 1, [0.6, 0.8], a)
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = 0.6
        expected[0b1000] = 0.8
        assert np.allclose(g.amp, expected)

    def test_enumeration_blocks(self):
        combos = mj.weight_combinations(4, 2)
        assert combos == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        assert all(4 not in c for c in combos[:3])
        assert all(4 in c for c in combos[3:])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            mj.generalized_dicke_state(4, 1, [1.0, 1.0], [[1.0], [1.0, 1.0]])

    def test_zero_vector_rejected(self):
        a = [[0.0], [0.0, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            mj.generalized_dicke_state(4, 1, [1.0, 1.0], a)


class TestUniquenessConditions:
    def test_all_nonzero(self, rng):
        for n, k in [(4, 1), (5, 2), (6, 3)]:
            a = [rng.standard_normal(math.comb(n, r)) + 0.5 for r in range(k + 1)]
            assert mj.uniqueness_conditions(n, k, a)

    def test_first_block_zero_fails(self):
        a = [[1.0], [0.0, 0.0, 1.0]]
        assert not mj.uniqueness_conditions(3, 1, a)

    def test_explicit_pattern(self):
        # weight-1 strings of 3 qubits in order: (1), (2), (3)
        assert mj.uniqueness_conditions(3, 1, [[1.0], [0.0, 1.0, 1.0]])
        assert not mj.uniqueness_conditions(3, 1, [[1.0], [1.0, 0.0, 1.0]])
        assert not mj.uniqueness_conditions(3, 1, [[1.0], [0.0, 1.0, 0.0]])


def two_marginals(full):
    n = full.n
    return (
        mj.rdm_full(full, tuple(range(1, n))),
        mj.rdm_full(full, tuple(range(2, n + 1))),
    )


class TestReconstruction:
    def test_dnk_roundtrip(self, rng):
        for trial in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n // 2 + 1))
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = z / np.linalg.norm(z)
            if abs(z[1]) < 0.05:
                z = np.array([0.6, 0.8])
            full = mj.expand_to_full(mj.dnk_state(n, k, z[0], z[1]))
            result = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=trial)
            assert result.status == "unique"
            assert mj.fidelity(result.state, full) >= 1 - 1e-8

    def test_generalized_dicke_roundtrip(self, rng):
        for trial in range(6):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(1, n // 2 + 1))
            alphas = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            a = [
                rng.standard_normal(math.comb(n, r)) + 1j * rng.standard_normal(math.comb(n, r))
                for r in range(k + 1)
            ]
            assert mj.uniqueness_conditions(n, k, a)
            full = mj.generalized_dicke_state(n, k, alphas, a)
            result = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=trial)
            assert result.status == "unique"
            assert mj.fidelity(result.state, full) >= 1 - 1e-8

    def test_ghz_is_ambiguous(self):
        for n in (3, 5):
            full = mj.expand_to_full(mj.ghz_state(n))
            result = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=n)
            assert result.is_ambiguous
            assert len(result.candidates) >= 2

    def test_seed_is_ignored(self):
        full = mj.expand_to_full(mj.dnk_state(6, 3, 0.6 + 0.2j, 0.7))
        first = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=0)
        second = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=7)
        assert np.array_equal(first.state.amp, second.state.amp)

    def test_ghz_gauge_gap_is_zero(self):
        for n in range(3, 9):
            full = mj.expand_to_full(mj.ghz_state(n))
            result = mj.reconstruct_from_two_marginals(*two_marginals(full))
            assert result.gauge_gap <= 1e-12
            assert len(result.candidates) >= 2
            first, second = result.candidates[:2]
            assert abs(np.vdot(first.amp, second.amp)) < 1 - 1e-6

    def test_dnk_gauge_gap_is_positive(self):
        full = mj.expand_to_full(mj.dnk_state(7, 2, 0.6, 0.8))
        result = mj.reconstruct_from_two_marginals(*two_marginals(full))
        assert result.status == "unique"
        assert result.gauge_gap > 0

    def test_product_state_unique(self, rng):
        sp = mj.Spinor.from_angles(1.1, 0.8)
        full = mj.expand_to_full(mj.symmetrize([sp] * 5))
        result = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=0)
        assert result.status == "unique"
        assert mj.fidelity(result.state, full) >= 1 - 1e-8

    def test_symmetric_basis_inputs_accepted(self):
        s = mj.dnk_state(5, 2, 0.6, 0.8)
        rho_a = mj.rdm_symmetric(s, 4)
        rho_b = mj.rdm_symmetric(s, 4)
        result = mj.reconstruct_from_two_marginals(rho_a, rho_b, seed=0)
        assert result.status == "unique"
        assert mj.fidelity(result.state, mj.expand_to_full(s)) >= 1 - 1e-8

    def test_rank_above_two_rejected(self, rng):
        vecs = [mj.random_full_state(3, rng).amp for _ in range(3)]
        mat = sum(np.outer(v, v.conj()) for v in vecs) / 3
        dm = mj.DensityMatrix(mat, "computational", 3)
        with pytest.raises(mj.MarginalRankError):
            mj.reconstruct_from_two_marginals(dm, dm)

    def test_inconsistent_marginals_rejected(self):
        a = mj.expand_to_full(mj.dnk_state(4, 1, 0.6, 0.8))
        b = mj.expand_to_full(mj.dnk_state(4, 2, 0.8, 0.6))
        with pytest.raises(mj.InconsistentMarginalsError):
            mj.reconstruct_from_two_marginals(
                mj.rdm_full(a, (1, 2, 3)), mj.rdm_full(b, (2, 3, 4)), seed=0
            )


class TestMarginalSearch:
    def test_gradient_matches_finite_differences(self, rng):
        from majorep.marginals import _ptrace_apply

        n = 3
        f = mj.random_full_state(n, rng)
        targets = [((1, 2), mj.rdm_full(f, (1, 2))), ((2, 3), mj.rdm_full(f, (2, 3)))]
        prepared = [([q - 1 for q in keep], dm.mat) for keep, dm in targets]
        dim = 2**n

        def objective(x, with_grad=False):
            psi = x[:dim] + 1j * x[dim:]
            s = float(np.vdot(psi, psi).real)
            tens = psi.reshape([2] * n)
            val = 0.0
            grad_psi = np.zeros(dim, dtype=complex)
            for axes, tgt in prepared:
                rest = [ax for ax in range(n) if ax not in axes]
                m = tens.transpose(axes + rest).reshape(2 ** len(axes), -1)
                delta = (m @ m.conj().T) / s - tgt
                val += float(np.sum(np.abs(delta) ** 2))
                if with_grad:
                    e_psi = _ptrace_apply(delta, tens, axes).reshape(-1)
                    inner = float(np.vdot(psi, e_psi).real)
                    grad_psi += 2.0 * (e_psi / s - (inner / s**2) * psi)
            if with_grad:
                return val, np.concatenate([2.0 * grad_psi.real, 2.0 * grad_psi.imag])
            return val

        x0 = rng.standard_normal(2 * dim)
        _, grad = objective(x0, with_grad=True)
        h = 1e-6
        for j in rng.choice(2 * dim, size=6, replace=False):
            step = np.zeros(2 * dim)
            step[j] = h
            fd = (objective(x0 + step) - objective(x0 - step)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_eta_uniquely_determined_by_two_pair_marginals(self, eta_state):
        full = mj.expand_to_full(eta_state)
        targets = [((1, 2), mj.rdm_full(full, (1, 2))), ((1, 3), mj.rdm_full(full, (1, 3)))]
        matches = mj.marginal_match_search(targets, 3, restarts=24, seed=0)
        assert len(matches) == 1
        assert mj.fidelity(matches[0], full) >= 1 - 1e-6

    def test_ghz3_ambiguous_from_all_pairs(self):
        full = mj.expand_to_full(mj.ghz_state(3))
        targets = [
            (keep, mj.rdm_full(full, keep)) for keep in [(1, 2), (1, 3), (2, 3)]
        ]
        matches = mj.marginal_match_search(targets, 3, restarts=24, seed=1)
        assert len(matches) >= 2

    def test_consistent_with_reconstruction(self, rng):
        full = mj.expand_to_full(mj.dnk_state(4, 1, 0.6, 0.8))
        targets = [
            ((1, 2, 3), mj.rdm_full(full, (1, 2, 3))),
            ((2, 3, 4), mj.rdm_full(full, (2, 3, 4))),
        ]
        matches = mj.marginal_match_search(targets, 4, restarts=16, seed=2)
        assert len(matches) == 1
        result = mj.reconstruct_from_two_marginals(*two_marginals(full), seed=0)
        assert mj.fidelity(matches[0], result.state) >= 1 - 1e-6
