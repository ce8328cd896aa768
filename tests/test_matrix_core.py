import numpy as np
import pytest

from cppc.matrix_core import (
    ArrowheadPattern,
    Completion,
    PartialMatrix,
    SymMatrix,
    agrees,
    assemble_completion,
    extract_block,
    partial_frobenius,
    sym_eigh,
)

from conftest import partial_matrix_from_full


def zero_pm(n1, n2, S):
    return PartialMatrix(
        ArrowheadPattern(n1, n2, S),
        SymMatrix(np.zeros((n1, n1))),
        [np.zeros((n2, n1)) for _ in range(S)],
        [SymMatrix(np.zeros((n2, n2))) for _ in range(S)],
    )


def random_pm(rng, n1=3, n2=1, S=2):
    X = rng.standard_normal((n1, n1))
    return PartialMatrix(
        ArrowheadPattern(n1, n2, S),
        SymMatrix(0.5 * (X + X.T)),
        [rng.standard_normal((n2, n1)) for _ in range(S)],
        [SymMatrix(np.diag(rng.standard_normal(n2))) for _ in range(S)],
    )


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_upper_triangle_wins_within_tolerance(self):
        m = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
        assert m[0, 1] == m[1, 0]

    def test_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestExtractBlock:
    def test_noncompletable_fixture_blocks(self, pm_noncompletable):
        b1 = extract_block(pm_noncompletable, 1)
        assert b1.to_lists() == [[6, 3, 0], [3, 6, 3], [0, 3, 2]]
        b2 = extract_block(pm_noncompletable, 2)
        assert b2.to_lists() == [[6, 3, 3], [3, 6, 0], [3, 0, 2]]

    def test_zero_matrix(self):
        pm = zero_pm(3, 2, 2)
        assert np.all(extract_block(pm, 1).array == 0.0)
        assert extract_block(pm, 2).order == 5

    def test_index_out_of_range(self, pm_noncompletable):
        with pytest.raises(IndexError):
            extract_block(pm_noncompletable, 0)
        with pytest.raises(IndexError):
            extract_block(pm_noncompletable, 3)

    def test_blocks_symmetric(self):
        rng = np.random.default_rng(0)
        pm = random_pm(rng, n1=4, n2=2, S=3)
        for i in range(1, 4):
            b = extract_block(pm, i).array
            assert np.array_equal(b, b.T)


class TestPartialFrobenius:
    def test_identity_diagonal(self):
        pm = zero_pm(3, 1, 2)
        eye = PartialMatrix(
            pm.pattern,
            SymMatrix(np.eye(3)),
            [np.zeros((1, 3)) for _ in range(2)],
            [SymMatrix(np.eye(1)) for _ in range(2)],
        )
        assert partial_frobenius(eye, eye) == pytest.approx(3 + 2 * 1)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(1)
        a = random_pm(rng)
        assert partial_frobenius(a, zero_pm(3, 1, 2)) == 0.0

    def test_matches_zero_filled_dense_product(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_pm(rng, n1=3, n2=1, S=2)
            b = random_pm(rng, n1=3, n2=1, S=2)
            dense = float(np.sum(a.zero_filled().array * b.zero_filled().array))
            assert partial_frobenius(a, b) == pytest.approx(dense, abs=1e-12)

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = random_pm(rng), random_pm(rng)
        assert partial_frobenius(a, b) == pytest.approx(partial_frobenius(b, a))
        two_a = PartialMatrix(
            a.pattern,
            SymMatrix(2 * a.X.array),
            [2 * z for z in a.Z],
            [SymMatrix(2 * y.array) for y in a.Y],
        )
        assert partial_frobenius(two_a, b) == pytest.approx(
            2 * partial_frobenius(a, b)
        )

    def test_pattern_mismatch(self):
        with pytest.raises(ValueError):
            partial_frobenius(zero_pm(3, 1, 2), zero_pm(2, 1, 2))


class TestAssembleCompletion:
    def test_known_witness_entry(self, pm_completable):
        comp = assemble_completion(pm_completable, [np.array([[0.25]])])
        assert comp.full[2, 3] == 0.25
        assert comp.full[3, 2] == 0.25
        assert comp.full.order == 4

    def test_single_arm_has_no_off_blocks(self):
        pm = zero_pm(2, 1, 1)
        comp = assemble_completion(pm, [])
        assert np.array_equal(comp.full.array, pm.zero_filled().array)

    def test_random_agreement(self):
        rng = np.random.default_rng(4)
        pm = random_pm(rng, n1=2, n2=2, S=3)
        blocks = [rng.standard_normal((2, 2)) for _ in range(3)]
        comp = assemble_completion(pm, blocks)
        assert agrees(comp.full, pm, 0.0)

    def test_wrong_count(self, pm_completable):
        with pytest.raises(ValueError):
            assemble_completion(pm_completable, [])


class TestAgrees:
    def test_known_completion(self, pm_completable):
        comp = assemble_completion(pm_completable, [np.array([[0.25]])])
        assert agrees(comp.full, pm_completable, 1e-9)

    def test_zero_filled_exact(self):
        rng = np.random.default_rng(5)
        pm = random_pm(rng)
        assert agrees(pm.zero_filled(), pm, 0.0)

    def test_perturbation_detected(self):
        rng = np.random.default_rng(6)
        pm = random_pm(rng)
        tol = 1e-6
        full = pm.zero_filled().array.copy()
        full[0, 1] += 2 * tol
        full[1, 0] += 2 * tol
        assert not agrees(SymMatrix(full), pm, tol)

    def test_order_mismatch(self, pm_completable):
        with pytest.raises(ValueError):
            agrees(SymMatrix(np.eye(3)), pm_completable, 1e-9)

    def test_completion_constructor_enforces_agreement(self, pm_completable):
        bad = pm_completable.zero_filled().array.copy()
        bad[0, 0] += 1.0
        with pytest.raises(ValueError):
            Completion(SymMatrix(bad), pm_completable)


def test_cp_round_trip_preserves_blocks():
    # Declaring entries of a structured nonnegative Gram matrix unspecified
    # and re-extracting blocks must reproduce its principal submatrices.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n1, n2, S = 2, 1, 3
        total = n1 + n2 * S
        B = rng.uniform(0.0, 1.0, (total, total + 2))
        M = B @ B.T
        pm = partial_matrix_from_full(M, n1, n2, S)
        for i in range(1, S + 1):
            sl = pm.pattern.arm_slice(i)
            rows = list(range(n1)) + list(range(sl.start, sl.stop))
            sub = M[np.ix_(rows, rows)]
            assert np.allclose(extract_block(pm, i).array, sub, atol=1e-12)


def test_json_round_trip(pm_completable):
    obj = pm_completable.to_json_dict()
    back = PartialMatrix.from_json_dict(obj)
    assert np.array_equal(back.zero_filled().array, pm_completable.zero_filled().array)
    with pytest.raises(ValueError):
        PartialMatrix.from_json_dict({"n1": 2})


class TestSymEigh:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        for n in range(1, 83):
            g = rng.standard_normal((n, n))
            a = g + g.T
            w, v = sym_eigh(a)
            assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10)
            assert np.allclose((v * w) @ v.T, a, atol=1e-10)
            assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)
            w_sym, v_sym = sym_eigh(SymMatrix(a))
            assert np.array_equal(w_sym, w) and np.array_equal(v_sym, v)

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        w, _ = sym_eigh(a + a.T)
        assert np.all(np.diff(w) >= 0)

    def test_handles_zero_and_diagonal(self):
        w, v = sym_eigh(np.zeros((3, 3)))
        assert np.all(w == 0.0)
        assert np.allclose(v.T @ v, np.eye(3))
        w, _ = sym_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sym_eigh(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sym_eigh(np.ones(3))
        with pytest.raises(ValueError):
            sym_eigh(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_bound_failure_reported(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        eigh = np.linalg.eigh

        def perturbed(m):
            w, v = eigh(m)
            return w, v + 1e-8

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(np.linalg.LinAlgError):
            sym_eigh(a + a.T)

    def test_stack_gives_each_matrix_its_own_result(self):
        rng = np.random.default_rng(3)
        for k, o in [(1, 1), (4, 3), (12, 10), (5, 17)]:
            g = rng.standard_normal((k, o, o))
            stack = g + g.transpose(0, 2, 1)
            w, v = sym_eigh(stack)
            assert w.shape == (k, o) and v.shape == (k, o, o)
            for j in range(k):
                wj, vj = sym_eigh(stack[j])
                assert np.array_equal(w[j], wj) and np.array_equal(v[j], vj)

    def test_stack_failure_names_the_matrix(self, monkeypatch):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 6, 6))
        stack = g + g.transpose(0, 2, 1)
        eigh = np.linalg.eigh

        def perturbed(m):
            w, v = eigh(m)
            if m.ndim == 3:
                v = v.copy()
                v[3] += 1e-8
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(np.linalg.LinAlgError, match=r"\(matrix 3 of the stack\)$"):
            sym_eigh(stack)
        sym_eigh(stack[3])

    def test_single_matrix_results_and_messages(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        w, v = sym_eigh(a)
        w_ref, v_ref = np.linalg.eigh(0.5 * (a + a.T))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            sym_eigh(np.ones((2, 3)))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            sym_eigh(np.full((2, 2), np.nan))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] + 1e-8))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^eigendecomposition residual bound \S+ exceeds \S+$"):
            sym_eigh(a)
