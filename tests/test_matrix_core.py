import numpy as np
import pytest

from cppc.matrix_core import (
    ArrowheadPattern,
    Completion,
    PartialMatrix,
    SymMatrix,
    agrees,
    sym_eigh,
)

from conftest import partial_matrix_from_full
from reference_checks import arm_block


def zero_pm(n1, S):
    return PartialMatrix(
        ArrowheadPattern(n1, 1, S),
        SymMatrix(np.zeros((n1, n1))),
        [np.zeros((1, n1)) for _ in range(S)],
        [SymMatrix(np.zeros((1, 1))) for _ in range(S)],
    )


def random_pm(rng, n1=3, S=2):
    X = rng.standard_normal((n1, n1))
    return PartialMatrix(
        ArrowheadPattern(n1, 1, S),
        SymMatrix(0.5 * (X + X.T)),
        [rng.standard_normal((1, n1)) for _ in range(S)],
        [SymMatrix(rng.standard_normal((1, 1))) for _ in range(S)],
    )


def filled(pm, entries):
    """``pm``'s zero-filled matrix with ``entries[(r, c)]`` at both ``(r, c)``
    and ``(c, r)``."""
    full = pm.zero_filled().array.copy()
    for (r, c), val in entries.items():
        full[r, c] = full[c, r] = val
    return SymMatrix(full)


def arm_rows(pm, i):
    """Rows of arm ``i``'s (1-based) block in the full matrix."""
    return np.ix_(*[list(range(pm.pattern.n1)) + [pm.pattern.n1 + i - 1]] * 2)


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


class TestArrowheadPattern:
    def test_width_must_be_one(self):
        with pytest.raises(ValueError, match="^width must be one, got n2=2$"):
            ArrowheadPattern(2, 2, 2)
        with pytest.raises(ValueError, match="^width must be one, got n2=0$"):
            ArrowheadPattern(2, 0, 2)

    def test_sizes_must_be_integers(self):
        for bad in (2.9, 2.0, True, "2"):
            with pytest.raises(ValueError, match="^pattern size S must be an integer"):
                ArrowheadPattern(2, 1, bad)
        with pytest.raises(ValueError, match="^pattern size n1 must be an integer"):
            ArrowheadPattern(1.5, 1, 2)
        assert ArrowheadPattern(np.int64(3), 1, np.int32(2)).total_order == 5

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match="^pattern sizes must be positive"):
            ArrowheadPattern(0, 1, 2)
        with pytest.raises(ValueError, match="^pattern sizes must be positive"):
            ArrowheadPattern(2, 1, 0)


class TestPartialMatrix:
    def test_zero_filled_built_once_read_only(self, pm_completable):
        full = pm_completable.zero_filled()
        assert full is pm_completable.zero_filled()
        assert not full.array.flags.writeable
        assert full.to_lists() == [
            [1.0, 0.45, 0.55, 0.275],
            [0.45, 0.3, 0.15, 0.025],
            [0.55, 0.15, 0.4, 0.0],
            [0.275, 0.025, 0.0, 0.6],
        ]

    def test_specified_mask_leaves_out_the_entries_between_arms(self):
        mask = zero_pm(2, 3).specified_mask()
        expected = np.ones((5, 5), dtype=bool)
        expected[[2, 2, 3, 3, 4, 4], [3, 4, 2, 4, 2, 3]] = False
        assert np.array_equal(mask, expected)

    def test_caller_arrays_stay_writeable(self):
        # The partial matrix keeps read-only copies, not the caller's arrays.
        z = np.array([[0.5, 0.2]])
        pm = PartialMatrix(ArrowheadPattern(2, 1, 1), SymMatrix(np.eye(2)), [z],
                           [SymMatrix([[1.0]])])
        assert z.flags.writeable and not pm.Z[0].flags.writeable
        z[0, 0] = 0.9
        assert pm.Z[0][0, 0] == 0.5 and pm.zero_filled().array[2, 0] == 0.5

    def test_rejects_arms_wider_than_one(self):
        with pytest.raises(ValueError, match=r"^Z\[1\] has shape \(2, 2\), expected \(1, 2\)$"):
            PartialMatrix(ArrowheadPattern(2, 1, 2), SymMatrix(np.eye(2)),
                          [np.zeros((1, 2)), np.zeros((2, 2))], [SymMatrix([[1.0]])] * 2)
        with pytest.raises(ValueError, match=r"^Y\[0\] has order 2, expected 1$"):
            PartialMatrix(ArrowheadPattern(2, 1, 2), SymMatrix(np.eye(2)),
                          [np.zeros((1, 2))] * 2, [SymMatrix(np.eye(2))] * 2)


class TestExtractBlock:
    """Arm i's block is the zero-filled matrix on rows 0..n1-1 and n1+i-1."""

    def test_noncompletable_fixture_blocks(self, pm_noncompletable):
        full = pm_noncompletable.zero_filled().array
        assert full[arm_rows(pm_noncompletable, 1)].tolist() == [[6, 3, 0], [3, 6, 3], [0, 3, 2]]
        assert full[arm_rows(pm_noncompletable, 2)].tolist() == [[6, 3, 3], [3, 6, 0], [3, 0, 2]]

    def test_zero_matrix(self):
        pm = zero_pm(3, 2)
        assert pm.zero_filled().order == 5
        assert np.all(pm.zero_filled().array[arm_rows(pm, 2)] == 0.0)

    def test_blocks_symmetric(self):
        rng = np.random.default_rng(0)
        pm = random_pm(rng, n1=4, S=3)
        for i in range(1, 4):
            b = pm.zero_filled().array[arm_rows(pm, i)]
            assert np.array_equal(b, b.T)
            assert np.array_equal(b, arm_block(pm, i))


class TestAssembleCompletion:
    """A completion fills the zero-filled matrix's entries between arms."""

    def test_known_witness_entry(self, pm_completable):
        comp = Completion(filled(pm_completable, {(2, 3): 0.25}), pm_completable)
        assert comp.full[2, 3] == 0.25
        assert comp.full[3, 2] == 0.25
        assert comp.full.order == 4
        assert comp.unspecified_entries() == {(2, 3): 0.25}

    def test_single_arm_has_no_off_blocks(self):
        pm = zero_pm(2, 1)
        comp = Completion(pm.zero_filled(), pm)
        assert comp.unspecified_entries() == {}
        assert pm.specified_mask().all()

    def test_random_agreement(self):
        rng = np.random.default_rng(4)
        pm = random_pm(rng, n1=2, S=3)
        entries = {(2, 3): rng.standard_normal(), (2, 4): rng.standard_normal(),
                   (3, 4): rng.standard_normal()}
        comp = Completion(filled(pm, entries), pm)
        assert agrees(comp.full, pm, 0.0)
        assert comp.unspecified_entries() == entries

    def test_wrong_count(self, pm_completable):
        # A matrix with one arm too many is no completion of the pattern.
        full = SymMatrix(np.eye(5))
        with pytest.raises(ValueError, match="^completion order 5 does not match pattern order 4$"):
            Completion(full, pm_completable)


class TestAgrees:
    def test_known_completion(self, pm_completable):
        assert agrees(filled(pm_completable, {(2, 3): 0.25}), pm_completable, 1e-9)

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
        n1, S = 2, 3
        total = n1 + S
        B = rng.uniform(0.0, 1.0, (total, total + 2))
        M = B @ B.T
        pm = partial_matrix_from_full(M, n1, S)
        for i in range(1, S + 1):
            rows = arm_rows(pm, i)
            assert np.allclose(pm.zero_filled().array[rows], M[rows], atol=1e-12)


def test_json_round_trip(pm_completable):
    obj = {
        "n1": 2, "n2": 1, "S": 2,
        "X": pm_completable.X.to_lists(),
        "Z": [z.tolist() for z in pm_completable.Z],
        "Y": [y.to_lists() for y in pm_completable.Y],
    }
    back = PartialMatrix.from_json_dict(obj)
    assert np.array_equal(back.zero_filled().array, pm_completable.zero_filled().array)
    with pytest.raises(ValueError):
        PartialMatrix.from_json_dict({"n1": 2})
    with pytest.raises(ValueError, match="^pattern size S must be an integer, got 2.9$"):
        PartialMatrix.from_json_dict({**obj, "S": 2.9})
    with pytest.raises(ValueError, match="^width must be one, got n2=2$"):
        PartialMatrix.from_json_dict({**obj, "n2": 2})


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
