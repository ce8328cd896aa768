import numpy as np
import pytest

from cppc import cones
from cppc.cones import (
    FREE,
    ORTHANT,
    ZERO,
    GroundCone,
    cone_contains,
    cp_factorize,
    dual_cone,
    free,
    interior_dual_contains,
    is_cp,
    is_dnn,
    is_psd,
    orthant,
    orthant_pattern,
    principal_cp,
    product,
    zero,
)
from cppc.matrix_core import SymMatrix

from reference_checks import arm_block, cone_contains_by_factor, interior_dual_contains_by_factor


class TestGroundCone:
    def test_product_flattens(self):
        k = product(orthant(1), product(free(2), zero(1)))
        assert k.factors == (("orthant", 1), ("free", 2), ("zero", 1))
        assert k.dim == 4

    def test_json_round_trip(self):
        k = product(orthant(2), free(1))
        assert GroundCone.from_json_dict(k.to_json_dict()) == k
        assert GroundCone.from_json_dict({"orthant": 3}) == orthant(3)
        with pytest.raises(ValueError):
            GroundCone.from_json_dict({"weird": 2})

    def test_dimensions_must_be_integers(self):
        for bad in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="^cone factor orthant dimension must be an integer"):
                GroundCone.from_json_dict({"orthant": bad})
        with pytest.raises(ValueError, match="^cone factor free dimension must be an integer"):
            GroundCone.from_json_dict({"product": [{"orthant": 1}, {"free": 0.5}]})
        assert orthant(np.int64(2)).dim == 2


class TestCoordinateKinds:
    def test_one_kind_per_coordinate(self):
        K = product(orthant(2), free(0), zero(1), free(1), orthant(0))
        assert K.kinds.tolist() == [ORTHANT, ORTHANT, ZERO, FREE]
        assert K.dim == 4
        assert product().kinds.size == product().dim == 0

    def test_read_only_and_built_once(self):
        K = product(orthant(1), free(2))
        assert K.kinds is K.kinds
        assert not K.kinds.flags.writeable
        with pytest.raises(ValueError):
            K.kinds[0] = ZERO

    def test_orthant_like(self):
        assert product(orthant(2), zero(1), free(0)).is_orthant_like()
        assert not product(orthant(2), free(1)).is_orthant_like()

    def test_orthant_pattern(self):
        K = product(orthant(1), free(1), zero(1))
        rows = [True, True, False, False, True, True]
        assert np.array_equal(orthant_pattern(K, 2), np.outer(rows, rows))
        assert np.array_equal(orthant_pattern(K), np.outer(rows[:4], rows[:4]))
        assert orthant_pattern(orthant(0)).tolist() == [[True]]


def random_cone(rng, repeat_kinds):
    """A product cone of factors of random kind and dimension 0..2.  Without
    ``repeat_kinds`` each kind has at most one factor of positive dimension,
    plus two of dimension zero."""
    kinds = (ORTHANT, FREE, ZERO)
    if repeat_kinds:
        picks = rng.integers(0, 3, rng.integers(1, 6))
        factors = [(kinds[k], int(rng.integers(0, 3))) for k in picks]
    else:
        factors = [(kinds[k], int(rng.integers(0, 3))) for k in range(3)]
        factors += [(kinds[k], 0) for k in rng.integers(0, 3, 2)]
        factors = [factors[k] for k in rng.permutation(len(factors))]
    return GroundCone(tuple(factors))


def test_kind_masks_match_the_factor_loops():
    # NaN entries only on cones with at most one factor of positive
    # dimension per kind: on others the factor loop's answer depends on how
    # a kind is split into factors, the masks' does not (next test).
    rng = np.random.default_rng(3)
    # Values on both sides of both tolerances, and on them.
    values = np.array([-1.0, -1e-6, -2e-9, -1e-9, 0.0, 1e-9, 2e-9, 1e-6, 1.0, np.nan])
    seen_contains, seen_dual = set(), set()
    for trial in range(600):
        nan = trial % 2 == 1
        K = random_cone(rng, repeat_kinds=not nan)
        pool = values if nan else values[:-1]
        g = rng.choice(pool, K.dim)
        rows = rng.choice(pool, (int(rng.integers(0, 4)), K.dim))
        for tol in (1e-9, 1e-6):
            for x in (g, rows):
                got = cone_contains(K, x, tol)
                assert got == cone_contains_by_factor(K, x, tol), (K, x, tol)
                seen_contains.add((nan, got))
            for x in (g, g[None, :]):
                got = interior_dual_contains(K, x, tol)
                assert got == interior_dual_contains_by_factor(K, x, tol), (K, x, tol)
                seen_dual.add((nan, got))
    # Both verdicts of both tests, with and without NaN entries.
    both = {(nan, v) for nan in (False, True) for v in (False, True)}
    assert seen_contains == seen_dual == both


def test_nan_passes_its_kinds_test_however_the_kind_is_split():
    # orthant(1) x orthant(1) is the set orthant(2): one answer for both.
    x = np.array([np.nan, -1.0])
    for K in (orthant(2), product(orthant(1), orthant(1))):
        assert cone_contains(K, x) and interior_dual_contains(K, x)
    assert not cone_contains(product(orthant(1), free(1)), x[::-1])


class TestConeContains:
    def test_interior_point(self):
        assert cone_contains(orthant(2), [0.25, 0.25])

    def test_origin_in_every_cone(self):
        for k in (orthant(3), free(2), zero(2), product(orthant(1), free(1))):
            assert cone_contains(k, np.zeros(k.dim))

    def test_negative_coordinate(self):
        assert not cone_contains(orthant(3), [1.0, -1.0, 0.0], 1e-9)

    def test_zero_factor(self):
        assert cone_contains(zero(2), [0.0, 1e-12])
        assert not cone_contains(zero(2), [0.0, 1e-3])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_contains(orthant(2), [1.0])
        with pytest.raises(ValueError):
            cone_contains(orthant(2), np.zeros((3, 3)))

    def test_rows_of_a_matrix(self):
        K = product(orthant(1), zero(1), free(1))
        rows = np.array([[0.0, 0.0, -5.0], [2.0, 1e-12, 3.0]])
        assert cone_contains(K, rows)
        assert cone_contains(K, np.zeros((0, 3)))
        for bad in ([-1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]):
            assert not cone_contains(K, np.vstack([rows, bad]))


class TestDualCone:
    def test_orthant_self_dual(self):
        assert dual_cone(orthant(4)) == orthant(4)

    def test_free_zero_swap(self):
        assert dual_cone(free(3)) == zero(3)
        assert dual_cone(zero(3)) == free(3)

    def test_product_factorwise(self):
        k = product(orthant(1), free(2))
        assert dual_cone(k) == product(orthant(1), zero(2))

    def test_involution(self):
        for k in (orthant(2), free(1), zero(3), product(orthant(1), free(2), zero(1))):
            assert dual_cone(dual_cone(k)) == k


class TestInteriorDual:
    def test_positive_scalar(self):
        assert interior_dual_contains(orthant(1), [1.0])

    def test_positive_pair(self):
        assert interior_dual_contains(orthant(2), [2.0, 2.0])

    def test_boundary_fails(self):
        assert not interior_dual_contains(orthant(2), [1.0, 0.0])

    def test_free_factor_has_empty_dual_interior(self):
        assert not interior_dual_contains(free(2), [0.0, 0.0])
        assert not interior_dual_contains(product(orthant(1), free(1)), [1.0, 0.0])

    def test_zero_factor_unconstrained(self):
        assert interior_dual_contains(zero(2), [-5.0, 7.0])

    def test_implies_dual_membership(self):
        rng = np.random.default_rng(0)
        k = product(orthant(2), zero(1))
        for _ in range(50):
            g = rng.standard_normal(3)
            if interior_dual_contains(k, g):
                assert cone_contains(dual_cone(k), g)


class TestMatrixMembership:
    def test_psd_boundary_block(self, pm_noncompletable):
        assert is_psd(arm_block(pm_noncompletable, 1))
        assert is_psd(arm_block(pm_noncompletable, 2))

    def test_identity_psd(self):
        assert is_psd(np.eye(5))

    def test_indefinite(self):
        # eigenvalues 3 and -1
        assert not is_psd([[1.0, 2.0], [2.0, 1.0]])

    def test_dnn_on_gram(self):
        rng = np.random.default_rng(1)
        B = rng.uniform(0.0, 1.0, (4, 6))
        assert is_dnn(B @ B.T)

    def test_dnn_negative_entry(self):
        assert not is_dnn([[1.0, -0.1], [-0.1, 1.0]])

    def test_cp_small_member(self, pm_completable):
        v = is_cp(arm_block(pm_completable, 1))
        assert v.is_member
        v = is_cp(arm_block(pm_completable, 2))
        assert v.is_member

    def test_cp_zero_matrix(self):
        v = is_cp(np.zeros((3, 3)))
        assert v.is_member
        assert v.witness is not None and np.all(v.witness == 0.0)

    def test_cp_order_five_gram(self):
        rng = np.random.default_rng(2)
        B = rng.uniform(0.0, 1.0, (5, 7))
        M = B @ B.T
        v = is_cp(M, tol=1e-7)
        assert v.is_member
        assert np.linalg.norm(v.witness @ v.witness.T - M) <= 1e-6 * max(
            1.0, np.abs(M).max()
        )

    def test_cp_order_five_dnn_not_cp_is_unknown(self):
        M = horn_violator()
        assert is_dnn(M)
        v = is_cp(M)
        assert v.verdict == cones.UNKNOWN and v.witness is None
        assert "inconclusive for orders above 4" in v.detail

    def test_cp_order_five_not_dnn(self):
        M = horn_violator()
        M[0, 2] = M[2, 0] = -0.1
        v = is_cp(M)
        assert v.verdict == cones.NOT_MEMBER
        assert v.detail == "negative entry -0.1 at (0, 2)"
        v = is_cp(0.6 * np.ones((5, 5)) - 0.2 * np.eye(5))
        assert v.verdict == cones.NOT_MEMBER
        assert v.detail.startswith("negative eigenvalue")

    def test_cp_matches_dnn_below_order_five(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                B = rng.uniform(0.0, 1.0, (n, n + 1))
                m = B @ B.T
            else:
                m = rng.standard_normal((n, n))
                m = m + m.T
            verdict = is_cp(m)
            assert verdict.verdict == (
                cones.MEMBER if is_dnn(m) else cones.NOT_MEMBER
            )


class TestPrincipalCp:
    def test_submatrices_read_off_one_factor(self, monkeypatch):
        rng = np.random.default_rng(7)
        B = rng.uniform(0.0, 1.0, (7, 9))
        M = B @ B.T
        index_sets = [np.r_[:4, 4 + i] for i in range(3)]
        calls = []
        factorize = cones.cp_factorize
        monkeypatch.setattr(
            cones, "cp_factorize", lambda *a, **k: calls.append(1) or factorize(*a, **k)
        )
        whole, verdicts = principal_cp(M, index_sets, source="M")
        assert calls == [1]
        assert whole.verdict == cones.MEMBER
        for I, v in zip(index_sets, verdicts, strict=True):
            assert v.is_member and v.detail == "rows of M's nonnegative factor"
            assert np.array_equal(v.witness, whole.witness[I])
            sub = M[np.ix_(I, I)]
            assert np.linalg.norm(v.witness @ v.witness.T - sub) <= 1e-8 * np.abs(sub).max()

    def test_not_dnn_decides_each_submatrix_alone(self):
        M = horn_violator()
        M[0, 2] = M[2, 0] = -0.1
        index_sets = [np.r_[0, 1, 3], np.r_[0, 2, 4]]
        whole, verdicts = principal_cp(M, index_sets)
        assert whole is None
        for I, v in zip(index_sets, verdicts, strict=True):
            want = is_cp(M[np.ix_(I, I)])
            assert (v.verdict, v.detail) == (want.verdict, want.detail)
        assert [v.verdict for v in verdicts] == [cones.MEMBER, cones.NOT_MEMBER]

    def test_no_factor_decides_each_submatrix_alone(self):
        whole, verdicts = principal_cp(horn_violator(), [np.r_[0, 1, 2]])
        assert whole.verdict == cones.UNKNOWN
        assert verdicts[0].detail == (
            "doubly nonnegative and order <= 4, hence completely positive"
        )


def counted_searches(monkeypatch):
    calls = []
    factorize = cones.cp_factorize
    monkeypatch.setattr(
        cones, "cp_factorize", lambda *a, **k: calls.append(1) or factorize(*a, **k)
    )
    return calls


def spoiled(B, how):
    """``B`` with one column negated (``B B^T`` unchanged, so only the sign
    check rejects it) or scaled by 1.001 (rejected by its residual)."""
    B = B.copy()
    B[:, 0] *= -1.0 if how == "negative" else 1.001
    return B


class TestCandidateFactor:
    @pytest.mark.parametrize("how", ["negative", "perturbed"])
    @pytest.mark.parametrize("order", [4, 7])
    def test_failed_candidate_changes_no_verdict(self, monkeypatch, how, order):
        B = np.random.default_rng(order).uniform(0.0, 1.0, (order, order + 2))
        M = B @ B.T
        want = is_cp(M)
        calls = counted_searches(monkeypatch)
        got = is_cp(M, candidate=spoiled(B, how))
        assert len(calls) == 1
        assert (got.verdict, got.detail) == (want.verdict, want.detail)
        assert np.array_equal(got.witness, want.witness)

    def test_failed_candidate_leaves_unknown(self):
        M = horn_violator()
        v = is_cp(M, candidate=np.sqrt(M))
        assert v.verdict == cones.UNKNOWN and v.witness is None

    @pytest.mark.parametrize("order, detail", [
        (4, "doubly nonnegative and order <= 4, hence completely positive"),
        (7, "nonnegative factorization found"),
    ])
    def test_passing_candidate_replaces_the_search(self, monkeypatch, order, detail):
        B = np.random.default_rng(order).uniform(0.0, 1.0, (order, order + 2))
        M = B @ B.T
        calls = counted_searches(monkeypatch)
        v = is_cp(M, candidate=B)
        assert calls == []
        assert (v.verdict, v.detail) == (cones.MEMBER, detail) and v.witness is B
        # A negative entry still decides before any candidate is read.
        M[0, 1] = M[1, 0] = -0.1
        assert is_cp(M, candidate=B).verdict == cones.NOT_MEMBER


class TestCpFactorize:
    def test_diagonal(self):
        B = cp_factorize(np.diag([4.0, 9.0]))
        assert B is not None
        assert np.allclose(sorted(np.linalg.norm(B, axis=0)), [2.0, 3.0], atol=1e-8)

    def test_rank_two_average_of_lifts(self):
        v1 = np.array([1, 0, 0.5, 0, 0.5])
        v2 = np.array([1, 0.5, 0, 0.5, 0])
        M = 0.5 * np.outer(v1, v1) + 0.5 * np.outer(v2, v2)
        B = cp_factorize(M, tol=1e-6)
        assert B is not None
        assert B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - M) <= 1e-6

    def test_random_gram_batch(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 3))
            Bt = rng.uniform(0.0, 1.0, (n, r))
            M = Bt @ Bt.T
            B = cp_factorize(M, tol=1e-6)
            assert B is not None
            assert B.min() >= 0.0

    def test_non_dnn_rejected_immediately(self):
        assert cp_factorize([[1.0, -0.5], [-0.5, 1.0]]) is None

    def test_failure_is_none_not_error(self):
        # DNN but not CP: no factor exists, so the search must end in None.
        assert cp_factorize(horn_violator()) is None


class TestFactorSearch:
    """The relaxed-projection search on the inputs the completion path
    hands it, and the spectrum it shares with the DNN check."""

    @staticmethod
    def ladder_like(rng, n, S):
        """Gram matrix of order n+1+S and rank n+1, shaped like the
        max-determinant completion of an arrowhead with a nonnegative
        completion: rows ``v0``, ``V`` and arms ``(v0 - f_i^T V) / g_i``."""
        v0 = rng.uniform(1.0, 2.0, n + 1)
        V = rng.uniform(0.0, 1.0, (n, n + 1))
        F = rng.uniform(0.5, 1.0, S)[:, None] * rng.uniform(0.2, 1.0, n)[None, :]
        V *= 0.5 / ((F @ V) / v0).max()
        W = (v0 - F @ V) / rng.uniform(0.5, 1.5, S)[:, None]
        B = np.vstack([v0, V, W])
        return B @ B.T

    @pytest.mark.parametrize("n, S", [(6, 10), (7, 12), (8, 12)])
    def test_ladder_shaped_gram_within_svd_budget(self, monkeypatch, n, S):
        M = self.ladder_like(np.random.default_rng(0), n, S)
        assert np.linalg.matrix_rank(M) == n + 1
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        tol = 1e-8 * np.abs(M).max()
        B = cp_factorize(M, tol)
        # Plain alternation spends 400 steps on the identity start alone and
        # took 138, 4416 and 5016 SVDs on these three; reflected steps from
        # random starts took 181, 261 and 211, over-relaxed ones (λ = 4) 21,
        # 91 and 51, with the Newton finish at every tenth step 11, 31 and
        # 11, and with the residual read and the finish tried at every step
        # they take 10, 4 and 2 (plus 7, 2 and 4 least-squares solves).  The
        # margin of two steps leaves room for rounding to move a step.
        assert len(calls) <= {6: 10, 7: 4, 8: 2}[n] + 2
        assert B is not None and B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - M) <= tol

    @pytest.mark.parametrize("n, S", [(6, 10), (7, 12), (8, 12)])
    def test_search_stops_at_the_first_step_that_meets_tol(self, monkeypatch, n, S):
        # With the Newton finish off, the Procrustes tail itself reaches the
        # threshold (after 18, 84 and 41 steps); the residual read at every
        # step ends the search there, where a reading at every tenth step
        # took up to nine SVDs more.
        M = self.ladder_like(np.random.default_rng(0), n, S)
        tol = 1e-8 * np.abs(M).max()
        monkeypatch.setattr(cones, "_newton_finish", lambda *a: None)
        rotate, svd = cones._rotate_to_nonnegative, np.linalg.svd
        roots, residuals = [], []

        def recording_rotate(m, root, *args):
            roots.append(root)
            return rotate(m, root, *args)

        def recording_svd(a, **k):
            u, s, vt = svd(a, **k)
            if roots and a.shape[0] == roots[-1].shape[1]:  # a Procrustes step
                b = np.maximum(roots[-1] @ (u @ vt), 0.0)
                residuals.append(np.linalg.norm(b @ b.T - M))
            return u, s, vt

        monkeypatch.setattr(cones, "_rotate_to_nonnegative", recording_rotate)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        B = cp_factorize(M, tol)
        assert B is not None and cones._factors(B, M, tol)
        assert residuals[-1] <= tol < min(residuals[:-1])

    @staticmethod
    def sparse_gram(seed, n, r):
        """``B B^T`` for ``B`` of shape ``(n, r)``, 40 % of it nonzero."""
        rng = np.random.default_rng(seed)
        Bt = rng.uniform(0.0, 1.0, (n, r)) * (rng.random((n, r)) < 0.4)
        return Bt @ Bt.T

    def test_sparse_low_rank_gram_factors(self):
        # Order 12, rank 3: with reflections (λ = 2) only the clip steps of
        # the second start reached the threshold; the over-relaxed steps
        # (λ = 4) factor it on the first start.
        M = self.sparse_gram(25, 12, 3)
        tol = 1e-8 * max(1.0, np.abs(M).max())
        B = cp_factorize(M, tol)
        assert B is not None and B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - M) <= tol

    def test_over_relaxed_steps_need_the_clip_starts(self, monkeypatch):
        # Order 7 from 9 columns, default_rng(145): the second start, a clip
        # start, reaches the threshold; with over-relaxed steps (and the
        # Newton finish) on every start the search ends above it.
        M = self.sparse_gram(145, 7, 9)
        tol = 1e-8 * max(1.0, np.abs(M).max())
        B = cp_factorize(M, tol)
        assert B is not None and B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - M) <= tol
        rotate = cones._rotate_to_nonnegative
        monkeypatch.setattr(cones, "_rotate_to_nonnegative",
                            lambda m, root, q, limit, relaxed, switch:
                            rotate(m, root, q, limit, True, switch))
        assert cp_factorize(M, tol) is None

    def test_newton_finish_factors_a_stalled_rotation(self, monkeypatch):
        # Order 5, rank 5, 40 % of the factor nonzero: without the finish the
        # best rotation ends at 37 times the threshold; the finish factors it.
        M = self.sparse_gram(649, 5, 5)
        assert np.linalg.matrix_rank(M) == 5
        tol = 1e-8 * max(1.0, np.abs(M).max())
        B = cp_factorize(M, tol)
        assert B is not None and cones._factors(B, M, tol)
        monkeypatch.setattr(cones, "_newton_finish", lambda *a: None)
        assert cp_factorize(M, tol) is None

    def test_newton_finish_keeps_rows_orthonormal(self, monkeypatch):
        M = self.ladder_like(np.random.default_rng(0), 7, 12)
        tol = 1e-8 * np.abs(M).max()
        finish = cones._newton_finish
        tries = []
        monkeypatch.setattr(cones, "_newton_finish", lambda *a: tries.append(a) or finish(*a))
        assert cp_factorize(M, tol) is not None
        m, root, q, res, limit = tries[-1]
        solve = np.linalg.solve
        cayley = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: cayley.append(solve(a, b)) or cayley[-1])
        B, B_res = finish(m, root, q, res, limit)
        assert len(cayley) >= 2
        for C in cayley:
            q = q @ C
            assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-12
        assert np.array_equal(B, np.maximum(root @ q, 0.0))
        assert B_res <= limit and cones._factors(B, m, limit)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_newton_finish_zeroes_entries_just_above_zero(self, seed):
        # x = root @ Q a small rotation away from an exact factor with zeros:
        # about half of those zeros sit just above zero, and Newton steps on
        # the negative entries alone leave them there and fail.
        rng = np.random.default_rng(seed)
        B = rng.uniform(0.0, 1.0, (8, 10)) * (rng.random((8, 10)) < 0.5)
        M = B @ B.T
        w, v = np.linalg.eigh(M)
        root = v[:, w > 1e-12 * M.max()] * np.sqrt(w[w > 1e-12 * M.max()])
        S = 1e-3 * rng.standard_normal((10, 10))
        eye = np.eye(10)
        q = np.linalg.pinv(root) @ B @ np.linalg.solve(eye - (S - S.T) / 2, eye + (S - S.T) / 2)
        x = root @ q
        assert (x[B == 0] > 0).any() and (x[B == 0] < 0).any()
        b = np.maximum(x, 0.0)
        tol = 1e-8 * M.max()
        finished = cones._newton_finish(M, root, q, np.linalg.norm(b @ b.T - M), tol)
        assert finished is not None and cones._factors(finished[0], M, tol)

    def test_non_cp_search_work(self, monkeypatch):
        # horn_violator() has no factor: each of the 24 starts (8 at each of
        # the widths 5, 7, 10) makes one SVD for its rotation and one per
        # step, and ends once it stalls, after at least _STALL_WINDOW steps
        # (24 x 401 = 9,624 SVDs without the stall exit).  Its residual never
        # falls below the switch, so the finish is never tried.
        svd, lstsq = np.linalg.svd, np.linalg.lstsq
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: calls.append("lstsq") or lstsq(*a, **k))
        assert cp_factorize(horn_violator()) is None
        assert 24 * (1 + cones._STALL_WINDOW) <= calls.count("svd") <= 2500
        assert "lstsq" not in calls

    def test_stalled_start_ends_before_its_budget(self, monkeypatch):
        # A start on a matrix without a factor ends at the stall exit, well
        # before its step budget, with its last candidate and that residual.
        M = horn_violator()
        w, v = np.linalg.eigh(M)
        root = v * np.sqrt(w)
        u, _, vt = np.linalg.svd(np.random.default_rng(0).standard_normal((5, 7)),
                                 full_matrices=False)
        svd = np.linalg.svd
        b0 = np.maximum(root @ (u @ vt), 0.0)
        residuals = [np.linalg.norm(b0 @ b0.T - M)]

        def recording_svd(a, **k):
            uu, s, vv = svd(a, **k)
            b = np.maximum(root @ (uu @ vv), 0.0)
            residuals.append(np.linalg.norm(b @ b.T - M))
            return uu, s, vv

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        b, res = cones._rotate_to_nonnegative(M, root, u @ vt, 1e-7, True, 1e-2 * 1.6)
        assert len(residuals) < 1 + cones._ROTATION_ITERS
        assert res == residuals[-1] > 1e-7
        assert np.linalg.norm(b @ b.T - M) == res

    def test_rank_one_with_negative_root(self, monkeypatch):
        v = np.array([0.5, 1.0, 2.0, 0.0, 3.0, 1.5])
        M = np.outer(v, v)
        eigh = cones.jacobi_eigh

        def negative_root(m):
            w, V = eigh(m)
            V[:, -1] = -np.abs(V[:, -1])
            return w, V

        monkeypatch.setattr(cones, "jacobi_eigh", negative_root)
        B = cp_factorize(M, 1e-10)
        assert B is not None and B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - M) <= 1e-10
        assert np.allclose(B[:, np.argmax(B.sum(axis=0))], v)

    def test_one_spectrum_per_decision(self, monkeypatch):
        rng = np.random.default_rng(5)
        B = rng.uniform(0.0, 1.0, (6, 8))
        M = B @ B.T
        eigh = cones.jacobi_eigh
        calls = []
        monkeypatch.setattr(cones, "jacobi_eigh", lambda m: calls.append(1) or eigh(m))
        assert is_cp(M).is_member
        assert len(calls) == 1
        calls.clear()
        principal_cp(M, [np.r_[:3], np.r_[2:5]])
        assert len(calls) == 1

    def test_standalone_search_checks_dnn(self):
        # Passes the PSD test only within 1e-6; cp_factorize alone checks at 1e-8.
        M = np.ones((5, 5)) - 1e-7 * np.eye(5)
        M[0, 0] += 5e-7
        w, _ = np.linalg.eigh(M)
        assert -1e-6 < w.min() < -1e-8
        assert cp_factorize(M) is None


def horn_violator():
    """``I + 0.6 (P + P^T)`` for the 5-cycle shift ``P``: doubly nonnegative
    (smallest eigenvalue 0.029), but ``<H, M> = -1`` for the copositive Horn
    matrix ``H``, so not completely positive."""
    P = np.roll(np.eye(5), 1, axis=1)
    return np.eye(5) + 0.6 * (P + P.T)


def test_principal_submatrices_of_cp_are_dnn():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        B = rng.uniform(0.0, 1.0, (n, n + 2))
        M = B @ B.T
        for _ in range(3):
            k = int(rng.integers(1, n + 1))
            idx = rng.choice(n, size=k, replace=False)
            sub = M[np.ix_(idx, idx)]
            assert is_dnn(SymMatrix(0.5 * (sub + sub.T)))
