import json
import os

import numpy as np
import pytest

from cppc import completion, conditions, oracles
from cppc.cli import parse_completion_problem
from cppc.completion import certify_completable
from cppc.conditions import (
    BOUNDED,
    INCONCLUSIVE,
    NOT_BOUNDED,
    ConstraintData,
    build_condition_report,
    check_Fi_bounded_sufficient,
    check_boundedness,
    check_cond_i,
    check_cond_iii,
    _recession_norm_max,
    _shared_region_form,
    _shared_region_nonempty,
)
from cppc.cones import FREE, ORTHANT, ZERO, free, interior_dual_contains, orthant, product, zero
from cppc.oracles import polyhedron_vertices, standard_form_feasible_point
from cppc.qp_relax import QPInstance, _polytope_bounded

from reference_checks import cond_iii_by_pairs, point_in_projection, sample_projection_points


def width_one_data(f_list, g_list, d_list, K0, f0=None, d0=0.0):
    return ConstraintData.width_one(K0, f_list, g_list, d_list, f0, d0)


@pytest.fixture
def data_completable():
    # Data for the rank-two completable fixture: f1 = f2 = g1 = 1, g2 = 2.
    return width_one_data([[1.0], [1.0]], [1.0, 2.0], [1.0, 1.0], orthant(1))


@pytest.fixture
def data_two_rows():
    # Polytope rows (1,2) and (2,1) with unit slack coefficients.
    return width_one_data(
        [[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0], [1.0, 1.0], orthant(2)
    )


class TestCondI:
    def test_positive_coefficients(self, data_completable):
        assert check_cond_i(data_completable) == [True, True]

    def test_zero_fails(self):
        data = width_one_data([[1.0]], [0.0], [1.0], orthant(1))
        assert check_cond_i(data) == [False]

    def test_negative_fails(self):
        data = width_one_data([[2.0]], [-3.0], [1.0], orthant(1))
        assert check_cond_i(data) == [False]

    def test_arm_kinds_decide_like_the_cones(self):
        # One kind per arm stands in for its one-dimensional cone.
        arms = [orthant(1), orthant(1), zero(1), zero(1), free(1), product(zero(0), orthant(1))]
        g = [2.0, 1e-10, -1.0, 0.0, 1.0, 0.5]
        data = ConstraintData.build(orthant(1), arms, [[0.0]] + [[1.0]] * 6,
                                    [[v] for v in g], [0.0] + [1.0] * 6)
        assert data.arm_kinds.tolist() == [ORTHANT, ORTHANT, ZERO, ZERO, FREE, ORTHANT]
        assert not data.arm_kinds.flags.writeable
        expected = [interior_dual_contains(cone, v) for cone, v in zip(arms, g)]
        assert expected == [True, False, True, True, False, True]
        assert check_cond_i(data) == expected
        assert all(type(v) is bool for v in check_cond_i(data))


class TestBuild:
    def test_one_element_arrays_are_scalars(self):
        args = (orthant(2), [orthant(1)], [np.zeros(2), np.ones(2)], [np.ones(1)])
        data = ConstraintData.build(*args, [0.0, np.array([1.0])])
        assert data.d.shape == (2,) and data.d.tolist() == [0.0, 1.0]
        width_one = ConstraintData.width_one(orthant(2), [np.ones(2)], [np.array([1.0])],
                                             [np.array([1.0])])
        assert np.array_equal(width_one.d, data.d)
        assert np.array_equal(width_one.g, data.g)

    def test_longer_arrays_raise_value_error(self):
        args = (orthant(2), [orthant(1)], [np.zeros(2), np.ones(2)], [np.ones(1)])
        with pytest.raises(ValueError, match="one-element"):
            ConstraintData.build(*args, [0.0, np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="arm cone has 1"):
            ConstraintData.width_one(orthant(2), [np.ones(2)], [np.ones(2)], [1.0])

    def test_data_is_held_as_read_only_arrays(self):
        data = ConstraintData.width_one(orthant(2), [[1.0, 0.5], [0.5, 1.0]], [1.0, 2.0],
                                        [1.0, 3.0], f0=[1.0, 1.0], d0=2.0)
        assert data.f.shape == (3, 2) and data.g.shape == (2, 1) and data.d.shape == (3,)
        assert data.f.tolist() == [[1.0, 1.0], [1.0, 0.5], [0.5, 1.0]]
        assert data.g[:, 0].tolist() == [1.0, 2.0] and data.d.tolist() == [2.0, 1.0, 3.0]
        for arr in (data.f, data.g, data.d):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_arm_cones_of_other_dimension_raise(self):
        # The paper's pattern has width one; a width-two arm is rejected at
        # construction, so no consumer of the data checks widths.
        with pytest.raises(ValueError, match="dimension one"):
            ConstraintData.build(
                orthant(2), [orthant(2)], [np.zeros(2), np.ones(2)], [np.ones(2)], [0.0, 1.0]
            )
        with pytest.raises(ValueError, match="dimension one"):
            ConstraintData.build(orthant(1), [zero(0)], [[0.0], [1.0]], [[]], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["f", "g", "d", "f0", "d0"])
    def test_non_finite_entries_raise(self, field, bad):
        # Comparisons with NaN are false, so unchecked data passes every check.
        parts = {"f0": [1.0], "f": [2.0], "g": 1.0, "d0": 1.0, "d": 1.0}
        parts[field] = [bad] if field in ("f0", "f") else bad
        with pytest.raises(ValueError, match="non-finite"):
            ConstraintData.build(orthant(1), [orthant(1)], [parts["f0"], parts["f"]],
                                 [parts["g"]], [parts["d0"], parts["d"]])


class TestConditionReport:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of ``check_cond_i`` calls and of condition reports."""
        counts = {"cond_i": 0, "reports": 0}
        cond_i, report = conditions.check_cond_i, conditions.build_condition_report

        def counted_cond_i(*args, **kwargs):
            counts["cond_i"] += 1
            return cond_i(*args, **kwargs)

        def counted_report(*args, **kwargs):
            counts["reports"] += 1
            return report(*args, **kwargs)

        monkeypatch.setattr(conditions, "check_cond_i", counted_cond_i)
        monkeypatch.setattr(completion, "build_condition_report", counted_report)
        return counts

    @pytest.mark.parametrize("g", [[1.0, 2.0], [1.0, 0.0]])
    def test_one_interior_test_per_report(self, counted, g):
        data = width_one_data([[1.0], [1.0]], g, [1.0, 1.0], orthant(1))
        report = build_condition_report(data)
        assert counted["cond_i"] == 1
        assert report.cond_i == report.boundedness.cond_i == [True, g[1] > 0]

    def test_one_interior_test_per_certified_report(self, counted):
        path = os.path.join(os.path.dirname(__file__), "fixtures", "completable_arrowhead.json")
        with open(path, encoding="utf-8") as fh:
            certify_completable(parse_completion_problem(json.load(fh)))
        assert counted["cond_i"] == counted["reports"] == 1

    def test_boundedness_alone_runs_the_interior_test(self, counted, data_two_rows):
        assert check_boundedness(data_two_rows).cond_i == [True, True]
        assert counted["cond_i"] == 1


class TestSufficientBounded:
    def test_strictly_positive_vector(self):
        data = width_one_data([[1.0, 1.0]], [1.0], [1.0], orthant(2),
                              f0=[1.0, 1.0], d0=1.0)
        assert check_Fi_bounded_sufficient(data, 0)

    def test_zero_vector_inconclusive(self):
        data = width_one_data([[1.0, 1.0]], [1.0], [1.0], orthant(2))
        assert not check_Fi_bounded_sufficient(data, 0)

    def test_boundary_of_dual_inconclusive(self):
        data = width_one_data([[1.0, 0.0]], [1.0], [1.0], orthant(2))
        assert not check_Fi_bounded_sufficient(data, 1)


class TestBoundedness:
    def test_two_row_polytope(self, data_two_rows):
        assert check_boundedness(data_two_rows).status == BOUNDED

    def test_recession_direction(self):
        data = width_one_data([[-1.0]], [1.0], [0.0], orthant(1))
        assert check_boundedness(data).status == NOT_BOUNDED

    def test_single_bounded_set_settles_it(self):
        data = width_one_data([[2.0, 3.0]], [1.0], [1.0], orthant(2))
        verdict = check_boundedness(data)
        assert verdict.status == BOUNDED
        assert "constraint set 1" in verdict.reason

    def test_free_cone_inconclusive_without_bounded_set(self):
        data = ConstraintData.build(
            free(2),
            [free(1)],
            [np.zeros(2), np.array([1.0, 0.0])],
            [np.ones(1)],
            [0.0, 1.0],
        )
        assert check_boundedness(data).status == INCONCLUSIVE

    def test_free_shared_cone_with_orthant_arms(self):
        # x free, one arm: x <= 1 leaves x unbounded below.
        data = width_one_data([[1.0]], [1.0], [1.0], free(1))
        assert check_boundedness(data).status == NOT_BOUNDED
        # two-sided rows pin the free coordinate
        data = width_one_data([[1.0], [-1.0]], [1.0, 1.0], [1.0, 1.0], free(1))
        assert check_boundedness(data).status == BOUNDED


    def test_shared_row_on_zero_coordinates_only(self):
        # f0 touches only the zero-cone coordinate, so f0.x = 0 != d0 = 1 and
        # the region is empty, although the recession cone is not {0}.
        data = ConstraintData.build(
            product(zero(1), orthant(1)),
            [orthant(1)],
            [np.array([1.0, 0.0]), np.array([1.0, -1.0])],
            [np.ones(1)],
            [1.0, 1.0],
        )
        verdict = check_boundedness(data)
        assert verdict.status == BOUNDED
        assert verdict.reason == "x-projection region is empty"

    def test_failed_certificate_is_inconclusive(self, monkeypatch):
        # Neither row alone bounds the region, so the recession LP decides;
        # a corrupted basis solve must not pass its certificate check.
        data = width_one_data(
            [[1.0, -0.5], [-0.5, 1.0]], [1.0, 1.0], [1.0, 1.0], orthant(2)
        )
        assert check_boundedness(data).status == BOUNDED
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, r: -solve(M, r))
        verdict = check_boundedness(data)
        assert verdict.status == INCONCLUSIVE
        assert "certificate failed" in verdict.reason


class TestNoSubsetEnumeration:
    """Decision procedures finish without the enumeration oracles."""

    @pytest.fixture(autouse=True)
    def forbid_oracles(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a decision procedure enumerated subsets")

        for name in ("polyhedron_vertices", "standard_form_feasible_point",
                     "lp_minimize_standard"):
            monkeypatch.setattr(oracles, name, forbidden)

    @staticmethod
    def mixed_rows(rng, S, n):
        # Row i is negative in coordinate i mod n, so no row alone bounds the
        # region, while every column sum stays positive: the region is bounded.
        F = rng.uniform(0.2, 1.0, (S, n))
        F[np.arange(S), np.arange(S) % n] = -rng.uniform(0.05, 0.3, S)
        return F

    def test_mixed_arrowhead_n10(self):
        rng = np.random.default_rng(7)
        F = self.mixed_rows(rng, 14, 10)
        data = width_one_data(F, rng.uniform(0.5, 1.5, 14), np.ones(14), orthant(10))
        verdict = check_boundedness(data)
        assert verdict.status == BOUNDED
        assert "recession cone" in verdict.reason

    def test_polytope_bounded_mixed_qp_n8(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((8, 8))
        qp = QPInstance.build(-G @ G.T / 8, np.zeros(8), self.mixed_rows(rng, 8, 8),
                              np.ones(8))
        assert _polytope_bounded(qp)

    @pytest.mark.parametrize(
        "name", ["completable_arrowhead.json", "noncompletable_arrowhead.json"]
    )
    def test_arrowhead_fixtures(self, name):
        path = os.path.join(os.path.dirname(__file__), "fixtures", name)
        with open(path, encoding="utf-8") as fh:
            problem = parse_completion_problem(json.load(fh))
        cert = certify_completable(problem)
        assert cert.report is None or cert.report.boundedness.status == BOUNDED


VACUOUS = "arm references need a vacuous shared constraint (f0 = 0, d0 = 0)"


class TestScalarLambda:
    """The multiplier rules of condition (iii), each on data with one or two
    arms."""

    def test_identical_rows_give_one(self):
        data = width_one_data([[1.0, 2.0]], [1.0], [1.0], orthant(2),
                              f0=[1.0, 2.0], d0=1.0)
        assert check_cond_iii(data) == ((0, [1.0]), "")

    def test_scaled_reference(self):
        # reference scaled by alpha >= alpha_i with unit right-hand sides:
        # unity is feasible and preferred over the interval's end 0.5
        u = np.array([2.0, 2.0])
        data = width_one_data([1.0 * u, 0.5 * u], [1.0, 1.0], [1.0, 1.0], orthant(2))
        assert check_cond_iii(data) == ((1, [1.0, 1.0]), "")

    def test_empty_interval(self):
        # lambda >= 3 from the second coordinate, lambda <= 2 from d
        data = width_one_data([[2.0, 3.0]], [1.0], [2.0], orthant(2),
                              f0=[1.0, 1.0], d0=1.0)
        assert check_cond_iii(data) == (
            None, f"reference 0: no multiplier for arm 1; {VACUOUS}")

    def test_free_coordinate_pins_lambda(self):
        K = product(orthant(1), free(1))
        data = width_one_data([[0.5, 1.0]], [1.0], [1.0], K, f0=[1.0, 2.0], d0=1.0)
        assert check_cond_iii(data) == ((0, [0.5]), "")
        # Pin at 0.5 conflicts with the orthant bound lambda >= 0.6.
        data = width_one_data([[0.6, 1.0]], [1.0], [1.0], K, f0=[1.0, 2.0], d0=1.0)
        assert check_cond_iii(data) == (
            None, f"reference 0: no multiplier for arm 1; {VACUOUS}")

    def test_sign_restriction(self):
        # The shared hyperplane -x = 0 takes the free multiplier -1 for x <= 1.
        data = width_one_data([[1.0]], [1.0], [1.0], orthant(1), f0=[-1.0], d0=0.0)
        assert check_cond_iii(data) == ((0, [-1.0]), "")
        # As arm 1, the half-space -x <= 2 would need the same -1 for arm 2's
        # x <= 1; the nonnegative sign rejects it, and arm 2 is the reference.
        data = width_one_data([[-1.0], [1.0]], [1.0, 1.0], [2.0, 1.0], orthant(1))
        assert check_cond_iii(data) == ((2, [1.0, 1.0]), "")

    @pytest.mark.parametrize("K, f, d, f0, d0", [
        # the pins 1 and 1 + 5e-12 disagree, though f0 - f1 is within slack
        (free(2), [1.0, 0.1 + 5e-13], 1.0, [1.0, 0.1], 1.0),
        # d_0 = 0 needs d_1 >= 0 exactly, not within slack
        (orthant(1), [0.0], -5e-13, [1.0], 0.0),
        # the pins 0.01 and 0.01 + 5e-13 agree, but 0.01 f0 - f1 misses by 5e-11
        (free(2), [0.01, 1.0 + 5e-11], 1.0, [1.0, 100.0], 1.0),
        # f0 = 0 on a free coordinate needs |f1| <= 1e-12 there, not within
        # the slack 1e-11 of lambda = 10
        (product(orthant(1), free(1)), [10.0, 5e-12], 10.0, [1.0, 0.0], 1.0),
        # and on an orthant coordinate f1 <= 0 there, exactly
        (orthant(2), [10.0, 5e-12], 10.0, [1.0, 0.0], 1.0),
        # the pin 0.01 - 5e-13 is within tolerance of the orthant bound 0.01,
        # but 100 lambda - 1 misses by 5e-11
        (product(orthant(1), free(1)), [1.0, 0.01 - 5e-13], 1.0, [100.0, 1.0], 1.0),
        # the pin 1 + 5e-13 is within tolerance of d1 / d0 = 1, but lambda d0
        # exceeds d1 by 5e-11
        (free(1), [1.0 + 5e-13], 100.0, [1.0], 100.0),
        # the pin 1 + 5e-12 exceeds d1 / d0 = 1 beyond tolerance; the
        # zero-cone entry 100 widens the re-check's slack to 1e-10
        (product(free(1), zero(1)), [1.0 + 5e-12, 100.0], 1.0, [1.0, 0.0], 1.0),
        # and the pin 1 - 5e-12 falls short of the orthant bound 1
        (product(free(1), orthant(1), zero(1)), [1.0 - 5e-12, 1.0, 100.0], 1.0,
         [1.0, 1.0, 0.0], 1.0),
    ])
    def test_tolerance_edges(self, K, f, d, f0, d0):
        data = width_one_data([f], [1.0], [d], K, f0=f0, d0=d0)
        expected = (None, f"reference 0: no multiplier for arm 1; {VACUOUS}")
        assert check_cond_iii(data) == cond_iii_by_pairs(data) == expected


class TestCondIII:
    def test_completable_fixture_data(self, data_completable):
        assert check_cond_iii(data_completable) == ((1, [1.0, 1.0]), "")

    def test_shared_reference_branch(self):
        # Shared constraint u.x = 1 with u = (2,2) dominating both rows.
        data = width_one_data(
            [[1.0, 2.0], [2.0, 1.0]],
            [1.0, 1.0],
            [1.0, 1.0],
            orthant(2),
            f0=[2.0, 2.0],
            d0=1.0,
        )
        result, reason = check_cond_iii(data)
        assert result is not None and reason == ""
        i_star, lams = result
        assert i_star == 0
        assert lams == [1.0, 1.0]

    def test_crossing_rows_fail(self):
        data = width_one_data(
            [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [1.0, 1.0], orthant(2)
        )
        assert check_cond_iii(data) == (None, "; ".join(
            f"reference {r}: no multiplier for arm {i}" for r, i in ((0, 1), (1, 2), (2, 1))
        ))

    def test_certificate_order_prefers_larger_rhs(self):
        data = width_one_data([[1.0], [1.0]], [1.0, 1.0], [1.0, 2.0], orthant(1))
        result, _ = check_cond_iii(data)
        assert result is not None
        # reference must be the tighter (larger-d first fails, d=1 contains d=2)
        i_star, lams = result
        assert i_star in (1, 2)
        for lam, (fi, di) in zip(lams, [(1.0, 1.0), (1.0, 2.0)]):
            assert lam * data.d[i_star] <= di + 1e-12


def random_cond_iii_data(rng):
    """Data over a product of orthant, free and zero cones (each possibly of
    dimension 0), with up to four arms (possibly none), whose entries come
    from a small grid with zeros and both signs, so that bounds tie,
    pins agree and right-hand sides vanish or turn negative; tenths make
    some intervals empty only by roundoff."""
    kinds = [orthant, free, zero]
    K0 = product(*(kinds[k](int(rng.integers(0, 3)))
                   for k in rng.choice(3, size=int(rng.integers(1, 4)))))
    S = int(rng.integers(0, 5))
    grid = np.array([-2.0, -1.0, -0.9, -0.5, -0.3, 0.0, 0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0, 2.0])
    f = [rng.choice(grid, K0.dim) for _ in range(S)]
    d = rng.choice(np.r_[grid, 1.0, 1.0], S)
    f0, d0 = np.zeros(K0.dim), 0.0
    if rng.random() < 0.5:
        # a shared row, half the time a multiple of an arm's
        f0 = rng.choice(grid, K0.dim) if rng.random() < 0.5 or not S else rng.choice(grid) * f[0]
        d0 = float(rng.choice(grid)) if np.any(f0) else 0.0
    return width_one_data(f, [1.0] * S, d, K0, f0, d0)


def test_cond_iii_matches_the_pairwise_reference():
    rng = np.random.default_rng(18)
    seen = {"shared": 0, "arm": 0, "none": 0, "free pin": 0, "d_r < 0": 0, "d_r = 0": 0,
            "no arm": 0, "no coordinate": 0}
    for _ in range(2500):
        data = random_cond_iii_data(rng)
        cert, reason = check_cond_iii(data)
        ref_cert, ref_reason = cond_iii_by_pairs(data)
        assert reason == ref_reason
        if ref_cert is None:
            assert cert is None
            seen["none"] += 1
            continue
        assert cert[0] == ref_cert[0]
        # bit-identical multipliers, signed zeros included
        assert np.array(cert[1]).tobytes() == np.array(ref_cert[1]).tobytes()
        r = cert[0]
        seen["arm" if r else "shared"] += 1
        seen["free pin"] += bool(np.any(data.f[r][data.K0.kinds == FREE]))
        seen["d_r < 0"] += data.d[r] < 0.0
        seen["d_r = 0"] += data.d[r] == 0.0
        seen["no arm"] += data.S == 0
        seen["no coordinate"] += data.nx == 0
    assert min(seen.values()) >= 20, seen


def test_cond_iii_soundness_by_sampling():
    rng = np.random.default_rng(0)
    certified = 0
    for _ in range(25):
        nx = int(rng.integers(1, 4))
        S = int(rng.integers(1, 4))
        f = [rng.uniform(-1.0, 2.0, nx) for _ in range(S)]
        g = [float(rng.uniform(0.1, 2.0)) for _ in range(S)]
        d = [float(rng.uniform(0.2, 2.0)) for _ in range(S)]
        data = width_one_data(f, g, d, orthant(nx))
        cert, _ = check_cond_iii(data)
        if cert is None:
            continue
        certified += 1
        i_star, _ = cert
        pts = sample_projection_points(data, i_star, 400, rng)
        for x in pts:
            for i in range(data.S + 1):
                assert point_in_projection(data, i, x, 1e-7)
    assert certified >= 3


def test_bounded_verdict_matches_ray_probing():
    rng = np.random.default_rng(1)
    for _ in range(20):
        nx = int(rng.integers(1, 4))
        S = int(rng.integers(1, 4))
        f = [rng.uniform(-0.5, 1.5, nx) for _ in range(S)]
        g = [1.0] * S
        d = [float(rng.uniform(0.2, 2.0)) for _ in range(S)]
        data = width_one_data(f, g, d, orthant(nx))
        verdict = check_boundedness(data)
        if verdict.status != BOUNDED:
            continue
        # No sampled feasible point may escape a generous norm bound.
        pts = sample_projection_points(data, 1, 500, rng, ray_scale=1e3)
        far = [
            x
            for x in pts
            if all(point_in_projection(data, i, x, 1e-9) for i in range(data.S + 1))
            and np.linalg.norm(x) > 1e5
        ]
        assert not far


def vertex_recession_max(data):
    """Reference for ``_recession_norm_max``: the largest l1 norm (orthant
    sum plus free absolute values) over the vertices of the recession cone
    cut by the box, by exhaustive vertex enumeration."""
    kinds = data.K0.kinds
    keep = [j for j, k in enumerate(kinds) if k != ZERO]
    is_orth = np.array([kinds[j] == ORTHANT for j in keep], dtype=bool)
    n = len(keep)
    f0 = data.f[0][keep]
    rows = [f0, -f0] + [data.f[i][keep] for i in range(1, data.S + 1)]
    rhs = [0.0] * len(rows)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if is_orth[j]:
            rows.append(-e)
            rhs.append(0.0)
        else:
            rows += [e, -e]
            rhs += [1.0, 1.0]
    if is_orth.any():
        rows.append(is_orth.astype(float))
        rhs.append(1.0)
    verts = polyhedron_vertices(np.array(rows), np.array(rhs), nonneg=False)
    return max(
        (float(x[is_orth].sum() + np.abs(x[~is_orth]).sum()) for x in verts),
        default=0.0,
    )


def random_shared_data(rng, n_max=5, S_max=6):
    """Small data over an orthant or orthant-times-free ``K0``; arm rows with
    mixed signs, some negative right-hand sides, sometimes a shared row."""
    n = int(rng.integers(1, n_max + 1))
    S = int(rng.integers(1, S_max + 1))
    n_free = int(rng.integers(0, n + 1)) if rng.random() < 0.5 else 0
    K0 = orthant(n) if n_free == 0 else product(orthant(n - n_free), free(n_free))
    f = [rng.uniform(-1.0, 1.0, n) * (rng.random() < 0.9) for _ in range(S)]
    d = rng.uniform(-0.5, 1.5, S)
    if rng.random() < 0.3:
        return width_one_data(f, [1.0] * S, d, K0, rng.uniform(-1.0, 1.0, n),
                              float(rng.uniform(-1.0, 1.0)))
    return width_one_data(f, [1.0] * S, d, K0)


def test_recession_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(5)
    zero = positive = 0
    for _ in range(200):
        data = random_shared_data(rng)
        ref = vertex_recession_max(data)
        got = _recession_norm_max(data)
        assert (got <= 1e-9) == (ref <= 1e-9)
        if data.K0.is_orthant_like():
            assert got == pytest.approx(ref, abs=1e-9)
        zero += ref <= 1e-9
        positive += ref > 1e-9
    assert zero >= 20 and positive >= 20


def test_region_phase_one_matches_enumeration():
    # Smaller sizes than above: the reference enumerates every basis of the
    # phase-1 system, C(columns + rows, rows) of them.
    rng = np.random.default_rng(6)
    empty = nonempty = 0
    for _ in range(200):
        data = random_shared_data(rng, n_max=3, S_max=4)
        A, b = _shared_region_form(data)
        ref = standard_form_feasible_point(A, b)
        ok, cert = _shared_region_nonempty(data)
        assert ok == (ref is not None)
        if ok:
            assert cert.min() >= 0.0 and np.allclose(A @ cert, b, atol=1e-9)
        else:
            assert np.all(A.T @ cert <= 1e-9) and b @ cert > 0.0
        empty += not ok
        nonempty += ok
    assert empty >= 20 and nonempty >= 20
