"""Harness tests: decomposition tables, instance checks, suite determinism,
and the deliberate fault-injection self-test."""

from fractions import Fraction
import itertools
import json
import random

import pytest

from minkval.cplx import ComplexMatrix2, Cplx
import minkval.harness as harness
from minkval.harness import (
    CHECKS,
    check_equivariance,
    check_degenerate_vanishing,
    check_uniqueness_translates,
    check_valuation_additivity,
    homogeneous_decomposition,
    rand_direction,
    rand_polytope,
    run_suite,
    shear_simplex_expected_atoms,
    verify_shear_simplex_area_measure,
)
from minkval.polytope import Polytope, convex_hull
from minkval.valuations import SupportEvaluator, ValuationOp, covariant_of

F = Fraction


def unit_cube4():
    return convex_hull(list(itertools.product((0, 1), repeat=4)))


def seg_m11():
    return Polytope.segment((-1, 0), (1, 0))


def seg_0i():
    return Polytope.segment((0, 0), (0, 1))


def triangle2():
    return convex_hull([(0, 0), (1, 0), (0, 1)])


def unit_square2():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


# -- decomposition tables ------------------------------------------------------


def test_decomposition_pi_n_pure_degree3():
    K = unit_cube4()
    op = ValuationOp("pi_n", N=seg_m11())
    dirs = [(1, 0, 0, 0), (1, 2, -1, 3)]
    table = homogeneous_decomposition(op, K, dirs)
    ev = SupportEvaluator(op, K)
    for w, row in zip(dirs, table.coefficients):
        assert row[3] == ev.at(w)
        assert all(row[k] == 0 for k in (0, 1, 2, 4))


def test_decomposition_diff_pure_degree1():
    K = unit_cube4()
    table = homogeneous_decomposition(ValuationOp("diff"), K, [(1, 1, 1, 1)])
    row = table.coefficients[0]
    assert row[1] == 4  # h([-1,1]^4, (1,1,1,1)) = sum of |xi_i|
    assert all(row[k] == 0 for k in (0, 2, 3, 4))


def test_decomposition_z_combined_splits_degrees():
    rng = random.Random(60)
    K = rand_polytope(rng, min_verts=5, max_verts=7)
    M, N = seg_0i(), seg_m11()
    op = ValuationOp("z_combined", M=M, N=N)
    dirs = [rand_direction(rng) for _ in range(4)]
    table = homogeneous_decomposition(op, K, dirs)
    ev1 = SupportEvaluator(ValuationOp("dtilde_m", M=M), K)
    ev3 = SupportEvaluator(ValuationOp("pi_n", N=N), K)
    for w, row in zip(dirs, table.coefficients):
        assert row[0] == row[2] == row[4] == 0
        assert row[1] == ev1.at(w)
        assert row[3] == ev3.at(w)


# -- instance checks -----------------------------------------------------------


def test_additivity_cube_proj():
    rep = check_valuation_additivity(
        ValuationOp("proj"), unit_cube4(), (1, 0, 0, 0), F(1, 2),
        [(1, 1, 1, 1), (2, -1, 0, 3)],
    )
    assert rep.passed


def test_additivity_random_z_combined():
    rng = random.Random(61)
    P = rand_polytope(rng, min_verts=8, max_verts=8)
    op = ValuationOp("z_combined", M=triangle2(), N=unit_square2())
    dirs = [rand_direction(rng) for _ in range(10)]
    rep = check_valuation_additivity(op, P, (1, 1, 0, 0), F(1, 4), dirs)
    assert rep.passed


def test_additivity_hyperplane_missing_body():
    rep = check_valuation_additivity(
        ValuationOp("diff"), unit_cube4(), (1, 0, 0, 0), 100, [(1, 2, 3, 4)]
    )
    assert rep.passed


def test_equivariance_shear_pi_n():
    g = ComplexMatrix2.shear_upper(Cplx.of(1, 1))
    rep = check_equivariance(
        ValuationOp("pi_n", N=seg_m11()), unit_cube4(), g, [(1, 0, 0, 0), (1, 2, 3, 4)]
    )
    assert rep.passed


def test_equivariance_diag_d_m():
    g = ComplexMatrix2.diagonal(Cplx.of(3), Cplx.of(F(1, 3)))
    rep = check_equivariance(
        ValuationOp("d_m", M=seg_0i()), unit_cube4(), g, [(1, 1, 0, 0), (0, 1, -2, 5)]
    )
    assert rep.passed


def test_equivariance_covariant_companion():
    rng = random.Random(62)
    g = ComplexMatrix2.shear_lower(Cplx.of(F(1, 2), 1))
    op = covariant_of(ValuationOp("pi_n", N=triangle2()))
    K = rand_polytope(rng, min_verts=5, max_verts=6)
    rep = check_equivariance(op, K, g, [rand_direction(rng) for _ in range(5)])
    assert rep.passed


def test_equivariance_requires_sl():
    with pytest.raises(ValueError):
        check_equivariance(
            ValuationOp("proj"), unit_cube4(),
            ComplexMatrix2.diagonal(Cplx.of(2), Cplx.of(1)), [(1, 0, 0, 0)],
        )


# -- sheared simplex atoms ------------------------------------------------------


def test_shear_simplex_identity_case():
    rep = verify_shear_simplex_area_measure(F(1), F(1), Cplx.of(0))
    assert rep.passed
    atoms = shear_simplex_expected_atoms(F(1), F(1), Cplx.of(0))
    assert atoms == {
        (F(0), F(0), F(-1, 2)),
        (F(0), F(-1, 2), F(0)),
        (F(-1, 2), F(0), F(0)),
        (F(1, 2), F(1, 2), F(1, 2)),
    }


def test_shear_simplex_gamma_1_plus_i():
    atoms = shear_simplex_expected_atoms(F(1), F(1), Cplx.of(1, 1))
    assert (F(1, 2), F(1, 2), F(-1, 2)) in atoms
    assert verify_shear_simplex_area_measure(F(1), F(1), Cplx.of(1, 1)).passed


def test_shear_simplex_negative_parameters():
    rng = random.Random(63)
    for _ in range(8):
        a = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        b = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        gamma = Cplx(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
        assert verify_shear_simplex_area_measure(a, b, gamma).passed


def test_shear_simplex_rejects_degenerate():
    with pytest.raises(ValueError):
        verify_shear_simplex_area_measure(0, 1, Cplx.of(0))


# -- degenerate vanishing and uniqueness ------------------------------------------


def test_degenerate_vanishing_both_strata():
    op = ValuationOp("pi_n", N=triangle2())
    assert check_degenerate_vanishing(op, "plane2", seed=1, trials=5).passed
    assert check_degenerate_vanishing(op, "e_plane", seed=1, trials=5).passed
    with pytest.raises(ValueError):
        check_degenerate_vanishing(ValuationOp("diff"), "plane2", seed=1, trials=1)


def test_uniqueness_translates_and_separation():
    rep = check_uniqueness_translates("d_m", seg_0i(), unit_square2(), seed=2, trials=5)
    assert rep.passed
    assert "separated_by" in rep.witness


def test_uniqueness_requires_distinct_measures():
    M = triangle2()
    with pytest.raises(ValueError):
        check_uniqueness_translates("pi_n", M, M.translate((1, 1)), seed=3, trials=2)


# -- suite ------------------------------------------------------------------------


def test_run_suite_zero_trials_empty():
    assert run_suite(seed=42, trials=0) == []


def test_run_suite_deterministic():
    r1 = run_suite(seed=7, trials=3)
    r2 = run_suite(seed=7, trials=3)
    assert [r.to_json() for r in r1] == [r.to_json() for r in r2]
    assert all(r.passed for r in r1)


def test_run_suite_only_filter():
    reports = run_suite(seed=7, trials=2, only="shear_simplex_atoms")
    assert len(reports) == 1
    assert reports[0].check == "shear_simplex_atoms"
    with pytest.raises(ValueError):
        run_suite(seed=7, trials=2, only="nope")


def test_fault_injection_flips_dtilde_consistency():
    # running the consistency check under the wrong conjugation convention
    # must fail with a replayable witness: this validates the harness itself
    rep = CHECKS["dtilde_consistency"](42, 3, conjugate_atoms=False)
    assert not rep.passed
    assert rep.witness["conjugate_atoms"] is False
    assert "K" in rep.witness and "w" in rep.witness
    # replay: same seed, honest convention -> passes
    again = run_suite(seed=42, trials=3, only="dtilde_consistency")
    assert len(again) == 1
    assert again[0].passed


def test_all_checks_registered():
    expected = {
        "kernel_invariants", "known_values", "mixed_volume_oracles",
        "valuation_additivity", "equivariance", "homogeneity_spectrum",
        "degenerate_vanishing", "shear_simplex_atoms", "phi_equivariance",
        "dtilde_consistency", "det32_pattern", "uniqueness_translates",
    }
    assert set(CHECKS) == expected


# each check sees a fault planted in what it tests: name is the harness name
# the fault replaces, fault(real) the faulty stand-in for real, and seen
# tells the fault's mark in the witness


def _plus_one(dirs, D, ns):
    """The integer form (D, ns) of the values plus 1 at the cleared dirs."""
    return D, [n + D * t for n, (t, _) in zip(ns, dirs)]


def _plus_one_on(kind):
    def fault(real):
        class Shifted(real):
            def integer_form(self, dirs):
                D, ns = super().integer_form(dirs)
                return _plus_one(dirs, D, ns) if self.op.kind == kind else (D, ns)

        return Shifted

    return fault


def _reads_alpha(real):
    # pi_n evaluated at (beta, alpha) in place of (alpha, beta): still zero
    # at every direction on the plane2 bodies, but it sees alpha on e_plane
    class Swapped(real):
        def integer_form(self, dirs):
            if self.op.kind == "pi_n":
                dirs = [(t, (*W[2:], *W[:2])) for t, W in dirs]
            return super().integer_form(dirs)

    return Swapped


def _reads_translation(real):
    # adds the first coordinate of M's first vertex, which a translate of M
    # moves, to d_m's values
    class Translated(real):
        def integer_form(self, dirs):
            D, ns = super().integer_form(dirs)
            if self.op.kind != "d_m":
                return D, ns
            x = F(self.op.M.vertices[0][0])
            p, q = x.numerator, x.denominator
            return D * q, [n * q + p * D * t for n, (t, _) in zip(ns, dirs)]

    return Translated


def _scaled_action(real):
    # the group acts by 2g, which is not in SL(2, C); a shift of one kind's
    # evaluator would cancel between the two sides of equivariance
    return lambda g, K: real(g, K).scale(2)


PLANTED = {
    # the split loses its middle piece
    "valuation_additivity": (
        "split_by_hyperplane",
        lambda real: lambda P, xi, c: (*real(P, xi, c)[:2], Polytope.empty(4)),
        lambda w: w["lhs"] != w["rhs"]),
    "equivariance": ("group_action", _scaled_action, lambda w: w["lhs"] != w["rhs"]),
    # a constant, degree 0, in the difference body's support
    "homogeneity_spectrum": ("SupportEvaluator", _plus_one_on("diff"),
                             lambda w: w["op"] == "diff" and w["nonzero_degrees"] == [0, 1]),
    # a constant in pi_n's support, which vanishes on a C-independent 2-plane
    "degenerate_vanishing/plane2": ("SupportEvaluator", _plus_one_on("pi_n"),
                                    lambda w: set(w) == {"stratum", "K", "trial"}
                                    and w["stratum"] == "plane2"),
    "degenerate_vanishing/e_plane": ("SupportEvaluator", _reads_alpha,
                                     lambda w: w["stratum"] == "e_plane" and w["lhs"] != w["rhs"]
                                     and set(w) == {"stratum", "K", "alpha", "beta", "lhs", "rhs",
                                                    "trial"}),
    "uniqueness_translates": ("SupportEvaluator", _reads_translation,
                              lambda w: w["kind"] == "d_m"
                              and set(w) == {"kind", "t", "w", "trial"}),
    "mixed_volume_oracles": ("mixed_volume_31", lambda real: lambda K, L: real(K, L) + 1,
                             lambda w: Fraction(w["facet_form"]) == Fraction(w["polarization"]) + 1),
    "known_values": ("mixed_volume", lambda real: lambda *bodies: 2 * real(*bodies),
                     lambda w: (w["which"], w["got"]) == ("V(seg1..seg4)", "1/12")),
    # the sum drops its second summand
    "kernel_invariants": ("minkowski_sum", lambda real: lambda P, Q: P,
                          lambda w: set(w) == {"support_additivity", "P", "trial"}),
    "det32_pattern": ("group_action", _scaled_action,
                      lambda w: w["t3_g0_inverse"] == w["t4_g_inverse"] != w["lhs"]),
}


@pytest.mark.parametrize("case", PLANTED)
def test_planted_fault_fails_the_check(case, monkeypatch):
    # a case is a check name, or check/stratum for a check with more than one
    check = case.split("/")[0]
    name, fault, seen = PLANTED[case]
    monkeypatch.setattr(harness, name, fault(getattr(harness, name)))
    rep = CHECKS[check](42, 3)
    assert rep.status == "fail" and rep.check == check
    record = json.loads(rep.to_json())
    assert record["status"] == "fail" and record["check"] == check and record["seed"] == 42
    assert seen(record["witness"])
    # the fault shows at once, and the report counts one trial; known_values
    # checks one fixed instance and names no trial
    assert rep.trials == 1 and record["witness"].get("trial", 0) == 0
    assert ("trial" in record["witness"]) == (check != "known_values")


# the drivers build each trial's shared body once, whatever the number of
# operators: the split of P, the hull gK, or the five dilates of K

SHARED = {
    "valuation_additivity": (harness, "split_by_hyperplane", 3),
    "equivariance": (harness, "group_action", 3),
    "homogeneity_spectrum": (Polytope, "scale", 15),
}


@pytest.mark.parametrize("check", SHARED)
def test_shared_bodies_built_once_per_trial(check, monkeypatch):
    owner, name, want = SHARED[check]
    real = getattr(owner, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    assert CHECKS[check](42, 3).passed
    assert len(calls) == want


def test_public_checks_agree_with_the_shared_path(monkeypatch):
    rng = random.Random(63)
    ops = harness._suite_ops(rng)
    ops.append(covariant_of(ValuationOp("pi_n", N=triangle2())))
    P = rand_polytope(rng, min_verts=5, max_verts=8)
    xi = rand_direction(rng)
    c = (P.support(xi) - P.support(tuple(-x for x in xi))) / 2
    g = harness.rand_sl2(rng)
    dirs = [rand_direction(rng) for _ in range(4)]
    pieces = harness.split_by_hyperplane(P, xi, c)
    gK = harness._sl_action(g, P)
    dilates = harness._dilates(P)

    def both(op):
        shared_additivity = harness._additivity_witness([op], P, pieces, xi, c, dirs)
        shared_equivariance = harness._equivariance_witness([op], P, gK, g, dirs)
        return (
            (check_valuation_additivity(op, P, xi, c, dirs, 5),
             harness._instance_report("valuation_additivity", 5, shared_additivity)),
            (check_equivariance(op, P, g, dirs, 5),
             harness._instance_report("equivariance", 5, shared_equivariance)),
            (homogeneous_decomposition(op, P, dirs), harness._decomposition(op, dilates, dirs)),
        )

    for op in ops:
        additivity, equivariance, decomposition = both(op)
        assert decomposition[0] == decomposition[1]
        for public, shared in (additivity, equivariance):
            assert public == shared and public.passed

    # an evaluator that misreads P alone fails both checks: the witnesses agree too
    class OffOnP(SupportEvaluator):
        def integer_form(self, dirs):
            D, ns = super().integer_form(dirs)
            return _plus_one(dirs, D, ns) if self.K is P else (D, ns)

    monkeypatch.setattr(harness, "SupportEvaluator", OffOnP)
    for op in ops:
        for public, shared in both(op)[:2]:
            assert public == shared and public.status == "fail" and public.witness["op"] == op.kind


def test_shear_simplex_check_agrees_with_its_witness(monkeypatch):
    a, b, gamma = F(-3, 2), F(2, 5), Cplx(F(1, 3), F(-7, 4))

    def both():
        return (verify_shear_simplex_area_measure(a, b, gamma, 5),
                harness._instance_report("shear_simplex_atoms", 5,
                                         harness._shear_simplex_witness(a, b, gamma)))

    public, shared = both()
    assert public == shared and public.passed and public.witness is None

    # closed-form atoms missing one atom: both fail with the same witness
    real = harness.shear_simplex_expected_atoms
    monkeypatch.setattr(harness, "shear_simplex_expected_atoms",
                        lambda *args: set(sorted(real(*args))[1:]))
    public, shared = both()
    assert public == shared and public.status == "fail"
    assert len(public.witness["expected"]) == 3 and len(public.witness["computed"]) == 4
