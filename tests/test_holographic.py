"""Coefficient routes, Q-curvature duality, master relations, critical suite."""

import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from holoq import conformal, families, grid, holographic
from holoq.conformal import curvature, gradient
from holoq.families import (
    FieldPoly,
    LambdaOperator,
    PoleError,
    build_T,
    master3_weights,
    over_lcm,
    pair_derivative,
    pair_value,
    values_on_one,
)
from holoq.grid import TorusChart
from holoq.holographic import (
    EinsteinModel,
    conformal_covariance_q4,
    constant_q,
    conformal_suite,
    critical_n4_suite,
    critical_suite_n4,
    einstein_checks,
    example_2_3_checks,
    family_poly,
    holo_coeffs,
    holographic_q,
    master_check_numeric,
    numeric_suite,
    poly_checks,
    q4_direct,
    qres_and_v_polys,
    torus_q,
)
from holoq.lambda_algebra import LAMBDA, LambdaPoly, pochhammer
from holoq.presets import preset_phi
from holoq.reports import max_abs, tolerance_report
from holoq.sphere import SphereContext, sphere_Q
from test_conformal import read_only, reference_divergence_form, reference_laplacian


def bundle(n=4, size=64, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


def flat_bundle(n=4, size=32):
    ch = TorusChart(n, (size, size))
    return curvature(ch, np.zeros(ch.shape))


class TestCoefficients:
    def test_flat_values(self):
        b = flat_bundle(n=7)
        assert np.all(holo_coeffs(b, 0) == 1.0)
        for k in range(1, 8):
            assert np.all(holo_coeffs(b, k) == 0.0), k


class TestQCurvature:
    def test_flat_vanishes(self):
        b = flat_bundle()
        assert np.all(b.J == 0.0)
        assert np.all(q4_direct(b) == 0.0)
        assert np.max(np.abs(torus_q(b, 2))) < 1e-15

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_dual_route_agreement(self, n):
        b = bundle(n=n)
        gap = np.max(np.abs(torus_q(b, 2) - q4_direct(b)))
        assert gap < 1e-6 * max(1.0, np.max(np.abs(q4_direct(b))))

    def test_prefactor(self):
        # (-1)^N 4^{N-1} ((N-1)!)^2 on the weights 2N - 2j: at N = 3,
        # -64 (6 v6 + 4 T*_2(v4) + 2 T*_4(v2))
        assert holographic_q(3, [Fraction(1), Fraction(10), Fraction(100)]) == -64 * 246
        assert holographic_q(1, [Fraction(-1, 2)]) == 1

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_order_on_tori(self, n, size):
        # Q_{2N}, 2N <= n, by the one formula: Q2 is J, Q4 the direct Q4, and
        # every Q_{2N} is the Q-value of Qres_{2N}, Qres(N - n/2) = -(n/2 - N) Q
        # below the critical order and Q = Qres'(0) at it
        b = bundle(n=n, size=size, preset="trig2")
        assert np.array_equal(torus_q(b, 1), b.J)
        q4 = torus_q(b, 2)
        assert np.max(np.abs(q4 - q4_direct(b))) <= 1e-13 * max(1.0, np.max(np.abs(q4)))
        for N in range(1, min(3, n // 2) + 1):
            q = torus_q(b, N)
            qres = qres_and_v_polys(b, N)[0]
            scale = max(1.0, np.max(np.abs(q)))
            if 2 * N < n:
                gap = qres.eval(N - Fraction(n, 2)) + (n / 2 - N) * q
            else:
                gap = qres.coeffs[1] - q
            assert np.max(np.abs(gap)) <= 1e-13 * scale, N


class TestEinsteinModel:
    def test_sphere_specialization_q4(self):
        model = EinsteinModel(4, Fraction(2))
        assert model.q4() == 6
        assert model.v(1) == -1
        assert model.v(2) == Fraction(3, 8)

    def test_sphere_specialization_q6(self):
        assert einstein_q(EinsteinModel(6, Fraction(3)), 3) == 120
        assert einstein_q(EinsteinModel(8, Fraction(4)), 3) == 720

    def test_off_sphere_value_is_rational(self):
        q6 = einstein_q(EinsteinModel(6, Fraction(1, 2)), 3)
        assert q6 == Fraction(40, 9) * Fraction(1, 8)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_every_order_scales_the_sphere(self, n):
        # Q_{2N} = (2J/n)^N Q_{2N}(S^n), exactly, for N <= 6 (2N <= n for even n)
        for J in (Fraction(n, 2), Fraction(7, 3), Fraction(-2), Fraction(1, 5)):
            model = EinsteinModel(n, J)
            v = [model.v(k) for k in range(7)]
            ts = values_on_one(n, v)
            for N in range(1, (min(6, n // 2) if n % 2 == 0 else 6) + 1):
                want = (2 * model.J / n) ** N * sphere_Q(SphereContext(n), N)
                assert constant_q(n, ts, v, N) == want, (J, N)

    def test_checks_all_pass(self):
        for n, J in ((4, Fraction(2)), (6, Fraction(3)), (6, Fraction(1, 3)), (8, Fraction(4))):
            for rep in einstein_checks(n, J):
                assert rep.passed, rep.id

    def test_q6_compared_with_scaled_sphere(self, monkeypatch):
        # Q6 of an Einstein metric is (2J/n)^3 Q6(S^n); a generated T*_4 off
        # by 1/1000 moves the holographic route away from it. (At n = 6, T*_4
        # enters Q6 at lam = 0, where it vanishes, so n = 8.)
        checks = {r.id: r for r in einstein_checks(8, Fraction(7, 3))}
        assert checks["einstein-q6"].passed
        original = holographic.values_on_one

        def scaled(n, v):
            out = original(n, v)
            out[2] = out[2] * Fraction(1001, 1000)
            return out

        monkeypatch.setattr(holographic, "values_on_one", scaled)
        checks = {r.id: r for r in einstein_checks(8, Fraction(7, 3))}
        assert not checks["einstein-q6"].passed

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11])
    def test_reference_constants(self, n):
        # the generated T*_2, T*_4 on constants against the constants as
        # first written by hand, as rational functions of lam
        for J in (Fraction(7, 3), Fraction(3), Fraction(-2), Fraction(1, 5), Fraction(n, 2)):
            model = EinsteinModel(n, J)
            values = values_on_one(n, [model.v(k) for k in range(3)])
            c = model.v(1)
            assert values[1] * c == reference_t2_star(model, LAMBDA, c), J
            assert values[2] * c == reference_t4_star(model, LAMBDA, c), J


def einstein_q(model, N):
    """Q_{2N} of the constant-curvature model by the holographic formula."""
    v = [model.v(k) for k in range(N + 1)]
    return constant_q(model.n, values_on_one(model.n, v), v, N)


def reference_t2_star(model, mu, c):
    """T*_2(mu)(c) on a constant-curvature model, as first written by hand."""
    return -mu * model.J * c / (2 * (model.n - 2 - 2 * mu))


def reference_t4_star(model, mu, c):
    """T*_4(mu)(c) on a constant-curvature model, as first written by hand."""
    num = mu * ((mu + 2) * model.J**2 + (2 * mu - model.n + 2) * model.schouten_norm_sq())
    return c * num / (8 * (model.n - 2 - 2 * mu) * (model.n - 4 - 2 * mu))


# The (j, k) pairs of T*_{2j}(v_{2k}) that the numeric suite evaluates.
SUITE_PAIRS = ((1, 0), (1, 1), (2, 0))

# Evaluation points of lam: SAMPLES spread over the rationals, EXTRA_POINTS
# the poles at n = 4 (0, 1) and n = 6 (1, 2) and points either side of them.
SAMPLES = tuple(Fraction(x) for x in ("0", "1/3", "5", "-2", "7/2"))
EXTRA_POINTS = tuple(Fraction(x) for x in (-3, -1, 1, 2, 3, 4, 6))


def _outcome(thunk):
    try:
        return thunk()
    except PoleError as exc:
        return exc


class TestFamilyPolys:
    @pytest.mark.parametrize("n", [4, 6])
    def test_cached_pair_matches_apply_at_bitwise(self, n):
        b = bundle(n=n, size=32)
        points = set(SAMPLES) | set(EXTRA_POINTS)
        for j, k in SUITE_PAIRS:
            op = build_T(n, j).adjoint()
            pair = family_poly(b, j, k)
            for lam in sorted(points):
                got = _outcome(lambda: pair_value(pair, lam))
                want = _outcome(lambda: op.apply_at(b, holo_coeffs(b, k), lam))
                if isinstance(want, PoleError):
                    assert isinstance(got, PoleError), (j, k, lam)
                    continue
                assert np.array_equal(got[0], want[0]), (j, k, lam)
                assert got[1] == want[1], (j, k, lam)

    def test_removable_pole(self):
        b = bundle(n=4, size=32)
        op = build_T(4, 2).adjoint()
        ones = holo_coeffs(b, 0)
        got, info = pair_value(family_poly(b, 2, 0), Fraction(0))
        want, want_info = op.apply_at(b, ones, Fraction(0))
        assert info["reduced"] == want_info["reduced"] >= 1
        assert np.array_equal(got, want)
        slope, _ = pair_derivative(family_poly(b, 2, 0), Fraction(0))
        assert np.array_equal(slope, op.derivative_at(b, ones, Fraction(0))[0])

    def test_denominator_is_lcm(self):
        # The terms of T*_4(1) at n = 4 have denominators lam (lam - 1), 1 and
        # lam; their lcm leaves three numerator fields and a simple pole at 0.
        b = bundle(n=4, size=32)
        num, den = family_poly(b, 2, 0)
        assert den == LAMBDA * (LAMBDA - 1)
        assert len(num.coeffs) == 3
        _, info = pair_value((num, den), Fraction(0))
        assert info["reduced"] == 1

    def test_genuine_pole_raises(self):
        # T*_2 at n = 4 has its pole at lam = 1, and v2 = -J/2 leaves a residue.
        b = bundle(n=4, size=32)
        with pytest.raises(PoleError):
            pair_value(family_poly(b, 1, 1), Fraction(1))

    def test_numeric_suite_builds_each_pair_once(self, monkeypatch):
        calls = []
        original = LambdaOperator.field_poly

        def spy(self, b, f):
            calls.append((b.n, b.chart.derivative))
            return original(self, b, f)

        monkeypatch.setattr(LambdaOperator, "field_poly", spy)
        numeric_suite(n_values=(4, 6), size=32)
        # on the run's grid; the spectral chart's metric is a metric of its own
        assert 0 < calls.count((4, "stencil")) <= 3
        assert 0 < calls.count((6, "stencil")) <= 3


def _all_pass(reports):
    assert reports
    for rep in reports:
        assert rep.passed, (rep.id, rep.residual, rep.tol)


def _master3_numerator(b, N):
    terms = list(zip(master3_weights(b.n, N), holographic._t_star_pairs(b, N)))
    return reference_cleared_sum(terms)[0]


def _bounded_at(rep, total, lams):
    """A passing coefficientwise check bounds its cleared numerator at every
    lam: each coefficient is at most rep.tol, so the value at lam is at most
    rep.tol * sum_k |lam|^k."""
    assert rep.passed, (rep.id, rep.residual, rep.tol)
    for lam in lams:
        bound = rep.tol * sum(abs(float(lam)) ** k for k in range(len(total.coeffs)))
        assert max_abs(total.eval(lam)) <= bound, (rep.id, lam)


class TestMasterRelation:
    def test_flat_exact_zero(self):
        reports = master_check_numeric(flat_bundle(n=5), 1)
        assert [r.id for r in reports] == ["master3-n5-N1"]
        assert all(r.passed and r.residual == 0.0 for r in reports)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_first_order(self, n):
        _all_pass(master_check_numeric(bundle(n=n), 1))

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(5)])
    def test_second_order_n4(self, lam):
        b = bundle(n=4)
        (rep,) = master_check_numeric(b, 2)
        _bounded_at(rep, _master3_numerator(b, 2), [lam])

    def test_second_order_n6(self):
        # 2 and 1 are the poles of T*_4 at n = 6: the cleared polynomial has none.
        b = bundle(n=6)
        (rep,) = master_check_numeric(b, 2)
        _bounded_at(rep, _master3_numerator(b, 2), [Fraction(7, 2), Fraction(2), Fraction(1)])

    @pytest.mark.parametrize("n", [4, 6])
    def test_displayed_identities(self, n):
        # the right sides have poles at n/2 - 1 and n/2 - 2; the cleared
        # numerators, decided coefficientwise, have none
        reports = example_2_3_checks(bundle(n=n))
        assert [r.id for r in reports] == [f"ex23-i-n{n}", f"ex23-ii-n{n}"]
        _all_pass(reports)


def _perturbed_bundle(n=4, size=32, eps=1e-3):
    """A bundle whose cached T*_4(lam)(1) is off by eps * bump * prod(lam - l)
    over SAMPLES, with the one-cell bump away from the point where |Q4|
    peaks. Its values at SAMPLES and at that grid point are left untouched."""
    b = bundle(n=n, size=size)
    peak = np.unravel_index(int(np.argmax(np.abs(q4_direct(b)))), b.chart.shape)
    bump = np.zeros(b.chart.shape)
    bump[(peak[0] + size // 2) % size, (peak[1] + size // 2) % size] = eps
    vanishing = LAMBDA ** 0
    for lam in SAMPLES:
        vanishing = vanishing * (LAMBDA - lam)
    num, den = family_poly(b, 2, 0)
    perturbed = FieldPoly([c.copy() for c in num.coeffs])
    perturbed += FieldPoly([bump]).mul_poly(vanishing * den)
    b.family_polys[(2, 0)] = (perturbed, den)
    return b


class TestCoefficientwise:
    def test_perturbation_between_samples_detected(self):
        b = _perturbed_bundle()
        reports = master_check_numeric(b, 2) + example_2_3_checks(b) + poly_checks(b, 2)
        failed = {r.id for r in reports if not r.passed}
        assert {"master3-n4-N2", "ex23-i-n4", "ex23-ii-n4", "vdeg-n4-N2", "vcrit-n4-N2",
                "master1-n4-N2"} <= failed

    def test_perturbation_fails_critical_suite(self):
        # the perturbation is O(lam^2) at n = 4, so only the second Qres
        # coefficient, which crit-e reads, moves
        failed = {r.id for r in critical_suite_n4(_perturbed_bundle()) if not r.passed}
        assert failed == {"crit-e"}


class TestPolynomials:
    def test_first_order_slope_is_q2(self):
        b = bundle(n=5)
        qres, v, rem = qres_and_v_polys(b, 1)
        assert rem.is_zero()
        scale = max(qres.max_norm(), v.max_norm())
        assert np.max(np.abs(qres.coeffs[0])) < 1e-8 * scale
        assert np.max(np.abs(qres.coeffs[1] - b.J)) < 1e-8 * scale

    def test_flat_second_order_zero(self):
        qres, v, _ = qres_and_v_polys(flat_bundle(n=6), 2)
        assert qres.max_norm() == 0.0
        assert v.max_norm() == 0.0

    @pytest.mark.parametrize("n,N", [(4, 1), (4, 2), (6, 1), (6, 2)])
    def test_invariants(self, n, N):
        for rep in poly_checks(bundle(n=n), N):
            assert rep.passed, (rep.id, rep.residual, rep.tol)

    def test_indivisible_prefactor_fails(self, monkeypatch):
        # a prefactor the common denominator does not divide is a failed check
        monkeypatch.setattr(holographic, "pochhammer", lambda x, m: x ** m + 1)
        checks = {r.id: r for r in poly_checks(bundle(n=4, size=32), 2)}
        assert not checks["qres-den-n4-N2"].passed


def _added(p, q):
    """p + q out of place, with the longer operand's tail shared: FieldPoly
    addition before sums were accumulated in place."""
    long, short = (p.coeffs, q.coeffs) if len(p.coeffs) >= len(q.coeffs) \
        else (q.coeffs, p.coeffs)
    out = list(long)
    for k, c in enumerate(short):
        out[k] = out[k] + c
    return FieldPoly(out)


def _summed(polys):
    total = FieldPoly()
    for p in polys:
        total = _added(total, p)
    return total


def reference_cleared_sum(terms):
    """Every cleared (weight, (num, den)) term built first, on the whole
    grid, then summed out of place."""
    cofactors, _ = over_lcm([(w, den) for w, (_, den) in terms])
    parts = [num.mul_poly(c) for c, (_, (num, _)) in zip(cofactors, terms)]
    return _summed(parts), [p.norms() for p in parts]


def reference_cleared_check(check_id, equation, params, b, terms, nums):
    """_cleared_check from reference_cleared_sum on the whole grid."""
    total, norms = reference_cleared_sum(
        [(w, (num, den)) for (w, den), num in zip(terms, nums(b))])
    return holographic.tolerance_report(
        check_id, equation, params, total.max_norm(), holographic.IDENTITY_TOL,
        max(max(ns, default=0.0) for ns in norms), details={"coeff_norms": total.norms()})


def reference_qres_and_v_polys(b, N, factors=None):
    """qres_and_v_polys from every cleared term at once, summed out of place."""
    pairs = holographic._t_star_pairs(b, N)
    cofactors, den = over_lcm([(1, den) for _, den in pairs])
    parts = [num.mul_poly(c) for c, (num, _) in zip(cofactors, pairs)]
    quot, rem = pochhammer(LAMBDA - Fraction(b.n, 2) + 1, N).divmod(den)
    shift = b.n - 2 * N
    qres = _summed(parts).mul_poly(quot * -(4**N * holographic.factorial(N))).shift(shift)
    v = _summed(p.mul_poly(quot * (2 * N + 2 * j)) for j, p in enumerate(parts))
    return qres, v.shift(shift), rem


def _same_bits(got: FieldPoly, want: FieldPoly):
    return len(got.coeffs) == len(want.coeffs) and all(
        np.array_equal(g, w) for g, w in zip(got.coeffs, want.coeffs))


def _verdicts(reports):
    return [dataclasses.replace(r, seconds=0.0) for r in reports]


def _fields(report):
    """Everything a report holds but its seconds, residual bits included."""
    body = dataclasses.asdict(report)
    del body["seconds"]
    if isinstance(report.residual, float):
        body["residual"] = report.residual.hex()
    return body


class TestStreamedSums:
    """The cleared sums are accumulated in place one term at a time; they
    have the bits of the sums of all terms built at once, and never write
    into the arrays the bundle caches."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bitwise_equal_to_summing_all_parts(self, n, monkeypatch):
        b = bundle(n=n, size=32, preset="trig2")
        for N in (1, 2, 3):
            got = qres_and_v_polys(b, N)
            want = reference_qres_and_v_polys(b, N)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), N
            assert got[2] == want[2], N
        checks = [lambda N=N: master_check_numeric(b, N) for N in (1, 2, 3)]
        checks += [lambda: example_2_3_checks(b)]
        checks += [lambda N=N: poly_checks(b, N) for N in (1, 2, 3)]
        streamed = [_verdicts(check()) for check in checks]
        monkeypatch.setattr(holographic, "_cleared_check", reference_cleared_check)
        monkeypatch.setattr(holographic, "qres_and_v_polys", reference_qres_and_v_polys)
        assert streamed == [_verdicts(check()) for check in checks]

    def test_master1_gap_is_the_whole_gap(self):
        # the gap a lam V + c qres reduced coefficientwise reads the norm of
        # the whole gap, built out of place; c vanishes at n = 2N
        for n, N in ((4, 2), (5, 2), (6, 3), (7, 3)):
            b = bundle(n=n, size=32, preset="trig2")
            qres, v, _ = qres_and_v_polys(b, N)
            whole = _added(v.mul_poly(LAMBDA * (4 ** (N - 1) * holographic.factorial(N - 1))),
                           qres.mul_poly(holographic.LambdaPoly((N - Fraction(n, 2),))))
            rep = {r.id: r for r in poly_checks(b, N)}[f"master1-n{n}-N{N}"]
            assert rep.residual == whole.max_norm(), (n, N)

    def test_bundle_cache_is_not_written(self):
        b = bundle(n=6, size=32, preset="trig2")
        for j in (1, 2, 3):
            for k in range(4 - j):
                family_poly(b, j, k)
        cached = {key: [c.copy() for c in num.coeffs] for key, (num, _) in b.family_polys.items()}
        fields = {name: np.copy(value) for name, value in vars(b).items()
                  if isinstance(value, np.ndarray)}
        for N in (1, 2, 3):
            master_check_numeric(b, N)
            poly_checks(b, N)
        example_2_3_checks(b)
        assert set(b.family_polys) == set(cached)
        for key, (num, _) in b.family_polys.items():
            assert len(num.coeffs) == len(cached[key]), key
            assert all(np.array_equal(c, w) for c, w in zip(num.coeffs, cached[key])), key
        for name, value in fields.items():
            assert np.array_equal(getattr(b, name), value), name


def reference_mul_poly(self, p):
    """FieldPoly.mul_poly with every output coefficient summed out of place
    from a zero field, in the same term order."""
    if not self.coeffs:
        return FieldPoly()
    out = [np.zeros_like(self.coeffs[0]) for _ in range(len(self.coeffs) + p.degree)]
    for k, pk in enumerate(p.coeffs):
        fk = float(pk)
        if fk == 0.0:
            continue
        for i, arr in enumerate(self.coeffs):
            out[i + k] = out[i + k] + fk * arr
    return FieldPoly(out)


class TestMulPoly:
    """mul_poly starts each coefficient from its first term and adds the rest
    in place: the values and the reports are those of the zero-filled sum."""

    @pytest.mark.parametrize("coeffs", [(3,), (0, 2), (1, 0, -2), (Fraction(1, 3), 5, -2, 0, 7)])
    def test_same_values_as_zero_filled(self, coeffs):
        rng = np.random.default_rng(5)
        poly = FieldPoly([rng.standard_normal((8, 8)) for _ in range(4)])
        p = LambdaPoly(coeffs)
        got, want = poly.mul_poly(p), reference_mul_poly(poly, p)
        assert len(got.coeffs) == len(want.coeffs)
        # no exact zero among the terms, so equal bytes is equal bits
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.coeffs, want.coeffs))

    def test_same_reports_as_zero_filled(self, monkeypatch):
        suites = [lambda: numeric_suite((4, 6), size=32), lambda: critical_n4_suite(size=32)]
        got = [[_fields(r) for r in suite()] for suite in suites]
        monkeypatch.setattr(FieldPoly, "mul_poly", reference_mul_poly)
        assert got == [[_fields(r) for r in suite()] for suite in suites]


class TestNonFinite:
    """A NaN or an overflow in a field fails the checks that read it, with
    the reason in details; Python's max would skip a NaN that is not first."""

    def test_max_abs(self):
        assert max_abs(np.array([[-3.0, 2.0], [0.5, -0.0]])) == 3.0
        assert math.copysign(1.0, max_abs(-np.zeros(4))) == 1.0
        assert max_abs([]) == 0.0
        assert np.isnan(max_abs([0.0, np.nan, 1.0]))

    def test_nan_in_coefficient_one_fails(self):
        p = FieldPoly([np.zeros(3), np.full(3, np.nan)])
        assert np.isnan(p.max_norm())
        rep = tolerance_report("x", "eq", {}, p.max_norm(), 1e-6, 1.0)
        assert not rep.passed and rep.details["reason"] == "non-finite residual nan"

    def test_cleared_check_reads_nan_coefficient(self):
        # one cell of the last, ragged block of the cached T*_4(lam)(1)
        b = _cached_bundle(RAGGED)
        family_poly(b, 2, 0)[0].coeffs[1].reshape(-1)[-1] = np.nan
        for rep in master_check_numeric(b, 2) + example_2_3_checks(b):
            assert not rep.passed and np.isnan(rep.residual), rep.id
            assert rep.details["reason"].startswith("non-finite residual nan"), rep.id

    def test_poly_checks_read_nan_coefficient(self):
        # one cell of J in the last, ragged block reaches every qres and v
        # built there, and the fields crit-d and crit-e read beside them
        b = _cached_bundle(RAGGED)
        b.J.reshape(-1)[-1] = np.nan
        reports = poly_checks(b, 1) + critical_suite_n4(b, with_poly_checks=True)
        assert len([r for r in reports if r.exact is None]) == 13
        for rep in reports:
            if rep.exact is None:
                assert not rep.passed and rep.details["reason"].startswith("non-finite"), rep.id

    def test_overflowing_scale_fails(self):
        rep = tolerance_report("x", "eq", {}, 1e160, 1e-6, float("inf"))
        assert not rep.passed and rep.details["reason"] == "non-finite scale inf"


# One full block of cells and a ragged tail of 4,096.
RAGGED = 192
assert grid.BLOCK < RAGGED**2 < 2 * grid.BLOCK


def _cached_bundle(size):
    """A bundle at n = 4 with the families of N <= 2 cached."""
    b = bundle(n=4, size=size)
    for j, k in ((1, 0), (1, 1), (2, 0)):
        family_poly(b, j, k)
    return b


class TestCellBlocks:
    """The pointwise identity checks are decided one grid.BLOCK of cells at
    a time; their reports are those of one block of the whole grid, and of
    every cleared term built on the whole grid."""

    def test_same_reports_as_one_block_and_whole_fields(self, monkeypatch):
        suites = [lambda: numeric_suite((4, 6, 7), size=RAGGED),
                  lambda: critical_n4_suite(size=RAGGED)]
        blocked = [[_fields(r) for r in suite()] for suite in suites]
        monkeypatch.setattr(grid, "BLOCK", RAGGED**2)
        assert blocked == [[_fields(r) for r in suite()] for suite in suites]
        monkeypatch.setattr(holographic, "_cleared_check", reference_cleared_check)
        monkeypatch.setattr(holographic, "qres_and_v_polys", reference_qres_and_v_polys)
        assert blocked == [[_fields(r) for r in suite()] for suite in suites]

    def test_cache_is_not_written(self):
        b = _cached_bundle(RAGGED)
        cached = {key: [c.tobytes() for c in num.coeffs]
                  for key, (num, _) in b.family_polys.items()}
        for N in (1, 2):
            master_check_numeric(b, N)
            poly_checks(b, N)
        example_2_3_checks(b)
        critical_suite_n4(b, with_poly_checks=True)
        assert {key: [c.tobytes() for c in num.coeffs]
                for key, (num, _) in b.family_polys.items()} == cached

    def test_block_views_are_read_only(self):
        b = _cached_bundle(32)
        (block,) = holographic._blocks(b)
        with pytest.raises(ValueError):
            block.J[0] = 0.0
        with pytest.raises(ValueError):
            block.family_polys[(2, 0)][0].coeffs[0][0] += 1.0


class TestSixthOrder:
    """N = 3 on tori, out of the generated T_6: every identity holds at
    rounding level on both grids and its residual does not grow with the
    grid, so nothing limits it but rounding (a discretization-limited
    residual would be orders larger at 64^2 and shrink with h^4)."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_rounding_limited_on_both_grids(self, n):
        residuals = {}
        for size in (64, 128):
            b = bundle(n=n, size=size, preset="trig2")
            reports = master_check_numeric(b, 3) + poly_checks(b, 3)
            _all_pass(reports)
            for rep in reports:
                if rep.residual is not None:
                    assert rep.residual <= 1e-13 * max(rep.scale, 1.0), (size, rep.id)
                    residuals.setdefault(rep.id, []).append((rep.residual, rep.scale))
        assert {f"master3-n{n}-N3", f"qres-van-n{n}-N3", f"vdeg-n{n}-N3",
                f"master1-n{n}-N3"} <= set(residuals)
        assert (f"vcrit-n{n}-N3" in residuals) == (n == 6)
        for check_id, ((coarse, _), (fine, scale)) in residuals.items():
            assert fine <= 4 * coarse + 1e-15 * max(scale, 1.0), check_id


class TestCriticalSuite:
    def test_all_checks_pass(self):
        reports = critical_suite_n4(bundle(n=4))
        assert [r.id for r in reports] == ["crit-a", "crit-b", "crit-c", "crit-d", "crit-e"]
        for rep in reports:
            assert rep.passed, (rep.id, rep.residual, rep.tol)

    def test_star_convention_recorded(self):
        reports = {r.id: r for r in critical_suite_n4(bundle(n=4, preset="trig2"))}
        # crit-c is decided on the unstarred family; the starred residual is
        # recorded and far from zero
        assert reports["crit-c"].passed
        assert reports["crit-c"].details["starred_residual"] > 1e3 * reports["crit-c"].tol
        assert reports["crit-d"].passed

    def test_slope_sign_pinned(self, monkeypatch):
        original = holographic.qres_and_v_polys

        def flipped(b, N, factors=None):
            qres, v, rem = original(b, N, factors)
            qres.coeffs[1] = -qres.coeffs[1]
            return qres, v, rem

        monkeypatch.setattr(holographic, "qres_and_v_polys", flipped)
        reports = {r.id: r for r in critical_suite_n4(bundle(n=4))}
        assert not reports["crit-d"].passed

    def test_flat_degenerate(self):
        for rep in critical_suite_n4(flat_bundle(n=4)):
            assert rep.passed, rep.id

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            critical_suite_n4(bundle(n=6))


# The stencil's h^4 Leibniz error under a generic shift at 128^2 is below
# this; no suite checks a generic shift on a stencil chart.
STENCIL_LAW_TOL = 1e-5


class TestConformalCovariance:
    def test_zero_shift_trivial(self):
        rep = conformal_covariance_q4(bundle(size=32), np.zeros((32, 32)),
                                      holographic.CONST_SHIFT_TOL)
        assert rep.passed and rep.residual < 1e-14

    def test_constant_shift(self):
        rep = conformal_covariance_q4(bundle(size=32), 0.3 * np.ones((32, 32)),
                                      holographic.CONST_SHIFT_TOL)
        assert rep.passed, rep.residual

    def test_generic_shift(self):
        b = bundle(size=128)
        omega = preset_phi(b.chart, "trig3", seed=12)
        rep = conformal_covariance_q4(b, omega, STENCIL_LAW_TOL)
        assert rep.passed, (rep.residual, rep.tol)

    def test_fourth_order_refinement(self):
        gaps = []
        for size in (48, 96):
            b = bundle(size=size)
            omega = preset_phi(b.chart, "trig3", seed=12)
            gaps.append(conformal_covariance_q4(b, omega, STENCIL_LAW_TOL).residual)
        assert gaps[0] / gaps[1] > 8.0

    def test_generic_shift_to_rounding_on_spectral_chart(self):
        # the stencil's h^4 Leibniz error is gone: 32 spectral points beat
        # 128 stencil points by orders of magnitude
        ch = TorusChart(4, (32, 32), "spectral")
        b = curvature(ch, preset_phi(ch, "trig1", seed=7))
        rep = conformal_covariance_q4(b, preset_phi(ch, "trig3", seed=12), tol=holographic.LAW_TOL)
        assert rep.passed and rep.residual < 1e-11 * rep.scale

    def test_scaled_p4_fails_law(self, monkeypatch):
        # the generated T_4, and with it P_4 = build_P(4, 2), off by 1/1000
        original = families.build_T
        monkeypatch.setattr(families, "build_T",
                            lambda n, N: original(n, N).scale(Fraction(1001, 1000)))
        rep = {r.id: r for r in critical_n4_suite(size=32)}["conformal-covariance-q4"]
        assert not rep.passed and rep.residual > 1e3 * rep.tol


def reference_adjoint_residuals(b, seed):
    """_adjoint_reports' residuals and scale as first written: both gradient
    pairs, the Schouten flux and the weights held at once, and every
    operator a whole expression."""
    rng = np.random.default_rng(seed + 211)
    f = rng.standard_normal(b.chart.shape)
    g = rng.standard_normal(b.chart.shape)
    W = np.exp(float(b.n) * b.phi) * b.chart.cell_volume()
    en4w = np.exp((b.n - 4.0) * b.phi)

    def inner(x, y):
        return float(np.sum(x * y * W))

    grad_f, grad_g = gradient(b.chart, f), gradient(b.chart, g)
    pdiv = tuple(-en4w * p for p in (b.P[0][0], b.P[0][1], b.P[1][1]))
    lap = (inner(reference_laplacian(b, f, grad_f), g)
           - inner(f, reference_laplacian(b, g, grad_g)))
    div = (inner(reference_divergence_form(b, pdiv, f, grad_f), g)
           - inner(f, reference_divergence_form(b, pdiv, g, grad_g)))
    return {"lap": abs(lap), "pdiv": abs(div)}, abs(inner(f, g)) + 1.0


class TestAdjointPhase:
    def test_same_bits_as_whole_expressions(self):
        # at 192^2 on trig3, seed 11, with every bundle field read-only and
        # a family cached: the phase writes into none of them
        ch = TorusChart(6, (192, 192))
        b = read_only(curvature(ch, preset_phi(ch, "trig3", seed=11)))
        family_poly(b, 2, 0)
        cached = [a.tobytes() for a in family_poly(b, 2, 0)[0].coeffs]
        for a in family_poly(b, 2, 0)[0].coeffs:
            a.flags.writeable = False
        reports = holographic._adjoint_reports(b, 11)
        residuals, scale = reference_adjoint_residuals(b, 11)
        assert [r.id for r in reports] == ["adjoint-lap-n6", "adjoint-pdiv-n6"]
        for rep in reports:
            assert rep.passed
            assert rep.residual.hex() == residuals[rep.id.split("-")[1]].hex()
            assert rep.scale.hex() == scale.hex()
        assert [a.tobytes() for a in family_poly(b, 2, 0)[0].coeffs] == cached


def traced_peak(thunk):
    """(thunk(), the tracemalloc peak above the memory traced before it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = thunk()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


class TestMemoryBudget:
    """tracemalloc peaks at 256^2 in whole fields (0.5 MiB), deterministic
    since tracemalloc counts numpy's buffers; each bound is the measured
    peak plus a fraction of a field. Every test runs its code once first,
    since a first call fills caches that outlive it."""

    FIELD = 256 * 256 * 8

    def test_dimension(self):
        # 24.55 fields, in the N = 2 polynomial checks. Keeping the
        # bundle's temporaries, its adjoint-only weights, both gradient
        # pairs and every applied word alive, it was 28.04.
        holographic._dimension_reports(6, 256, "trig1", 7, None)
        reports, peak = traced_peak(
            lambda: holographic._dimension_reports(6, 256, "trig1", 7, None))
        assert all(r.passed for r in reports)
        assert peak < 25.5 * self.FIELD, peak / self.FIELD

    @pytest.fixture(scope="class")
    def b(self):
        ch = TorusChart(6, (256, 256))
        b = curvature(ch, preset_phi(ch, "trig1", seed=7))
        holographic._adjoint_reports(b, 7)
        return b

    # measured: 14.01 (the bundle's 11 kept fields among them), 11.56 and
    # 8.56. With the bundle's temporaries and adjoint-only weights kept it
    # was 24.56; with the first gradient pair alive while the second is
    # built, 13.56; with every applied word held, 9.56.
    @pytest.mark.parametrize("phase,budget", [
        ("curvature", 14.5), ("adjoints", 12.0), ("T*_4(1)", 9.0)])
    def test_phase(self, b, phase, budget):
        run = {"curvature": lambda: curvature(b.chart, b.phi),
               "adjoints": lambda: holographic._adjoint_reports(b, 7),
               "T*_4(1)": lambda: (b.family_polys.clear(), family_poly(b, 2, 0))}[phase]
        run()
        _, peak = traced_peak(run)
        assert peak < budget * self.FIELD, peak / self.FIELD


class TestSuites:
    def test_numeric_suite_passes(self):
        reports = numeric_suite(n_values=(4, 6))
        assert len(reports) > 40
        for rep in reports:
            assert rep.passed, (rep.id, rep.residual, rep.tol)

    def test_critical_suite_passes(self):
        for rep in critical_n4_suite():
            assert rep.passed, (rep.id, rep.residual, rep.tol)

    def test_numeric_suite_holds_one_metric_at_a_time(self, monkeypatch):
        # Each bundle (with its family polynomials) is gone by reference
        # counting when the next metric is built: per dimension the spectral
        # chart's, then the run grid's.
        original = holographic._metric
        bundles, alive = [], []

        def spy(chart, *args):
            alive.append([ref() is not None for ref in bundles])
            out = original(chart, *args)
            bundles.append(weakref.ref(out))
            return out

        monkeypatch.setattr(holographic, "_metric", spy)
        numeric_suite(n_values=(4, 6), size=32)
        assert alive == [[False] * k for k in range(4)]

    def test_numeric_suite_d1_calls(self, monkeypatch):
        # Each field is differentiated once: the bundle's Laplacian of J and
        # the adjoint checks reuse the gradients and Laplacians already built.
        # That is 29 calls per dimension on the run's grid, and 33 (n = 4) and
        # 105 (n = 6, with the longer words of N = 3) on the spectral chart.
        # The count does not depend on the grid size.
        calls = []
        original = grid.d1

        def spy(chart, f, axis):
            calls.append(axis)
            return original(chart, f, axis)

        monkeypatch.setattr(grid, "d1", spy)
        monkeypatch.setattr(conformal, "d1", spy)
        numeric_suite(n_values=(4, 6), size=64)
        assert len(calls) == 196

    def test_numeric_suite_memory_peak(self, monkeypatch):
        # tracemalloc counts numpy's buffers, so the peak is deterministic.
        # At 128^2 (128 KiB a grid array) the suite peaks at 5.5 MiB in the
        # N = 2 polynomial checks; with every cleared term held until its
        # sum was built, and five more bundle fields, it was 7.0 MiB.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            numeric_suite(n_values=(4, 6), size=128)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 6 * 2**20, peak / 2**20

    def test_critical_suite_builds_polynomials_once(self, monkeypatch):
        calls = []
        original = holographic.qres_and_v_polys

        def spy(b, N, factors=None):
            calls.append(N)
            return original(b, N, factors)

        monkeypatch.setattr(holographic, "qres_and_v_polys", spy)
        critical_n4_suite(size=16)
        assert calls == [2]

    def test_reported_checks_are_not_rerun(self):
        alone = {r.id for r in critical_n4_suite(size=32)}
        after = {r.id for r in critical_n4_suite(size=32, with_poly_checks=False)}
        assert alone - after == {"qres-den-n4-N2", "qres-van-n4-N2", "vdeg-n4-N2",
                                 "vcrit-n4-N2", "master1-n4-N2"}
        ids = [r.id for r in conformal_suite(size=16, with_generic_shift=False)]
        assert ids == ["conformal-const"]
