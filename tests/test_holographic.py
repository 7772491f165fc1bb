"""Coefficient routes, Q-curvature duality, master relations, critical suite."""

import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from holoq import conformal, families, grid, holographic
from holoq.conformal import curvature
from holoq.families import (
    FieldPoly,
    LambdaOperator,
    PoleError,
    build_T,
    master3_weights,
    over_lcm,
    pair_derivative,
    pair_value,
)
from holoq.grid import TorusChart
from holoq.holographic import (
    conformal_covariance_q4,
    conformal_suite,
    critical_n4_suite,
    critical_suite_n4,
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
from test_conformal import (
    bundle_fields,
    by_cells,
    read_only,
    reference_bundle,
    reference_divergence_form,
    reference_laplacian,
)
from test_grid import d1_roll
from helpers import divergence


def bundle(n=4, size=64, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


def whole_q(b, N):
    """Q_{2N} of b as a whole field, assembled from torus_q's reader."""
    return conformal.assembled(b, torus_q(b, N))


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
        assert np.max(np.abs(whole_q(b, 2))) < 1e-15

    def test_family_values_by_block_or_whole(self):
        # each family value is formed a block at a time where its
        # denominator does not vanish at n/2 - N, with pair_value's bits; a
        # wrong family whose denominator does vanish there takes the whole
        # pair_value, which divides a removable pole out and raises at a
        # genuine one
        b = bundle(n=6, size=RAGGED)
        want = whole_q(b, 2)
        t2 = pair_value(family_poly(b, 1, 1), Fraction(1))[0]
        assert want.tobytes() == holographic_q(2, [holo_coeffs(b, 2), t2]).tobytes()
        op, den = b.family_polys[(1, 1)]
        at_mu = LambdaPoly((-1, 1))  # lam - (n/2 - N)
        b.family_polys[(1, 1)] = (op.scale(at_mu), den * at_mu)
        assert np.max(np.abs(whole_q(b, 2) - want)) <= 1e-13 * np.max(np.abs(want))
        b.family_polys[(1, 1)] = (op, den * at_mu)
        with pytest.raises(PoleError):
            torus_q(b, 2)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_dual_route_agreement(self, n):
        b = bundle(n=n)
        gap = np.max(np.abs(whole_q(b, 2) - q4_direct(b)))
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
        assert np.array_equal(whole_q(b, 1), b.J)
        q4 = whole_q(b, 2)
        assert np.max(np.abs(q4 - q4_direct(b))) <= 1e-13 * max(1.0, np.max(np.abs(q4)))
        for N in range(1, min(3, n // 2) + 1):
            q = whole_q(b, N)
            qres = qres_and_v_polys(b, N)[0]
            scale = max(1.0, np.max(np.abs(q)))
            if 2 * N < n:
                gap = qres.eval(N - Fraction(n, 2)) + (n / 2 - N) * q
            else:
                gap = qres.coeffs[1] - q
            assert np.max(np.abs(gap)) <= 1e-13 * scale, N


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

    @pytest.mark.parametrize("n", [4, 6])
    def test_ones_are_a_read_only_broadcast(self, n):
        # v_0 = 1 allocates no field, and the families on it have the bits
        # of the same calls on an allocated ones field
        b = bundle(n=n, size=32)
        ones = holo_coeffs(b, 0)
        assert ones.shape == b.chart.shape and ones.strides == (0, 0)
        with pytest.raises(ValueError):
            ones[0, 0] = 2.0
        for j in (1, 2, 3):
            num, den = family_poly(b, j, 0)
            want, want_den = build_T(n, j).adjoint().field_poly(b, np.ones(b.chart.shape))
            assert den == want_den
            assert [c.tobytes() for c in num.coeffs] == [c.tobytes() for c in want.coeffs], j
            assert all(c.flags.writeable and c.strides != (0, 0) for c in num.coeffs), j

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
        # a pair is built on first use, by the bundle or by a block of it,
        # and cached on the bundle as an operator; field_poly then forms its
        # numerator wherever it is read
        built = []
        original = families.family

        def spy(b, j, k):
            if (j, k) not in b.family_polys:
                built.append((b.n, b.chart.derivative, j, k))
            return original(b, j, k)

        monkeypatch.setattr(families, "family", spy)
        monkeypatch.setattr(holographic, "family", spy)
        numeric_suite(n_values=(4, 6), size=32)
        assert len(built) == len(set(built))
        # on the run's grid; the spectral chart's metric is a metric of its own
        for n in (4, 6):
            assert {(j, k) for m, kind, j, k in built if (m, kind) == (n, "stencil")} == {
                (1, 0), (1, 1), (2, 0)}


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


class _Perturbed(LambdaOperator):
    """A family's operator whose numerator, wherever it is formed, has the
    whole-field coefficients of extra added."""

    def __init__(self, op, extra):
        super().__init__(op.terms)
        self.extra = extra

    def field_poly(self, bundle, f, words=None):
        num, den = super().field_poly(bundle, f, words)
        num += FieldPoly([bundle.view(c) for c in self.extra.coeffs])
        return num, den


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
    op, den = families.family(b, 2, 0)
    extra = FieldPoly([bump]).mul_poly(vanishing * den)
    b.family_polys[(2, 0)] = (_Perturbed(op, extra), den)
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


def reference_cleared_check(b, checks, nums):
    """_cleared_check from reference_cleared_sum on the whole grid: a part of
    the pass that reads nothing on a block and reports from whole fields."""
    def report(_, seconds):
        whole, reports = nums(b), []
        for check_id, equation, params, terms in checks:
            total, norms = reference_cleared_sum(
                [(w, (num, den)) for (w, den), num in zip(terms, whole)])
            reports.append(holographic.tolerance_report(
                check_id, equation, params, total.max_norm(), holographic.IDENTITY_TOL,
                max(max(ns, default=0.0) for ns in norms), details={"coeff_norms": total.norms()}))
        return reports

    return (lambda block: 0.0), report


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
        # neither the cached families nor the numerators formed from them
        # change
        b = bundle(n=6, size=32, preset="trig2")
        for j in (1, 2, 3):
            for k in range(4 - j):
                family_poly(b, j, k)
        cached = {key: [c.copy() for c in family_poly(b, *key)[0].coeffs]
                  for key in b.family_polys}
        fields = {name: np.copy(value) for name, value in vars(b).items()
                  if isinstance(value, np.ndarray)}
        for N in (1, 2, 3):
            master_check_numeric(b, N)
            poly_checks(b, N)
        example_2_3_checks(b)
        assert set(b.family_polys) == set(cached)
        for key in b.family_polys:
            num, _ = family_poly(b, *key)
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
        # one cell of the last, ragged block of D0(v2), the bundle's lap_v2,
        # which T*_2(lam)(v2) and T*_4(lam)(1) read; written whole, so the
        # blocks read the whole fields
        b = _cached_bundle(RAGGED)
        b.lap_v2.reshape(-1)[-1] = np.nan
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


# Two blocks of 9,248 cells (68 rows), where np.sum's pairwise summation
# splits the grid.
RAGGED = 136
assert grid.BLOCK < RAGGED**2 < 2 * grid.BLOCK


def _cached_bundle(size):
    """A bundle at n = 4 with the families of N <= 2 cached."""
    b = bundle(n=4, size=size)
    for j, k in ((1, 0), (1, 1), (2, 0)):
        family_poly(b, j, k)
    return b


class TestCellBlocks:
    """The pointwise identity checks are decided one block of grid.blocks at
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

        def cached():
            return {key: [c.tobytes() for c in family_poly(b, *key)[0].coeffs]
                    for key in b.family_polys}

        before = cached()
        for N in (1, 2):
            master_check_numeric(b, N)
            poly_checks(b, N)
        example_2_3_checks(b)
        critical_suite_n4(b, with_poly_checks=True)
        assert cached() == before

    def test_block_views_are_read_only(self):
        b = _cached_bundle(32)
        (block,) = conformal.blocks(b)
        with pytest.raises(ValueError):
            block.J[0] = 0.0
        with pytest.raises(ValueError):
            block.lap_v2[0] += 1.0
        with pytest.raises(ValueError):
            block.on(slice(0, 64)).P[0][1][0] = 0.0


def parent_field_poly(op, b, f):
    """LambdaOperator.field_poly as it was when every family was formed on
    whole fields, kept as a reference: each word applied to the whole field
    f once, shared suffixes shared, each term added into the numerator in
    term order through one scratch buffer."""
    f = np.asarray(f, dtype=float)
    terms = op.terms
    if np.all(f == 1.0):
        terms = {word: rat for word, rat in terms.items() if not word or word[-1][0] != "D"}
    den = families._lcm(rat.den for rat in op.terms.values())
    last_read = {}
    for t, word in enumerate(terms):
        for i in range(len(word) + 1):
            last_read[word[i:]] = t
    applied, num, scratch = {(): f}, [], None
    for t, (word, rat) in enumerate(terms.items()):
        for i in range(len(word) - 1, -1, -1):
            if word[i:] not in applied:
                applied[word[i:]] = conformal.apply_primitive(b, word[i], applied[word[i + 1:]])
        arr = applied[word]
        for k, pk in enumerate((rat.num * den.divmod(rat.den)[0]).coeffs):
            fk = float(pk)
            if k == len(num):
                num.append(fk * arr if fk != 0.0 else np.zeros_like(arr))
            elif fk != 0.0:
                if scratch is None:
                    scratch = np.empty_like(arr)
                num[k] += np.multiply(fk, arr, out=scratch)
            else:
                num[k] += 0.0
        del arr
        for suffix in [s for s, u in last_read.items() if u == t]:
            del applied[suffix]
    return FieldPoly(num), den


class TestBlockFormedFamilies:
    """A family keeps whole only the fields of its words that end in a
    derivative; its numerator, formed a block of cells at a time from them,
    has the bits of the whole-field numerator of parent_field_poly, on
    T*_{2j}(lam) applied to v_{2k}, block by block and whole."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_same_bits_as_whole_field_numerators(self, n):
        b = bundle(n=n, size=RAGGED, preset="trig3", seed=11)
        for j, k in SUITE_PAIRS:
            want, want_den = parent_field_poly(build_T(n, j).adjoint(), b, holo_coeffs(b, k))
            num, den = family_poly(b, j, k)
            assert den == want_den, (j, k)
            assert [c.tobytes() for c in num.coeffs] == [c.tobytes() for c in want.coeffs], (j, k)
            for block in conformal.blocks(b):
                part, _ = family_poly(block, j, k)
                assert [c.tobytes() for c in part.coeffs] == [
                    c.reshape(-1)[block.cells].tobytes() for c in want.coeffs], (j, k, block.cells)

    @pytest.mark.parametrize("n", [4, 6])
    def test_only_derivative_words_are_kept(self, n):
        # for N <= 2 the one derivative word is D0(v2), read by
        # T*_2(lam)(v2) and T*_4(lam)(1), which is the lap_v2 each block
        # forms: the bundle caches the families as operators alone
        b = bundle(n=n, size=RAGGED)
        for j, k in SUITE_PAIRS:
            families.family(b, j, k)
        assert set(vars(b)) == {"chart", "phi", "n", "family_polys"}
        words = [families._kept_word(block, conformal.LAP_V2).tobytes()
                 for block in conformal.blocks(b)]
        want = conformal.laplacian(b, -b.J / 2).reshape(-1)
        assert words == [want[block.cells].tobytes() for block in conformal.blocks(b)]
        assert all(isinstance(op, LambdaOperator) for op, _ in b.family_polys.values())

    @pytest.mark.parametrize("size", [32, RAGGED])
    def test_a_block_fetches_its_family(self, size):
        # no family(b, ...) call comes first: the block caches the operator
        # on its bundle itself. The reference reads whole fields, so the
        # blocks are those of a fresh bundle, which read their windows.
        b = bundle(n=4, size=size)
        want = parent_field_poly(build_T(4, 2).adjoint(), b, holo_coeffs(b, 0))[0]
        for block in conformal.blocks(bundle(n=4, size=size)):
            num, den = family_poly(block, 2, 0)
            assert den == LAMBDA * (LAMBDA - 1)
            assert list(block.bundle.family_polys) == [(2, 0)]
            assert [c.tobytes() for c in num.coeffs] == [
                c.reshape(-1)[block.cells].tobytes() for c in want.coeffs]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_spectral_words_applied_by_the_family(self, n):
        # on a grid of one block a family applies its derivative words but
        # D0(v2) on the bundle, by the calls field_poly makes there: T*_2(v4)
        # reads D0(v4), and T*_4(v2) D0(v2 v2), D0(D0(v2)) and D1(v2)
        ch = TorusChart(n, (32, 32), "spectral")
        b = curvature(ch, preset_phi(ch, "trig3", seed=7))
        for j, k in ((1, 2), (2, 1)):
            op, den = families.family(b, j, k)
            want = op.field_poly(b, holo_coeffs(b, 0))[0]
            num, _ = family_poly(b, j, k)
            assert [c.tobytes() for c in num.coeffs] == [c.tobytes() for c in want.coeffs], (j, k)

    def test_no_other_derivative_word_on_a_block_of_several(self):
        b = bundle(n=6, size=RAGGED)
        for block in conformal.blocks(b):
            with pytest.raises(ValueError, match=r"D0\(v2\) is the only derivative word"):
                family_poly(block, 1, 2)


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


def reference_pairings(b, f, g):
    """conformal.pairings as first written: the Schouten flux, the weight
    and both operators' outputs whole, every operator a whole expression,
    and each pairing summed whole by np.sum."""
    W = np.exp(float(b.n) * b.phi) * b.chart.cell_volume()
    en4w = np.exp((b.n - 4.0) * b.phi)

    def inner(x, y):
        return float(np.sum(x * y * W))

    pdiv = tuple(-en4w * p for p in (b.P[0][0], b.P[0][1], b.P[1][1]))
    return (inner(f, g),
            inner(reference_laplacian(b, f), g), inner(f, reference_laplacian(b, g)),
            inner(reference_divergence_form(b, pdiv, f), g),
            inner(f, reference_divergence_form(b, pdiv, g)))


def pairings(b, f, g):
    """The five pairings of conformal.pairing_sums, summed over the blocks
    of b as np.sum's."""
    return tuple(float(s) for s in grid.pairwise_sums(
        [(c.cells, conformal.pairing_sums(c, f, g)) for c in conformal.blocks(b)]))


def reference_adjoint_residuals(b, seed):
    """The adjoint checks' residuals and scale as first written: both probes
    whole, and reference_pairings."""
    f = holographic.probe_field(b.chart.shape, seed + 211, 0)
    g = holographic.probe_field(b.chart.shape, seed + 211, 1)
    fg, lap_fg, lap_gf, pdiv_fg, pdiv_gf = reference_pairings(b, f, g)
    return {"lap": abs(lap_fg - lap_gf), "pdiv": abs(pdiv_fg - pdiv_gf)}, abs(fg) + 1.0


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
        reports = holographic._pass(b, [holographic._adjoints(b, 11)])
        residuals, scale = reference_adjoint_residuals(b, 11)
        assert [r.id for r in reports] == ["adjoint-lap-n6", "adjoint-pdiv-n6"]
        for rep in reports:
            assert rep.passed
            assert rep.residual.hex() == residuals[rep.id.split("-")[1]].hex()
            assert rep.scale.hex() == scale.hex()
        assert [a.tobytes() for a in family_poly(b, 2, 0)[0].coeffs] == cached

    # The sweep's blocks are cut where np.sum's pairwise summation splits
    # the cells: at 130 x 150 they do not end on a row, at 512^2 they are 32
    # rows each, and on the spectral chart every block reads every cell.
    @pytest.mark.parametrize("shape,derivative", [((130, 150), "stencil"),
                                                  ((512, 512), "stencil"),
                                                  ((136, 136), "spectral")])
    def test_pairings_are_the_whole_sums(self, shape, derivative):
        ch = TorusChart(6, shape, derivative)
        b = read_only(curvature(ch, preset_phi(ch, "trig3", seed=11)))
        rng = np.random.default_rng(3)
        f, g = rng.standard_normal(shape), rng.standard_normal(shape)
        want = [x.hex() for x in reference_pairings(b, f, g)]
        for operands in ((f, g), (by_cells(f), by_cells(g))):
            assert [x.hex() for x in pairings(b, *operands)] == want


class TestBlocksThatCutRows:
    """With BLOCK 1,001 the ranges of grid.blocks end inside rows at 136^2
    and 300 x 257 (at 48 x 80 on whole rows): the stencils, the bundle and
    the adjoint pairings keep the bits of their whole-field references."""

    @pytest.mark.parametrize("shape", [(136, 136), (300, 257), (48, 80)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_reference_bits(self, shape, monkeypatch):
        monkeypatch.setattr(grid, "BLOCK", 1001)
        ch = TorusChart(6, shape)
        f, g = np.random.default_rng(5).standard_normal((2, *shape))
        cut = any(c.start % shape[1] for c in grid.blocks(f.size))
        assert cut == (shape != (48, 80))
        for axis in range(2):
            assert grid.d1(ch, f, axis).tobytes() == d1_roll(ch, f, axis).tobytes(), axis
        got = divergence(ch, lambda cells: (f.reshape(-1)[cells], g.reshape(-1)[cells]))
        assert got.tobytes() == (d1_roll(ch, f, 0) + d1_roll(ch, g, 1)).tobytes()
        b = read_only(curvature(ch, preset_phi(ch, "trig3", seed=11)))
        want, fields = reference_bundle(b), bundle_fields(b)
        for name, value in want.items():
            assert fields[name].tobytes() == value.tobytes(), name
        assert b.lap_v2.tobytes() == reference_laplacian(b, -want["J"] / 2).tobytes()
        want = [x.hex() for x in reference_pairings(b, f, g)]
        assert [x.hex() for x in pairings(b, f, g)] == want


# The window's cases: 16^2 and the spectral chart are one block, which
# reads the whole fields; with BLOCK 1,001, at 16 x 128 the widened rows of
# each of its two blocks wrap past the whole grid, and the blocks end inside
# rows at 136^2 and 300 x 257 (at 48 x 80 on whole rows); at 512^2 a block
# is 32 rows.
WINDOW_CASES = [((16, 16), "stencil", None), ((16, 128), "stencil", 1001),
                ((136, 136), "stencil", 1001), ((300, 257), "stencil", 1001),
                ((48, 80), "stencil", 1001), ((512, 512), "stencil", None),
                ((32, 32), "spectral", None)]


def _window_bundle(case, nan, monkeypatch):
    shape, derivative, block = case
    if block:
        monkeypatch.setattr(grid, "BLOCK", block)
    ch = TorusChart(6, shape, derivative)
    phi = preset_phi(ch, "trig3", seed=11)
    if nan:
        phi[5, 7] = np.nan
    return curvature(ch, phi)


def _same_cells(got, want):
    """Equal bits, but NaN in the same cells with either sign."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestWindow:
    """J, P, p_inactive and lap_v2 read on the blocks of a bundle that keeps
    only phi (conformal.Window), on each block's cells and on its widened
    rows, have the bits of the whole-field expressions, NaN cells NaN in
    both; and a dimension's pass reports what it reports on a bundle that
    has them whole."""

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: f"{c[0][0]}x{c[0][1]}-{c[1]}")
    def test_fields_on_blocks(self, case, nan, monkeypatch):
        b = _window_bundle(case, nan, monkeypatch)
        ch, cols = b.chart, b.chart.shape[1]
        want = reference_bundle(b)
        want["lap_v2"] = reference_laplacian(b, -want["J"] / 2)
        names = conformal.SCHOUTEN + ("lap_v2",)
        got = {name: [] for name in names}
        for c in conformal.blocks(b):
            for name in names:
                got[name].append(getattr(c, name))
            lo = c.cells.start // cols - conformal.HALO
            hi = -(-c.cells.stop // cols) + conformal.HALO
            widened = grid.rows(ch, lambda run: tuple(
                getattr(c.on(run), name) for name in conformal.SCHOUTEN), lo, hi)
            for name, value in zip(conformal.SCHOUTEN, widened):
                _same_cells(value, grid.rows(ch, want[name], lo, hi)[0])
        one_block = len(grid.blocks(b.phi.size, ch.derivative == "spectral")) == 1
        assert ("J" in vars(b)) == one_block  # else the blocks formed no whole field
        for name in names:
            _same_cells(np.concatenate(got[name]), want[name].reshape(-1))

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: f"{c[0][0]}x{c[0][1]}-{c[1]}")
    def test_pass_reports(self, case, nan, monkeypatch):
        reports = []
        for whole in (False, True):
            b = _window_bundle(case, nan, monkeypatch)
            if whole:
                b.J  # forms every field whole; the blocks read views of them
            reports.append([_fields(r) for r in holographic._pass(
                b, holographic._run_grid_parts(b, 7))])
        assert repr(reports[0]) == repr(reports[1])  # a NaN equals itself in repr
        assert all(r["passed"] for r in reports[0]) == (not nan)


class TestProbeField:
    def test_deterministic_in_key_and_stream(self):
        f = holographic.probe_field((64, 64), 218, 0)
        assert f.shape == (64, 64) and f.dtype == np.float64
        assert f.tobytes() == holographic.probe_field((64, 64), 218, 0).tobytes()
        for other in (holographic.probe_field((64, 64), 218, 1),
                      holographic.probe_field((64, 64), 219, 0)):
            assert not np.any(f == other)

    def test_cell_range_is_the_slice(self):
        whole = holographic.probe_field((192, 192), 218, 1).reshape(-1)
        for cells in grid.blocks(whole.size) + [slice(5, 6), slice(100, 4197)]:
            part = holographic.probe_field((192, 192), 218, 1, cells)
            assert part.tobytes() == whole[cells].tobytes(), cells

    def test_unit_variance_noise(self):
        # 512^2 cells: the standard errors of the mean and the variance are
        # 0.002 and 0.0017, so each bound is about five of them
        for stream in (0, 1):
            f = holographic.probe_field((512, 512), 218, stream)
            assert abs(f.mean()) < 0.01 and abs(f.var() - 1.0) < 0.01
            assert -math.sqrt(3.0) <= f.min() and f.max() < math.sqrt(3.0)
        f, g = (holographic.probe_field((512, 512), 218, s).ravel() for s in (0, 1))
        assert abs(np.corrcoef(f, g)[0, 1]) < 0.01


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
    peak plus under half a field. Every test runs its code once first,
    since a first call fills caches that outlive it. A block of cells is
    a quarter of a field at 256^2 (a sixteenth at 512^2), so the pointwise
    passes and the stencils' blocks weigh more here than at 512^2."""

    FIELD = 256 * 256 * 8

    def test_dimension(self):
        # 7.51 fields, in the run grid's one pass: phi, a block's window of
        # J, P, p_inactive (its 64 rows and 4 more each side) and lap_v2, and
        # its families, cleared sums and residue and volume polynomials. With
        # the bundle keeping J, P00, P01, P11, p_inactive and lap_v2 whole it
        # was 11.85 (bound 12.3), in the merged N = 2 pass, which also read
        # q4-dual; with q4-dual a sweep of its own, 11.84. With D0(v2) cached
        # as a field of its own it was 12.85 (bound 13.3); with whole
        # gradients, Hessian, fluxes and probes in the stencils and blocks of
        # 2^15 cells it was 17.58 (bound 18.0); with each family cached as its
        # deg + 1 whole coefficient fields and the bundle keeping e^{(n-2)
        # phi}, e^{-n phi} and |P|^2, 21.55; with also e^{-2 phi} and the
        # Schouten flux's three whole fields kept, whole d1 outputs summed into
        # the operators and T*_2(lam)(1) kept to the end, 24.55; keeping also
        # the bundle's temporaries, its adjoint-only weights, both gradient
        # pairs and every applied word alive, 28.04.
        holographic._dimension_reports(6, 256, "trig1", 7, None)
        reports, peak = traced_peak(
            lambda: holographic._dimension_reports(6, 256, "trig1", 7, None))
        assert all(r.passed for r in reports)
        assert peak < 7.9 * self.FIELD, peak / self.FIELD

    @pytest.fixture(scope="class")
    def b(self):
        ch = TorusChart(6, (256, 256))
        b = curvature(ch, preset_phi(ch, "trig1", seed=7))
        holographic._pass(b, [holographic._adjoints(b, 7)])
        return b

    # measured: 9.11 (the 6 whole fields besides phi, formed from the
    # blocks' windows on a first whole read), 2.77 (the first block's
    # window, which wraps: 72 rows of J, P and p_inactive, and lap_v2),
    # 4.33, 0.13, 3.67 (q4-dual's part of the merged pass, read alone) and
    # 6.45. Each pass past the first block's forms the windows, which the
    # bundle formed whole before: the curvature was 7.61 (bound 8.0), the
    # adjoints 2.67 (bound 3.1), q4-dual 2.01 (bound 2.5) and the merged
    # pass 4.79 (bound 5.2) with the bundle's 6 fields whole. The adjoint
    # sweep keeps no operator output whole, and here a block of it is a
    # quarter of a field; T*_4(1) applies no word, since D0(v2) is each
    # block's lap_v2, and builds its operator alone, which reads 0.01 now
    # that the bundle caches no word (0.13 when family passed the ones
    # field through the word cache). The adjoints were 3.47 (bound 3.8) with
    # the Schouten fluxes formed from a copy of the probe's partial and all
    # three entries alive to the end, and the wrapped runs of the first and
    # last blocks joined all at once; with each operator's output whole and
    # the probes formed per operator they were 3.38, and with D0(v2) built from a whole
    # v2, T*_4(1) was 3.58 (bound 4.0). With whole gradients, Hessian, fluxes
    # and probes in the stencils, blocks of 2^15 cells and T*_2(lam)(v2) formed
    # whole for q4-dual they were 10.00, 6.01, 4.51, 4.51 and 9.53 (bounds
    # 10.5, 6.5, 5.0, 5.0, 10.0). With the weights and |P|^2 whole and each
    # family's deg + 1 coefficient fields cached, 14.01, 9.08 and 7.08
    # (curvature, adjoints, T*_4(1)). The adjoints were 11.56 with the Schouten
    # flux's three whole fields, whole d1 outputs summed into the operators and
    # each pairing's product in a fresh field; T*_4(1) was 8.56 on an allocated
    # ones field with whole d1 outputs summed. With the bundle's temporaries
    # and adjoint-only weights kept the curvature was 24.56; with the first
    # gradient pair alive while the second is built, the adjoints were 13.56;
    # with every applied word held, T*_4(1) 9.56.
    BUDGETS = {"curvature": 9.5, "window": 3.2, "adjoints": 4.8, "T*_4(1)": 0.6,
               "q4-dual": 4.1, "merged N = 2 pass": 6.9}

    @pytest.mark.parametrize("phase,budget", list(BUDGETS.items()), ids=list(BUDGETS))
    def test_phase(self, b, phase, budget):
        run = {"curvature": lambda: curvature(b.chart, b.phi).lap_v2,
               "window": lambda: next(conformal.blocks(b)).J,
               "adjoints": lambda: holographic._pass(b, [holographic._adjoints(b, 7)]),
               "T*_4(1)": lambda: (b.family_polys.clear(), families.family(b, 2, 0)),
               "q4-dual": lambda: holographic._pass(b, [holographic._q4_dual(b)]),
               "merged N = 2 pass": lambda: holographic._pass(b, [
                   holographic._q4_dual(b), holographic._master3(b, 2), holographic._poly(b, 2),
                   holographic._example_2_3(b)])}[phase]
        run()
        _, peak = traced_peak(run)
        assert peak < budget * self.FIELD, peak / self.FIELD


def test_no_whole_field_but_the_kept_ones_and_the_output():
    # At 512^2 a block of cells is a sixteenth of a field, and its window
    # (J, P and p_inactive on its 32 rows and 4 more each side, and lap_v2)
    # 0.39 fields, so a pass's blocks stay under two fields: a peak under
    # two fields above phi means that no whole-grid array was alive in it.
    # The bundle keeps phi alone (it formed and kept J, P00, P01, P11,
    # p_inactive and lap_v2, 6.42 fields, and 10.0 with its gradient,
    # Hessian and flat Laplacian whole). The adjoint sweep, the first block's
    # window formation included, peaks at 1.16 fields (0.71 with the
    # bundle's fields whole; 0.92 with the Schouten fluxes' copy and the
    # wrapped runs joined at once, 1.62 with each output whole, 4.5 with
    # also a whole probe, its gradient pair and a flux), and a dimension's
    # pass at 1.68 (8.22 above the heap before the bundle, phi and the
    # bundle's 6 fields included, when they were kept).
    field = 512 * 512 * 8
    ch = TorusChart(6, (512, 512))
    phi = preset_phi(ch, "trig1", seed=7)
    b = curvature(ch, phi)
    _, peak = traced_peak(lambda: curvature(ch, phi))
    assert peak < 0.01 * field, peak / field
    for run, bound in ((lambda: holographic._pass(b, [holographic._adjoints(b, 7)]), 1.5),
                       (lambda: holographic._pass(b, holographic._run_grid_parts(b, 7)), 2.0)):
        run()
        _, peak = traced_peak(run)
        assert peak < bound * field, peak / field
    assert set(vars(b)) == {"chart", "phi", "n", "family_polys"}


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
        # The stencils pass over the blocks: each application of the
        # Laplacian or a divergence form forms its operand's partials, both
        # fluxes and the weight on each block (conformal._operator, once per
        # block), and no whole-field d1 is taken. Each field is
        # differentiated once: the families read here have no derivative
        # word in common but D0(v2), which is each block's lap_v2. That is 1
        # per dimension and block on the run's grid
        # (lap_v2; the adjoint pairings form their four operators in one
        # sweep of grid.partials, conformal.pairing_sums), and 6 (n = 4) and
        # 23 (n = 6, with the longer words of N = 3) on the spectral chart,
        # whose one block is every cell. The count does not depend on the
        # grid size. It was 6 on the run's grid, with lap J and D0(v2) apart
        # and the four adjoint operators each a pass, and 7 and 24 on the
        # spectral chart. With whole gradients shared by the operators, the
        # same work took 184 whole-field d1 calls (four per operator, five
        # for the bundle's gradient and Hessian, two per adjoint gradient
        # pair), and 196 before the families shared their words.
        passes, whole = [], []
        original_operator, original_d1 = conformal._operator, grid.d1

        def spy_operator(c, *args, **kwargs):
            passes.append(c.chart.shape)
            return original_operator(c, *args, **kwargs)

        def spy_d1(chart, f, axis):
            whole.append(axis)
            return original_d1(chart, f, axis)

        monkeypatch.setattr(conformal, "_operator", spy_operator)
        monkeypatch.setattr(conformal, "d1", spy_d1)
        monkeypatch.setattr(grid, "d1", spy_d1)
        numeric_suite(n_values=(4, 6), size=64)
        assert passes.count((64, 64)) == 2 and passes.count((32, 32)) == 29
        assert whole == []

    def test_numeric_suite_sweeps(self, monkeypatch):
        # Every blocked loop over a bundle's cells walks conformal.blocks.
        # On the run's grid a dimension makes one sweep, the pass in which
        # each block forms its window once for the adjoint pairings and the
        # N = 1 and N = 2 checks. It made 5: the bundle's fields, the
        # weight of its lap_v2, the adjoint pairings, and the N = 1 and the
        # merged N = 2 pass; 6 with q4-dual a sweep of its own. On the
        # spectral chart, one block whose fields are whole, 7 at n = 4: the
        # Laplacians and divergence forms the families apply, and q-flat's
        # whole Q_2 and Q_4 (9 when the bundle formed its fields and the
        # weight of its lap_v2 in sweeps of their own).
        sweeps, original = [], conformal.blocks

        def spy(b):
            sweeps.append(b.chart.derivative)
            return original(b)

        monkeypatch.setattr(conformal, "blocks", spy)
        monkeypatch.setattr(holographic, "blocks", spy)
        numeric_suite(n_values=(4,), size=64)
        assert sweeps.count("stencil") == 1 and sweeps.count("spectral") == 7

    def test_numeric_suite_memory_peak(self, monkeypatch):
        # tracemalloc counts numpy's buffers, so the peak is deterministic.
        # A first call fills caches that outlive it, so the suite runs once
        # untraced. At 128^2 (128 KiB a grid array, and one block of cells,
        # whose window is every row) the second call peaks at 3.31 MiB,
        # whether this test runs alone or after the others; the bound adds
        # under half a field. It was 3.30 MiB with the bundle's fields
        # formed before the passes, and 3.56 MiB in one pass that kept
        # T*_2(lam)(1) while the N = 2 parts formed theirs. It was 3.43
        # MiB (bound 3.45) with D0(v2) cached apart from lap J, each
        # adjoint operator's output whole and the presets formed on whole
        # coordinate fields, and 3.54 MiB with the families cached whole
        # (bound 3.65 MiB), and a cold first call peaked at 4.36 MiB. Before
        # the leaner bundle, blockwise Schouten flux and d1 adding into its
        # output the warm peak was 3.91 MiB; with every cleared term held
        # until its sum was built, and five more bundle fields, a cold call
        # took 7.0 MiB.
        numeric_suite(n_values=(4, 6), size=128)
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
        assert peak < 3.35 * 2**20, peak / 2**20

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
