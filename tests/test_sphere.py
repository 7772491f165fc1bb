import re
import time
from fractions import Fraction

import pytest

from holoq import sphere
from holoq.families import constant_terms
from holoq.lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, pochhammer
from holoq.reports import IdentityError
from holoq.sphere import (
    SphereContext,
    _qres,
    _sum_closed,
    _v_poly,
    _weighted_closed,
    claim_red_rhs,
    closed_table,
    master_constant,
    radial_oracle,
    sphere_Q,
    sphere_T_on_one,
    sphere_checks,
    sphere_suite,
    sphere_v,
)

F = Fraction


class TestConstants:
    def test_context_validation(self):
        with pytest.raises(ValueError):
            SphereContext(2)

    def test_sphere_data(self):
        ctx = SphereContext(6)
        assert ctx.f == 3

    def test_master_constants(self):
        assert master_constant(1) == F(-1, 4)
        assert master_constant(2) == F(1, 32)
        assert master_constant(3) == F(-1, 768)

    def test_v_values(self):
        s4, s6 = SphereContext(4), SphereContext(6)
        assert sphere_v(s4, 0) == 1
        assert sphere_v(s4, 1) == -1
        assert sphere_v(s4, 2) == F(3, 8)
        assert sphere_v(s6, 1) == F(-3, 2)
        assert sphere_v(s6, 2) == F(15, 16)
        assert sphere_v(s6, 3) == F(-5, 16)
        assert sphere_v(s4, 5) == 0  # binomial vanishes past n


class TestTOnOne:
    def test_known_value_n4(self):
        assert sphere_T_on_one(SphereContext(4), 1)(F(3)) == F(3, 4)

    def test_known_values_n6(self):
        ctx = SphereContext(6)
        assert sphere_T_on_one(ctx, 1)(F(4)) == F(3, 2)
        assert sphere_T_on_one(ctx, 2)(F(4)) == F(5, 4)

    def test_pole_containment(self):
        """Reduced denominator divides prod_j (lambda - (n/2 - j))."""
        for n in (3, 4, 5, 6, 8, 12):
            ctx = SphereContext(n)
            for N in range(1, 7):
                den = sphere_T_on_one(ctx, N).den
                prod = LambdaPoly([1])
                for j in range(1, N + 1):
                    prod = prod * (LAMBDA - (ctx.f - j))
                assert prod.divmod(den)[1].is_zero()

    def test_prefactor_relation_to_P(self):
        ctx = SphereContext(5)
        N = 3
        # P_{2N}(lambda)(1) = (-1)^N (n/2)_N (lambda)_N, a polynomial
        pref = F(4 ** N * 6 * (-1) ** N) * pochhammer(LAMBDA - ctx.f + 1, N)
        p = (-1) ** N * pochhammer(ctx.f, N) * pochhammer(LAMBDA, N)
        assert (sphere_T_on_one(ctx, N) * pref - p).is_zero()


class TestRadialOracle:
    def test_first_coefficient(self):
        """a_2 = (n/2) lambda / (4 (lambda - n/2 + 1)) out of the recursion."""
        for n in (3, 4, 7):
            ctx = SphereContext(n)
            a = radial_oracle(ctx, closed_table(ctx, 1)[1])
            expect = sphere_T_on_one(ctx, 1)
            assert (a[1] - expect).is_zero()

    def test_matches_closed_form_through_order_6(self):
        for n in (3, 4, 5, 6, 9, 12):
            ctx = SphereContext(n)
            a = radial_oracle(ctx, closed_table(ctx, 6)[1])
            for N in range(7):
                assert (a[N] - sphere_T_on_one(ctx, N)).is_zero(), (n, N)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            radial_oracle(SphereContext(4), closed_table(SphereContext(4), 9)[1])


def direct_terms(ctx, N):
    """[T*_{2j}(v_{2N-2j}) for j = 0..N] from the closed T-values on 1."""
    return constant_terms([sphere_T_on_one(ctx, j) for j in range(N + 1)],
                          [sphere_v(ctx, k) for k in range(N + 1)], N)


class TestSums:
    def test_direct_value_n6(self):
        """S0 at n=6, N=2, lambda=4 equals -1/16 (not -1/8)."""
        ctx = SphereContext(6)
        S0 = _sum_closed(ctx, 2)
        assert S0 == sum(direct_terms(ctx, 2))
        assert S0(F(4)) == F(-1, 16)

    def test_weighted_value_n6(self):
        ctx = SphereContext(6)
        S1 = _weighted_closed(ctx, 2)
        assert S1 == sum(j * t for j, t in enumerate(direct_terms(ctx, 2)))
        assert S1(F(4)) == F(1, 4)

    def test_m1_relation_N1(self):
        """lambda(v2 + T2*(1)) + (lambda-n+2) T2*(1) = 0 for N=1."""
        for n in (4, 5, 8):
            ctx = SphereContext(n)
            t = sphere_T_on_one(ctx, 1)
            rel = LAMBDA * (sphere_v(ctx, 1) + t) + (LAMBDA - n + 2) * t
            assert rel.is_zero()

    def test_claim_red_values(self):
        ctx = SphereContext(6)
        assert (F(-4) ** 2 * sum(direct_terms(ctx, 2)))(F(4)) == -1
        assert claim_red_rhs(ctx, 2)(F(4)) == -1


class TestQres:
    def test_product_form_n6(self):
        ctx = SphereContext(6)
        q = _qres(ctx, 2, _sum_closed(ctx, 2))
        assert q == -6 * LAMBDA * (LAMBDA - 3)

    def test_product_form_critical_n4(self):
        ctx = SphereContext(4)
        q = _qres(ctx, 2, _sum_closed(ctx, 2))
        assert q == -2 * LAMBDA * (LAMBDA - 3)
        assert q.derivative()(F(0)) == 6  # equals Q4(S^4)

    def test_vanishes_at_zero(self):
        for n in (4, 6, 10):
            ctx = SphereContext(n)
            for N in (1, 2, 3):
                assert _qres(ctx, N, _sum_closed(ctx, N))(F(0)) == 0

    def test_v_poly_constant_N1(self):
        for n in (4, 6, 9):
            ctx = SphereContext(n)
            vp = _v_poly(ctx, 1, _sum_closed(ctx, 1), _weighted_closed(ctx, 1))
            assert vp == LambdaPoly([F(n * (n - 2), 4)])

    def test_v_poly_n6_N2(self):
        ctx = SphereContext(6)
        vp = _v_poly(ctx, 2, _sum_closed(ctx, 2), _weighted_closed(ctx, 2))
        assert vp == F(-3, 2) * (LAMBDA - 3)

    def test_v_poly_critical_zero(self):
        for n, N in ((4, 2), (6, 3)):
            ctx = SphereContext(n)
            assert _v_poly(ctx, N, _sum_closed(ctx, N), _weighted_closed(ctx, N)).is_zero()


class TestSphereQ:
    def test_spot_values(self):
        assert sphere_Q(SphereContext(4), 1) == 2
        assert sphere_Q(SphereContext(4), 2) == 6
        assert sphere_Q(SphereContext(6), 2) == 24
        assert sphere_Q(SphereContext(6), 3) == 120
        assert sphere_Q(SphereContext(8), 3) == 720
        assert sphere_Q(SphereContext(8), 4) == 5040

    def test_odd_dimension_subcritical(self):
        # (5/2)_2 (3/2)_1 = (5/2)(7/2)(3/2)
        assert sphere_Q(SphereContext(5), 2) == F(105, 8)


class TestSuite:
    def test_checks_pass_small(self):
        for n in (4, 5, 6):
            ctx = SphereContext(n)
            for N in (1, 2):
                for rep in sphere_checks(ctx, N, closed_table(ctx, 2)):
                    assert rep.passed, rep.id

    def test_each_check_timed_where_built(self):
        # laps of one clock: each check has its own time, and together they
        # fit in the call
        t0 = time.perf_counter()
        ctx = SphereContext(8)
        reps = sphere_checks(ctx, 3, closed_table(ctx, 3))
        wall = time.perf_counter() - t0
        seconds = [r.seconds for r in reps]
        assert all(s > 0 for s in seconds)
        assert len(set(seconds)) > 1
        assert sum(seconds) <= wall

    def test_v_degree_failure_is_reported(self, monkeypatch):
        # a closed S1 off by 1 gives V-polynomials of degree N: two failed
        # checks, not an exception
        original = sphere._weighted_closed
        monkeypatch.setattr(sphere, "_weighted_closed", lambda ctx, N: original(ctx, N) + 1)
        ctx = SphereContext(6)
        reps = {r.id: r for r in sphere_checks(ctx, 2, closed_table(ctx, 2))}
        failed = {i for i, r in reps.items() if not r.passed}
        assert failed == {"sphere-vdeg[n=6,N=2]", "sphere-master1[n=6,N=2]"}
        assert reps["sphere-vdeg[n=6,N=2]"].details == {"degree": 2}

    def test_each_closed_value_built_once(self, monkeypatch):
        # one table per dimension: 60 distinct (n, j) for n = 3..12, j <= cap;
        # sphere_Q, which sphere-holoQ reads, builds v_n once more in each of
        # the five critical dimensions for its continuation cross-check
        calls = {"sphere_T_on_one": 0, "sphere_v": 0}
        for name in calls:
            def spy(ctx, j, _name=name, _original=getattr(sphere, name)):
                calls[_name] += 1
                return _original(ctx, j)
            monkeypatch.setattr(sphere, name, spy)
        sphere_suite(range(3, 13), nmax=6)
        assert calls == {"sphere_T_on_one": 60, "sphere_v": 65}

    def test_claimred_only_where_the_3f2_is_defined(self):
        # its lower parameter n - N + 1 must stay positive through the
        # termination index N; everywhere else the check is emitted
        emitted = {(int(n), int(N)) for i in (r.id for r in sphere_suite(range(3, 9), nmax=8))
                   for n, N in re.findall(r"^sphere-claimred\[n=(\d+),N=(\d+)\]$", i)}
        caps = {n: min(n // 2, 8) if n % 2 == 0 else 8 for n in range(3, 9)}
        assert emitted == {(n, N) for n, cap in caps.items() for N in range(1, cap + 1)
                           if n - N + 1 > 0}

    def test_suite_runs_and_passes(self):
        reps = sphere_suite([4, 7])
        assert reps and all(r.passed for r in reps)
        ids = [r.id for r in reps]
        assert any(i.startswith("sphere-radial") for i in ids)
        assert any("master3" in i for i in ids)


class TestFailurePaths:
    """A value whose defining identity fails is not built; the checks that
    read it fail with the reason in their details, the others keep their
    verdicts, and the run goes on."""

    @staticmethod
    def verdicts(n=6, N=2):
        ctx = SphereContext(n)
        return {r.id.split("[")[0]: r for r in sphere_checks(ctx, N, closed_table(ctx, N))}

    def test_qres_assembly_not_polynomial(self, monkeypatch):
        # without the shift factor the assembly keeps the poles of S0
        monkeypatch.setattr(sphere, "_shift_factor", lambda ctx, N: LambdaPoly([1]))
        reps = self.verdicts()
        reason = "qres assembly is not polynomial (n=6, N=2)"
        assert not reps["sphere-qres0"].passed
        assert reps["sphere-qres0"].details == {"reason": reason}
        assert reason in reps["sphere-master1"].details["reason"]
        assert reps["sphere-sum1"].passed and reps["sphere-master3"].passed

    def test_qres_product_form_disagrees(self, monkeypatch):
        # a doubled shift factor keeps the assembly polynomial but twice the
        # product form; V only doubles, so its degree check still passes
        original = sphere._shift_factor
        monkeypatch.setattr(sphere, "_shift_factor", lambda ctx, N: original(ctx, N) * 2)
        reps = self.verdicts()
        reason = "qres product form disagrees with assembly (n=6, N=2)"
        assert reps["sphere-qres0"].details == {"reason": reason}
        assert not reps["sphere-qres0"].passed and not reps["sphere-master1"].passed
        assert reps["sphere-vdeg"].passed

    def test_v_assembly_not_polynomial(self, monkeypatch):
        # a closed S1 with a pole leaves V rational; Qres is still built
        original = sphere._weighted_closed
        monkeypatch.setattr(sphere, "_weighted_closed",
                            lambda ctx, N: original(ctx, N) + LambdaRat(1, LAMBDA - 100))
        reps = self.verdicts(n=4, N=2)
        reason = "V-polynomial assembly is not polynomial (n=4, N=2)"
        for name in ("sphere-vdeg", "sphere-vcrit", "sphere-master1"):
            assert not reps[name].passed and reps[name].details == {"reason": reason}, name
        assert reps["sphere-qres0"].passed

    def test_critical_q_disagrees(self, monkeypatch):
        # c_N off by 1/1000 moves the critical Q_6(S^6) off its continuation:
        # sphere-holoQ reads it and fails with the reason; the other checks stand
        original = sphere.master_constant
        monkeypatch.setattr(sphere, "master_constant", lambda N: original(N) * F(1001, 1000))
        with pytest.raises(IdentityError):
            sphere_Q(SphereContext(6), 3)
        reps = self.verdicts(n=6, N=3)
        q6 = reps.pop("sphere-holoQ")
        assert not q6.passed
        assert q6.details == {"reason": "critical sphere Q disagrees with continuation (n=6)"}
        assert reps and all(r.passed for r in reps.values())
