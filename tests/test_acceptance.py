"""Acceptance gate: the five top-level criteria, each timed and reported
with a single pass/fail line (visible under pytest -s)."""

import time
from fractions import Fraction

from holoq.holographic import critical_n4_suite, numeric_suite
from holoq.hypergeom import hypergeom_suite
from holoq.sphere import SphereContext, master_constant, sphere_Q, sphere_suite, sphere_v


def _conclude(name, reports, elapsed, budget):
    failed = [r.id for r in reports if not r.passed]
    verdict = "PASS" if not failed and elapsed < budget else "FAIL"
    print(f"{name}: {verdict} ({len(reports)} checks, {elapsed:.2f}s, budget {budget}s)")
    assert not failed, f"{name} failing checks: {failed}"
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def _count(reports, prefix):
    return sum(1 for r in reports if r.id.startswith(prefix))


def test_criterion_1_sphere_exact():
    """Exact identities on S^n for n = 3..12, N up to min(n/2, 6) for even n
    and up to 6 for odd n, among them the holographic formula for every
    Q_{2N}; every check is exact rational arithmetic. The
    product-form/assembly equality of the residue polynomial is enforced
    inside the suite and would raise on any mismatch."""
    t0 = time.perf_counter()
    reports = sphere_suite(range(3, 13), nmax=6)
    elapsed = time.perf_counter() - t0
    assert all(r.exact for r in reports)
    assert len(reports) == 361
    assert _count(reports, "sphere-radial") == 10
    for prefix in ("sphere-sum1", "sphere-master3", "sphere-master1",
                   "sphere-qres0", "sphere-vdeg", "sphere-holoQ"):
        assert _count(reports, prefix) == 50
    # the 3F2 form only where its lower parameter n - N + 1 is positive
    assert _count(reports, "sphere-claimred") == 46
    assert _count(reports, "sphere-vcrit") == 5
    _conclude("criterion 1 (sphere exact)", reports, elapsed, 30.0)


def test_criterion_2_hypergeometric():
    """200 random Pfaff-Saalschutz and 200 random Sheppard instances, the
    named instances, the quadratic transformation to series order 20 with
    numeric and symbolic parameters, and 50 connection-formula instances."""
    t0 = time.perf_counter()
    reports = hypergeom_suite(instances=200, seed=1, order=20)
    elapsed = time.perf_counter() - t0
    by_id = {r.id: r for r in reports}
    assert by_id["hg-ps-batch"].params["count"] == 200
    assert by_id["hg-shep-batch"].params["count"] == 200
    assert by_id["hg-conn-batch"].params["count"] == 50
    assert by_id["hg-quadratic"].params["order"] == 20
    assert by_id["hg-quadratic-symbolic"].params["order"] == 20
    _conclude("criterion 2 (hypergeometric)", reports, elapsed, 20.0)


def test_criterion_3_numeric_geometry():
    """Torus metrics at n = 4 and n = 6: on the 32-point spectral chart, the
    GJMS operators P_{2N} and the holographic Q_{2N}, N <= n/2, against the
    flat base at rounding-level bounds; on the 64-point grid, adjoint
    pairings, the two Q4 routes, the master relation for N = 1, 2 and the two
    displayed fourth-order identities, each coefficientwise in the spectral
    parameter, and the residue and volume polynomials, each at a stated
    bound of at most 1e-6."""
    t0 = time.perf_counter()
    reports = numeric_suite(n_values=(4, 6), size=64, preset="trig1", seed=7)
    elapsed = time.perf_counter() - t0
    # N = 1, 2 at n = 4 and N = 1, 2, 3 at n = 6
    assert _count(reports, "gjms-flat") == 5
    assert _count(reports, "q-flat") == 5
    assert _count(reports, "adjoint-") == 4
    assert _count(reports, "q4-dual") == 2
    # one per (n, N) and one per identity and n, each coefficientwise
    assert _count(reports, "master3-") == 4
    assert _count(reports, "ex23-") == 4
    assert _count(reports, "qres-den") == 4
    assert _count(reports, "master1-") == 4
    for r in reports:
        if "-flat-" in r.id:
            assert r.params["grid"] == 32 and r.tol <= 2e-6 * max(r.scale, 1.0)
        elif r.exact is None:
            assert r.tol <= 1e-6 * r.scale, r.id
    _conclude("criterion 3 (numeric geometry)", reports, elapsed, 120.0)


def test_criterion_4_critical_n4():
    """The five critical-case identities at n = 4, the vanishing of the
    volume polynomial, and the conformal transformation law, each at a stated
    bound of at most 1e-5."""
    t0 = time.perf_counter()
    reports = critical_n4_suite(size=64, preset="trig1", seed=7)
    elapsed = time.perf_counter() - t0
    ids = {r.id for r in reports}
    assert {"crit-a", "crit-b", "crit-c", "crit-d", "crit-e",
            "vcrit-n4-N2", "conformal-covariance-q4"} <= ids
    for r in reports:
        if r.exact is None:
            assert r.tol <= 1e-5 * r.scale, r.id
    _conclude("criterion 4 (critical n=4)", reports, elapsed, 60.0)


def test_criterion_5_closed_values():
    """Spot values reproduced exactly by the closed-form operations."""
    t0 = time.perf_counter()
    s4, s6 = SphereContext(4), SphereContext(6)
    values = [
        ("Q2(S4)", sphere_Q(s4, 1), Fraction(2)),
        ("Q4(S4)", sphere_Q(s4, 2), Fraction(6)),
        ("Q4(S6)", sphere_Q(s6, 2), Fraction(24)),
        ("Q6(S6)", sphere_Q(s6, 3), Fraction(120)),
        ("v2(S4)", sphere_v(s4, 1), Fraction(-1)),
        ("v4(S4)", sphere_v(s4, 2), Fraction(3, 8)),
        ("c1", master_constant(1), Fraction(-1, 4)),
        ("c2", master_constant(2), Fraction(1, 32)),
        ("c3", master_constant(3), Fraction(-1, 768)),
    ]
    elapsed = time.perf_counter() - t0
    wrong = [(name, got, want) for name, got, want in values if got != want]
    verdict = "PASS" if not wrong else "FAIL"
    print(f"criterion 5 (closed values): {verdict} ({len(values)} values, {elapsed:.2f}s)")
    assert not wrong, f"criterion 5 mismatches: {wrong}"
