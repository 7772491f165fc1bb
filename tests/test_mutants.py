"""Mutation harness for the family generator: each mutant injects a known
defect into the Poincare-Einstein recursion, its primitives or the curvature
fields they read, into the hypergeometric sums, or into the conformal
weights, and at least one check of the sphere, numeric, critical-n4,
hypergeom or conformal suites must fail under it (DeMillo-Lipton-Sayward,
"Hints on test data selection", 1978)."""

import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from holoq import conformal, families, holographic, hypergeom, lambda_algebra, sphere
from holoq.holographic import conformal_suite, critical_n4_suite, numeric_suite
from holoq.hypergeom import hypergeom_suite
from holoq.sphere import sphere_suite

MUTANT_FACTOR = Fraction(1001, 1000)
# A relative defect of 1e-9, which only rounding-level bounds can see.
SMALL_FACTOR = Fraction(1_000_000_001, 1_000_000_000)


SUITES = {
    "sphere": lambda: sphere_suite(range(3, 9)),
    "numeric": lambda: numeric_suite((4, 6), size=32),
    "critical-n4": lambda: critical_n4_suite(size=32),
    "hypergeom": lambda: hypergeom_suite(),
    # the generic shift is critical-n4's
    "conformal": lambda: conformal_suite(size=32, with_generic_shift=False),
}
# The suites the generator feeds, which a case runs unless it names others.
GENERATOR = ("sphere", "numeric", "critical-n4")


# case id -> (the ids its runs of the suites reported, the ids that failed),
# recorded by failed_checks as each case runs, so that the kill matrix
# (test_every_id_fails_under_a_mutant) needs no run of its own
RECORDED = {}


def failed_checks(suites=GENERATOR):
    """Ids of the failing checks of the suites, at small sizes, recorded
    under the running case."""
    reports = [rep for name in suites for rep in SUITES[name]()]
    failed = {rep.id for rep in reports if not rep.passed}
    case = os.environ["PYTEST_CURRENT_TEST"].rsplit(" ", 1)[0]
    seen, failing = RECORDED.setdefault(case, (set(), set()))
    seen.update(rep.id for rep in reports)
    failing.update(failed)
    return failed


def test_unmutated_passes():
    assert failed_checks(tuple(SUITES)) == set()


# The words of T_2 and T_4, outermost primitive first.
WORDS = [("v2",), ("D0",), ("v2", "v2"), ("v2", "D0"), ("D0", "v2"), ("D0", "D0"),
         ("v4",), ("D1",)]


@pytest.mark.parametrize("word", WORDS, ids="-".join)
def test_sign_flip_in_one_word(monkeypatch, word):
    original = families.build_T

    def mutant(n, N):
        op = original(n, N)
        if word in op.terms:
            op.terms[word] = -op.terms[word]
        return op

    monkeypatch.setattr(families, "build_T", mutant)
    assert failed_checks()


def _mutated_coefficients(mutate):
    original = families.recursion_coefficients

    def mutant(n, N):
        return mutate(N, *original(n, N))
    return mutant


@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (2, 2)])
def test_c_off_by_a_thousandth(monkeypatch, N, k):
    def mutate(M, indicial, cs):
        if M == N:
            cs = list(cs)
            cs[k - 1] = cs[k - 1] * MUTANT_FACTOR
        return indicial, cs

    monkeypatch.setattr(families, "recursion_coefficients", _mutated_coefficients(mutate))
    assert any(i.startswith("sphere-radial") for i in failed_checks())


@pytest.mark.parametrize("name", ["v2", "v4"])
def test_wrong_v_factor(monkeypatch, name):
    # the generated words multiply by a v_{2k} off by 1/1000; the inputs
    # v_{2k} of T*_{2j}(v_{2k}) stay right
    original = families.apply_primitive

    def mutant(b, prim, f):
        out = original(b, prim, f)
        return out * float(MUTANT_FACTOR) if prim == name else out

    monkeypatch.setattr(families, "apply_primitive", mutant)
    assert failed_checks()


def test_indicial_off_by_one(monkeypatch):
    # 2N(2 lam + 2N - n) becomes 2N(2 lam + 2N - n + 1)
    def mutate(M, indicial, cs):
        return indicial + 2 * M, cs

    monkeypatch.setattr(families, "recursion_coefficients", _mutated_coefficients(mutate))
    failed = failed_checks()
    assert any(i.startswith("sphere-radial") for i in failed)
    assert any(i.startswith("crit-") for i in failed)


def _sphere_ids(*names):
    return {rep.id for rep in SUITES["sphere"]() if rep.id.split("[")[0] in names}


# the geometry checks of numeric_suite((4, 6)) on the spectral chart
FLAT = {f"{kind}-flat-n{n}-N{N}" for kind in ("gjms", "q")
        for n, N in ((4, 1), (4, 2), (6, 1), (6, 2), (6, 3))}


def test_master_constant_off_by_a_thousandth(monkeypatch):
    # c_N enters only Branson's closed form for Q_n in sphere_Q, which
    # sphere-holoQ reads; it is used at 2N = n
    original = sphere.master_constant
    monkeypatch.setattr(sphere, "master_constant", lambda N: original(N) * MUTANT_FACTOR)
    assert failed_checks() == {"sphere-holoQ[n=4,N=2]", "sphere-holoQ[n=6,N=3]",
                               "sphere-holoQ[n=8,N=4]"}


def test_holographic_prefactor_off_by_a_thousandth(monkeypatch):
    # (-1)^N 4^{N-1} ((N-1)!)^2 scaled, on torus fields (torus_q) and on exact
    # constants (constant_q), at every N
    original = families.holographic_q

    def mutant(N, values):
        q = original(N, values)
        return q * (MUTANT_FACTOR if isinstance(q, Fraction) else float(MUTANT_FACTOR))

    monkeypatch.setattr(families, "holographic_q", mutant)
    monkeypatch.setattr(holographic, "holographic_q", mutant)
    assert failed_checks() == ({"q4-dual-n4", "q4-dual-n6", "crit-a"}
                               | {i for i in FLAT if i.startswith("q-")}
                               | _sphere_ids("sphere-holoQ"))


def test_holographic_prefactor_off_by_a_billionth(monkeypatch):
    # the run-grid checks comparing the holographic Q4 with the direct one
    # see it, and so does q-flat at N = 1, whose bound is 4e-11
    original = holographic.holographic_q
    monkeypatch.setattr(holographic, "holographic_q",
                        lambda N, values: original(N, values) * float(SMALL_FACTOR))
    assert failed_checks(("numeric", "critical-n4")) == {
        "q4-dual-n4", "q4-dual-n6", "crit-a", "q-flat-n4-N1", "q-flat-n6-N1"}


def test_master3_weight_off_by_a_billionth(monkeypatch):
    # the weight of T*_2(lam)(v_{2N-2}), at N = 1 and 2
    original = families.master3_weights

    def mutant(n, N):
        weights = original(n, N)
        weights[1] = weights[1] * SMALL_FACTOR
        return weights

    monkeypatch.setattr(holographic, "master3_weights", mutant)
    assert failed_checks(("numeric", "critical-n4")) == {
        f"master3-n{n}-N{N}" for n in (4, 6) for N in (1, 2)}


def _built_psq(b, cells, fields):
    """|P|^2 as the bundle forms it (conformal._psq) from the fields
    conformal._schouten gives on a flat range of cells, before a mutant
    scales one of them."""
    J, P00, P01, P11, p_inactive = fields
    return conformal._psq(SimpleNamespace(
        P=[[P00, P01], [P01, P11]], em2=np.exp(-2.0 * b.phi.reshape(-1)[cells]), n=b.n,
        p_inactive=p_inactive))


def _scaled_where_formed(monkeypatch, name):
    """Every bundle's field name (one of conformal.SCHOUTEN, or Psq) off by
    1/1000 where a block forms it, on its window's rows (conformal._schouten),
    and |P|^2 read, on the bundle and on its blocks, as the field built_psq
    that the unscaled fields give. The bundle forms |P|^2 per read; read
    from a scaled field it would carry its defect too, where these mutants
    are defects of one field alone."""
    original = conformal._schouten

    def schouten(b, cells):
        fields = original(b, cells)
        if "built_psq" not in vars(b):
            b.built_psq = np.empty(b.chart.shape)
        psq = b.built_psq.reshape(-1)[cells]
        psq[...] = _built_psq(b, cells, fields)
        scaled = psq if name == "Psq" else fields[conformal.SCHOUTEN.index(name)]
        np.multiply(scaled, 1.001, out=scaled)  # P01 is P10, one array
        return fields

    monkeypatch.setattr(conformal, "_schouten", schouten)
    monkeypatch.setattr(conformal.CurvatureBundle, "Psq", property(lambda b: (b.J, b.built_psq)[1]))
    monkeypatch.setattr(conformal.Cells, "Psq",
                        property(lambda c: (c.J, c.view(c.bundle.built_psq))[1]))


P_FAILS = {"conformal-covariance-q4", "gjms-flat-n4-N2", "gjms-flat-n6-N2", "gjms-flat-n6-N3",
           "q-flat-n6-N3"}


@pytest.mark.parametrize("name,expected", [
    # lap_v2, and with it lap J and D0(v2), is formed from the scaled J on
    # each block, so the checks comparing them with the words applied to
    # v2 agree; crit-b and crit-c failed when J was scaled after lap_v2
    # was built
    ("J", FLAT | {"conformal-covariance-q4"}),
    ("P00", P_FAILS),
    ("P01", P_FAILS),
    ("P11", P_FAILS),
    ("Psq", {"conformal-covariance-q4", "gjms-flat-n6-N2", "gjms-flat-n6-N3", "q-flat-n4-N2",
             "q-flat-n6-N2", "q-flat-n6-N3"}),
    ("p_inactive", {"q-flat-n6-N3"}),
], ids=["J", "P00", "P01", "P11", "Psq", "p_inactive"])
def test_curvature_field_off_by_a_thousandth(monkeypatch, name, expected):
    # one field of every CurvatureBundle scaled where it is formed; the
    # algebra checks on the run's grid hold for any fields, so only the
    # geometry checks and those comparing with q4_direct see most of these
    _scaled_where_formed(monkeypatch, name)
    assert failed_checks() == expected


@pytest.mark.parametrize("name,expected", [
    ("D1", P_FAILS),
    ("D2", {"gjms-flat-n6-N3"}),
])
def test_divergence_primitive_off_by_a_thousandth(monkeypatch, name, expected):
    # the algebra checks hold for any self-adjoint primitives; the flat base
    # sees D1 from N = 2 and D2 at N = 3
    original = families.apply_primitive

    def mutant(b, prim, f):
        out = original(b, prim, f)
        return out * float(MUTANT_FACTOR) if prim == name else out

    monkeypatch.setattr(families, "apply_primitive", mutant)
    assert failed_checks() == expected


def test_master3_weights_reversed(monkeypatch):
    master3 = {rep.id for suite in SUITES.values() for rep in suite() if "master3" in rep.id}
    original = families.master3_weights
    for module in (families, holographic, sphere):
        monkeypatch.setattr(module, "master3_weights", lambda n, N: original(n, N)[::-1])
    assert failed_checks() == master3


def _pochhammer_shifted_in(monkeypatch, module):
    # (x)_N becomes (x + 1)_N in one module's normalization
    original = lambda_algebra.pochhammer
    monkeypatch.setattr(module, "pochhammer", lambda x, m: original(x + 1, m))


def test_qres_pochhammer_off_by_one(monkeypatch):
    _pochhammer_shifted_in(monkeypatch, holographic)  # only qres_and_v_polys uses it
    assert failed_checks() == {f"qres-den-n{n}-N{N}" for n in (4, 6) for N in (1, 2)}


def test_build_P_pochhammer_off_by_one(monkeypatch):
    # a pole left at n/2 - N fails its gjms-flat check with the pole in details
    _pochhammer_shifted_in(monkeypatch, families)  # only build_P uses it
    assert failed_checks() == ({"crit-b", "crit-c", "conformal-covariance-q4"}
                               | {i for i in FLAT if i.startswith("gjms-")})


def test_sphere_3f2_off_by_a_thousandth(monkeypatch):
    # only the 3F2 form of claim-red reads hyper_terminating on the sphere
    claimred = _sphere_ids("sphere-claimred")
    original = sphere.hyper_terminating
    monkeypatch.setattr(sphere, "hyper_terminating",
                        lambda spec: original(spec) * MUTANT_FACTOR)
    assert claimred and failed_checks() == claimred


def test_qres_v_shift_factor_off_by_one(monkeypatch):
    # the Qres/V prefactor (lam + n/2 - 2N + 1)_N becomes (lam + n/2 - 2N + 2)_N;
    # at n = 2N, V vanishes identically and its degree check still holds
    shifted = _sphere_ids("sphere-master1", "sphere-qres0", "sphere-vdeg")
    critical = {f"sphere-vdeg[n={2 * N},N={N}]" for N in (2, 3, 4)}
    monkeypatch.setattr(sphere, "_shift_factor", lambda ctx, N: lambda_algebra.pochhammer(
        lambda_algebra.LAMBDA + ctx.f - 2 * N + 2, N))
    assert critical <= shifted and failed_checks() == shifted - critical


def test_claim_red_rhs_off_by_a_thousandth(monkeypatch):
    # the closed S0: sphere-sum1 decides it against the terms, and the
    # Qres and V assemblies are built from it
    expected = _sphere_ids("sphere-sum1", "sphere-qres0", "sphere-master1",
                           "sphere-vdeg", "sphere-vcrit")
    original = sphere.claim_red_rhs
    monkeypatch.setattr(sphere, "claim_red_rhs",
                        lambda ctx, N: original(ctx, N) * MUTANT_FACTOR)
    assert failed_checks() == expected


def test_weighted_closed_off_by_a_thousandth(monkeypatch):
    # the closed S1, which only the V assembly reads: every (n, N) fails
    # master-1 and the degree bound, and 2N = n also V's vanishing
    critical = {f"sphere-vcrit[n={2 * N},N={N}]" for N in (2, 3, 4)}
    expected = _sphere_ids("sphere-master1", "sphere-vdeg")
    original = sphere._weighted_closed
    monkeypatch.setattr(sphere, "_weighted_closed",
                        lambda ctx, N: original(ctx, N) * MUTANT_FACTOR)
    assert critical == _sphere_ids("sphere-vcrit")
    assert failed_checks() == expected | critical


def test_divergence_form_asymmetric_by_a_billionth(monkeypatch):
    # B01 scaled in the first of the divergence form's two fluxes, so that
    # the operator is no longer self-adjoint; the flux code is the one the
    # divergence form and the adjoint sweep share. The algebra checks hold
    # for any primitives, and only the Schouten case's adjoint bound is
    # tight enough
    def mutant(B, g0, g1):
        B00, B01, B11 = B
        return B00 * g0 + (B01 * float(SMALL_FACTOR)) * g1, B01 * g0 + B11 * g1

    monkeypatch.setattr(conformal, "contracted_flux", mutant)
    assert failed_checks() == {"adjoint-pdiv-n4", "adjoint-pdiv-n6"}


def test_laplacian_asymmetric_by_a_billionth(monkeypatch):
    # the flux along the first axis gains 1e-9 of the partial along the
    # second, B = e^{(n-2) phi} [[1, 1e-9], [0, 1]], so that the Laplacian is
    # no longer self-adjoint. Its flux code, shared with the adjoint sweep,
    # reaches every D0 and the bundle's lap_v2, yet the algebra checks hold
    # for any primitives: the adjoint pairings fail it by about 70 times
    # their bound, and gjms-flat at N = 1, on the spectral chart with its
    # bound of 4e-11, by about twice
    def mutant(c, g0, g1):
        en2 = c.en2
        return en2 * (g0 + float(SMALL_FACTOR - 1) * g1), en2 * g1

    monkeypatch.setattr(conformal, "laplacian_flux", mutant)
    assert failed_checks() == {"adjoint-lap-n4", "adjoint-lap-n6",
                               "gjms-flat-n4-N1", "gjms-flat-n6-N1"}


# The ids of hypergeom_suite that read hyper_terminating.
TERMINATING = {"hg-eval-3f2", "hg-claim-red", "hg-ps-named", "hg-shep-named", "hg-conn-named",
               "hg-ps-batch", "hg-shep-batch", "hg-conn-batch"}


def test_terminating_ratio_off_by_a_thousandth(monkeypatch):
    # r_0 of the nested sum 1 + r_0 (1 + r_1 (...)) off by 1/1000, which is
    # the sum S read as 1 + (S - 1) 1001/1000. Sheppard's and the connection
    # formula's two sides are both sums, so a uniform factor would cancel;
    # this one does not
    original = hypergeom.hyper_terminating
    monkeypatch.setattr(hypergeom, "hyper_terminating",
                        lambda spec: 1 + (original(spec) - 1) * MUTANT_FACTOR)
    assert failed_checks(("hypergeom",)) == TERMINATING


def test_2f1_coefficient_off_by_a_thousandth(monkeypatch):
    # the s^1 coefficient ab/c of the Gauss series off by 1/1000, on both
    # sides of the quadratic transformation, numeric and symbolic in a
    original = hypergeom.hyper_2f1_series

    def mutant(a, b, c, order):
        series = original(a, b, c, order)
        series.coeffs[1] = series.coeffs[1] * MUTANT_FACTOR
        return series

    monkeypatch.setattr(hypergeom, "hyper_2f1_series", mutant)
    assert failed_checks(("hypergeom",)) == {"hg-quadratic", "hg-quadratic-symbolic"}


def test_conformal_weight_off_by_a_thousandth(monkeypatch):
    # e^{-2 phi}, the conformal weight of J and P, read as e^{-2.002 phi}:
    # a constant shift w then scales J by e^{-2.002 w}, not e^{-2 w}
    def em2(c):
        x = -2.002 * c.phi
        return np.exp(x, out=x)

    monkeypatch.setattr(conformal, "_em2", em2)
    for cls in (conformal.CurvatureBundle, conformal.Cells):
        monkeypatch.setattr(cls, "em2", property(em2))
    assert failed_checks(("conformal",)) == {"conformal-const"}


def test_every_id_fails_under_a_mutant(request):
    # The kill matrix: the union of the cases' failing sets, as they ran
    # above, is every id the unmutated suites report (254: sphere n = 3..8,
    # numeric (4, 6), critical-n4 and conformal at 32^2, and hypergeom),
    # with no id exempt. It is read only when every other case of this file
    # has run before it.
    cases = {item.nodeid for item in request.node.parent.collect()
             if item.name != request.node.name}
    if not cases <= set(RECORDED):
        pytest.skip("needs every case of this file run before it")
    all_ids, unmutated = RECORDED[next(c for c in cases if c.endswith("::test_unmutated_passes"))]
    assert all_ids and not unmutated
    killed = set().union(*(failing for _, failing in RECORDED.values()))
    assert sorted(all_ids - killed) == [] and killed <= all_ids
