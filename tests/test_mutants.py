"""Mutation harness for the family generator: each mutant injects a known
defect into the Poincare-Einstein recursion or its primitives, and at least
one check of the sphere, Einstein, numeric or critical-n4 suites must fail
under it (DeMillo-Lipton-Sayward, "Hints on test data selection", 1978)."""

from fractions import Fraction

import pytest

from holoq import families, holographic
from holoq.holographic import critical_n4_suite, einstein_checks, numeric_suite
from holoq.sphere import sphere_suite

MUTANT_FACTOR = Fraction(1001, 1000)


SUITES = {
    "sphere": lambda: sphere_suite(range(3, 9)),
    "einstein": lambda: einstein_checks(6, Fraction(7, 3)) + einstein_checks(8, Fraction(7, 3)),
    "numeric": lambda: numeric_suite((4, 6), size=32),
    "critical-n4": lambda: critical_n4_suite(size=32),
}


def failed_checks(suites=tuple(SUITES)):
    """Ids of the failing checks of the suites the generator feeds, at small
    sizes."""
    return {rep.id for name in suites for rep in SUITES[name]() if not rep.passed}


def test_unmutated_passes():
    assert failed_checks() == set()


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
    monkeypatch.setattr(holographic, "build_T", mutant)
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
    failed = failed_checks()
    assert any(i.startswith("sphere-radial") for i in failed)
    assert any(i.startswith("einstein-") for i in failed)


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
    assert any(i.startswith("einstein-") for i in failed)
    assert any(i.startswith("crit-") for i in failed)
