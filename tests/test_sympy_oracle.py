"""The F_p[x] kernel's irreducibility test and rational radical, and
``Poly.roots`` over F_p, against sympy's factorisation and root finding over
F_p, an oracle outside the package (the ``oracle`` extra); skipped when
sympy is absent."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from rectower.ff import FieldCtx, _is_irreducible, pradical  # noqa: E402
from rectower.upoly import Poly  # noqa: E402

X = sympy.Symbol("x")
PRIMES = [2, 3, 5, 7, 101]


def _sympy_poly(h, p):
    """h, ascending ints, as a sympy polynomial over F_p."""
    return sympy.Poly(h[::-1], X, modulus=p)


def _random_poly(rng, p, degree, monic):
    return [rng.randrange(p) for _ in range(degree)] + [1 if monic else rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_irreducibility_matches_sympy(p):
    # seeded random monic polynomials of degree 1-10, plus every monic
    # quadratic and cubic at p <= 7
    rng = random.Random(p)
    cases = [_random_poly(rng, p, r, True) for r in range(1, 11) for _ in range(30)]
    if p <= 7:
        cases += [[a, b, 1] for a in range(p) for b in range(p)]
        cases += [[a, b, c, 1] for a in range(p) for b in range(p) for c in range(p)]
    for m in cases:
        assert _is_irreducible(m, p) == _sympy_poly(m, p).is_irreducible, (m, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_radical_degree_matches_sympy_factors(p, k):
    # deg gcd(h, x^(p^k) - x) is the total degree of the distinct
    # irreducible factors of h whose degree divides k; h includes repeated
    # factors and constants
    rng = random.Random(f"{p}:{k}")
    cases = [_random_poly(rng, p, rng.randrange(0, 13), False) for _ in range(40)]
    for _ in range(10):
        a, b = (_random_poly(rng, p, rng.randrange(1, 5), True) for _ in range(2))
        cases.append((_sympy_poly(a, p) ** 2 * _sympy_poly(b, p)).all_coeffs()[::-1])
    for h in cases:
        h = [int(c) % p for c in h]
        _, factors = _sympy_poly(h, p).factor_list()
        expected = sum(g.degree() for g, _ in factors if k % g.degree() == 0)
        radical = pradical(h, p ** k, p)
        assert len(radical) - 1 == expected and radical[-1] == 1, (h, p, k)


@pytest.mark.parametrize("p", PRIMES)
def test_roots_match_sympy_ground_roots(p):
    # seeded random polynomials of degree 1-10, and products of repeated
    # linear factors with a random cofactor; sympy reports each root once,
    # with its multiplicity, in the symmetric range
    rng, ctx = random.Random(f"roots:{p}"), FieldCtx(p)
    cases = [_random_poly(rng, p, rng.randrange(1, 11), False) for _ in range(40)]
    for _ in range(20):
        linear = [_sympy_poly([-rng.randrange(p), 1], p) for _ in range(rng.randrange(1, 6))]
        product = _sympy_poly(_random_poly(rng, p, rng.randrange(0, 4), True), p)
        for factor in linear:
            product *= factor ** rng.randrange(1, 4)
        cases.append([int(c) % p for c in product.all_coeffs()[::-1]])
    for h in cases:
        expected = {int(x) % p: k for x, k in _sympy_poly(h, p).ground_roots().items()}
        found = Poly(ctx, h).roots()
        assert [x.coeffs[0] for x in found] == sorted(x for x, k in expected.items()
                                                      for _ in range(k)), (h, p)
