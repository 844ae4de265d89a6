"""The F_p[x] kernel's irreducibility test and rational radical against
sympy's factorisation over F_p, an oracle outside the package (the
``oracle`` extra); skipped when sympy is absent."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from rectower.ff import _is_irreducible, pradical  # noqa: E402

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
