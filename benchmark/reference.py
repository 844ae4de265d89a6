"""Reference values computed without importing rectower.

Every benchmark operation is checked against these, or against a property
the method must have, never against stored output:

* a_n (OEIS A002893) from the recurrence
  (n+1)^2 a_{n+1} = (10n^2+10n+3) a_n - 9n^2 a_{n-1};
* H_p, the degree-(p-1) truncation mod p, from ``math.comb`` sums;
* the genus closed form 2^n - (2 + n mod 2) 2^{floor(n/2)} + 1;
* the splitting path count (p-1) 2^n;
* the unique search solution (1, 1, 0, 0, 3, p-1).
"""

from __future__ import annotations

from math import comb


def a_direct(n: int) -> int:
    """a_n = sum_k C(n,k)^2 C(2k,k), straight from the definition."""
    return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


def a_recurrence(n_max: int):
    """Yield (n, a_n) for n = 0..n_max from the A002893 recurrence, with
    exact integer division checked at every step."""
    prev, cur = 1, 3
    yield 0, prev
    if n_max >= 1:
        yield 1, cur
    for n in range(1, n_max):
        q, r = divmod((10 * n * n + 10 * n + 3) * cur - 9 * n * n * prev, (n + 1) ** 2)
        if r:
            raise ArithmeticError(f"A002893 recurrence left a remainder at n={n + 1}")
        prev, cur = cur, q
        yield n + 1, cur


def self_check(n_max: int = 40) -> None:
    """The recurrence agrees with the direct sum for small n."""
    for n, a in a_recurrence(n_max):
        if a != a_direct(n):
            raise ArithmeticError(f"A002893 recurrence disagrees with the sum at n={n}")


def a_values(n_max: int) -> list:
    """Exact a_0 .. a_{n_max}."""
    return [a for _, a in a_recurrence(n_max)]


def a_mod_tables(n_max: int, primes) -> dict:
    """{p: [a_n mod p for n = 0..n_max]}, reducing the exact recurrence values
    (the recurrence divides by (n+1)^2, so it cannot run mod p)."""
    tables = {p: [] for p in primes}
    for _, a in a_recurrence(n_max):
        for p, t in tables.items():
            t.append(a % p)
    return tables


def h_mod_p(p: int) -> list:
    """Coefficients of H_p mod p, ascending, from comb sums mod p."""
    return [sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1)) % p for n in range(p)]


def legendre_minus3(p: int) -> int:
    """(-3/p) by Euler's criterion, as +1 or -1."""
    return 1 if pow(-3 % p, (p - 1) // 2, p) == 1 else -1


def genus_closed(n: int) -> int:
    return 2 ** n - (2 + n % 2) * 2 ** (n // 2) + 1


def splitting_paths(p: int, n: int) -> int:
    """Paths with n-1 edges inside the 2-regular component of 2(p-1) vertices."""
    return (p - 1) * 2 ** n


def search_solution(p: int) -> list:
    """The paper's unique tower f = (x^2+x)/(3x-1) as (a2, a1, a0, b2, b1, b0)."""
    return [1, 1, 0, 0, 3, p - 1]


def lucas_expected(table: list, n: int, p: int) -> bool:
    """Whether a_n = prod a_{n_i} mod p over the base-p digits of n."""
    prod, m = 1, n
    while True:
        prod = prod * table[m % p] % p
        m //= p
        if m == 0:
            return table[n] == prod
