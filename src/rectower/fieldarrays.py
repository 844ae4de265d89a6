"""Elements of F_{p^r} as numpy arrays of base-p digits: the whole-field
arithmetic of the graph build (``tgraph``), of the splitting polynomial read
off it (``fixtures.chi_from_graph``) and of ``upoly.Poly.roots``' pass.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .ff import FieldCtx, power, reduce_array

BLOCK = 1 << 16  # field elements per block of a whole-field pass, which bounds its temporaries


class FieldArrays:
    """Elements of F_{p^r} as r int64 arrays of base-p digits (ascending
    powers of the generator), one entry per element, for arrays of any
    length.  Element n of ``FieldCtx.elements()`` has digits (n // p^i) % p.

    A value is a list of r arrays with entries in [0, p).  A product sums r
    digit products into each coefficient and folds the top ones down
    through the modulus, so before its one reduction by ``reduce_array`` an
    entry is below 2r*p^2 in absolute value, far inside that helper's int64
    bound: p < 2^22 for r = 1 and p^2 <= q < 2^22 for r >= 2."""

    def __init__(self, ctx: FieldCtx):
        self.p, self.r, self.q = ctx.p, ctx.r, ctx.order
        self.modulus = ctx.modulus
        # the Frobenius is F_p-linear: the digits of (x^i)^p for each i
        self._frobenius = [ctx.element(self.p ** i).frobenius().coeffs for i in range(self.r)]

    @cached_property
    def _inverses(self):
        """1/k mod p at index k, and 0 at 0 (p > 2): k^(p-2) for every k at
        once, each product taken in place on the running power."""
        p = self.p
        return power(np.arange(p, dtype=np.int64), p - 2,
                     lambda a, b: reduce_array(np.multiply(a, b, out=a), p, in_place=True),
                     np.ones(p, dtype=np.int64))

    def digits(self, codes):
        """The elements with the given indices."""
        out = []
        for _ in range(self.r):
            rest = codes // self.p
            out.append(codes - rest * self.p)
            codes = rest
        return out

    def codes(self, a):
        """Element indices of the values."""
        out = a[-1]
        for c in reversed(a[:-1]):
            out = out * self.p + c
        return out

    def mul(self, a, b, plus=0, norm: bool = False):
        """a*b + plus, for plus an int or a tuple of digits.  With norm, only
        coefficient 0 of a*b, which is all of it where a*b lies in F_p: the
        convolution skips the coefficients 1..r-1, which do not reach it."""
        p, r, m = self.p, self.r, self.modulus
        prod = [None] * (2 * r - 1)
        for i in range(r):
            for j in range(r):
                if norm and 0 < i + j < r:
                    continue
                if prod[i + j] is None:
                    prod[i + j] = a[i] * b[j]
                else:
                    prod[i + j] += a[i] * b[j]
        # reduce x^k for k >= r using x^r = -(m_{r-1}x^{r-1} + ... + m_0)
        for k in range(2 * r - 2, r - 1, -1):
            c = reduce_array(prod[k], p)
            for i in range(r):
                if m[i] and prod[k - r + i] is not None:
                    prod[k - r + i] -= c * m[i]
        for i, c in enumerate(np.atleast_1d(plus)):
            if c:
                prod[i] += c
        if norm:
            return reduce_array(prod[0], p, in_place=True)
        return [reduce_array(c, p, in_place=True) for c in prod[:r]]

    def frobenius(self, a):
        """a^p, as a linear map of the digits."""
        out = [None] * self.r
        for i, image in enumerate(self._frobenius):
            for j, c in enumerate(image):
                if c and out[j] is None:
                    out[j] = a[i] * c
                elif c:
                    out[j] += a[i] * c
        return [reduce_array(c, self.p, in_place=True) for c in out]

    def horner(self, coeffs, x):
        """The polynomial with ascending coefficients (at least one) at every
        x, one reduction per product: ints in [0, p), or tuples of digits for
        coefficients outside F_p, the leading one an int."""
        p = self.p
        if len(coeffs) == 1:
            return [np.full_like(x[0], coeffs[0])] + [np.zeros_like(x[0])] * (self.r - 1)
        val = [d * coeffs[-1] for d in x]  # c_n x: a scalar scale, no mul
        for i, c in enumerate(np.atleast_1d(coeffs[-2])):
            val[i] += c
        val = [reduce_array(c, p, in_place=True) for c in val]
        for c in reversed(coeffs[:-2]):
            val = self.mul(val, x, plus=c)
        return val

    def is_zero(self, a):
        return np.logical_and.reduce([c == 0 for c in a])

    def quotient_codes(self, num, den):
        """Element indices of num/den, and q where den is zero: num*c over
        the norm den*c, which lies in F_p, for c the product of den's other
        conjugates den^p, ..., den^(p^(r-1)); den's inverse is never formed.
        The norm vanishes exactly where den does."""
        if self.r == 1:
            norm = den[0]
        else:
            c = conjugate = self.frobenius(den)
            for _ in range(self.r - 2):
                conjugate = self.frobenius(conjugate)
                c = self.mul(c, conjugate)
            norm = self.mul(den, c, norm=True)
            num = self.mul(num, c)
        scale = self._inverses[norm]
        codes = self.codes([reduce_array(d * scale, self.p, in_place=True) for d in num])
        codes[norm == 0] = self.q
        return codes
