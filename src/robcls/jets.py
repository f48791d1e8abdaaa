"""Truncated Taylor (jet) arithmetic to total degree 3.

A jet in ``nvar`` variables is stored as a coefficient vector over all
monomials of total degree <= 3, ordered degree-first.  Products are exact
at degree <= 3 (higher-order terms are dropped), so third derivatives of
any composite expression built from smooth primitives are exact to
round-off.  The chart layer differentiates closed-form metrics and fields
this way and reads the result off with `jet_derivatives`, which is how it
gets Cotton-York tensors (third metric derivatives) without
finite-difference noise.

Tensor-valued jets are plain ndarrays whose *last* axis is the coefficient
axis; the functions `jmul`, `jinv`, ... broadcast over leading axes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _monomials(nvar: int) -> tuple:
    """All exponent multi-indices of total degree <= 3, degree-major order."""
    monos = [(0,) * nvar]
    for deg in (1, 2, 3):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for e in range(remaining, -1, -1):
                rec(prefix + (e,), remaining - e, slots - 1)

        rec((), deg, nvar)
        monos.extend(level)
    return tuple(monos)


@lru_cache(maxsize=None)
def _index_of(nvar: int) -> dict:
    return {m: i for i, m in enumerate(_monomials(nvar))}


@lru_cache(maxsize=None)
def jet_size(nvar: int) -> int:
    return len(_monomials(nvar))


@lru_cache(maxsize=None)
def _product_table(nvar: int):
    """Index triples (i, j, k) with monomial_i * monomial_j = monomial_k."""
    monos = _monomials(nvar)
    index = _index_of(nvar)
    ii, jj, kk = [], [], []
    for i, a in enumerate(monos):
        da = sum(a)
        for j, b in enumerate(monos):
            if da + sum(b) > 3:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            ii.append(i)
            jj.append(j)
            kk.append(index[c])
    return np.array(ii), np.array(jj), np.array(kk)


def jconst(value, nvar: int, dtype=float) -> np.ndarray:
    out = np.zeros(jet_size(nvar), dtype=dtype)
    out[0] = value
    return out


def jvar(value, v: int, nvar: int) -> np.ndarray:
    """Seed jet for coordinate x_v: value + epsilon_v."""
    out = jconst(value, nvar)
    e = [0] * nvar
    e[v] = 1
    out[_index_of(nvar)[tuple(e)]] = 1.0
    return out


def jmul(a: np.ndarray, b: np.ndarray, nvar: int) -> np.ndarray:
    ii, jj, kk = _product_table(nvar)
    prod = a[..., ii] * b[..., jj]
    lead, size = prod.shape[:-1], jet_size(nvar)
    rows = math.prod(lead)
    # one bincount over all leading entries: entry r accumulates into bins r*size + kk
    idx = kk if rows == 1 else (np.arange(rows)[:, None] * size + kk).ravel()
    # bincount takes no complex weights: real and imaginary parts are summed apart
    parts = (prod.real, prod.imag) if np.iscomplexobj(prod) else (prod,)
    sums = [np.bincount(idx, weights=w.ravel(), minlength=rows * size) for w in parts]
    out = sums[0] if len(sums) == 1 else np.stack(sums, axis=-1).view(prod.dtype)[..., 0]
    return out.reshape(lead + (size,))


def _compose(a: np.ndarray, c0, c1, c2, c3, nvar: int) -> np.ndarray:
    """c0 + c1*d + c2*d^2 + c3*d^3 where d = a - value(a) is nilpotent."""
    d = a.copy()
    d[..., 0] = 0.0
    d2 = jmul(d, d, nvar)
    d3 = jmul(d2, d, nvar)
    out = c1[..., None] * d + c2[..., None] * d2 + c3[..., None] * d3
    out[..., 0] += c0
    return out


def jinv(a: np.ndarray, nvar: int) -> np.ndarray:
    v = a[..., 0]
    return _compose(a, 1.0 / v, -1.0 / v**2, 1.0 / v**3, -1.0 / v**4, nvar)


def jsqrt(a: np.ndarray, nvar: int) -> np.ndarray:
    v = a[..., 0]
    s = np.sqrt(v)
    return _compose(a, s, 0.5 / s, -1.0 / (8 * s * v), 1.0 / (16 * s * v * v), nvar)


def jexp(a: np.ndarray, nvar: int) -> np.ndarray:
    e = np.exp(a[..., 0])
    return _compose(a, e, e, e / 2.0, e / 6.0, nvar)


def jlog(a: np.ndarray, nvar: int) -> np.ndarray:
    v = a[..., 0]
    return _compose(a, np.log(v), 1.0 / v, -0.5 / v**2, 1.0 / (3 * v**3), nvar)


def jsin(a: np.ndarray, nvar: int) -> np.ndarray:
    s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
    return _compose(a, s, c, -s / 2.0, -c / 6.0, nvar)


def jcos(a: np.ndarray, nvar: int) -> np.ndarray:
    s, c = np.sin(a[..., 0]), np.cos(a[..., 0])
    return _compose(a, c, -s, -c / 2.0, s / 6.0, nvar)


def jpow(a: np.ndarray, p: float, nvar: int) -> np.ndarray:
    v = a[..., 0]
    return _compose(
        a,
        v**p,
        p * v ** (p - 1),
        p * (p - 1) / 2.0 * v ** (p - 2),
        p * (p - 1) * (p - 2) / 6.0 * v ** (p - 3),
        nvar,
    )


class Jet:
    """Scalar jet with operator overloading, for readable chart definitions.

    Wraps a coefficient vector; supports +, -, *, /, ** with other jets
    and numbers, plus sqrt/exp/log/sin/cos.  Complex coefficients are
    allowed (used by charts written in terms of complex coframes).
    """

    __slots__ = ("c", "nvar")
    __array_priority__ = 100  # keep numpy from absorbing Jet operands

    def __init__(self, coeff: np.ndarray, nvar: int):
        self.c = coeff
        self.nvar = nvar

    @staticmethod
    def constant(value, nvar: int):
        return Jet(jconst(value, nvar, dtype=complex if isinstance(value, complex) else float), nvar)

    @staticmethod
    def variable(value, v: int, nvar: int):
        return Jet(jvar(value, v, nvar), nvar)

    @property
    def value(self):
        return self.c[0]

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.nvar)

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.c + other.c, self.nvar)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.nvar)

    def __sub__(self, other):
        other = self._lift(other)
        return Jet(self.c - other.c, self.nvar)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        return Jet(jmul(self.c, other.c, self.nvar), self.nvar)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return Jet(jmul(self.c, jinv(other.c, self.nvar), self.nvar), self.nvar)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, p):
        if isinstance(p, int) and 0 <= p <= 6:
            out = Jet.constant(1.0, self.nvar)
            for _ in range(p):
                out = out * self
            return out
        return Jet(jpow(self.c, float(p), self.nvar), self.nvar)

    def sqrt(self):
        return Jet(jsqrt(self.c, self.nvar), self.nvar)

    def exp(self):
        return Jet(jexp(self.c, self.nvar), self.nvar)

    def log(self):
        return Jet(jlog(self.c, self.nvar), self.nvar)

    def sin(self):
        return Jet(jsin(self.c, self.nvar), self.nvar)

    def cos(self):
        return Jet(jcos(self.c, self.nvar), self.nvar)

    def conj(self):
        return Jet(np.conj(self.c), self.nvar)

    def __repr__(self):
        return f"Jet(value={self.value}, nvar={self.nvar})"


def jet_point(x, nvar: int | None = None) -> list:
    """Coordinate seed jets at a point: [x_0 + e_0, ...]."""
    x = np.asarray(x, dtype=float)
    if nvar is None:
        nvar = len(x)
    return [Jet.variable(x[v], v, nvar) for v in range(nvar)]


def stack_jets(rows, nvar: int) -> np.ndarray:
    """Nested lists of Jet/number -> ndarray with trailing coefficient axis."""

    def conv(obj):
        if isinstance(obj, Jet):
            return obj.c
        if isinstance(obj, (complex, np.complexfloating)):
            return jconst(complex(obj), nvar, dtype=complex)
        if np.isscalar(obj) or isinstance(obj, np.generic):
            return jconst(float(obj), nvar)
        return np.stack([conv(o) for o in obj])

    return conv(rows)


@lru_cache(maxsize=None)
def _derivative_table(nvar: int, order: int):
    """Coefficient index and alpha! for every index tuple in range(nvar)**order."""
    index = _index_of(nvar)
    coef, fac = [], []
    for combo in itertools.product(range(nvar), repeat=order):
        alpha = [0] * nvar
        for v in combo:
            alpha[v] += 1
        coef.append(index[tuple(alpha)])
        fac.append(math.prod(math.factorial(e) for e in alpha))
    return np.array(coef, dtype=np.intp), np.array(fac, dtype=float)


def jet_derivatives(a: np.ndarray, nvar: int, order: int) -> np.ndarray:
    """Symmetric array of the order-th partial derivatives, on new last axes.

    The coefficient of x^alpha times alpha! is d^alpha; ``order`` <= 3.
    """
    coef, fac = _derivative_table(nvar, order)
    return (a[..., coef] * fac).reshape(a.shape[:-1] + (nvar,) * order)
