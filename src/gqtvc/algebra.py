"""Small finite fields GF(p^e) with table-based arithmetic.

Elements are integers 0..q-1 encoding coefficient vectors base p
(lowest degree first), so 0 and 1 are always the additive and
multiplicative identities.  All arithmetic goes through precomputed
q x q tables; q is capped at 256.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class AlgebraError(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(poly: list[int], modulus: list[int], p: int) -> list[int]:
    """Reduce ``poly`` modulo the monic ``modulus`` over GF(p)."""
    poly = poly[:]
    e = len(modulus) - 1
    while len(poly) > e:
        lead = poly[-1]
        if lead:
            shift = len(poly) - 1 - e
            for i, c in enumerate(modulus):
                poly[shift + i] = (poly[shift + i] - lead * c) % p
        poly.pop()
    return poly


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic_polys(p: int, deg: int):
    for coeffs in itertools.product(range(p), repeat=deg):
        yield list(coeffs) + [1]


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            # long division remainder check
            rem = _poly_mod(modulus[:], div, p)
            if not any(rem):
                return False
    return True


def default_modulus(p: int, e: int) -> list[int]:
    """The first (in coefficient lex order) monic irreducible of degree
    e; one exists for every degree over every finite field."""
    return next(mod for mod in _monic_polys(p, e) if _is_irreducible(mod, p))


@dataclass(frozen=True)
class Field:
    """GF(p^e), immutable after construction."""

    p: int
    e: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]  # inv[0] unused

    @property
    def q(self) -> int:
        return self.p ** self.e

    def elements(self):
        return range(self.q)

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def pow(self, a: int, k: int) -> int:
        r = 1
        for _ in range(k):
            r = self.mul[r][a]
        return r


def _vec(idx: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(idx % p)
        idx //= p
    return out


def _idx(vec: list[int], p: int) -> int:
    out = 0
    for c in reversed(vec):
        out = out * p + c
    return out


def field_make(p: int, e: int = 1) -> Field:
    """GF(p^e) modulo ``default_modulus(p, e)``."""
    if not is_prime(p):
        raise AlgebraError(f"{p} is not prime")
    if not 1 <= e <= 4:
        raise AlgebraError("extension degree must be between 1 and 4")
    q = p ** e
    if q > 256:
        raise AlgebraError("field size limited to 256")
    modulus = default_modulus(p, e)

    vecs = [_vec(i, p, e) for i in range(q)]
    add = tuple(
        tuple(_idx([(x + y) % p for x, y in zip(va, vb)], p) for vb in vecs)
        for va in vecs
    )
    mul_rows = []
    for va in vecs:
        row = []
        for vb in vecs:
            prod = _poly_mod(_poly_mul(va, vb, p), modulus, p)
            row.append(_idx(prod, p))
        mul_rows.append(tuple(row))
    mul = tuple(mul_rows)
    neg = tuple(_idx([(-x) % p for x in v], p) for v in vecs)
    # the modulus is irreducible, so every nonzero row holds a 1
    inv = (0,) + tuple(row.index(1) for row in mul[1:])
    return Field(p, e, add, mul, neg, inv)


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over a common field, row-major entries a, b, c, d."""

    field: Field
    a: int
    b: int
    c: int
    d: int

    def sub(self, other: "Matrix2") -> "Matrix2":
        if other.field != self.field:
            raise AlgebraError("matrices over different fields")
        f = self.field
        return Matrix2(f, f.sub(self.a, other.a), f.sub(self.b, other.b),
                       f.sub(self.c, other.c), f.sub(self.d, other.d))

    def quadratic_form(self, v0: int, v1: int) -> int:
        """v M v^T for the row vector v = (v0, v1)."""
        f = self.field
        t1 = f.mul[f.mul[v0][v0]][self.a]
        t2 = f.mul[f.mul[v0][v1]][f.add[self.b][self.c]]
        t3 = f.mul[f.mul[v1][v1]][self.d]
        return f.add[f.add[t1][t2]][t3]


def anisotropic_difference_check(matrices: list[Matrix2]) -> bool:
    """True iff every pairwise difference defines an anisotropic
    quadratic form (nonzero on all nonzero vectors)."""
    if not matrices:
        return True
    f = matrices[0].field
    if any(m.field != f for m in matrices):
        raise AlgebraError("matrices over different fields")
    vectors = [(v0, v1) for v0 in f.elements() for v1 in f.elements()
               if (v0, v1) != (0, 0)]
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            diff = matrices[i].sub(matrices[j])
            for v0, v1 in vectors:
                if diff.quadratic_form(v0, v1) == 0:
                    return False
    return True
