"""Exact truncated power series in one to three variables.

Everything in this module is immutable after construction and all
coefficients are exact Python integers.  Series carry their truncation
explicitly; arithmetic between series with different truncations truncates
down to the componentwise minimum.

A product packs each row into one integer (see ``kernels``).  The leading
exponents (i, j) of a row, absent ones read as 0, index a flat list of
output rows at i * (lead[-1] + 1) + j, so two rows land at the sum of their
indices when it fits; one factor's rows are sorted, so each row of the
other stops at the first past its room.  The loop serves one to three
variables.  A power squares and multiplies rows, building one series.
Rational forms live in ``forms``, which never loads this module first.
"""

from __future__ import annotations

from operator import index

from . import kernels
from .kernels import _as_int

VARIABLE_NAMES = ("q", "s", "v", "t", "q1", "q2")


class QSeries:
    """Truncated formal power series in 1-3 named variables over the integers.

    ``rows`` maps the exponents of the leading variables to the dense list
    of the last variable's coefficients, of length ``truncation[-1] + 1``;
    all-zero rows are left out, and a one-variable series is the single row
    keyed ``()``.  Exponents are componentwise bounded by ``truncation``
    (inclusive).
    """

    __slots__ = ("variables", "truncation", "rows")

    def __init__(self, variables, truncation, coefficients):
        variables = tuple(variables)
        if not 1 <= len(variables) <= 3:
            raise ValueError("a series has between one and three variables")
        for name in variables:
            if name not in VARIABLE_NAMES:
                raise ValueError(f"unknown variable name {name!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        truncation = tuple(map(index, truncation))
        if len(truncation) != len(variables):
            raise ValueError("one truncation order per variable")
        if any(t < 0 for t in truncation):
            raise ValueError("truncation orders must be nonnegative")
        rows = {}
        for exps, c in coefficients.items():
            c = _as_int(c)
            if not c:
                continue
            exps = tuple(map(index, exps))
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if all(e <= t for e, t in zip(exps, truncation)):
                row = rows.setdefault(exps[:-1], [0] * (truncation[-1] + 1))
                row[exps[-1]] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, variables, truncation, rows):
        """Series from dense rows of the last variable keyed by the leading
        exponents, with no per-term check; a key of another length raises.
        Each row is copied, cut or padded to the truncation; keys past the
        leading truncation and all-zero rows are dropped."""
        out = cls(variables, truncation, {})
        width = out.truncation[-1] + 1
        lead = out.truncation[:-1]
        kept = {}
        for key, row in rows.items():
            if len(key) != len(lead):
                raise ValueError("row key arity does not match the leading variables")
            row = list(row[:width])
            row += [0] * (width - len(row))
            if any(row) and all(k <= t for k, t in zip(key, lead)):
                kept[key] = row
        object.__setattr__(out, "rows", kept)
        return out

    @classmethod
    def zero(cls, variables, truncation):
        return cls(variables, truncation, {})

    @classmethod
    def one(cls, variables, truncation):
        zero_exp = (0,) * len(tuple(variables))
        return cls(variables, truncation, {zero_exp: 1})

    @classmethod
    def monomial(cls, variables, truncation, exponents):
        return cls(variables, truncation, {tuple(exponents): 1})

    @classmethod
    def from_dense(cls, variable, coeffs, truncation=None):
        """Build a single-variable series from a dense coefficient list."""
        if truncation is None:
            truncation = len(coeffs) - 1
        row = [_as_int(c) for c in coeffs]
        return cls.from_rows((variable,), (truncation,), {(): row})

    # -- accessors ----------------------------------------------------

    @property
    def coefficients(self):
        """The nonzero terms, as a dict from exponent tuples to integers."""
        rows = self.rows.items()
        return {k + (i,): c for k, row in rows for i, c in enumerate(row) if c}

    def __getitem__(self, exponents):
        if not isinstance(exponents, tuple):
            exponents = (exponents,)
        if len(exponents) != len(self.variables):
            raise IndexError("exponent arity does not match variables")
        row, e = self.rows.get(exponents[:-1], ()), exponents[-1]
        return row[e] if 0 <= e < len(row) else 0

    # Indexing returns 0 past the truncation, so the fallback iteration
    # over __getitem__ would never end.
    __iter__ = None

    def dense(self):
        """Dense coefficient list; only valid for single-variable series."""
        if len(self.variables) != 1:
            raise ValueError("dense form requires a single variable")
        return list(self.rows.get((), [0] * (self.truncation[0] + 1)))

    def is_zero(self):
        return not self.rows

    def constant_term(self):
        return self[(0,) * len(self.variables)]

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, QSeries):
            raise TypeError("expected a QSeries")
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )
        return tuple(min(a, b) for a, b in zip(self.truncation, other.truncation))

    def __add__(self, other):
        return ps_add(self, other)

    def __sub__(self, other):
        return ps_add(self, other * -1)

    def __mul__(self, other):
        if isinstance(other, int):
            rows = {k: [other * c for c in row] for k, row in self.rows.items()}
            return QSeries.from_rows(self.variables, self.truncation, rows)
        return ps_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return ps_pow(self, exponent)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.variables == other.variables
            and self.truncation == other.truncation
            and self.rows == other.rows
        )

    def __repr__(self):
        coeffs = self.coefficients
        head = sorted(coeffs.items())[:6]
        body = ", ".join(f"{e}: {c}" for e, c in head)
        more = ", ..." if len(coeffs) > 6 else ""
        return (
            f"QSeries({'/'.join(self.variables)} <= {self.truncation}; "
            f"{{{body}{more}}})"
        )


def ps_add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficientwise sum, truncated to the minimum truncation."""
    trunc = a._check_compatible(b)
    zeros = [0] * (trunc[-1] + 1)
    rows = dict(a.rows)
    for k, row in b.rows.items():
        rows[k] = [x + y for x, y in zip(rows.get(k, zeros), row)]
    return QSeries.from_rows(a.variables, trunc, rows)


def _row_product(a_rows, b_rows, n, lead):
    """The nonzero rows of a product, cut at ``lead`` in the leading
    variables and at ``n`` in the last one."""
    sides = (b_rows,) if a_rows is b_rows else (b_rows, a_rows)
    peaks = [
        max((max(map(abs, row)) for row in rows.values()), default=0) for rows in sides
    ]
    # an output coefficient sums at most (n + 1) * min(#rows) products
    bits = kernels._signed_bits((n + 1) * min(map(len, sides)) * peaks[0] * peaks[-1])
    top_i, top_j = (*lead, 0, 0)[:2]
    width = top_j + 1
    packed = []
    for rows in sides:
        entries = []
        for key, row in rows.items():
            i, j = (*key, 0, 0)[:2]
            entries.append((i, j, i * width + j, kernels._pack(row, bits)))
        packed.append(sorted(entries))
    out = [0] * ((top_i + 1) * width)
    for i, j, fa, va in packed[-1]:
        room_i, room_j = top_i - i, top_j - j
        for bi, bj, fb, vb in packed[0]:
            if bi > room_i:
                break
            if bj <= room_j:
                out[fa + fb] += va * vb
    unpack = kernels._unpacker(bits, n + 1)
    rows = {}
    for f, value in enumerate(out):
        row = unpack(value) if value else ()
        if any(row):
            rows[divmod(f, width)[: len(lead)]] = row
    return rows


def _with_rows(variables, truncation, rows):
    """A series that keeps ``rows`` as they are: nonzero, dense to the
    last truncation and keyed inside the leading ones."""
    out = QSeries(variables, truncation, {})
    object.__setattr__(out, "rows", rows)
    return out


def ps_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, truncated to the minimum truncation."""
    trunc = a._check_compatible(b)
    rows = _row_product(a.rows, b.rows, trunc[-1], trunc[:-1])
    return _with_rows(a.variables, trunc, rows)


def ps_pow(a: QSeries, exponent: int) -> QSeries:
    """Nonnegative integer power by binary exponentiation on the rows,
    with one series built at the end."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if exponent == 0:
        return QSeries.one(a.variables, a.truncation)
    n, lead = a.truncation[-1], a.truncation[:-1]
    result, base, e = None, a.rows, exponent
    while True:
        if e & 1:
            result = base if result is None else _row_product(result, base, n, lead)
        e >>= 1
        if not e:
            return _with_rows(a.variables, a.truncation, result)
        base = _row_product(base, base, n, lead)
