"""Exact truncated power series and rational forms.

Everything in this module is immutable after construction and all
coefficients are exact Python integers.  Series carry their truncation
explicitly; arithmetic between series with different truncations truncates
down to the componentwise minimum.
"""

from __future__ import annotations

from operator import add, gt, index

from . import kernels

VARIABLE_NAMES = ("q", "s", "v", "t", "q1", "q2")


def _as_int(value):
    if isinstance(value, int):
        return value
    raise TypeError(f"expected an exact integer, got {type(value).__name__}")


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


def ps_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, truncated to the minimum truncation: the dense rows
    of the last variable are packed into ints (see ``kernels``), multiplied
    for every pair of leading keys whose sum stays inside the truncation,
    and decoded once per output row."""
    trunc = a._check_compatible(b)
    n = trunc[-1]
    lead = trunc[:-1]
    # an output coefficient sums at most (n + 1) * min(#rows) products
    bound = (n + 1) * min(len(a.rows), len(b.rows))
    for rows in a.rows, b.rows:
        bound *= max((max(map(abs, row)) for row in rows.values()), default=0)
    bits = kernels._signed_bits(bound)
    packed_b = [(kb, kernels._pack(rb, bits)) for kb, rb in b.rows.items()]
    out = {}
    for ka, ra in a.rows.items():
        va = kernels._pack(ra, bits)
        for kb, vb in packed_b:
            key = tuple(map(add, ka, kb))
            if not any(map(gt, key, lead)):
                out[key] = out.get(key, 0) + va * vb
    rows = {k: kernels._unpack(v, bits, n + 1) for k, v in out.items()}
    return QSeries.from_rows(a.variables, trunc, rows)


def ps_pow(a: QSeries, exponent: int) -> QSeries:
    """Nonnegative integer power by binary exponentiation."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if exponent == 0:
        return QSeries.one(a.variables, a.truncation)
    result = None
    base = a
    e = exponent
    while True:
        if e & 1:
            result = base if result is None else ps_mul(result, base)
        e >>= 1
        if not e:
            return result
        base = ps_mul(base, base)


def expand_dense(numerator, denominator, n, z_power=0):
    """numerator / prod_j (1 - q^j)^{e_j} * Z^z_power, dense up to degree n.

    Z = prod_{j>=1} 1 / (1 - q^j) is the partition series, so its power
    adds ``z_power`` to every exponent e_j.  Dividing by (1 - q^j) is one
    prefix-sum pass of stride j, so the expansion takes e_j + z_power passes
    per factor with j <= n (a larger j leaves every kept degree as it is)
    and no series product or inverse.
    """
    if z_power < 0:
        raise ValueError("the power of the partition series must be nonnegative")
    out = list(numerator[: n + 1]) + [0] * max(0, n + 1 - len(numerator))
    for j in range(1, n + 1):
        for _ in range(denominator.get(j, 0) + z_power):
            for m in range(j, n + 1):
                out[m] += out[m - j]
    return out


class RationalForm:
    """Integer polynomial numerator over prod_j (1 - q^j)^{e_j}."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        numerator = tuple(_as_int(c) for c in numerator)
        while numerator and numerator[-1] == 0:
            numerator = numerator[:-1]
        denominator = {index(j): index(e) for j, e in dict(denominator).items() if e}
        if any(j <= 0 or e < 1 for j, e in denominator.items()):
            raise ValueError("denominator must map positive j to exponents >= 1")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalForm is immutable")

    @property
    def numerator_degree(self):
        return len(self.numerator) - 1 if self.numerator else -1

    def expand(self, truncation, z_power=0):
        """The q-series of this form times Z^z_power, up to ``truncation``:
        one :func:`expand_dense` run, with Z's power in the denominator."""
        out = expand_dense(self.numerator, self.denominator, truncation, z_power)
        return QSeries.from_dense("q", out, truncation)

    def __eq__(self, other):
        return (
            isinstance(other, RationalForm)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __repr__(self):
        den = " ".join(f"(1-q^{j})^{e}" for j, e in sorted(self.denominator.items()))
        return f"RationalForm({list(self.numerator)} / {den or '1'})"

    def to_json_dict(self):
        return {
            "numerator": list(self.numerator),
            "denominator": [[j, e] for j, e in sorted(self.denominator.items())],
        }

