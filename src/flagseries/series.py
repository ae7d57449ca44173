"""Exact truncated power series, Lefschetz polynomials and rational forms.

Everything in this module is immutable after construction and all
coefficients are exact Python integers.  Series carry their truncation
explicitly; arithmetic between series with different truncations truncates
down to the componentwise minimum.
"""

from __future__ import annotations

import itertools

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
        truncation = tuple(int(t) for t in truncation)
        if len(truncation) != len(variables):
            raise ValueError("one truncation order per variable")
        if any(t < 0 for t in truncation):
            raise ValueError("truncation orders must be nonnegative")
        rows = {}
        for exps, c in coefficients.items():
            c = _as_int(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
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
        exponents, with no per-term check.  Each row is copied, cut or padded
        to the truncation; keys past the leading truncation and all-zero rows
        are dropped."""
        out = cls(variables, truncation, {})
        width = out.truncation[-1] + 1
        lead = out.truncation[:-1]
        kept = {}
        for key, row in rows.items():
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
    """Cauchy product, truncated to the minimum truncation.

    Dense rows of the last variable are convolved for every pair of
    leading keys whose sum stays inside the truncation; a one-variable
    series is the single row keyed ``()``.
    """
    trunc = a._check_compatible(b)
    n = trunc[-1]
    lead = trunc[:-1]
    rows_b = b.rows.items()
    out = {}
    for ka, ra in a.rows.items():
        for kb, rb in rows_b:
            key = tuple(x + y for x, y in zip(ka, kb))
            if any(x > t for x, t in zip(key, lead)):
                continue
            prod = kernels.mul_trunc(ra, rb, n)
            acc = out.get(key)
            if acc is None:
                out[key] = prod
            else:
                kernels.addmul_shifted(acc, prod, 0, 1, n)
    return QSeries.from_rows(a.variables, trunc, out)


def ps_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse up to truncation; constant term must be +-1.

    The inverse is a graded back-substitution on dense rows of the last
    variable: ``B_0 = A_0^-1`` and, for each leading key k > 0,
    ``B_k = -B_0 * sum_{f != 0} A_f B_{k-f}``, where every ``k - f`` is
    solved before k.  A one-variable series is the single row keyed ``()``,
    so its inverse is ``B_0``.
    """
    c0 = a.constant_term()
    if c0 not in (1, -1):
        raise ValueError("constant term must be a unit (+1 or -1)")
    n = a.truncation[-1]
    rows = dict(a.rows)
    zero = (0,) * (len(a.variables) - 1)
    b0 = kernels.inv_trunc(rows.pop(zero), n)
    minus_b0 = [-c for c in b0]
    out = {zero: b0}
    keys = sorted(
        itertools.product(*(range(t + 1) for t in a.truncation[:-1])), key=sum
    )
    for k in keys[1:]:
        acc = None
        for f, af in rows.items():
            bg = out.get(tuple(x - y for x, y in zip(k, f)))
            if bg is None:
                continue
            prod = kernels.mul_trunc(af, bg, n)
            if acc is None:
                acc = prod
            else:
                kernels.addmul_shifted(acc, prod, 0, 1, n)
        if acc is not None and any(acc):
            out[k] = kernels.mul_trunc(minus_b0, acc, n)
    return QSeries.from_rows(a.variables, a.truncation, out)


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
        denominator = {int(j): int(e) for j, e in dict(denominator).items() if e}
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


class LPoly:
    """Polynomial in the Lefschetz class with exact integer coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [_as_int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LPoly is immutable")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self):
        return self.coefficients[-1] if self.coefficients else 0

    def is_zero(self):
        return not self.coefficients

    def __getitem__(self, i):
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    def __iter__(self):
        return iter(self.coefficients)

    def __add__(self, other):
        other = _coerce_lpoly(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return LPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return LPoly([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-_coerce_lpoly(other))

    def __rsub__(self, other):
        return _coerce_lpoly(other) - self

    def __mul__(self, other):
        a, b = self.coefficients, _coerce_lpoly(other).coefficients
        return LPoly(kernels.mul_trunc(a, b, len(a) + len(b) - 2))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = LPoly((1,))
        for _ in range(e):
            result = result * self
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = LPoly((other,))
        return isinstance(other, LPoly) and self.coefficients == other.coefficients

    def __hash__(self):
        # A constant equals its int, so it hashes as that int.
        return hash(self[0]) if self.degree < 1 else hash(self.coefficients)

    def __repr__(self):
        if self.is_zero():
            return "LPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                mono = "L" if i == 1 else f"L^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return "LPoly(" + " + ".join(parts) + ")"

    def to_json_list(self):
        return [str(c) for c in self.coefficients]


def _coerce_lpoly(value):
    if isinstance(value, LPoly):
        return value
    if isinstance(value, int):
        return LPoly((value,))
    raise TypeError(f"cannot combine LPoly with {type(value).__name__}")


#: The Lefschetz class itself.
LEFSCHETZ = LPoly((0, 1))


def projective_space(n: int) -> LPoly:
    """Class of n-dimensional projective space: 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LPoly((1,) * (n + 1))
