"""Exact rational forms: an integer numerator over prod_j (1 - q^j)^{e_j}.

Every production answer of ``fz``, ``fq`` and ``tables`` is such a form,
and its series prefix is one ``expand_dense`` run, so this module holds
no truncated series: ``RationalForm.expand`` loads ``series`` only when a
caller asks for a ``QSeries``.
"""

from operator import index

from .kernels import _as_int


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
        from .series import QSeries

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
