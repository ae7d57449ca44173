"""F_q point counts referee the closed motives.

If the class of a variety X is a polynomial P(L) in the Lefschetz class,
then X has P(q) points over every finite field F_q.  These tests count the
F_q-points of the punctual Hilbert schemes, of their Hilbert-Samuel strata,
of the (2, n) and (3, n) punctual nested Hilbert schemes and of the
recorded small nestings by listing every m-primary ideal of F_q[x, y] of
small colength, and compare each count with the closed formula of
``flagseries.motives`` evaluated at L = q.  The recorded global classes of
the plane are counted by the support of the subscheme instead.

The ideals are listed through Macaulay inverse systems.  An ideal I of
colength k containing m^N corresponds to its annihilator I^perp in the dual
of F_q[x, y]/m^N: a k-dimensional subspace of the span of the dual
monomials that is closed under the contractions dx and dy, the transposes of
multiplication by x and y.  J contains I exactly when J^perp lies in I^perp.
Every closed subspace W of dimension k + 1 contains a closed one W' of
dimension k (dually, I lies in I + (s) for a socle element s), so the closed
subspaces of dimension k + 1 are the spans W' + <f> with f outside W' and
dx f, dy f inside W'.
"""

from functools import lru_cache
from itertools import product
from math import comb

import pytest

from flagseries.motives import (
    BASE_NESTED_MOTIVES,
    GLOBAL_PLANE_MOTIVES,
    gottsche_punctual,
    motive_2n,
    motive_3n,
    motive_strata,
    motive_Y1112,
)

#: (q, largest colength): n = 6 is counted at two primes.
FIELDS = [(2, 8), (3, 6)]


def _monomials(top):
    """Exponents (a, b) with a + b < top, highest degree first."""
    return [(a, d - a) for d in range(top - 1, -1, -1) for a in range(d + 1)]


def _reduce(vec, basis, p):
    """Remainder of ``vec`` modulo a subspace in reduced row echelon form,
    given as (pivot, row) pairs."""
    vec = list(vec)
    for pivot, row in basis:
        c = vec[pivot]
        if c:
            vec = [(a - c * b) % p for a, b in zip(vec, row)]
    return vec


def _extend(basis, vec, p):
    """Reduced row echelon form of span(basis, vec), or None if ``vec`` is
    already in the span.  The form is canonical, so it names the subspace."""
    vec = _reduce(vec, basis, p)
    pivot = next((j for j, c in enumerate(vec) if c), None)
    if pivot is None:
        return None
    scale = pow(vec[pivot], p - 2, p)
    vec = tuple(c * scale % p for c in vec)
    rows = [
        (piv, tuple((a - row[pivot] * b) % p for a, b in zip(row, vec)))
        for piv, row in basis
    ]
    return tuple(sorted(rows + [(pivot, vec)]))


def _kernel(images, p):
    """Basis of the relations sum_i c_i images[i] = 0 over F_p."""
    width = len(images)
    reduced = []
    relations = []
    for i, image in enumerate(images):
        vec = list(image) + [int(j == i) for j in range(width)]
        for pivot, row in reduced:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        pivot = next((j for j in range(len(image)) if vec[j]), None)
        if pivot is None:
            relations.append(vec[len(image):])
        else:
            scale = pow(vec[pivot], p - 2, p)
            reduced.append((pivot, [c * scale % p for c in vec]))
    return relations


@lru_cache(maxsize=None)
def _inverse_systems(p, top):
    """Inverse systems of the m-primary ideals of F_p[x, y] of colength at
    most ``top``, listed by colength, each in canonical echelon form over the
    dual monomials of degree < ``top``.  The columns run from the highest
    degree down, so the pivots of I^perp in degree i number the
    Hilbert-Samuel value h_i of I."""
    monomials = _monomials(top)
    index = {m: i for i, m in enumerate(monomials)}
    size = len(monomials)

    def unit(i):
        return [int(j == i) for j in range(size)]

    def contractions(a, b):
        return [index.get((a - 1, b)), index.get((a, b - 1))]

    levels = [[()]]
    for k in range(top):
        found = set()
        # an ideal of colength k + 1 contains m^(k + 1)
        columns = [i for i, (a, b) in enumerate(monomials) if a + b <= k]
        for basis in levels[k]:
            images = []
            for i in columns:
                image = []
                for j in contractions(*monomials[i]):
                    image += _reduce(unit(j), basis, p) if j is not None else [0] * size
                images.append(image)
            # a basis of the f with dx f, dy f in W, taken modulo W
            complement = []
            span = basis
            for relation in _kernel(images, p):
                f = [0] * size
                for i, c in zip(columns, relation):
                    f[i] = c
                wider = _extend(span, f, p)
                if wider is not None:
                    span = wider
                    complement.append(f)
            for coords in product(range(p), repeat=len(complement)):
                if next((c for c in coords if c), 0) != 1:
                    continue  # zero, or not the normalised point of a line
                f = [
                    sum(c * u[j] for c, u in zip(coords, complement)) % p
                    for j in range(size)
                ]
                found.add(_extend(basis, f, p))
        levels.append(sorted(found))
    return monomials, levels


def _hilbert_samuel(basis, monomials):
    degrees = [sum(monomials[pivot]) for pivot, _ in basis]
    return tuple(degrees.count(i) for i in range(max(degrees) + 1))


def _contains(big, small, p):
    """Whether the inverse system ``big`` contains ``small``."""
    return all(not any(_reduce(row, big, p)) for _, row in small)


def _small_ideals(p, top, length):
    """The ideals of colength ``length`` that contain each ideal of colength
    ``n``, for every n <= top."""
    _, levels = _inverse_systems(p, top)
    return [
        [[j for j in levels[length] if _contains(i, j, p)] for i in levels[n]]
        for n in range(top + 1)
    ]


@pytest.mark.parametrize("q, top", FIELDS)
def test_punctual_hilbert_scheme_counts(q, top):
    _, levels = _inverse_systems(q, top)
    hilb = gottsche_punctual(top)
    for n in range(top + 1):
        assert len(levels[n]) == hilb[n](q), (q, n)


@pytest.mark.parametrize("q, top", FIELDS)
def test_hilbert_samuel_strata_counts(q, top):
    monomials, levels = _inverse_systems(q, top)
    for n in range(4, top + 1):
        counts = {"curvilinear": 0, "h1": 0, "h2": 0, "h3": 0}
        for basis in levels[n]:
            h = _hilbert_samuel(basis, monomials)
            counts["curvilinear" if h[1] == 1 else f"h{h[2]}"] += 1
        strata = motive_strata(n)
        assert counts == {
            "curvilinear": strata.curvilinear(q),
            "h1": strata.h1(q),
            "h2": strata.h2(q),
            "h3": strata.h3(q),
        }, (q, n)


@pytest.mark.parametrize("q, top", FIELDS)
def test_nested_2n_counts(q, top):
    pairs = _small_ideals(q, top, 2)
    for n in range(2, top + 1):
        assert sum(map(len, pairs[n])) == motive_2n(n)(q), (q, n)


@pytest.mark.parametrize("q, top", FIELDS)
def test_nested_3n_counts(q, top):
    pairs = _small_ideals(q, top, 3)
    for n in range(3, top + 1):
        assert sum(map(len, pairs[n])) == motive_3n(n)(q), (q, n)


@pytest.mark.parametrize("q, top", FIELDS)
def test_Y1112_stratum_counts(q, top):
    monomials, levels = _inverse_systems(q, top)
    pairs = _small_ideals(q, top, 3)
    for n in range(5, top + 1):
        count = 0
        for big, smalls in zip(levels[n], pairs[n]):
            h = _hilbert_samuel(big, monomials)
            if h[1] == 2 and h[2] == 2:
                count += sum(
                    _hilbert_samuel(j, monomials) == (1, 1, 1) for j in smalls
                )
        assert count == motive_Y1112(n)(q), (q, n)


@pytest.mark.parametrize("q, top", FIELDS)
def test_base_nested_motive_counts(q, top):
    # chains of ideals of the recorded colengths, counted level by level:
    # each inverse system of the next colength sums the chains it contains
    _, levels = _inverse_systems(q, top)
    for spec, motive in BASE_NESTED_MOTIVES.items():
        chains = {basis: 1 for basis in levels[spec[0]]}
        for n in spec[1:]:
            chains = {
                big: sum(c for small, c in chains.items() if _contains(big, small, q))
                for big in levels[n]
            }
        assert sum(chains.values()) == motive(q), (q, spec)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_global_plane_motive_counts(q):
    # A subscheme of the plane is a product of punctual ones at the closed
    # points of its support: q^2 rational points, (q^4 - q^2) / 2 points of
    # degree 2, and H_n(q) punctual length-n schemes at a rational point.
    # A length-1 subscheme is a rational point of the support, so a support
    # without one (a point of degree 3) adds nothing to (1, 3).
    hilb = gottsche_punctual(3)
    h2, h3 = hilb[2](q), hilb[3](q)
    points, quadratic = q * q, (q**4 - q * q) // 2
    hilb2 = points * h2 + comb(points, 2) + quadratic
    nested13 = (
        points * h3  # one point of length 3
        + 2 * points * (points - 1) * h2  # lengths 2 and 1; Z1 at either
        + 3 * comb(points, 3)  # three rational points; Z1 at any
        + points * quadratic  # Z1 at the rational point
    )
    assert GLOBAL_PLANE_MOTIVES[(0, 2)](q) == hilb2
    assert GLOBAL_PLANE_MOTIVES[(1, 3)](q) == nested13
