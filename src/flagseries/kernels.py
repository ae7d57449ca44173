"""Dense single-variable series kernels, in pure Python.

There is one backend, because no workload shows that a second one pays.
The package multiplies in exactly two ways.  Packed ints carry the
series products (``series.ps_mul`` and ``ps_pow``), the engine's rank
forms and numerator recurrence (``engine._rank_form`` and
``_numerator_rows``), and the two-variable series of the rank-one
nested-pair table (``partitions.nested_pair_counts``).  ``mul_trunc`` multiplies the
coefficient lists of ``motives.LPoly``.  The list kernels work on plain
lists of Python ints indexed by exponent and truncated at a given order
(inclusive); ``addmul_shifted`` serves the engine's truncated placement
DP, which only the tests run, and ``inv_trunc`` has no caller in the
package (the tests' ``ps_inv`` referee uses it, and the benchmark tracer,
``perfbench/spans.py``, reads all three list kernels here by name).
Coefficients are exact arbitrary precision integers; nothing here may
introduce floats.

Packing is Kronecker substitution (D. Harvey, J. Symbolic Comput. 44,
2009): ``_pack`` evaluates a coefficient list at q = 2^bits, one big-int
product then multiplies two polynomials, and ``_unpacker`` reads the
coefficients back as signed base-2^bits digits, a fixed count of them
for every row of a product and for the rank-one table, and all of them
(``_decode``) for a whole polynomial.  The decoding is exact when every coefficient it
reads has absolute value at most the bound the caller proves, with
``bits = _signed_bits(bound)``.
"""

BACKEND = "pure"


def mul_trunc(a, b, n):
    """Truncated Cauchy product of two coefficient lists, up to degree n."""
    out = [0] * (n + 1)
    la = min(len(a), n + 1)
    for i in range(la):
        ai = a[i]
        if not ai:
            continue
        lb = min(len(b), n + 1 - i)
        if ai == 1:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += bj
        else:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def inv_trunc(a, n):
    """Multiplicative inverse of a up to degree n; a[0] must be +1 or -1."""
    c0 = a[0]
    if c0 != 1 and c0 != -1:
        raise ValueError("constant term must be a unit (+1 or -1)")
    out = [0] * (n + 1)
    out[0] = c0
    la = len(a)
    for k in range(1, n + 1):
        acc = 0
        top = min(k, la - 1)
        for j in range(1, top + 1):
            aj = a[j]
            if aj:
                acc += aj * out[k - j]
        # c0 is its own inverse, so divide by multiplying.
        out[k] = -acc * c0
    return out


def addmul_shifted(dst, src, shift, coef, n):
    """dst[shift + i] += coef * src[i] for every index kept by truncation n."""
    if not coef or shift > n:
        return
    top = min(len(src), n + 1 - shift)
    if coef == 1:
        for i in range(top):
            si = src[i]
            if si:
                dst[shift + i] += si
    elif coef == -1:
        for i in range(top):
            si = src[i]
            if si:
                dst[shift + i] -= si
    else:
        for i in range(top):
            si = src[i]
            if si:
                dst[shift + i] += coef * si


def _signed_bits(bound):
    """Slot width holding every integer of absolute value <= bound as one
    signed digit: the bound's bit length and a sign bit."""
    return bound.bit_length() + 1


def _pack(coeffs, bits):
    """sum_i coeffs[i] * 2^(bits * i): the polynomial at q = 2^bits."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpacker(bits, count):
    """The reader of the coefficients of degree < count of polynomials
    packed by :func:`_pack`, as digits in [-2^(bits-1), 2^(bits-1)); the
    higher ones are ignored.  Adding 2^(bits-1) to every slot makes each
    digit nonnegative, so one mask cuts the kept slots and each is read by
    a shift and a mask.  The offset and the mask are built once, for every
    value the reader is given."""
    half = 1 << (bits - 1)
    slot = (1 << bits) - 1
    kept = (1 << (bits * count)) - 1
    offset = half * (kept // slot)
    shifts = range(0, bits * count, bits)

    def unpack(value):
        value = (value + offset) & kept
        return [(value >> shift & slot) - half for shift in shifts]

    return unpack


def _decode(value, bits):
    """Every coefficient of a polynomial packed by :func:`_pack`, trailing
    zeros stripped.  A nonzero top digit at degree d makes
    |value| > 2^(bits * d - 1), so ``bit_length // bits + 1`` digits reach
    the degree."""
    row = _unpacker(bits, value.bit_length() // bits + 1)(value)
    while row and not row[-1]:
        row.pop()
    return row
