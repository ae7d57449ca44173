"""Dense single-variable series kernels, in pure Python.

There is one backend, because no workload shows that a second one pays.
All routines work on plain lists of Python ints indexed by exponent and
truncated at a given order (inclusive).  Coefficients are exact arbitrary
precision integers; nothing here may introduce floats.
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
