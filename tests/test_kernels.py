import random

import pytest

from flagseries import KERNEL_BACKEND
from flagseries.kernels import BACKEND, addmul_shifted, inv_trunc, mul_trunc

BIG = 2**70


def _rand_list(rng, length):
    """Coefficients beyond 64 bits, with zeros and units mixed in."""
    pool = [0, 1, -1]
    return [
        rng.choice(pool) if rng.random() < 0.3 else rng.randint(-BIG, BIG)
        for _ in range(length)
    ]


def _naive_mul(a, b, n):
    return [
        sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
        for k in range(n + 1)
    ]


def test_backend_name():
    assert BACKEND == "pure"
    assert KERNEL_BACKEND == "pure"


def test_mul_trunc_matches_naive_product():
    rng = random.Random(20261018)
    for _ in range(60):
        # n < 0 gives [], as LPoly() * LPoly() asks with n = -2
        n = rng.randint(-2, 12)
        # lengths below, at and above n + 1
        a = _rand_list(rng, rng.randint(1, n + 5))
        b = _rand_list(rng, rng.randint(1, n + 5))
        assert mul_trunc(a, b, n) == _naive_mul(a, b, n)


def test_inv_trunc_inverts():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 12)
        a = [rng.choice((1, -1))] + _rand_list(rng, rng.randint(0, n + 4))
        inv = inv_trunc(a, n)
        assert len(inv) == n + 1
        assert _naive_mul(a, inv, n) == [1] + [0] * n


def test_inv_trunc_negative_unit():
    # 1 / (-1 + q) = -(1 + q + q^2 + ...)
    assert inv_trunc([-1, 1], 5) == [-1] * 6


def test_inv_trunc_rejects_non_unit():
    for c0 in (0, 2, -2, BIG):
        with pytest.raises(ValueError):
            inv_trunc([c0, 1], 4)


def test_addmul_shifted_matches_naive():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(0, 12)
        dst = _rand_list(rng, n + 1)
        # shifts past n, and sources longer than the room left
        shift = rng.randint(0, n + 4)
        src = _rand_list(rng, rng.randint(0, max(n + 1 - shift, 0) + 3))
        coef = rng.choice((1, -1, 0, 3, -5, rng.randint(-BIG, BIG)))
        want = list(dst)
        for i, s in enumerate(src):
            if shift + i <= n:
                want[shift + i] += coef * s
        addmul_shifted(dst, src, shift, coef, n)
        assert dst == want, (shift, coef)


def test_addmul_shifted_no_op_cases():
    dst = [BIG, -BIG, 3]
    addmul_shifted(dst, [1, 2, 3], 3, 5, 2)  # shift > n
    addmul_shifted(dst, [1, 2, 3], 0, 0, 2)  # coef == 0
    assert dst == [BIG, -BIG, 3]
