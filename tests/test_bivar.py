import random

import pytest

from monogenic import BivarPoly, FqCtx, FqElem

F7 = FqCtx(7)
F2 = FqCtx(2)


def expand_sym(g):
    """Substitute e1 -> x+y, e2 -> xy in g: the inverse of sym_decompose,
    and its oracle."""
    ctx = g.ctx
    e1 = BivarPoly(ctx, {(1, 0): 1, (0, 1): 1})
    e2 = BivarPoly(ctx, {(1, 1): 1})
    acc = BivarPoly(ctx, {})
    for (a, b), c in g.terms.items():
        acc = acc + (e1 ** a) * (e2 ** b) * FqElem(ctx, c)
    return acc


def gens(ctx=F7):
    return BivarPoly.gens(ctx)


def test_sym_decompose_power_sums():
    x, y = gens()
    d2 = (x ** 2 + y ** 2).sym_decompose()
    # e1^2 - 2 e2 = e1^2 + 5 e2 over F_7
    assert repr(d2) == "e1^2+5*e2"
    d3 = (x ** 3 + y ** 3).sym_decompose()
    # oracle: re-expansion must reproduce the input
    assert expand_sym(d3) == x ** 3 + y ** 3
    assert repr(d3) == "e1^3+4*e1*e2"


def test_sym_decompose_failure_signal():
    x, y = gens()
    assert (x + 2 * y).sym_decompose() is None


def test_sym_decompose_roundtrip_randomized():
    rng = random.Random(9)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            terms[(rng.randrange(4), rng.randrange(4))] = rng.randrange(1, 7)
        g = BivarPoly(F7, terms, names=("e1", "e2"))
        f = expand_sym(g)
        back = f.sym_decompose()
        assert back == g


def test_swap_and_symmetry():
    x, y = gens()
    t = 3 * x + 2 * y
    assert t.swap() == 2 * x + 3 * y
    assert (t * t.swap()).is_symmetric()
    assert not t.is_symmetric()
    assert (x + y).is_symmetric()


def test_exact_division():
    x, y = gens()
    a = (x + y) * (3 * x + 2 * y)
    q = a.divide_exact(x + y)
    assert q == 3 * x + 2 * y
    assert (x ** 2 + y).divide_exact(x + y) is None


def test_char2_arithmetic():
    x, y = gens(F2)
    assert ((x + y) ** 2) == x ** 2 + y ** 2
    d = (x ** 2 + y ** 2).sym_decompose()
    assert repr(d) == "e1^2"


def test_conjugate_difference_quotient_is_one():
    # with s = x and t = 3x + 2y the swap differences agree:
    # (x - y) / ((3x+2y) - (3y+2x)) = 1
    x, y = gens()
    s = x
    t = 3 * x + 2 * y
    du = s - s.swap()
    dw = t - t.swap()
    assert du == dw
    assert du.divide_exact(dw) == BivarPoly.constant(F7, 1)


def pth_power_decompose_bivar(f: BivarPoly):
    """Coordinates of f over the p-basis {x^a y^b : 0 <= a, b < p} of
    F_q(x, y) over its subfield of p-th powers: f = sum c_m^p * m."""
    ctx = f.ctx
    p = ctx.p
    buckets = {}
    for (i, j), c in f.terms.items():
        m = (i % p, j % p)
        buckets.setdefault(m, {})[(i // p, j // p)] = ctx.rpth_root(c)
    return {
        m: BivarPoly(ctx, terms, f.names)
        for m, terms in sorted(buckets.items())
    }


def test_pth_power_decompose_bivar():
    x, y = gens()
    dec = pth_power_decompose_bivar(x ** 7 * y)
    assert set(dec) == {(0, 1)}
    assert dec[(0, 1)] == x
    # roundtrip: sum c_m^7 * m
    f = x ** 9 * y ** 3 + 2 * x
    back = BivarPoly(F7, {})
    for (a, b), c in pth_power_decompose_bivar(f).items():
        back = back + c ** 7 * BivarPoly(F7, {(a, b): 1})
    assert back == f


def test_constant_of_another_field_rejected():
    # an F_5 constant used to be read as its residue in F_7
    x, _ = gens()
    for expr in (lambda c: x + c, lambda c: c - x, lambda c: c * x):
        with pytest.raises(ValueError):
            expr(FqCtx(5).elem(3))
