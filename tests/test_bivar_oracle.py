"""Differential tests of the `BivarPoly` kernels against the dict code they
replaced.

Over a prime field `BivarPoly.__mul__` adds unreduced int products and
reduces each output coefficient once; `antisym` forms u - sigma(u) in one
pass; `monic` scales each coefficient by the inverse directly; `__hash__`
hashes the set of terms; `divide_exact` reduces one remainder dict in place.
The oracle is the earlier code, kept here as it was over raw term dicts: the
per-term `radd`/`rmul` product, u - sigma(u) as u + (-swap(u)), monic as a
product with a constant, and long division that subtracts each c*d formed by
that product.  Polynomials are drawn sparse, so that many terms have no
mirror (j, i), with the zero polynomial and constants among them.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import FqCtx
from monogenic.bivar import BivarPoly
from monogenic.monorder import sym_index_key

FIELDS = {name: FqCtx(*pk) for name, pk in {
    "F2": (2, 1), "F3": (3, 1), "F7": (7, 1), "F4": (2, 2),
}.items()}


def _raw(ctx, c):
    """The raw value of the c-th element of ctx (0 is zero, 1 is one)."""
    if ctx.k == 1:
        return c
    return tuple(c // ctx.p ** i % ctx.p for i in range(ctx.k))


# ---- the oracle: the earlier kernels over raw term dicts -----------------

def _add_term(ctx, out, e, c):
    s = ctx.radd(out.get(e, ctx.rzero), c)
    if ctx.ris_zero(s):
        out.pop(e, None)
    else:
        out[e] = s


def oracle_mul(ctx, a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            _add_term(ctx, out, (i1 + i2, j1 + j2), ctx.rmul(c1, c2))
    return out


def oracle_antisym(ctx, u):
    out = dict(u)
    for (i, j), c in u.items():
        _add_term(ctx, out, (j, i), ctx.rneg(c))
    return out


def oracle_monic(ctx, u):
    if not u:
        return u
    return oracle_mul(ctx, u, {(0, 0): ctx.rinv(u[max(u)])})


def oracle_divide_exact(ctx, a, d):
    r, out = dict(a), {}
    ld = max(d)
    cd_inv = ctx.rinv(d[ld])
    while r:
        lr = max(r)
        e = (lr[0] - ld[0], lr[1] - ld[1])
        if e[0] < 0 or e[1] < 0:
            return None
        c = ctx.rmul(r[lr], cd_inv)
        out[e] = c
        for f, cf in oracle_mul(ctx, {e: c}, d).items():
            _add_term(ctx, r, f, ctx.rneg(cf))
    return out


# ---- strategies -----------------------------------------------------------

def terms(ctx, max_exp=4, max_size=6):
    """Sparse raw term dicts: zero, constants and terms without a mirror
    are all common; zero coefficients are dropped by the constructor."""
    return st.dictionaries(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        st.integers(0, ctx.q - 1).map(lambda c: _raw(ctx, c)),
        max_size=max_size,
    )


def field_and(count):
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(st.just(name), *[terms(FIELDS[name]) for _ in range(count)]))


def same(new, old_terms):
    """The new result holds exactly the oracle's terms and hashes like an
    equal polynomial built in the oracle's term order."""
    assert new.terms == old_terms
    assert all(not new.ctx.ris_zero(c) for c in new.terms.values())
    rebuilt = BivarPoly(new.ctx, dict(reversed(list(old_terms.items()))))
    assert new == rebuilt and hash(new) == hash(rebuilt)


@given(field_and(3))
@settings(max_examples=150, deadline=None)
@example(("F7", {(1, 0): 3, (0, 1): 4}, {(1, 0): 3, (0, 1): 3}, {}))  # (3x+4y)(3x+3y): xy cancels
@example(("F2", {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, {(0, 0): 1}))  # (x+y)^2
@example(("F4", {(2, 0): (0, 1), (0, 0): (1, 1)}, {(0, 0): (1, 0)}, {(1, 1): (1, 1)}))
def test_products_match_the_per_term_loop(case):
    name, ra, rb, rc = case
    ctx = FIELDS[name]
    a, b, c = BivarPoly(ctx, ra), BivarPoly(ctx, rb), BivarPoly(ctx, rc)
    same(a * b, oracle_mul(ctx, a.terms, b.terms))
    # (a + b)(a - b): the cross terms cancel
    plus, minus = a + b, a - b
    same(plus * minus, oracle_mul(ctx, plus.terms, minus.terms))
    assert hash(a * b) == hash(b * a)
    assert (a * b) * c == a * (b * c)


@given(field_and(1))
@settings(max_examples=200, deadline=None)
@example(("F7", {(2, 0): 5}))  # a term with no mirror: x^2 - y^2, not x^2
@example(("F3", {(3, 1): 1, (1, 3): 2, (2, 2): 1, (0, 4): 2}))
@example(("F2", {(1, 0): 1, (0, 1): 1, (1, 1): 1}))  # symmetric: the key is 0
@example(("F4", {(0, 2): (0, 1), (1, 0): (1, 1), (0, 0): (1, 0)}))
@example(("F7", {}))
def test_antisym_monic_and_key_match_the_copies(case):
    name, ru = case
    ctx = FIELDS[name]
    u = BivarPoly(ctx, ru)
    anti = oracle_antisym(ctx, u.terms)
    same(u.antisym(), anti)
    assert u.antisym() == u - u.swap()
    same(u.monic(), oracle_monic(ctx, u.terms))
    same(sym_index_key(u), oracle_monic(ctx, anti))
    assert hash(sym_index_key(u)) == hash(BivarPoly(ctx, oracle_monic(ctx, anti)))


@given(field_and(2))
@settings(max_examples=150, deadline=None)
@example(("F7", {(1, 0): 3, (0, 1): 2}, {(1, 0): 1, (0, 1): 6}))
def test_exact_division_matches_the_copying_loop(case):
    name, ra, rd = case
    ctx = FIELDS[name]
    a, d = BivarPoly(ctx, ra), BivarPoly(ctx, rd)
    if d.is_zero():
        return
    for num in (a, a * d):
        q = num.divide_exact(d)
        old = oracle_divide_exact(ctx, num.terms, d.terms)
        if old is None:
            assert q is None
        else:
            same(q, old)
    assert (a * d).divide_exact(d) == a
