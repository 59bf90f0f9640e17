import random

import pytest

from monogenic import (
    FqCtx,
    Poly,
    RatFunc,
    Tower,
    discriminant,
    frobenius_power,
    minimal_polynomial,
)
from monogenic.tower import AlgElem, kp_eval
from monogenic.verify import quartic_twist_tower, shifted_tower
from test_parse import _random_elem, _random_ratfunc

F2 = FqCtx(2)
F3 = FqCtx(3)


def product_discriminant(cs):
    """prod_{i<j} (a_i - a_j)^2 over the conjugates of a ConjugateSet,
    which must land in K."""
    tower = cs.element.tower
    acc = tower.from_base(1)
    roots = cs.conjugates
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            diff = roots[i] - roots[j]
            acc = acc * diff * diff
    r = acc.in_base()
    assert r is not None, "conjugate product did not land in K"
    return r


# Galois action by declared generator images, checked to send each
# generator to a root of its (mapped) defining polynomial; with the
# conjugates it gives, `product_discriminant` above is a discriminant
# computed without any elimination.

class GaloisMap:
    """Automorphism of the tower over K, declared by generator images."""

    def __init__(self, tower, images, name="sigma"):
        self.tower = tower
        self.name = name
        self.images = {}
        for lv in tower.levels:
            if lv.label not in images:
                raise ValueError(f"missing image for generator {lv.label!r}")
            img = images[lv.label]
            if not isinstance(img, AlgElem) or img.tower is not tower:
                raise ValueError("images must be elements of the same tower")
            self.images[lv.label] = img
        # each image must be a root of the sigma-mapped defining polynomial
        for lv in tower.levels:
            coeffs = [self.apply(tower.from_base(c) if isinstance(c, RatFunc) else AlgElem(tower, c))
                      for c in lv.coeffs]
            if not kp_eval(coeffs, self.images[lv.label]).is_zero():
                raise ValueError(
                    f"image of {lv.label!r} is not a root of its defining polynomial"
                )

    def apply(self, t):
        tower = self.tower
        if t.tower is not tower:
            raise ValueError("element of a different tower")

        def walk(lvl, v):
            if lvl == 0:
                return tower.from_base(v)
            img = self.images[tower.levels[lvl - 1].label]
            return kp_eval([walk(lvl - 1, c) for c in tower._blocks(lvl, v)], img)

        return walk(tower.top, t.coords())


class ConjugateSet:
    """An element together with its d distinct conjugates over K."""

    def __init__(self, element, conjugates):
        self.element = element
        self.conjugates = tuple(conjugates)

    def __len__(self):
        return len(self.conjugates)


def conjugates(t, maps):
    """Images of t under the given maps; they must be exactly the d distinct
    roots of the minimal polynomial of t."""
    g, d = minimal_polynomial(t)
    images = []
    for m in maps:
        img = m.apply(t)
        if all(not (img == u) for u in images):
            images.append(img)
    if len(images) != d:
        raise ValueError(
            f"maps induce {len(images)} distinct images, need d={d} (cosets not covered)"
        )
    for img in images:
        if not kp_eval(g, img).is_zero():
            raise ValueError("a declared conjugate is not a root of the minimal polynomial")
    return ConjugateSet(t, images)


def conjugate_difference_unit(s, t, i, j):
    """(t_(i) - t_(j)) / (s_(i) - s_(j)) inside the ambient tower."""
    if i == j:
        raise ValueError("need distinct indices")
    ds = s.conjugates[i] - s.conjugates[j]
    if ds.is_zero():
        raise ValueError("coincident conjugates")
    dt = t.conjugates[i] - t.conjugates[j]
    return dt / ds


def sqrt_x_tower():
    x = RatFunc.gen(F3)
    return Tower(F3).extend("y", [-x, RatFunc.of(0, F3), RatFunc.of(1, F3)])


def test_minpoly_of_generator_is_defining():
    tw = quartic_twist_tower()
    g, d = minimal_polynomial(tw.gen(0))
    assert d == 4
    assert tuple(g) == tw.levels[0].coeffs


def test_minpoly_translate():
    # oracle: (t-1)^2 = x expands to Y^2 - 2Y + (1 - x)
    tw = sqrt_x_tower()
    y = tw.gen(0)
    g, d = minimal_polynomial(y + 1)
    assert d == 2
    x = RatFunc.gen(F3)
    assert g == [RatFunc.of(1, F3) - x, RatFunc.of(-1, F3) * 2, RatFunc.of(1, F3)]


def test_minpoly_base_element_degree_one():
    tw = sqrt_x_tower()
    g, d = minimal_polynomial(tw.x())
    assert d == 1
    assert g == [-RatFunc.gen(F3), RatFunc.of(1, F3)]


def test_discriminant_shifted_quartic():
    tw = shifted_tower(Poly(F2, [1, 1]))
    assert discriminant(tw.gen(0)) == RatFunc(Poly.x(F2) ** 12)


def test_discriminant_twisted_quartic():
    # oracle: disc(y) = Res(f, f') = 1 since f' = 1 in char 2, and scaling
    # s = x*y multiplies the discriminant by x^{d(d-1)} = x^12
    tw = quartic_twist_tower()
    y = tw.gen(0)
    assert discriminant(y) == RatFunc.of(1, F2)
    s = tw.x() * y
    assert discriminant(s) == RatFunc(Poly.x(F2) ** 12)


def test_discriminant_sqrt_x():
    tw = sqrt_x_tower()
    assert discriminant(tw.gen(0)) == RatFunc.gen(F3)  # 4x = x mod 3


def test_discriminant_degree_one_rejected():
    tw = sqrt_x_tower()
    with pytest.raises(ValueError):
        discriminant(tw.x())


def test_discriminant_inseparable_minpoly_rejected():
    # Y^2 + x over F_2 has g' = 0, so Res(g, g') = 0; a tower cannot hold a
    # root of it, so the minimal polynomial is passed in directly
    x = RatFunc.gen(F2)
    u = Tower(F2).extend("u", [x, 1, 1]).gen(0)  # u^2 + u + x, separable
    g = [x, RatFunc.of(0, F2), RatFunc.of(1, F2)]
    with pytest.raises(ValueError, match="inseparable"):
        discriminant(u, (g, 2))


def test_galois_apply_and_conjugates():
    tw = sqrt_x_tower()
    y = tw.gen(0)
    ident = GaloisMap(tw, {"y": y}, "id")
    sigma = GaloisMap(tw, {"y": -y}, "sigma")
    assert (ident.apply(y + 1) - (y + 1)).is_zero()
    cs = conjugates(y, [ident, sigma])
    assert len(cs) == 2
    # Vieta: the conjugate product is the constant term up to sign
    prod = cs.conjugates[0] * cs.conjugates[1]
    assert prod.in_base() == -RatFunc.gen(F3)
    assert product_discriminant(cs) == discriminant(y)


def test_galois_bad_image_rejected():
    tw = sqrt_x_tower()
    with pytest.raises(ValueError):
        GaloisMap(tw, {"y": tw.gen(0) + 1})


def test_conjugates_need_full_cover():
    tw = sqrt_x_tower()
    ident = GaloisMap(tw, {"y": tw.gen(0)}, "id")
    with pytest.raises(ValueError):
        conjugates(tw.gen(0), [ident])


def test_frobenius_power():
    tw = quartic_twist_tower()
    y = tw.gen(0)
    assert (frobenius_power(y, 0) - y).is_zero()
    # y^4 = x^2 y^2 + y + 1 from the defining polynomial
    x = tw.x()
    assert (frobenius_power(y, 2) - (x * x * y * y + y + 1)).is_zero()
    assert frobenius_power(tw.x(), 1).in_base() == RatFunc.gen(F2) ** 2


def test_conjugate_difference_unit():
    tw = sqrt_x_tower()
    y = tw.gen(0)
    x = RatFunc.gen(F3)
    ident = GaloisMap(tw, {"y": y}, "id")
    sigma = GaloisMap(tw, {"y": -y}, "sigma")
    cs = conjugates(y, [ident, sigma])
    assert (conjugate_difference_unit(cs, cs, 0, 1) - tw.from_base(1)).is_zero()
    # t = a s^q + b gives the char-p binomial identity a (s_i - s_j)^{q-1}
    t = 2 * frobenius_power(y, 1) + x
    ct = conjugates(t, [ident, sigma])
    u = conjugate_difference_unit(cs, ct, 0, 1)
    ds = cs.conjugates[0] - cs.conjugates[1]
    assert (u - 2 * ds * ds).is_zero()
    with pytest.raises(ValueError):
        conjugate_difference_unit(cs, ct, 1, 1)


def test_disc_translation_invariance_randomized():
    rng = random.Random(31)
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    base = discriminant(s)
    for _ in range(100):
        b = Poly.random(F2, rng.randrange(0, 4), rng)
        assert discriminant(s + RatFunc(b)) == base


def test_disc_scaling_randomized():
    rng = random.Random(32)
    tw = sqrt_x_tower()
    y = tw.gen(0)
    base = discriminant(y)
    for _ in range(25):
        a = RatFunc(Poly.random(F3, rng.randrange(0, 3), rng),
                    Poly.random(F3, rng.randrange(0, 3), rng))
        if a.is_zero():
            continue
        assert discriminant(y * a) == a ** 2 * base  # d(d-1) = 2


def test_disc_transformation_law_randomized():
    # disc(a s^{p^e} + b) = a^{d(d-1)} disc(s)^{p^e}
    rng = random.Random(33)
    towers = [
        (shifted_tower(Poly(F2, [1, 1])), F2, 12),
        (sqrt_x_tower(), F3, 2),
    ]
    for tw, ctx, exp in towers:
        s = tw.gen(0)
        base = discriminant(s)
        for _ in range(20):
            a = RatFunc(Poly.random(ctx, rng.randrange(0, 2), rng))
            if a.is_zero():
                continue
            b = RatFunc(Poly.random(ctx, rng.randrange(0, 3), rng))
            e = rng.randrange(0, 3)
            t = a * frobenius_power(s, e) + b
            assert discriminant(t) == a ** exp * base ** (ctx.p ** e)


def test_galois_preserves_minpoly():
    tw = sqrt_x_tower()
    y = tw.gen(0)
    sigma = GaloisMap(tw, {"y": -y}, "sigma")
    t = y * RatFunc.gen(F3) + 2
    g1, _ = minimal_polynomial(t)
    g2, _ = minimal_polynomial(sigma.apply(t))
    assert g1 == g2


def test_certification_statuses():
    tw = quartic_twist_tower()
    assert tw.levels[0].status.startswith("certified")
    tw2 = shifted_tower(Poly(F2, [1, 1]))
    assert tw2.levels[0].status.startswith("certified")
    # caller-declared assumption is recorded
    x = RatFunc.gen(F2)
    tw3 = Tower(F2).extend(
        "w", [x, RatFunc.of(1, F2), RatFunc.of(1, F2)], assume_irreducible=True
    )
    assert tw3.levels[0].status == "assumed"


def _reducible_f3(assume):
    # s^2 = x, then u^2 = x: u = +-s
    x = RatFunc.gen(F3)
    return Tower(F3).extend("s", [-x, 0, 1]).extend("u", [-x, 0, 1], assume_irreducible=assume)


def _split_f65521(assume):
    # s^2 - x^2 = (s - x)(s + x)
    ctx = FqCtx(65521)
    x = RatFunc.gen(ctx)
    return Tower(ctx).extend("s", [-x * x, 0, 1], assume_irreducible=assume)


@pytest.mark.parametrize("build, label", [(_reducible_f3, "u"), (_split_f65521, "s")],
                         ids=["F3-two-levels", "F65521-split"])
def test_extend_refuses_uncertified_level(build, label):
    with pytest.raises(ValueError, match=f"level '{label}'.*assume_irreducible"):
        build(False)
    assert build(True).levels[-1].status == "assumed"


def test_inseparable_defining_poly_rejected():
    x = RatFunc.gen(F2)
    with pytest.raises(ValueError):
        # Y^2 + x is inseparable in characteristic 2
        Tower(F2).extend("w", [x, RatFunc.of(0, F2), RatFunc.of(1, F2)])


def test_second_level_separability():
    # over K(s): W^2 + s has derivative 0, W^2 + W + s is Artin-Schreier
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    with pytest.raises(ValueError, match="not separable"):
        tw.extend("w", [s, 0, 1])
    assert tw.top == 1
    tw.extend("w", [s, 1, 1], assume_irreducible=True)
    assert tw.top == 2 and tw.degree_total() == 8
    w = tw.gen(1)
    assert (w * w + w + tw.gen(0)).is_zero()


def test_galois_map_on_two_levels():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    tw.extend("w", [s, 1, 1], assume_irreducible=True)
    s, w = tw.gen(0), tw.gen(1)
    sigma = GaloisMap(tw, {"s": s, "w": w + 1})
    t = w * s + tw.x() * w + s * s
    assert sigma.apply(t) == (w + 1) * s + tw.x() * (w + 1) + s * s
    assert sigma.apply(sigma.apply(t)) == t
    with pytest.raises(ValueError, match="not a root"):
        GaloisMap(tw, {"s": s, "w": w + s})


def test_division_by_an_element_of_K():
    rng = random.Random(11)
    for make in (quartic_twist_tower, sqrt_x_tower):
        tw = make()
        for _ in range(8):
            a = _random_elem(tw, rng)
            r = _random_ratfunc(tw.base, rng)
            if r.is_zero():
                continue
            assert a / r == a * (1 / r)
            assert (a / r) * r == a
        with pytest.raises(ZeroDivisionError):
            tw.gen(0) / RatFunc.of(0, tw.base)
        with pytest.raises(ZeroDivisionError):
            tw.gen(0) / 0


def test_element_text():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = tw.x()
    assert repr(x * s * s + s) == "x*s^2+s"


def _made_before_extend():
    # s is made while K(s) is the top; u^2 = s is added over it afterwards,
    # so the value of s is shorter than those of the tower it now lives in
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("s", [-x, 0, 1])
    s = tw.gen(0)
    tw.extend("u", [-s, 0, 1], assume_irreducible=True)
    return tw, s, tw.gen(1)


@pytest.mark.parametrize("check", [
    lambda tw, s, u: repr(s) == "s",
    lambda tw, s, u: s * u == tw.gen(0) * u and repr(s * u) == "s*u",
    lambda tw, s, u: s + u == tw.gen(0) + u and repr(s + u) == "u+s",
    lambda tw, s, u: s == tw.gen(0) and hash(s) == hash(tw.gen(0)),
], ids=["repr", "product", "sum", "equality"])
def test_element_made_before_extend_reads_as_its_embedding(check):
    # s was read as the start of a top-level value: it rendered as u, and
    # s*u was 0, s+u was u and s != tw.gen(0)
    assert check(*_made_before_extend())


def test_level_disc_is_a_value_of_the_level_below():
    tw, s, u = _made_before_extend()
    tw.extend("w", [-u, 0, 1], assume_irreducible=True)
    # disc(Y^2 - u) = 4u = u, a value of K(s, u) read in K(s, u, w)
    assert AlgElem(tw, tw.levels[2].disc) == u == tw.gen(1)
    assert AlgElem(tw, tw.levels[1].disc) == s
