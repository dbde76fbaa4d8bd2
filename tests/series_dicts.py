"""Laurent series as plain {exponent: coefficient} dicts, for the test oracles.

The library stores a series as its valuation v and the tuple of
(offset, coefficient) terms, offsets strictly increasing from 0 and no
zero coefficient (fcrystal.series).  The functions below are the dict
algorithms the library ran before that form: every result is built
coefficient by coefficient and filtered for zeros, with no shortcut.
The oracles compute on dicts, build series with the public constructor
LaurentSeries(ctx, dict) and read them back with as_dict.  Sections
(f, g) of an extension module are pairs of such dicts here.
"""


def as_dict(s):
    """{e: c} of a series, read off its terms."""
    return {s.v + o: c for o, c in s.terms}


def is_canonical(s):
    """v None and terms () for zero, else an int v and terms with offsets
    strictly increasing from 0 and no zero coefficient, every part a
    tuple."""
    ctx, v, terms = s.ctx, s.v, s.terms
    if type(terms) is not tuple:
        return False
    if not terms:
        return v is None
    offsets = [o for o, _ in terms]
    return (
        type(v) is int
        and all(type(t) is tuple and len(t) == 2 and type(t[0]) is int for t in terms)
        and offsets[0] == 0
        and all(a < b for a, b in zip(offsets, offsets[1:]))
        and not any(ctx.is_zero(c) for _, c in terms)
    )


def _clean(ctx, a):
    return {e: c for e, c in a.items() if not ctx.is_zero(c)}


def valuation(a):
    return min(a) if a else None


def add(ctx, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = ctx.add(out[e], c) if e in out else c
    return _clean(ctx, out)


def neg(ctx, a):
    return {e: ctx.neg(c) for e, c in a.items()}


def sub(ctx, a, b):
    return add(ctx, a, neg(ctx, b))


def smul(ctx, scalar, a):
    return _clean(ctx, {e: ctx.mul(scalar, c) for e, c in a.items()})


def mul(ctx, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            prod = ctx.mul(c1, c2)
            out[e] = ctx.add(out[e], prod) if e in out else prod
    return _clean(ctx, out)


def shift(a, k):
    return {e + k: c for e, c in a.items()}


def pole_part(a, k=0):
    """The terms of negative exponent of t^k times a."""
    return {e: c for e, c in shift(a, k).items() if e < 0}


def frob(ctx, a):
    return {ctx.p * e: ctx.frob(c) for e, c in a.items()}


# -- sections (f, g) of an ExtensionModule ---------------------------------


def section_dicts(x):
    return tuple(as_dict(s) for s in x)


def apply_F(mod, x):
    """(f^p, [t f^p c] + g^p), [.] the pole part."""
    ctx = mod.ctx
    f, g = x
    fp = frob(ctx, f)
    return fp, add(ctx, pole_part(mul(ctx, fp, as_dict(mod.c)), 1), frob(ctx, g))


def mul_t_pow(x, k):
    f, g = x
    return shift(f, k), pole_part(g, k)


def t_preimage(x):
    f, g = x
    return shift(f, -1), shift(g, -1)


def level_coords(spec, images, n):
    """ExtensionVFilt._level_coords(images, n) from dicts: each image is
    rewritten as g + [t^(-l) f] where the rule has a depth l, its level read
    off the two valuations, and its coordinates at level n read at the
    series exponent and the delta index of n."""
    ctx, p = spec.module.ctx, spec.den
    series, delta = spec._parts(n)
    dim = (series is not None) + (delta is not None)
    cols = []
    for k, y in enumerate(images):
        f, g = section_dicts(y)
        if spec.l is not None:
            g = add(ctx, g, pole_part(f, -spec.l))
        levels = [] if valuation(g) is None else [valuation(g) * p]
        if spec.series_label and f:
            levels.append(valuation(f) * p - spec.shift_num)
        lvl = min(levels, default=None)
        if lvl is None or lvl > n:
            cols.append((ctx.zero,) * dim)
            continue
        if lvl < n or not dim:
            return dim, k
        col = () if series is None else (f.get(series, ctx.zero),)
        cols.append(col if delta is None else col + (g.get(-delta, ctx.zero),))
    return dim, cols
