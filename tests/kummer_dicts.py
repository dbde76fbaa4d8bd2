"""Kummer sections as plain {exponent: vector} dicts, for the test oracles.

The library stores a nonzero section sum_e v_e s^e as the canonical pair
(n, terms): n is its valuation and terms the tuple of (e - n, v_e) with
v_e nonzero, in increasing order; the zero section is ().  The oracles
keep computing on dicts and cross the boundary here only.
"""


def as_dict(x):
    """{e: v_e} of a canonical section."""
    if not x:
        return {}
    n, terms = x
    return {n + o: v for o, v in terms}


def from_dict(ctx, x):
    """The canonical section of a dict; zero vectors are dropped."""
    items = sorted((e, tuple(v)) for e, v in x.items() if not all(map(ctx.is_zero, v)))
    if not items:
        return ()
    n = items[0][0]
    return (n, tuple((e - n, v) for e, v in items))


def is_canonical(ctx, x):
    """() or (n, terms) with offsets strictly increasing from 0 and no
    zero vector, every part a tuple."""
    if x == ():
        return True
    if type(x) is not tuple or len(x) != 2 or type(x[0]) is not int or type(x[1]) is not tuple:
        return False
    n, terms = x
    offsets = [o for o, _ in terms]
    return (
        bool(terms)
        and offsets[0] == 0
        and all(a < b for a, b in zip(offsets, offsets[1:]))
        and all(type(v) is tuple and not all(map(ctx.is_zero, v)) for _, v in terms)
    )
