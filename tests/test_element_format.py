"""Only FieldCtx knows how a field element is stored.

IntField wraps a real FieldCtx and stores every element as its int code
ctx.encode(a) instead of the coefficient tuple.  Code outside the field
that indexed, iterated, sliced or serialized an element directly would
fail on an int with TypeError, or print a different report.  Swapped in
for make_field, the int form must leave every report byte-identical.
"""

import functools
from random import Random

import pytest

from test_acceptance import DETERMINISM_JOBS, _run_job

from fcrystal import cli, field, functors
from fcrystal.field import make_field
from fcrystal.functors import CGObject, functor_G, naturality_check_G
from fcrystal.samples import random_object
from object_morphisms import random_object_morphism


class IntField:
    """F_{p^m} with each element stored as the int sum_i c_i p^i."""

    def __init__(self, inner):
        self.inner = inner
        self.p, self.m, self.order = inner.p, inner.m, inner.order
        self.modulus = inner.modulus
        self.frob_rows = inner.frob_rows
        self.zero, self.one = inner.encode(inner.zero), inner.encode(inner.one)

    def __repr__(self):
        return repr(self.inner)

    def _wrap(self, name, *elems, extra=()):
        inner = self.inner
        out = getattr(inner, name)(*(inner.decode(a) for a in elems), *extra)
        return inner.encode(out)

    def el(self, coeffs):
        return self.inner.encode(self.inner.el(coeffs))

    def from_int(self, k):
        return self.inner.encode(self.inner.from_int(k))

    def coeffs(self, a):
        return self.inner.decode(a)

    def from_coeffs(self, cs):
        return self.inner.encode(cs)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return self._wrap("add", a, b)

    def sub(self, a, b):
        return self._wrap("sub", a, b)

    def sub_scaled(self, u, c, v):
        inner = self.inner
        out = inner.sub_scaled([inner.decode(a) for a in u], inner.decode(c), [inner.decode(b) for b in v])
        return [inner.encode(a) for a in out]

    def neg(self, a):
        return self._wrap("neg", a)

    def mul(self, a, b):
        return self._wrap("mul", a, b)

    def smul(self, c, a):
        return self.inner.encode(self.inner.smul(c, self.inner.decode(a)))

    def inv(self, a):
        return self._wrap("inv", a)

    def pow(self, a, e):
        return self._wrap("pow", a, extra=(e,))

    def frob(self, a):
        return self._wrap("frob", a)

    def encode(self, a):
        return a

    def decode(self, n):
        return n

    def elements(self):
        return (self.inner.encode(a) for a in self.inner.elements())

    @property
    def generator(self):
        return self.inner.encode(self.inner.generator)

    def to_json(self):
        return self.inner.to_json()


@functools.cache
def _int_field(p, m):
    return IntField(make_field(p, m))


def int_make_field(p, m):
    make_field(p, m)  # the same checks and errors
    return _int_field(p, m)


def use_int_fields(monkeypatch):
    for module in (field, cli, functors):
        monkeypatch.setattr(module, "make_field", int_make_field)


def test_int_field_is_opaque():
    # the stored form really is an int: nothing can index it
    ctx = _int_field(5, 2)
    a = ctx.el([3, 4])
    assert a == 23 and ctx.coeffs(a) == (3, 4) and ctx.from_coeffs((3, 4)) == a
    with pytest.raises(TypeError):
        a[0]


@pytest.mark.parametrize("argv", DETERMINISM_JOBS, ids=[" ".join(a) for a in DETERMINISM_JOBS])
def test_determinism_jobs_do_not_see_the_element_form(monkeypatch, argv):
    expected = _run_job(argv)
    use_int_fields(monkeypatch)
    assert _run_job(argv) == expected


def _objects(make, seed):
    """A random_object_morphism pair over F_25 and objects over F_25 that
    saturate at degrees 3 and 2, built through make."""
    ctx = make(5, 2)
    rng = Random(seed)
    obj1, obj2 = random_object(ctx, 3, rng), random_object(ctx, 3, rng)
    g = random_object_morphism(obj1, obj2, rng)
    el = ctx.el
    deg3 = CGObject(ctx, 1, (2,), ((((el([1, 1]), el([0, 1])), (el([0, 1]), el([3, 2])))),))
    deg2 = CGObject(ctx, 1, (2,), ((((el([1, 1]), el([1, 1])), (el([2, 0]), el([1, 1])))),))
    zero = ((((ctx.zero,) * 2,) * 2),)
    return (obj1, obj2, g), (deg3, deg2, zero)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_functors_do_not_see_the_element_form(monkeypatch, seed):
    def run(make):
        (obj1, obj2, g), (deg3, deg2, zero) = _objects(make, seed)
        sat = functor_G(deg3)
        return (
            naturality_check_G(obj1, obj2, g),
            sat.saturation.degree,
            sat.to_json(),
            functor_G(deg2).to_json(),
            naturality_check_G(deg3, deg2, zero),
        )

    expected = run(make_field)
    use_int_fields(monkeypatch)
    assert run(int_make_field) == expected
    assert expected[0]["status"] == "pass" and expected[1] == 3
    assert expected[4]["status"] == "pass" and expected[4]["common_degree"] == 6
