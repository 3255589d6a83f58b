"""Span recording, patching and the self-time arithmetic."""

import sys
import types

import pytest

from tracing import Span, Tracer, per_scope, self_times


def _span(name, start, end, parent, scope=("unit", 0)):
    return Span(name, start, end, parent, scope, thread=0)


def test_self_time_is_duration_minus_children():
    spans = [
        _span("core.run", 0.0, 10.0, -1),            # 0
        _span("pme.apply", 1.0, 5.0, 0),             # 1
        _span("sparse.matmat", 2.0, 3.0, 1),         # 2
        _span("pme.apply", 6.0, 9.0, 0),             # 3
        _span("pme.fft", 6.5, 8.5, 3),               # 4
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])
    assert sum(own) == pytest.approx(spans[0].duration)


def test_per_scope_sums_by_name_and_scope():
    spans = [_span("pme.apply", 0.0, 1.0, -1, ("unit", 0)),
             _span("pme.apply", 1.0, 3.0, -1, ("unit", 0)),
             _span("pme.apply", 3.0, 4.0, -1, ("unit", 2)),
             _span("pme.apply", 4.0, 9.0, -1, ("setup", 0))]
    sums = per_scope(spans, [s.duration for s in spans], "unit")
    assert dict(sums["pme.apply"]) == {0: 3.0, 2: 1.0}


class _Thing:
    def __init__(self):
        self.total = 0.0

    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        self.total += x
        return 2 * x

    @classmethod
    def make(cls):
        return cls()


def test_patched_methods_nest_and_unpatch():
    tracer = Tracer()
    tracer.patch_method(_Thing, "outer", "core")
    tracer.patch_method(_Thing, "inner", "pme",
                        info=lambda result, thing, x: {"doubled": result},
                        delta=lambda thing, x: {"total": thing.total})
    tracer.patch_method(_Thing, "make", "core")
    thing = _Thing.make()
    assert thing.outer(1) == 3 and tracer.spans == []     # inert when off
    tracer.set_scope("unit", 4, True)
    thing = _Thing.make()
    assert thing.outer(5) == 11
    tracer.set_scope("unit", 4, False)
    names = [s.name for s in tracer.spans]
    assert names == ["core._Thing.make", "core._Thing.outer",
                     "pme._Thing.inner"]
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert inner.parent == 1 and outer.parent == -1
    assert inner.scope == ("unit", 4)
    assert inner.info == {"doubled": 10, "total": 5.0}
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.unpatch()
    assert "recorded" not in _Thing.outer.__qualname__
    assert isinstance(_Thing.__dict__["make"], classmethod)


def test_patch_function_replaces_every_global_that_holds_it():
    origin = types.ModuleType("repro_fake_origin")
    user = types.ModuleType("repro_fake_user")
    exec("def work(x):\n    return x + 1", origin.__dict__)
    user.work = origin.work                  # ``from origin import work``
    sys.modules.update({origin.__name__: origin, user.__name__: user})
    tracer = Tracer()
    try:
        original = origin.work
        tracer.patch_function(original, "krylov",
                              info=lambda out, x: {"x": x})
        tracer.set_scope("unit", 0, True)
        assert user.work(1) == 2 and origin.work(2) == 3
        assert [s.name for s in tracer.spans] == ["krylov.work"] * 2
        assert tracer.spans[1].info == {"x": 2}
        tracer.unpatch()
        assert user.work is original and origin.work is original
    finally:
        del sys.modules[origin.__name__], sys.modules[user.__name__]


def test_span_is_closed_when_the_callable_raises():
    tracer = Tracer()

    def bad():
        raise KeyError("x")

    wrapped = tracer.wrap("core.bad", bad)
    tracer.set_scope("unit", 0, True)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0
    index = tracer.begin("core.next")        # the stack was unwound
    assert tracer.spans[index].parent == -1
