"""Spans nest as calls do, self time excludes children, wrappers restore."""

import time
import types

from tracer import Tracer


def _module():
    mod = types.ModuleType("cbfforge.toy")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        mod.inner()

    for fn in (inner, outer):
        fn.__module__, fn.__qualname__ = "cbfforge.toy", fn.__name__
    mod.inner, mod.outer = inner, outer
    return mod


def test_wrapped_calls_nest_and_self_time_excludes_children():
    mod = _module()
    original = mod.outer
    tracer = Tracer()
    tracer.wrap(mod, "inner")
    tracer.wrap(mod, "outer")
    mod.outer()  # inactive: no spans
    assert tracer.spans == []
    tracer.active = True
    with tracer.span("unit", "unit") as root:
        mod.outer()
    tracer.active = False
    (outer,) = tracer.children(root)
    (inner,) = tracer.children(outer)
    assert (outer.name, inner.name, inner.layer) == ("toy.outer", "toy.inner", "toy")
    assert abs(tracer.self_time(outer) - (outer.duration - inner.duration)) < 1e-12
    shares = tracer.layer_self_times([root])
    assert abs(sum(shares.values()) - root.duration) < 1e-9
    assert shares["toy"] >= 0.02
    tracer.unwrap_all()
    assert mod.outer is original

