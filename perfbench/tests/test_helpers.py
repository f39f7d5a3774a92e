"""Tests for the benchmark's own helpers: the tail percentile, span self
time, and installing and removing the tracer's wrappers.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import measure, tracer  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


# -- tail percentile --------------------------------------------------------

def test_tail_percentile_has_ten_samples_beyond_it():
    for n in range(1, 400):
        values = [float(v) for v in range(n, 0, -1)]   # unsorted on purpose
        tail = measure.tail_percentile(values)
        if tail is None:
            # no percentile above the median leaves ten samples beyond it
            assert n - math.ceil(51 * n / 100) < measure.TAIL_BEYOND, n
            continue
        pct, value, beyond = tail
        assert 50 < pct < 100, n
        assert beyond >= measure.TAIL_BEYOND, n
        assert sum(v > value for v in values) == beyond, n
        # the next whole percentile would leave fewer than ten
        assert n - math.ceil((pct + 1) * n / 100) < measure.TAIL_BEYOND, n


def test_tail_percentile_examples():
    assert measure.tail_percentile(range(20)) is None
    assert measure.tail_percentile(range(1, 22)) == (52, 11, 10)
    assert measure.tail_percentile(range(1, 101)) == (90, 90, 10)
    assert measure.tail_percentile(range(1, 1001)) == (99, 990, 10)


# -- self time --------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _by_name(t: Tracer):
    return {s[2]: s for s in t.spans}


def test_self_time_nested_and_adjacent_spans():
    # a [0, 20] holds b [1, 9] and c [10, 16] side by side; b holds d [2, 5]
    t = Tracer(clock=FakeClock([0, 1, 2, 5, 9, 10, 16, 20]))
    t.enter("a")
    t.enter("b")
    t.enter("d")
    t.exit()
    t.exit()
    t.enter("c")
    t.exit()
    t.exit()
    spans = _by_name(t)
    a, b, c, d = spans["a"], spans["b"], spans["c"], spans["d"]
    assert a[1] == 0 and b[1] == a[0] and c[1] == a[0] and d[1] == b[0]
    assert d[5] == 3            # leaf: all of [2, 5]
    assert b[5] == 8 - 3        # [1, 9] minus d
    assert c[5] == 6            # adjacent sibling, no children
    assert a[5] == 20 - 8 - 6   # minus its direct children only, not d again
    # self times of all spans add up to the top-level span's duration
    assert sum(s[5] for s in t.spans) == a[4] - a[3]


def test_adjacent_top_level_spans_are_independent():
    t = Tracer(clock=FakeClock([0, 4, 4, 7]))
    t.enter("x")
    t.exit()
    t.enter("x")
    t.exit()
    assert [s[1] for s in t.spans] == [0, 0]
    agg = t.aggregate()["x"]
    assert agg["calls"] == 2 and agg["s"] == 7 and agg["self_s"] == 7


def test_work_counter_is_split_between_parent_and_children():
    t = Tracer(clock=FakeClock(range(100)))
    t.enter("outer")
    t.counts["tensor.Node"] += 2
    t.enter("inner")
    t.counts["tensor.Node"] += 5
    t.exit()
    t.counts["tensor.Node"] += 1
    t.exit()
    spans = _by_name(t)
    assert spans["inner"][6:] == (5, 5)
    assert spans["outer"][6:] == (8, 3)


# -- installing and removing wrappers ---------------------------------------

FAKE_PROGRAM = """
def helper(x):
    return x * 2

def work(x):
    return helper(x) + 1

def fails():
    raise ValueError("boom")

class Thing:
    def method(self, y):
        return y - 1
"""


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_program")
    exec(FAKE_PROGRAM, mod.__dict__)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def _bindings(mod):
    spans = [(mod.__name__, None, "work", "fake.work"),
             (mod.__name__, None, "fails", "fake.fails"),
             (mod.__name__, "Thing", "method", "fake.Thing.method")]
    counts = [(mod.__name__, None, "helper", "fake.helper")]
    return spans, counts


def test_wrappers_install_and_uninstall_cleanly(fake_module):
    spans, counts = _bindings(fake_module)
    originals = {name: fake_module.__dict__[name] for name in ("work", "fails", "helper")}
    method = fake_module.Thing.__dict__["method"]
    tracer.assert_restored(spans, counts)

    t = Tracer()
    t.install(spans, counts)
    with pytest.raises(RuntimeError, match="still traced"):
        tracer.assert_restored(spans, counts)
    assert fake_module.work(3) == 7       # calls helper through its module global
    assert fake_module.Thing().method(5) == 4
    with pytest.raises(ValueError):
        fake_module.fails()
    t.uninstall()

    tracer.assert_restored(spans, counts)
    for name, fn in originals.items():
        assert fake_module.__dict__[name] is fn
    assert fake_module.Thing.__dict__["method"] is method
    agg = t.aggregate()
    assert agg["fake.work"]["calls"] == 1
    assert agg["fake.fails"]["calls"] == 1       # span closed although it raised
    assert agg["fake.Thing.method"]["calls"] == 1
    assert t.counts["fake.helper"] == 1    # patched where work looks it up
    # calls after uninstall are not recorded
    fake_module.work(1)
    assert t.aggregate()["fake.work"]["calls"] == 1


def test_install_refuses_to_wrap_twice_and_leaves_nothing_behind(fake_module):
    spans, counts = _bindings(fake_module)
    originals = {name: fake_module.__dict__[name] for name in ("work", "fails")}
    first = Tracer()
    first.install([], counts)
    with pytest.raises(RuntimeError, match="already installed"):
        first.install([], counts)
    second = Tracer()
    # the span bindings go in first, then the wrapped helper stops the install
    with pytest.raises(RuntimeError, match="already traced"):
        second.install(spans, counts)
    for name, fn in originals.items():
        assert fake_module.__dict__[name] is fn
    first.uninstall()
    tracer.assert_restored(spans, counts)


def test_every_program_binding_resolves_and_restores():
    import annembed.tensor

    tracer.assert_restored()
    init = annembed.tensor.Node.__dict__["__init__"]
    t = Tracer()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.assert_restored()
        annembed.tensor.matmul(annembed.tensor.constant([[1.0]]),
                               annembed.tensor.constant([[2.0]]))
    finally:
        t.uninstall()
    tracer.assert_restored()
    assert annembed.tensor.Node.__dict__["__init__"] is init
    assert t.counts["tensor.matmul"] == 1
    assert t.counts["tensor.Node"] == 3
