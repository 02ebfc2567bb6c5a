"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import copy
import sys
import types

import pytest

from check import load_refs, mismatches
from run import p95_or_max
from tracing import Span, Tracer, self_times


def test_self_time_of_synthetic_nest():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "leaf", 2.0, 3.0),
        Span(3, 0, 0, "b", 3.0, 6.0),     # overlaps a, as a thread would
        Span(4, 0, 0, "c", 9.0, 12.0),    # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)


def test_tracer_wraps_lookup_site_and_restores_it():
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.install(((mod.__name__, "outer", "outer"),
                        (mod.__name__, "inner", "inner")))
        tracer.op = 7
        assert mod.outer(1) == 4
        tracer.uninstall()
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules[mod.__name__]
    top, child = tracer.spans
    assert (top.name, top.parent, top.op) == ("outer", None, 7)
    assert (child.name, child.parent, child.op) == ("inner", top.id, 7)
    assert top.start <= child.start <= child.end <= top.end


@pytest.mark.parametrize("n, label", [(1, "max"), (199, "max"), (200, "p95"),
                                      (1000, "p95")])
def test_tail_percentile_and_its_sample_count(n, label):
    values = [float(i) for i in range(n)]
    value, got = p95_or_max(values)
    assert got == label
    beyond = sum(1 for v in values if v > value)
    if label == "p95":
        assert beyond >= 10
        assert value == pytest.approx(0.95 * (n - 1))
    else:
        assert value == max(values)


@pytest.mark.parametrize("workload", ["lineflow5-train", "dispatch98"])
def test_output_check_rejects_one_perturbed_record(workload):
    key, ref = next(iter(load_refs(workload).items()))
    assert mismatches(ref, copy.deepcopy(ref), key) == []

    def first_float_path(value):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for k, v in items:
            if isinstance(v, float) and v != 0.0:
                return [k]
            if isinstance(v, (dict, list)):
                sub = first_float_path(v)
                if sub:
                    return [k, *sub]
        return None

    def perturbed(rel):
        out = copy.deepcopy(ref)
        *head, last = first_float_path(out)
        node = out
        for k in head:
            node = node[k]
        node[last] *= 1.0 + rel
        return out

    assert mismatches(ref, perturbed(1e-9), key) == []
    bad = mismatches(ref, perturbed(1e-4), key)
    assert len(bad) == 1 and bad[0].startswith(key)


def test_output_check_compares_counts_and_verdicts_exactly():
    key, ref = next(iter(load_refs("lineflow5-train").items()))
    for field, value in (("inner_iterations", ref["inner_iterations"] + 1),
                         ("backtrack_rounds", 0), ("pfe_verdict", "clean")):
        out = dict(ref, **{field: value})
        assert mismatches(ref, out, key) == [
            f"{key}.{field}: {value!r} != {ref[field]!r}"]
    assert mismatches(ref, None, key)
    assert mismatches({"cost": 1.0}, {"cost": None}, key)
