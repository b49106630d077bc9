import types

from kgbench import tracing
from kgbench.tracing import Span, Tracer


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),      # overlaps a: union is [1, 6]
        Span("c", 9.0, 12.0, 0, 0),     # runs past root: only [9, 10] counts
        Span("a.child", 2.0, 3.5, 1, 0),
    ]
    got = tracing.self_times(spans)
    assert got == [10.0 - 5.0 - 1.0, 3.0 - 1.5, 3.0, 3.0, 1.5]


def test_per_run_metrics_sums_by_name_and_run():
    spans = [
        Span("bench.op", 0.0, 4.0, None, 0),
        Span("io.read_table", 0.0, 1.0, 0, 0),
        Span("io.read_table", 2.0, 2.5, 0, 0),
        Span("bench.op", 10.0, 12.0, None, 2),
        Span("io.read_table", 10.0, 11.0, 3, 2),
    ]
    counts = [(0, "io.read_table.calls", 1), (0, "io.read_table.calls", 1),
              (2, "io.read_table.calls", 1)]
    per_run = tracing.per_run_metrics(spans, counts)
    assert per_run == {
        0: {"bench.op.self_s": 2.5, "io.read_table.s": 1.5,
            "io.read_table.calls": 2},
        2: {"bench.op.self_s": 1.0, "io.read_table.s": 1.0,
            "io.read_table.calls": 1},
    }
    med = tracing.median_over_runs(per_run, ["io.read_table.s", "missing.s"])
    assert med == {"io.read_table.s": 1.25, "missing.s": 0.0}


def test_wrap_records_nested_spans_counts_and_uninstalls():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: [x] * x
    mod.outer = lambda x, scale=2: len(mod.inner(x * scale))
    tracer = Tracer()
    tracer.run_id = 7
    tracer.wrap(mod, "inner", "m.inner",
                lambda a, out: {"m.inner.rows": len(out)})
    tracer.wrap(mod, "outer", lambda a: f"m.outer.{a['scale']}")
    assert mod.outer(3) == 6
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("m.outer.2", None, 7), ("m.inner", 0, 7)]
    assert tracer.counts == [(7, "m.inner.rows", 6)]
    tracer.uninstall()
    mod.outer(1)
    assert len(tracer.spans) == 2


def test_wrapped_call_that_raises_still_closes_its_span():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(mod, "boom", "m.boom")
    try:
        mod.boom()
    except ZeroDivisionError:
        pass
    assert [s.name for s in tracer.spans] == ["m.boom"]
    assert tracer._stack() == []
