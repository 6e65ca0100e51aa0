"""Hypothesis property: a run's stream file folds to its payload.

Random recorder programs — nested spans with late ``annotate()``,
events, convergence records, counters, gauges, histograms, manifest
sections and merged child recorders — run with a stream attached.
Folding the stream file must give exactly the recorder's own export,
and the folded span tree must split the run's wall time without
counting nested time twice: exactly when no worker is grafted (a span's
children then run one after another), and with no negative self time
either way (grafts are measured by the time they cover).
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TelemetryRecorder,
    TelemetryStream,
    load_telemetry,
    phase_breakdown,
)

TRACE = {"trace_id": "ab" * 16, "span_id": "cd" * 8}

_names = st.sampled_from(["fracture", "refine", "polish", "tile", "verify"])
_metric_names = st.sampled_from(["a.count", "b.count", "c.value"])
_numbers = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_scalars = st.one_of(_numbers, st.booleans(), st.text(max_size=4))
_fields = st.dictionaries(
    st.sampled_from(["shots", "cost", "clip", "ok"]), _scalars, max_size=3
)

_leaf = st.one_of(
    st.tuples(st.just("event"), _names, _fields),
    st.tuples(st.just("convergence"), _fields),
    st.tuples(st.just("incr"), _metric_names, st.integers(1, 9)),
    st.tuples(st.just("gauge"), _metric_names, _numbers),
    st.tuples(st.just("observe"), _metric_names, _numbers),
    st.tuples(
        st.just("manifest"),
        st.sampled_from(["hierarchy", "fault_tolerance", "profile"]),
        st.one_of(_fields, st.lists(_scalars, max_size=3), _scalars),
    ),
    st.tuples(st.just("metrics")),
)
_program = st.deferred(
    lambda: st.lists(
        st.one_of(
            _leaf,
            st.tuples(st.just("span"), _names, _fields, _fields, _program),
            st.tuples(
                st.just("merge"), st.text("xyz", min_size=1, max_size=3),
                _program,
            ),
        ),
        max_size=4,
    )
)


def _run(program: list, rec: TelemetryRecorder) -> None:
    for op in program:
        kind = op[0]
        if kind == "span":
            _, name, attrs, late, body = op
            with rec.span(name, **attrs) as span:
                _run(body, rec)
                if late:
                    span.annotate(**late)
        elif kind == "merge":
            _, label, body = op
            child = TelemetryRecorder(trace=TRACE)
            _run(body, child)
            child.emit_metrics()
            rec.merge_child(child.records, label=label)
        elif kind == "event":
            rec.event(op[1], **op[2])
        elif kind == "convergence":
            rec.convergence(**op[1])
        elif kind == "incr":
            rec.incr(op[1], op[2])
        elif kind == "gauge":
            rec.gauge(op[1], op[2])
        elif kind == "observe":
            rec.observe(op[1], op[2])
        elif kind == "manifest":
            rec.manifest_section(op[1], op[2])
        else:
            rec.emit_metrics()


@settings(max_examples=60, deadline=None)
@given(program=_program)
def test_stream_fold_is_the_export(program):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        stream = TelemetryStream(path, trace_id=TRACE["trace_id"])
        rec = TelemetryRecorder(
            manifest={"run": "prop"}, stream=stream, trace=TRACE
        )
        _run(program, rec)
        rec.emit_metrics()
        stream.close()
        folded = load_telemetry(path)
    assert folded == json.loads(json.dumps(rec.export()))
    phases = phase_breakdown(folded)
    assert all(p["self_s"] >= -1e-12 for p in phases)
    if not _grafts(program):
        self_total = sum(p["self_s"] for p in phases)
        assert self_total == pytest.approx(
            folded["spans"]["wall_s"], rel=1e-9, abs=1e-12
        )


def _grafts(program: list) -> bool:
    """Whether the program merges a child recorder anywhere."""
    return any(
        op[0] == "merge" or (op[0] == "span" and _grafts(op[4]))
        for op in program
    )
