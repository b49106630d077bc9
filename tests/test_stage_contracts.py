"""The two model-stage slots, pinned.

Every scorer returns its input columns plus one ``scores`` column of
``fixed_size_list<float32>[50]``; every labeler returns exactly
``schema.TRIPLES``.  Each class's output on one fixed fan-out batch is
pinned by a content hash, so a change to the shared slot code (the
scores column, the Viterbi labeler, the SPO assembly, the tag-span walk)
cannot change a value unseen.  A source walk keeps each of those shared
pieces in its one home."""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import pathlib

import numpy as np
import pyarrow as pa
import pytest

from kgray.corpus import doc_ids_for_range, interleaved_table
from kgray.ops.classify import (
    SCORES_COL,
    CueClassifier,
    fanout,
    threshold_and_fallback,
)
from kgray.ops.crf import CrfLabeler
from kgray.ops.ensemble import (
    CharOverlapClassifier,
    EnsembleClassifier,
    EnsembleCrfLabeler,
)
from kgray.ops.label import TemplateLabeler
from kgray.ops.models import (
    NumpyBertScorer,
    NumpyBiLstmCrfLabeler,
    NumpyCnnScorer,
    NumpyTransformerCrfLabeler,
)
from kgray.ops.spans import reassemble_text
from kgray.schema import NUM_SCHEMAS, TRIPLES

KGRAY = pathlib.Path(__file__).resolve().parents[1] / "kgray"


class SuperOnlyLabeler(TemplateLabeler):
    """Overrides ``predict_tags`` without changing it: runs the scalar
    codec path that honors a subclass's own tag sequences."""

    def predict_tags(self, text, schema_id):
        return super().predict_tags(text, schema_id)


SCORERS = {
    "CueClassifier": CueClassifier,
    "CharOverlapClassifier": CharOverlapClassifier,
    "EnsembleClassifier": EnsembleClassifier,
    "NumpyCnnScorer": NumpyCnnScorer,
    "NumpyBertScorer": NumpyBertScorer,
}
LABELERS = {
    "TemplateLabeler": TemplateLabeler,
    "CrfLabeler": CrfLabeler,
    "EnsembleCrfLabeler": EnsembleCrfLabeler,
    "NumpyBiLstmCrfLabeler": NumpyBiLstmCrfLabeler,
    "NumpyTransformerCrfLabeler": NumpyTransformerCrfLabeler,
    "SuperOnlyLabeler": SuperOnlyLabeler,
    "WeightedEnsembleCrfLabeler": functools.partial(
        EnsembleCrfLabeler, members=[TemplateLabeler, SuperOnlyLabeler],
        weights=[1.0, 3.0]),
}

# (rows, content hash) of each class's output on the 120-doc batch below
# (scorers on the reassembled docs, labelers on their fan-out), recorded
# before the slot code was folded into one scores writer, one Viterbi
# labeler and one SPO assembly.
PINS = {
    "CharOverlapClassifier": (120, "c716ad126de2b41e"),
    "CueClassifier": (120, "93493d36c23486cf"),
    "EnsembleClassifier": (120, "6d34269af0920afe"),
    "NumpyBertScorer": (120, "63240f1e415096db"),
    "NumpyCnnScorer": (120, "93493d36c23486cf"),
    "CrfLabeler": (260, "4bdbcbb54022556d"),
    "EnsembleCrfLabeler": (260, "4bdbcbb54022556d"),
    "NumpyBiLstmCrfLabeler": (7, "96d0b2a8207a05c1"),
    "NumpyTransformerCrfLabeler": (291, "42bf567889ccad00"),
    "SuperOnlyLabeler": (260, "4bdbcbb54022556d"),
    "TemplateLabeler": (260, "4bdbcbb54022556d"),
    "WeightedEnsembleCrfLabeler": (260, "4bdbcbb54022556d"),
}


@functools.lru_cache(maxsize=None)
def _docs() -> pa.Table:
    return reassemble_text(
        interleaved_table(doc_ids_for_range(0, 120), seed=42),
        keep_spans=False)


@functools.lru_cache(maxsize=None)
def _fanout() -> pa.Table:
    return fanout(threshold_and_fallback(CueClassifier()(_docs())))


def _digest(tbl: pa.Table) -> str:
    """Content hash of a table: schema, then each column in order.  Float
    lists hash rounded to 6 decimals, so a BLAS build that sums in another
    order cannot move the pin, while any real change of a score does."""
    h = hashlib.sha256(str(tbl.schema).encode())
    for name in tbl.column_names:
        col = tbl[name].combine_chunks()
        if pa.types.is_fixed_size_list(col.type):
            vals = col.flatten().to_numpy(zero_copy_only=False)
            h.update(np.round(vals.astype(np.float64), 6).tobytes())
        else:
            h.update(json.dumps(col.to_pylist(), ensure_ascii=False).encode())
    return h.hexdigest()[:16]


def _edge_batches(cols: dict[str, pa.DataType]):
    """The 0-row batch and a one-row batch whose text is empty."""
    one = {"doc_id": "d0", "text": "", "schema_id": 0}
    return [
        pa.table({c: pa.array([], t) for c, t in cols.items()}),
        pa.table({c: pa.array([one[c]], t) for c, t in cols.items()}),
    ]


_DOC_COLS = {"doc_id": pa.string(), "text": pa.string()}
_FANOUT_COLS = {**_DOC_COLS, "schema_id": pa.int32()}


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorer_appends_one_scores_column(name):
    scorer = SCORERS[name]()
    for batch in [*_edge_batches(_DOC_COLS), _docs()]:
        out = scorer(batch)
        assert out.column_names == [*batch.column_names, SCORES_COL]
        assert out.schema.field(SCORES_COL).type == pa.list_(
            pa.float32(), NUM_SCHEMAS)
        assert out.select(batch.column_names).equals(batch)


@pytest.mark.parametrize("name", sorted(LABELERS))
def test_labeler_emits_triples(name):
    labeler = LABELERS[name]()
    for batch in [*_edge_batches(_FANOUT_COLS), _fanout()]:
        out = labeler(batch)
        assert out.schema.equals(TRIPLES)
    assert len(labeler(_edge_batches(_FANOUT_COLS)[1])) == 0


@pytest.mark.parametrize("name", sorted(SCORERS) + sorted(LABELERS))
def test_output_pinned(name):
    if name in SCORERS:
        out = SCORERS[name]()(_docs())
    else:
        out = LABELERS[name]()(_fanout())
    assert (len(out), _digest(out)) == PINS[name]


def test_scalar_and_vectorized_paths_agree():
    batch = _fanout()
    assert SuperOnlyLabeler()(batch).equals(TemplateLabeler()(batch))


# --- one home per shared slot piece ------------------------------------------

def _call_sites(match) -> set[tuple[str, str]]:
    """(file, enclosing class/function path) of every call in ``kgray/``
    that ``match(call_node)`` accepts."""
    sites: set[tuple[str, str]] = set()

    def walk(node, rel, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and match(child):
                sites.add((rel, ".".join(scope)))
            walk(child, rel, inner)

    for path in sorted(KGRAY.rglob("*.py")):
        rel = path.relative_to(KGRAY.parent).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8")), rel, ())
    return sites


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def _writes_scores(call: ast.Call) -> bool:
    return _callee(call) == "append_column" and bool(call.args) and (
        (isinstance(call.args[0], ast.Name) and call.args[0].id == "SCORES_COL")
        or (isinstance(call.args[0], ast.Constant)
            and call.args[0].value == SCORES_COL))


def test_spo_assembly_has_one_home():
    assert _call_sites(lambda c: _callee(c) == "assemble_spo") == {
        ("kgray/ops/label.py", "triples_table")}


def test_viterbi_decode_has_one_home():
    sites = _call_sites(lambda c: _callee(c) == "decode"
                        and isinstance(c.func, ast.Attribute)
                        and isinstance(c.func.value, ast.Attribute)
                        and c.func.value.attr == "decoder")
    assert sites == {("kgray/ops/crf.py", "ViterbiLabeler.__call__")}
    assert _call_sites(lambda c: _callee(c) == "viterbi_decode") == {
        ("kgray/ops/crf.py", "ViterbiTagDecoder.decode")}


def test_scores_column_has_one_writer():
    assert _call_sites(_writes_scores) == {
        ("kgray/ops/classify.py", "with_scores")}
    slot_modules = {f"kgray/ops/{m}.py" for m in
                    ("classify", "ensemble", "models", "crf", "label")}
    fsl = {s for s in _call_sites(
        lambda c: _callee(c) == "from_arrays"
        and isinstance(c.func.value, ast.Attribute)
        and c.func.value.attr == "FixedSizeListArray") if s[0] in slot_modules}
    assert fsl == {("kgray/ops/classify.py", "with_scores")}
