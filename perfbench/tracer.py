"""Span recording around the public functions of each raag module.

The tracer rebinds every traced function, in every ``raag`` module namespace
that holds it by name, to a wrapper that records one span per call: its
parent span, the operation it belongs to, start time, inclusive time and self
time (inclusive time minus the inclusive time of its child spans). Spans stay
in memory until ``write_spans`` is called; per-function totals and a few
counters are kept as the spans are recorded.

Counters that need extra work (for example whether both arguments of
``commutes`` are clique-supported) are computed after the span has closed,
with tracing paused, and their cost is subtracted from every enclosing span,
so self times do not include the tracer's own probes.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array

# layer -> (module, traced public functions); metric labels are "<layer>.<function>"
LAYERS = {
    "kernel": ("raag._kernel", ("normalize",)),
    "words": ("raag.words", ("commutes", "canonical_form", "is_trivial", "support", "is_reduced", "reduce")),
    "graphs": ("raag.graphs", ("full_embedding_search", "verify_full_embedding", "join_decompose")),
    "extension": ("raag.extension", ("ext_ball", "ext_vertex", "ball_as_graph")),
    "embedding": ("raag.embedding", (
        "extract_full", "validate_hom", "sequence_search", "peel_words",
        "extract_anti_path3", "extract_abelian", "glue_join",
    )),
    "harness": ("raag.harness", ("run_harness",)),
    "cli": ("raag.cli", ("main",)),
}

OP_LABEL = "op"
# spans kept in memory; calls beyond the cap still count in the totals
MAX_SPANS = 400_000
_MARK = "__perfbench_traced__"


def raag_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "raag" or name.startswith("raag."))]


def leftover_wrappers() -> list[str]:
    """Names of raag module attributes still bound to a tracer wrapper."""
    return [f"{m.__name__}.{attr}" for m in raag_modules()
            for attr, val in vars(m).items() if getattr(val, _MARK, False)]


class Tracer:
    def __init__(self):
        self.labels = [OP_LABEL] + [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]
        self._index = {label: i for i, label in enumerate(self.labels)}
        self.calls = [0] * len(self.labels)
        self.self_ns = [0] * len(self.labels)
        self.inclusive_ns = [0] * len(self.labels)
        self.counters: dict[str, int] = {}
        self.gen_validate_ns = 0
        self.dropped_spans = 0
        self.op_id = 0
        # frame: [child inclusive ns, excluded ns, span id, label index]
        self._stack = [[0, 0, 0, 0]]
        self._next_id = 1
        self._paused = False
        self._cols = {k: array("q") for k in ("op", "span", "parent", "label", "start", "incl", "self")}
        self._bindings: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._ball_keys: dict[int, set] = {}

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = raag_modules()
        for layer, (modname, fns) in LAYERS.items():
            home = sys.modules[modname]
            for fn in fns:
                label = f"{layer}.{fn}"
                original = getattr(home, fn)
                self._originals[label] = original
                wrapper = self._wrap(self._index[label], original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._bindings.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def restore(self) -> None:
        for m, attr, original in reversed(self._bindings):
            setattr(m, attr, original)
        self._bindings.clear()

    # -- spans -------------------------------------------------------------

    def _record(self, frame, parent, start, end) -> int:
        incl = end - start - frame[1]
        own = incl - frame[0]
        label = frame[3]
        parent[0] += incl
        parent[1] += frame[1]
        self.calls[label] += 1
        self.self_ns[label] += own
        self.inclusive_ns[label] += incl
        if len(self._cols["op"]) < MAX_SPANS:
            for key, val in (("op", self.op_id), ("span", frame[2]), ("parent", parent[2]),
                             ("label", label), ("start", start), ("incl", incl), ("self", own)):
                self._cols[key].append(val)
        else:
            self.dropped_spans += 1
        return incl

    def _open(self, label: int):
        frame = [0, 0, self._next_id, label]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def op(self, op_id: int, fn, *args):
        """Run one benchmark operation inside a root span."""
        self.op_id = op_id
        parent = self._stack[-1]
        frame = self._open(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._record(frame, parent, start, end)

    def _wrap(self, label: int, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        probe = _PROBES.get(self.labels[label])
        validate = self._index["embedding.validate_hom"]
        run_harness = self._index["harness.run_harness"]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = tracer._open(label)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                incl = tracer._record(frame, parent, start, end)
            if label == validate and parent[3] == run_harness:
                tracer.gen_validate_ns += incl
            if probe is not None:
                tracer._paused = True
                p0 = clock()
                try:
                    probe(tracer, args, result, frame, parent)
                finally:
                    parent[1] += clock() - p0
                    tracer._paused = False
            return result

        setattr(traced, _MARK, True)
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def original(self, label: str):
        return self._originals[label]

    def span_count(self) -> int:
        return len(self._cols["op"])

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as gzipped tab-separated rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = self._cols
        keys = ("op", "span", "parent", "label", "start", "incl", "self")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tinclusive_ns\tself_ns\n")
            for row in zip(*(cols[k] for k in keys)):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{self.labels[row[3]]}\t{row[4]}\t{row[5]}\t{row[6]}\n")


# -- counters recorded at span boundaries ----------------------------------------


def _probe_normalize(t, args, result, frame, parent):
    t.count("kernel.normalize.letters_in", len(args[0]))
    t.count("kernel.normalize.letters_out", len(result))


def _probe_reduce(t, args, result, frame, parent):
    t.count("words.reduce.letters_in", len(args[0]))


def _probe_commutes(t, args, result, frame, parent):
    support = t.original("words.support")
    w1, w2 = args[0], args[1]
    g = w1.graph
    if g.spans_clique(support(w1)) and g.spans_clique(support(w2)):
        t.count("words.commutes.clique_supported")


def _probe_is_reduced(t, args, result, frame, parent):
    if result:
        t.count("words.is_reduced.true")


def _probe_search(t, args, result, frame, parent):
    if result is not None:
        t.count("graphs.full_embedding_search.found")


def _probe_ext_ball(t, args, result, frame, parent):
    t.count("extension.ext_ball.vertices", len(result.vertices))
    t.count("extension.ext_ball.edges", len(result.edges))
    t._ball_keys.pop(frame[2], None)


def _probe_ext_vertex(t, args, result, frame, parent):
    seen = t._ball_keys.setdefault(parent[2], set())
    key = result.element.word.letters
    if key not in seen:
        seen.add(key)
        t.count("extension.ext_vertex.unique")


def _probe_sequence(t, args, result, frame, parent):
    if result is not None:
        t.count("embedding.sequence_search.found")


_OUTCOMES = {"FullEmbedding": "embedding", "KernelWitness": "witness", "StructuralCertificate": "certificate"}


def _probe_extract(t, args, result, frame, parent):
    t.count("embedding.outcome." + _OUTCOMES[type(result).__name__])
    if getattr(result, "peel_checked", False):
        t.count("embedding.outcome.peel_checked")


_PROBES = {
    "kernel.normalize": _probe_normalize,
    "words.reduce": _probe_reduce,
    "words.commutes": _probe_commutes,
    "words.is_reduced": _probe_is_reduced,
    "graphs.full_embedding_search": _probe_search,
    "extension.ext_ball": _probe_ext_ball,
    "extension.ext_vertex": _probe_ext_vertex,
    "embedding.sequence_search": _probe_sequence,
    "embedding.extract_full": _probe_extract,
}
