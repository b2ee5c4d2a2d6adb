"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each function or method named in ``TRACED`` with
a wrapper that records a span (layer, start, end, parent) and the number of
tape records the active ``Graph`` gained inside it. Self time and self tape
records are a span's own minus those of its child spans. Spans stay in
memory until ``write`` is called. A name the program no longer has is listed
as absent and skipped.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (layer key, module, attribute path). Several functions may share a key.
TRACED = (
    ("data.load_corpus", "gatednli.data", "load_corpus"),
    ("data.load_word_vectors", "gatednli.data", "load_word_vectors"),
    ("data.batchify", "gatednli.data", "batchify"),
    ("model.initialize", "gatednli.model", "Model.initialize"),
    ("model.forward", "gatednli.model", "Model.forward"),
    ("embed", "gatednli.embed", "embed_sentence"),
    ("embed.char_compose", "gatednli.embed", "char_compose"),
    ("encoder", "gatednli.encoder", "stacked_encode"),
    ("compose", "gatednli.compose", "compose"),
    ("classify", "gatednli.classify", "matching_features"),
    ("classify", "gatednli.classify", "mlp_forward"),
    ("classify.loss", "gatednli.classify", "cross_entropy"),
    ("classify.loss", "gatednli.classify", "mean_loss"),
    ("tensor.backward", "gatednli.tensor", "Graph.backward"),
    ("train.clip", "gatednli.train", "clip_global_norm"),
    ("train.adam", "gatednli.train", "Adam.step"),
    ("train.checkpoint_copy", "gatednli.train", "Checkpoint.from_model"),
    ("train.checkpoint_load", "gatednli.train", "Checkpoint.load"),
    ("train.build_model", "gatednli.train", "Checkpoint.build_model"),
    ("train.evaluate", "gatednli.train", "evaluate_model"),
    ("train.loop", "gatednli.train", "train"),
)


def _mask_counts(args, kwargs):
    """(positions, valid positions) of an encoder call, padding included."""
    mask = kwargs.get("mask", args[1] if len(args) > 1 else None)
    if mask is None or not hasattr(mask, "sum"):
        return 0, 0
    return int(mask.size), int(mask.sum())


def _n_examples(args, kwargs):
    examples = kwargs.get("examples", args[1] if len(args) > 1 else None)
    return (len(examples), 0) if examples is not None else (0, 0)


# Per-layer work counts read from a call's arguments: (a, b) added to the
# layer's "count_a"/"count_b" totals.
COUNTERS = {"encoder": _mask_counts, "train.evaluate": _n_examples}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, key, start, end, self s, self tape)
        self.totals: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [id, child seconds, child tape, tape at entry]
        self._ids = itertools.count()
        self._graph = None
        self._closed_tape = 0  # records of graphs that stopped recording

    def _tape(self) -> int:
        """Tape records made so far, across every graph."""
        return self._closed_tape + (len(self._graph) if self._graph is not None else 0)

    def _wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [next(tracer._ids), 0.0, 0, tracer._tape()]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                dur = end - start
                tape = tracer._tape() - frame[3]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += tape
                self_s, self_tape = dur - frame[1], tape - frame[2]
                tracer.spans.append((frame[0], parent, key, start, end, self_s, self_tape))
                tot = tracer.totals.setdefault(
                    key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tape": 0,
                          "count_a": 0, "count_b": 0})
                tot["calls"] += 1
                tot["total_s"] += dur
                tot["self_s"] += self_s
                tot["tape"] += self_tape
                if counter is not None:
                    a, b = counter(args, kwargs)
                    tot["count_a"] += a
                    tot["count_b"] += b

        return traced

    def install(self):
        """Wrap every traced name, in every gatednli module that holds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("gatednli")]
        for key, mod_name, path in TRACED:
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{mod_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(key, raw.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(key, raw))
            else:
                wrapped = self._wrap(key, raw)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, name, wrapped)
        self._track_graphs()

    def _track_graphs(self):
        """Follow the recording Graph so spans can read its tape length."""
        try:
            graph_cls = importlib.import_module("gatednli.tensor").Graph
            enter, exit_ = graph_cls.__enter__, graph_cls.__exit__
        except (ImportError, AttributeError):
            self.absent.append("gatednli.tensor.Graph")
            return
        tracer = self

        def __enter__(graph):
            out = enter(graph)
            tracer._graph = graph
            return out

        def __exit__(graph, *exc):
            tracer._closed_tape += len(graph)
            tracer._graph = None
            return exit_(graph, *exc)

        graph_cls.__enter__, graph_cls.__exit__ = __enter__, __exit__

    def tape_total(self) -> int:
        return self._tape()

    def self_seconds(self, start: float, end: float) -> float:
        """Self time of the spans that lie inside [start, end], bar the
        training loop's own, i.e. the part of that window the layers cover."""
        return sum(s[5] for s in self.spans
                   if s[3] >= start and s[4] <= end and s[2] != "train.loop")

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
