"""Outside-in tracer: spans and counts recorded by wrapping annembed's
public functions from the benchmark's side, with no change to the program.

Each function is patched at the binding where its caller looks it up. The
trainer imports `combine` by name, so the span for `embedding.combine` is
installed on `annembed.trainer.combine`; the tensor primitives are called as
`tensor.matmul(...)`, so they are patched on the `annembed.tensor` module;
methods are patched on their class. Spans are kept in memory as tuples and
written once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

WRAPPED_MARK = "__perfbench_wrapped__"

# (module, class or None, attribute, span name)
SPAN_BINDINGS = [
    ("annembed.corpus", None, "load_dataset", "corpus.load_dataset"),
    ("annembed.corpus", None, "write_dataset", "corpus.write_dataset"),
    ("annembed.corpus", None, "make_annotation_split", "corpus.make_annotation_split"),
    ("annembed.corpus", None, "dataset_statistics", "corpus.dataset_statistics"),
    ("annembed.synthgen", None, "generate_population", "synthgen.generate_population"),
    ("annembed.encoder", None, "tokenize", "encoder.tokenize"),
    ("annembed.encoder", None, "embed_tokens", "encoder.embed_tokens"),
    ("annembed.encoder", None, "encode", "encoder.encode"),
    ("annembed.encoder", None, "classify", "encoder.classify"),
    ("annembed.encoder", None, "classification_loss", "encoder.classification_loss"),
    ("annembed.trainer", None, "combine", "embedding.combine"),
    ("annembed.embedding", "AnnotationIndex", "train_coefficients",
     "embedding.AnnotationIndex.train_coefficients"),
    ("annembed.tensor", None, "backward", "tensor.backward"),
    ("annembed.trainer", None, "train", "trainer.train"),
    ("annembed.trainer", None, "evaluate", "trainer.evaluate"),
    ("annembed.trainer", "Adam", "step", "trainer.Adam.step"),
    ("annembed.trainer", None, "save_checkpoint", "trainer.save_checkpoint"),
    ("annembed.trainer", None, "load_checkpoint", "trainer.load_checkpoint"),
    ("annembed.analysis", None, "cohen_kappa_matrix", "analysis.cohen_kappa_matrix"),
    ("annembed.analysis", None, "label_pearson", "analysis.label_pearson"),
    ("annembed.analysis", None, "kmeans", "analysis.kmeans"),
    ("annembed.analysis", None, "pca_project", "analysis.pca_project"),
    ("annembed.analysis", None, "demographic_alignment", "analysis.demographic_alignment"),
    ("annembed.analysis", None, "annotation_embedding_points",
     "analysis.annotation_embedding_points"),
    ("annembed.cli", None, "main", "cli.main"),
]

PRIMITIVES = [
    "matmul", "add", "gather_rows", "transpose", "concat_rows", "layer_norm",
    "row_softmax", "gelu", "dropout", "scalar_mul", "scalar_scale", "row_mean",
    "softmax_cross_entropy",
]

# (module, class or None, attribute, counter name); every Node construction is
# counted too, and each span records how many Nodes were built inside it
COUNT_BINDINGS = [("annembed.tensor", None, p, f"tensor.{p}") for p in PRIMITIVES] + [
    ("annembed.tensor", "Node", "__init__", "tensor.Node"),
]
WORK_COUNTER = "tensor.Node"

SPAN_NAMES = [b[3] for b in SPAN_BINDINGS]
COUNT_NAMES = [b[3] for b in COUNT_BINDINGS]


def resolve_owner(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder with per-span self time, plus plain call counters.

    A finished span is the tuple (span_id, parent_id, name, start, end,
    self_s, work, self_work); parent_id 0 marks a top-level span. self_s is
    the span's duration minus the durations of its direct children, which on
    one thread is exactly the part of its interval that no child covers.
    work is how far the WORK_COUNTER count rose inside the span, and
    self_work the part of that no child span accounts for.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {WORK_COUNTER: 0}
        # open spans: [span_id, parent_id, name, start, child_s, work_at_start, child_work]
        self._stack: list[list] = []
        self._next_id = 1
        self._installed: list[tuple] = []   # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        work = self.counts[WORK_COUNTER]
        self._stack.append([self._next_id, parent, name, self.clock(), 0.0, work, 0])
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        span_id, parent, name, start, child_s, work_start, child_work = self._stack.pop()
        duration = end - start
        work = self.counts[WORK_COUNTER] - work_start
        if self._stack:
            self._stack[-1][4] += duration
            self._stack[-1][6] += work
        self.spans.append((span_id, parent, name, start, end, duration - child_s,
                           work, work - child_work))

    def span_wrapper(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, WRAPPED_MARK, True)
        return counted

    # -- installation ------------------------------------------------------

    def install(self, spans=SPAN_BINDINGS, counts=COUNT_BINDINGS) -> None:
        """Patch every binding; uninstall() puts the originals back."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        plan = [(b, self.span_wrapper) for b in spans] + [(b, self.count_wrapper) for b in counts]
        try:
            for (module, cls, attr, name), make in plan:
                owner = resolve_owner(module, cls)
                original = owner.__dict__[attr]
                if getattr(original, WRAPPED_MARK, False):
                    raise RuntimeError(f"{_where(module, cls, attr)} is already traced")
                setattr(owner, attr, make(name, original))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open at uninstall")

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "s", "self_s", "work", "self_work"}}."""
        out: dict[str, dict[str, float]] = {}
        for _, _, name, start, end, self_s, work, self_work in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "work": 0, "self_work": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
            row["work"] += work
            row["self_work"] += self_work
        return out

    def write(self, fh) -> None:
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")


def _where(module: str, cls: str | None, attr: str) -> str:
    return ".".join(p for p in (module, cls, attr) if p)


def assert_restored(spans=SPAN_BINDINGS, counts=COUNT_BINDINGS) -> None:
    """Raise if any traced binding still holds a tracer wrapper."""
    for module, cls, attr, _ in list(spans) + list(counts):
        if getattr(resolve_owner(module, cls).__dict__[attr], WRAPPED_MARK, False):
            raise RuntimeError(f"{_where(module, cls, attr)} is still traced")
