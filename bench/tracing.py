"""Out-of-process-style tracing of the ``qso`` layers.

The tracer never edits ``src/``.  It wraps public functions at the module
attributes (and class attributes) through which other layers call them,
records one span per call for coarse functions and a counter plus summed
time for per-step functions, and restores the originals afterwards.

A span's self time is its duration minus the time of the wrapped calls
made inside it (spans and counted calls alike), so the self times of all
spans and counters inside a pass add up to the traced pass duration.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"

LAYERS = ("genotype", "operators", "dynamics", "ingest", "models", "cli")


def _observe_solve(tracer, args, result):
    q = args[0]
    tracer.count("dynamics.steps", result.iterations)
    tracer.count("dynamics.kernel_bytes_computed", result.iterations * q.n ** 3 * 8)
    tracer.count("dynamics.converged", 1 if getattr(result, "converged", True) else 0)


def _observe_construct(tracer, args, result):
    tracer.count("operators.pairs", args[0].m ** 2)


def _observe_load_counts(tracer, args, result):
    tracer.count("ingest.rows", len(result.rows))
    tracer.count("ingest.bytes_read", os.path.getsize(args[0]))


def _observe_load_family(tracer, args, result):
    # files written by save_measure_family list every child of every pair
    tracer.count("ingest.rows", result.mu.size)
    tracer.count("ingest.bytes_read", os.path.getsize(args[0]))


def _observe_save_family(tracer, args, result):
    tracer.count("ingest.bytes_written", os.path.getsize(args[1]))


def _observe_cli(tracer, args, result):
    if result == 1:  # qso.cli.EXIT_ERROR: the CLI caught an error
        tracer.count("cli.errors")


# (metric prefix, module, attribute path in that module, kind, observer)
TARGETS = (
    ("genotype.mendelian_offspring_set", "genotype", "mendelian_offspring_set", COUNT, None),
    ("genotype.trait_index_of_label", "genotype", "GenotypeSpace.trait_index_of_label", COUNT, None),
    ("operators.reduced_step", "operators", "reduced_step", COUNT, None),
    ("operators.mendelian_coefficients", "operators", "mendelian_coefficients", SPAN,
     _observe_construct),
    ("operators.nonmendelian_coefficients", "operators", "nonmendelian_coefficients", SPAN,
     _observe_construct),
    ("operators.validate_pq", "operators", "validate_pq", SPAN, None),
    ("operators.reduce", "operators", "reduce", SPAN, None),
    ("operators.MeasureFamily.validate", "operators", "MeasureFamily.validate", SPAN, None),
    ("dynamics.iterate", "dynamics", "iterate", SPAN, _observe_solve),
    ("dynamics.find_fixed_point", "dynamics", "find_fixed_point", SPAN, _observe_solve),
    ("dynamics.jacobian", "dynamics", "jacobian", COUNT, None),
    ("dynamics.tangent_spectral_radius", "dynamics", "tangent_spectral_radius", SPAN, None),
    ("ingest.load_counts", "ingest", "load_counts", SPAN, _observe_load_counts),
    ("ingest.estimate_measures", "ingest", "estimate_measures", SPAN, None),
    ("ingest.save_measure_family", "ingest", "save_measure_family", SPAN, _observe_save_family),
    ("ingest.load_measure_family", "ingest", "load_measure_family", SPAN, _observe_load_family),
    ("models.rh_model", "models", "rh_model", SPAN, None),
    ("models.abo_model", "models", "abo_model", SPAN, None),
    ("models.from_name", "models", "from_name", SPAN, None),
    ("cli.main", "cli", "main", SPAN, _observe_cli),
)


class Tracer:
    """Spans and counters for one benchmark process.

    ``phase`` tags everything recorded: ``"setup"`` or the number of the
    traced pass.  Spans stay in memory until :meth:`write`.
    """

    def __init__(self):
        self.spans = []          # dicts; "parent" is an index into this list
        self.counters = defaultdict(float)   # (phase, name) -> value
        self.phase = "setup"
        self.op = None
        self._stack = []         # [span index or None, start, child seconds]
        self._patches = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value=1) -> None:
        self.counters[(self.phase, name)] += value

    def _enter(self, name, record: bool):
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        index = None
        if record:
            index = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "op": self.op,
                               "phase": self.phase})
        self._stack.append([index, time.perf_counter(), 0.0])

    def _exit(self, name, error: bool):
        index, start, child = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.count(name + ".s", duration - child)
        self.count(name + ".calls")
        if error:
            self.count(name.split(".", 1)[0] + ".errors")
        if index is not None:
            self.spans[index].update(start=start, end=end, self_s=duration - child,
                                     error=error)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span of the benchmark's own code."""
        self._enter(name, True)
        try:
            yield
        except BaseException:
            self._exit(name, True)
            raise
        self._exit(name, False)

    def wrap(self, name: str, fn, kind: str, observe=None):
        record = kind == SPAN

        def traced(*args, **kwargs):
            self._enter(name, record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name, True)
                raise
            self._exit(name, False)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target at each ``qso`` module or class attribute
        that refers to it."""
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items() if n == "qso" or n.startswith("qso.")]
        for name, module_name, attr, kind, observe in TARGETS:
            owner = sys.modules[f"qso.{module_name}"]
            *classes, leaf = attr.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = vars(owner)[leaf]
            wrapped = self.wrap(name, original, kind, observe)
            if classes:
                self._patch(owner, leaf, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_pass(self, passes) -> dict:
        """Counter totals over the given traced passes, divided by their number."""
        out = defaultdict(float)
        for (phase, name), value in self.counters.items():
            if phase in passes:
                out[name] += value / len(passes)
        return out

    def setup_totals(self) -> dict:
        return {name: value for (phase, name), value in self.counters.items()
                if phase == "setup"}

    def write(self, path) -> None:
        """Write spans (one JSON object per line), then counter totals."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **span}) + "\n")
            for (phase, name), value in sorted(self.counters.items(), key=str):
                out.write(json.dumps({"counter": name, "phase": phase, "value": value}) + "\n")

