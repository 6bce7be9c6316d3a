"""Per-layer tracing of the flagcodes library from outside its source.

`Tracer.installed()` replaces public functions and methods of the library
with wrappers that count calls and record timing spans, and puts every
original back when the block ends. A function imported with
`from .linalg import contains` is a separate binding in each importing
module, so every `flagcodes.*` namespace holding the original is patched.

A span's self time is its duration minus the time covered by the spans
called inside it. Spans are aggregated by call path in memory and written
out at the end, never per call.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Spans: (module, attribute) -> metric prefix. Each reports `<prefix>_s`
# (self time) and `<prefix>_calls`.
SPANS = {
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "sum_dim"): "linalg.sum_dim",
    ("construction", "build_code"): "construction.build_code",
    ("construction", "code_from_json"): "construction.code_from_json",
    ("metrics", "min_flag_distance"): "metrics.min_flag_distance",
    ("metrics", "projected_min_distance"): "metrics.projected_min_distance",
    ("metrics", "classify"): "metrics.classify",
    ("decoder", "accumulate"): "decoder.accumulate",
}

# Call counters without timing: (module, attribute) -> metric.
COUNTERS = {
    ("linalg", "rank"): "linalg.rank_calls",
    ("linalg", "rowspace"): "linalg.rowspace_calls",
    ("linalg", "contains"): "linalg.contains_calls",
    ("linalg", "subspace_sum"): "linalg.subspace_sum_calls",
    ("metrics", "subspace_distance"): "metrics.subspace_distance_calls",
}

# Methods, counted on the class so that every instance sees the wrapper.
METHOD_COUNTERS = {
    ("fields", "FiniteField", "add"): "fields.add_calls",
    ("fields", "FiniteField", "mul"): "fields.mul_calls",
    ("fields", "FiniteField", "inv"): "fields.inv_calls",
    ("fields", "FiniteField", "neg"): "fields.neg_calls",
    ("linalg", "MatrixFq", "matmul"): "linalg.matmul_calls",
}

VERIFY_CHECKS = (
    "cardinality",
    "generator_ranks",
    "flag_nesting",
    "spread_disjoint",
    "spread_maximal",
    "distance_profile",
    "distance_sum_identity",
)

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "fields.add_calls": "count",
    "fields.mul_calls": "count",
    "fields.inv_calls": "count",
    "fields.neg_calls": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rowspace_calls": "count",
    "linalg.sum_dim_calls": "count",
    "linalg.sum_dim_s": "s",
    "linalg.contains_calls": "count",
    "linalg.subspace_sum_calls": "count",
    "linalg.matmul_calls": "count",
    "construction.params_s": "s",
    "construction.build_code_s": "s",
    "construction.code_from_json_s": "s",
    "metrics.min_flag_distance_s": "s",
    "metrics.projected_min_distance_s": "s",
    "metrics.classify_s": "s",
    "metrics.subspace_distance_calls": "count",
    **{f"verify.{name}_s": "s" for name in VERIFY_CHECKS},
    "verify.maximality_candidates": "count",
    "decoder.erase_s": "s",
    "decoder.erase_rank_calls_per_shot": "calls/shot",
    "decoder.decode_s": "s",
    "decoder.decode_step1_s": "s",
    "decoder.decode_step2_s": "s",
    "decoder.decode_step3_s": "s",
    "decoder.accumulate_s": "s",
    "decoder.contains_per_decode": "calls/decode",
}


def _library_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "flagcodes" or name.startswith("flagcodes."))
    ]


class Tracer:
    """Counts and self-time spans for one traced run; see the module docstring."""

    def __init__(self):
        self.counts: dict = {}
        self.self_s: dict = {}
        # Call path (tuple of span names) -> [calls, inclusive s, self s].
        self.tree: dict = {}
        self.erase_shots = 0
        self.erase_rank_calls = 0
        self.decodes = 0
        self.decode_contains_calls = 0
        self._stack: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _count(self, name: str):
        self.counts[name] = self.counts.get(name, 0) + 1

    def _enter(self, name: str) -> list:
        stack = self._stack
        frame = [(stack[-1][0] if stack else ()) + (name,), 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        dt = time.perf_counter() - frame[2]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dt
        path = frame[0]
        name = path[-1]
        own = dt - frame[1]
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self._count(name + "_calls")
        node = self.tree.get(path)
        if node is None:
            node = self.tree[path] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += dt
        node[2] += own
        return dt

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as span `name`."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumeration_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            for sub in fn(*args, **kwargs):
                self._count("verify.maximality_candidates")
                yield sub

        return wrapper

    def _erase_wrapper(self, fn):
        def wrapper(sent, erasures, *args, **kwargs):
            erasures = list(erasures)
            before = self.counts.get("linalg.rank_calls", 0)
            frame = self._enter("decoder.erase")
            try:
                return fn(sent, erasures, *args, **kwargs)
            finally:
                self._exit(frame)
                self.erase_rank_calls += self.counts.get("linalg.rank_calls", 0) - before
                self.erase_shots += sum(1 for i, e in enumerate(erasures, 1) if e < i)

        return wrapper

    def _decode_wrapper(self, fn):
        # Besides the decode span, the whole decode time of a call is charged
        # to the step that resolved it.
        def wrapper(*args, **kwargs):
            before = self.counts.get("linalg.contains_calls", 0)
            frame = self._enter("decoder.decode")
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            finally:
                dt = self._exit(frame)
                step = f"decoder.decode_step{outcome.step if outcome else None}"
                self.self_s[step] = self.self_s.get(step, 0.0) + dt
                self.decodes += 1
                self.decode_contains_calls += (
                    self.counts.get("linalg.contains_calls", 0) - before
                )

        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        """Rebind `original` in every library namespace that holds it."""
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library for the duration of the block; always restores."""
        import flagcodes  # noqa: F401  (imports every library module)

        lib = {m.__name__.rpartition(".")[2]: m for m in _library_modules()}
        try:
            for (mod, attr), name in SPANS.items():
                fn = getattr(lib[mod], attr)
                self._patch_everywhere(fn, self._span_wrapper(name, fn))
            for (mod, attr), name in COUNTERS.items():
                fn = getattr(lib[mod], attr)
                self._patch_everywhere(fn, self._counter_wrapper(name, fn))
            for (mod, cls, attr), name in METHOD_COUNTERS.items():
                owner = getattr(lib[mod], cls)
                self._patch(owner, attr, self._counter_wrapper(name, vars(owner)[attr]))
            enum = lib["linalg"].enumerate_subspaces
            self._patch_everywhere(enum, self._enumeration_wrapper(enum))
            erase = lib["decoder"].erase
            self._patch_everywhere(erase, self._erase_wrapper(erase))
            decode = lib["decoder"].decode
            self._patch_everywhere(decode, self._decode_wrapper(decode))
            verify = lib["verify"]
            for attr, fn in list(vars(verify).items()):
                if attr.startswith("check_") and callable(fn):
                    name = "verify." + attr[len("check_"):]
                    self._patch(verify, attr, self._span_wrapper(name, fn))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: {"value", "unit"}}."""
        values = {}
        for name, unit in LAYER_METRICS.items():
            if name.endswith("_s"):
                values[name] = self.self_s.get(name[:-2], 0.0)
            else:
                values[name] = self.counts.get(name, 0)
        values["decoder.erase_rank_calls_per_shot"] = (
            self.erase_rank_calls / self.erase_shots if self.erase_shots else 0.0
        )
        values["decoder.contains_per_decode"] = (
            self.decode_contains_calls / self.decodes if self.decodes else 0.0
        )
        return {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()}

    def call_tree(self) -> list:
        """Aggregated spans, one entry per call path."""
        return [
            {"path": "/".join(path), "calls": c, "inclusive_s": inc, "self_s": own}
            for path, (c, inc, own) in sorted(self.tree.items())
        ]
