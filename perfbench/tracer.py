"""Span tracer for the per-layer split of an in-process pass.

The wrappers are installed from outside the package, so nothing under `src/`
changes.  Each wrapped call records a span (name, start, end, parent) in
memory; counters record work at the same boundaries.  A layer's self time is
the duration of its spans minus the time their direct child spans cover.

Targets are looked up by name.  A wrapper replaces the function in every
`leftre` module namespace that holds it (so `leftre.cli.validate_left_re` is
patched along with `leftre.core.validate_left_re`).  A target that no longer
exists is skipped, and the metrics that need it are reported as absent.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

perf_counter = time.perf_counter


def _btt_counts(report) -> dict:
    return {"zulu.btt_probes": report.checked}


def _gazebo_counts(result) -> dict:
    _, state = result
    return {"relations.gazebo_emissions": len(state.emissions),
            "relations.gazebo_obliterations": len(state.obliterated)}


def _variant_counts(report) -> dict:
    return {"genericity.variants_checked": report.variants_checked}


# (module, function, layer, counter extractor or None).  Only the entry points
# into each layer are wrapped: helpers called per bit or per pair (lex_cmp,
# prefix_meets_requirement, compute_F, ...) would put millions of spans in
# memory and move the cost of their caller into another layer.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("core", "validate_left_re", "core.validate", None),
    ("core", "validate_monotone_membership", "core.validate", None),
    ("core", "limit_estimate", "core.limit", None),
    ("fixtures", "random_leftre_process", "fixtures.build", None),
    ("fixtures", "random_catalog", "fixtures.build", None),
    ("fixtures", "one_per_stage_schedule", "fixtures.build", None),
    ("fixtures", "omega_fixture", "fixtures.build", None),
    ("fixtures", "k_fixtures", "fixtures.build", None),
    ("fixtures", "requirement_fixture", "fixtures.build", None),
    ("fixtures", "marker_fixture", "fixtures.build", None),
    ("fixtures", "bambam_infinite_process", "fixtures.build", None),
    ("fixtures", "late_boundary_process", "fixtures.build", None),
    ("fixtures", "selfref_fixture", "fixtures.build", None),
    ("fixtures", "diagonal_catalog", "fixtures.build", None),
    ("markers", "build_retraceable", "markers.construct", None),
    ("markers", "retrace", "markers.construct", None),
    ("markers", "count_h", "markers.construct", None),
    ("genericity", "build_generic_plan", "genericity.construct", None),
    ("genericity", "verify_indifference", "genericity.verify", _variant_counts),
    ("selfref", "build_selfref_plan", "selfref.construct", None),
    ("selfref", "make_into_itself", "selfref.construct", None),
    ("selfref", "singleton_numbering_infinite", "selfref.construct", None),
    ("selfref", "excise", "selfref.construct", None),
    ("zulu", "build_minimal", "zulu.construct", None),
    ("zulu", "build_maximal", "zulu.construct", None),
    ("zulu", "maxsep_superset", "zulu.construct", None),
    ("zulu", "split_subset", "zulu.construct", None),
    ("zulu", "lowerfarm_witness", "zulu.construct", None),
    ("zulu", "tilde_set", "zulu.construct", None),
    ("zulu", "btt_check", "zulu.btt_check", _btt_counts),
    ("relations", "gazebo_run", "relations.gazebo_run", _gazebo_counts),
    ("relations", "check_persistence", "relations.check_persistence", None),
    ("relations", "gazebo_lex_emissions", "relations.oracle", None),
    ("relations", "inc_oracle_bruteforce", "relations.oracle", None),
    ("relations", "lex_oracle_bruteforce", "relations.oracle", None),
    ("relations", "b_from_k", "relations.decode", None),
    ("relations", "decide_k_below", "relations.decode", None),
    ("diagonal", "build_diagonal", "diagonal.construct", None),
)

# Counters each extractor fills; absent when their target is.
COUNTER_NAMES = {
    _btt_counts: ("zulu.btt_probes",),
    _gazebo_counts: ("relations.gazebo_emissions",
                     "relations.gazebo_obliterations"),
    _variant_counts: ("genericity.variants_checked",),
}

# Modules whose closures can back a process; their lazy prefix work is timed
# under "<module>.construct".
CONSTRUCT_MODULES = ("core", "zulu", "selfref", "markers", "diagonal",
                     "genericity", "relations")


def _construct_layer(fn) -> str:
    """Lazy prefix work runs in the layer of the module that built the process."""
    module = getattr(fn, "__module__", None) or "leftre.core"
    return module.rsplit(".", 1)[-1] + ".construct"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        # Process counters sit on the hot path, so they are plain attributes.
        self.bit_fn_calls = 0
        self.prefix_fn_calls = 0
        self.prefix_calls = 0
        self.prefix_hits = 0
        self.installed: set[str] = set()  # layers and counters now wrapped
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def counters(self) -> dict[str, int]:
        return {**self.counts,
                "core.bit_fn_calls": self.bit_fn_calls,
                "core.prefix_fn_calls": self.prefix_fn_calls,
                "core.prefix_calls": self.prefix_calls,
                "core.prefix_hits": self.prefix_hits}

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent in spans:
            dur = end - start
            out[name] += dur
            if parent is not None:
                out[spans[parent][0]] -= dur
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"end": end, "id": i, "name": name,
                                     "parent": parent, "start": start}))
                fh.write("\n")

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Put `wrapper` wherever a `leftre` module namespace holds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "leftre"
                                   or mod_name.startswith("leftre.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_function(self, layer: str, fn: Callable,
                       counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(layer, fn, *args, **kwargs)
            if counter is not None:
                try:
                    for key, n in counter(result).items():
                        tracer.counts[key] += n
                except (AttributeError, TypeError, ValueError):
                    for key in COUNTER_NAMES[counter]:
                        tracer.installed.discard(key)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in the already imported `leftre` modules."""
        modules = {name: sys.modules.get(f"leftre.{name}")
                   for name in {t[0] for t in TARGETS} | {"cli"}}
        for mod_name, fn_name, layer, counter in TARGETS:
            fn = getattr(modules[mod_name], fn_name, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._replace(fn, self._wrap_function(layer, fn, counter))
            self.installed.add(layer)
            if counter is not None:
                self.installed.update(COUNTER_NAMES[counter])
        self._install_process(getattr(modules["core"], "ApproxProcess", None))
        self._install_trace_writer(getattr(modules["cli"], "TraceWriter", None))

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_process(self, cls) -> None:
        """Count bit_fn/prefix_fn calls by wrapping the callables a process is
        built with, and count prefix() calls and cache hits around prefix()."""
        if cls is None:
            self.missing.append("core.ApproxProcess")
            return
        tracer = self
        init = cls.__init__
        signature = inspect.signature(init)
        wrap_bit = "bit_fn" in signature.parameters
        wrap_prefix = "prefix_fn" in signature.parameters

        def count_bit(fn):
            @functools.wraps(fn)
            def bit_fn(s, n):
                tracer.bit_fn_calls += 1
                return fn(s, n)
            return bit_fn

        def span_prefix(fn):
            layer = _construct_layer(fn)

            @functools.wraps(fn)
            def prefix_fn(s):
                tracer.prefix_fn_calls += 1
                return tracer.call(layer, fn, s)
            return prefix_fn

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            if wrap_bit and callable(bound.arguments.get("bit_fn")):
                bound.arguments["bit_fn"] = count_bit(bound.arguments["bit_fn"])
            if wrap_prefix and callable(bound.arguments.get("prefix_fn")):
                bound.arguments["prefix_fn"] = span_prefix(
                    bound.arguments["prefix_fn"])
            init(*bound.args, **bound.kwargs)

        self._patch_attr(cls, "__init__", __init__)
        if wrap_bit:
            self.installed.add("core.bit_fn_calls")
        if wrap_prefix:
            self.installed.add("core.prefix_fn_calls")
        self.installed.update(f"{m}.construct" for m in CONSTRUCT_MODULES)

        prefix = getattr(cls, "prefix", None)
        if prefix is None:
            self.missing.append("core.ApproxProcess.prefix")
            return

        def counted_prefix(proc, s):
            # A call that reaches neither callable was served from the cache.
            tracer.prefix_calls += 1
            before = tracer.bit_fn_calls + tracer.prefix_fn_calls
            if getattr(proc, "prefix_fn", None) is None:
                # Bit path: the whole prefix is built from bit_fn calls.
                result = tracer.call(_construct_layer(getattr(proc, "bit_fn", None)),
                                     prefix, proc, s)
            else:
                result = prefix(proc, s)
            if tracer.bit_fn_calls + tracer.prefix_fn_calls == before:
                tracer.prefix_hits += 1
            return result

        self._patch_attr(cls, "prefix", functools.wraps(prefix)(counted_prefix))
        self.installed.update(("core.prefix_calls", "core.prefix_hits"))

    def _install_trace_writer(self, cls) -> None:
        line = getattr(cls, "line", None) if cls is not None else None
        if line is None:
            self.missing.append("cli.TraceWriter.line")
            return
        tracer = self

        def traced_line(writer, obj):
            return tracer.call("cli.trace", line, writer, obj)

        self._patch_attr(cls, "line", functools.wraps(line)(traced_line))
        self.installed.add("cli.trace")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
