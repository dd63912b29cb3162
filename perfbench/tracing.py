"""Spans around greenskel's public functions, for the traced run only.

`Tracer.install` swaps each traced function (and
`TransformationSemigroup.generate`), in every greenskel module that holds
it, for a wrapper that records a span: name, start, end, parent and
the document it belongs to.  Calls made inside greenskel go through module
globals, so nested calls show up as child spans; a span's self time is its
duration minus its children's.  Nothing here runs in the timed runs.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

LAYERS = ("core", "green", "order", "skeleton", "maps", "regrep", "morphisms", "cli")
KINDS = ("R", "L", "J", "H")

# (layer, module, function, split by Green relation)
TRACED = (
    ("green", "green", "green_preorder", True),
    ("green", "green", "green_poset", True),
    ("green", "green", "d_classes", False),
    ("green", "green", "eggboxes", False),
    ("skeleton", "skeleton", "image_set", False),
    ("skeleton", "skeleton", "subduction_preorder", False),
    ("skeleton", "skeleton", "skeleton_poset", False),
    ("skeleton", "skeleton", "inclusion_poset", False),
    ("maps", "maps", "im_bar", False),
    ("maps", "maps", "im_bar_S", False),
    ("maps", "maps", "verify_diagram", False),
    ("order", "order", "lattice_violation", False),
    ("order", "order", "poset_isomorphic", False),
    ("regrep", "regrep", "right_regular", False),
    ("regrep", "regrep", "corollary_check", False),
    ("morphisms", "morphisms", "admissible_partitions", False),
    ("morphisms", "morphisms", "quotient_ts", False),
    ("morphisms", "morphisms", "validate", False),
    ("morphisms", "morphisms", "functoriality_check", False),
    ("cli", "cli", "parse", False),
    ("cli", "cli", "run", False),
    ("cli", "cli", "report_text", False),
    ("cli", "cli", "report_data", False),
    ("cli", "cli", "emit_dot", False),
)

STAGES = ("core.generate",) + tuple(
    f"{layer}.{func}.{kind}" if split else f"{layer}.{func}"
    for layer, _, func, split in TRACED
    for kind in (KINDS if split else (None,))
)

COUNTS = (
    "core.elements",
    "green.classes.R",
    "green.classes.L",
    "green.classes.J",
    "green.relation_pairs.J",
    "skeleton.image_sets",
    "skeleton.classes",
    "morphisms.partitions",
)
RATIOS = (
    "core.over_cap_share",
    "skeleton.relation_density",
    "morphisms.admissible_share",
)

# Bell numbers: the count of all set partitions of n states.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{stage}.s": "s" for stage in STAGES}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
        units[f"{layer}.peak_mb"] = "MB"
    units.update({"trace.coverage_share": "ratio", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class _Frame:
    __slots__ = ("sid", "parent", "name", "layer", "start", "child", "base", "peak")

    def __init__(self, sid, parent, name, layer, start, base):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.base = base
        self.peak = base


class Tracer:
    """Records spans and counts for one pass at a time.

    ``memory`` switches on a tracemalloc peak per span; it slows every
    allocation, so passes that measure time run with it off.
    """

    def __init__(self):
        self.memory = False
        self.doc = -1
        self.stack = []
        self.spans = []
        self.self_time = {}
        self.layer_self = {}
        self.peaks = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.tally = {}
        self.top_level = 0.0
        self._seen = {}
        self._raised = set()
        self._restore = []
        self._expected = ()

    # -- pass and document boundaries -------------------------------------

    def start_pass(self):
        self.spans = []
        self.self_time = {}
        self.layer_self = {}
        self.tally = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.top_level = 0.0

    def start_doc(self, index):
        self.doc = index
        self._seen = {}
        self._raised = set()

    def add(self, key, amount):
        self.tally[key] = self.tally.get(key, 0) + amount

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, layer):
        base = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for frame in self.stack:
                frame.peak = max(frame.peak, peak)
            tracemalloc.reset_peak()
            base = current
        parent = self.stack[-1].sid if self.stack else None
        frame = _Frame(len(self.spans), parent, name, layer, time.perf_counter(), base)
        self.spans.append(None)
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        self.self_time[frame.name] = self.self_time.get(frame.name, 0.0) + own
        self.layer_self[frame.layer] = self.layer_self.get(frame.layer, 0.0) + own
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.top_level += duration
        peak_mb = None
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.peak = max(frame.peak, peak)
            for outer in self.stack:
                outer.peak = max(outer.peak, frame.peak)
            tracemalloc.reset_peak()
            peak_mb = (frame.peak - frame.base) / 2**20
            self.peaks[frame.name] = max(self.peaks.get(frame.name, 0.0), peak_mb)
        self.spans[frame.sid] = (
            frame.sid, frame.parent, self.doc, frame.name, frame.start, end, peak_mb
        )

    def _first(self, result):
        """True the first time this document sees ``result`` (a cached object)."""
        if id(result) in self._seen:
            return False
        self._seen[id(result)] = result
        return True

    def _count(self, func, args, result):
        if func == "green_poset" and args[1] in ("R", "L", "J") and self._first(result):
            self.add(f"green.classes.{args[1]}", len(result))
        elif func == "green_preorder" and args[1] == "J" and self._first(result):
            self.add("green.relation_pairs.J", sum(row.bit_count() for row in result.rows))
        elif func == "image_set" and self._first(result):
            self.add("skeleton.image_sets", len(result))
        elif func == "skeleton_poset" and self._first(result):
            self.add("skeleton.classes", len(result))
        elif func == "subduction_preorder" and self._first(result):
            self.add("skeleton.pairs", sum(row.bit_count() for row in result.rows))
            self.add("skeleton.carrier_sq", len(result) ** 2)
        elif func == "admissible_partitions":
            self.add("morphisms.partitions", len(result))
            self.add("morphisms.bell", BELL[args[0].n])
        elif func == "generate":
            self.add("core.generate_calls", 1)
            self.add("core.elements", len(result))

    def _wrap(self, layer, func, split, original):
        tracer = self

        def traced(*args, **kwargs):
            name = f"{layer}.{func}.{args[1]}" if split else f"{layer}.{func}"
            frame = tracer._enter(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                tracer._failed(layer, func, err)
                raise
            finally:
                tracer._exit(frame)
            tracer._count(func, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _failed(self, layer, func, err):
        if id(err) in self._raised:
            return
        self._raised.add(id(err))
        if not isinstance(err, self._expected):
            self.errors[layer] += 1
        elif func == "generate":
            self.add("core.generate_calls", 1)
            self.add("core.over_cap", 1)

    # -- installing into greenskel -------------------------------------------

    def install(self):
        """Swap every traced function, wherever greenskel holds it, for its wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "greenskel" or n.startswith("greenskel.")]
        core = sys.modules["greenskel.core"]
        self._expected = core.ResourceLimitError
        for layer, module, func, split in TRACED:
            original = getattr(sys.modules[f"greenskel.{module}"], func)
            wrapper = self._wrap(layer, func, split, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        cls = core.TransformationSemigroup
        original = cls.__dict__["generate"]
        self._restore.append((cls, "generate", original))
        cls.generate = classmethod(self._wrap("core", "generate", False, original.__func__))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- one pass's figures --------------------------------------------------

    def pass_figures(self, op_seconds):
        """Per-layer metrics of the pass just run, whose ops took ``op_seconds``."""
        out = {f"{stage}.s": self.self_time.get(stage, 0.0) for stage in STAGES}
        for name in COUNTS:
            out[name] = self.tally.get(name, 0)
        out["core.over_cap_share"] = _share(
            self.tally.get("core.over_cap", 0), self.tally.get("core.generate_calls", 0)
        )
        out["skeleton.relation_density"] = _share(
            self.tally.get("skeleton.pairs", 0), self.tally.get("skeleton.carrier_sq", 0)
        )
        out["morphisms.admissible_share"] = _share(
            self.tally.get("morphisms.partitions", 0), self.tally.get("morphisms.bell", 0)
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.coverage_share"] = _share(self.top_level, op_seconds)
        out["trace.spans"] = len(self.spans)
        return out

    def layer_peaks(self):
        """tracemalloc peak per layer, in MB, over the spans recorded so far."""
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.peak_mb"] = max(
                (mb for name, mb in self.peaks.items() if name.startswith(prefix)), default=0.0
            )
        return out


def _share(part, whole):
    return part / whole if whole else 0.0
