"""Per-layer tracing of obstrukt from outside the program.

A layer is a module of the ``obstrukt`` package.  ``Tracer.install`` replaces
every public module-level function in every module namespace that binds it
(``reduced_homology`` is bound in ``homology``, ``collapse``, ``mandatory``,
``codemaps``, ``cli`` and the package itself) with a wrapper that knows both
the function and the namespace it was called through.

A call records a span (start, end, parent span) when it crosses a layer
boundary, or when its function's own self time is a reported metric; other
calls inside a layer are only counted, so their time stays in the enclosing
span of the same layer and layer self times are unchanged.  Generator
functions are only counted, since their work happens in the consumer.

Spans live in memory in the forked op process; ``summary`` ships them and
the per-op totals to the benchmark process, which keeps them and writes them
out with ``write_spans`` when the run ends.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time
import types
from array import array
from pathlib import Path

PACKAGE = "obstrukt"
LAYERS = ("cli", "codes", "complexes", "homology", "collapse", "mandatory", "ideals",
          "codemaps", "suites", "randgen")
VERIFIERS = ("verify_permutation", "verify_add_trivial_on", "verify_add_trivial_off",
             "verify_duplicate", "verify_projection")

# (metric, unit, better).  Times and counts are per traced op; ratios are
# taken over all traced ops of the run.
PER_LAYER: list[tuple[str, str, str]] = []
for _layer in LAYERS:
    PER_LAYER.append((f"{_layer}.self_s", "s/op", "lower"))
    PER_LAYER.append((f"{_layer}.errors", "1/op", "lower"))
PER_LAYER += [
    ("complexes.maximal_masks.calls", "1/op", "lower"),
    ("complexes.maximal_masks.pairs", "1/op", "lower"),
    ("complexes.maximal_masks.self_s", "s/op", "lower"),
    ("complexes.link.calls", "1/op", "lower"),
    ("complexes.link.faces_scanned", "1/op", "lower"),
    ("complexes.delete_vertex.calls", "1/op", "lower"),
    ("complexes.dual_complex.subsets", "1/op", "lower"),
    ("complexes.dual_complex.self_s", "s/op", "lower"),
    ("homology.reduced_homology.calls", "1/op", "lower"),
    ("homology.reduced_homology.hit_ratio", "ratio", "higher"),
    ("homology.rank_gf2.columns", "1/op", "lower"),
    ("homology.rank_gf2.self_s", "s/op", "lower"),
    ("homology.rank_fraction_free.cells", "1/op", "lower"),
    ("homology.rank_fraction_free.self_s", "s/op", "lower"),
    ("collapse.contractibility.calls", "1/op", "lower"),
    ("collapse.verdict.contractible", "1/op", "higher"),
    ("collapse.verdict.non_contractible", "1/op", "higher"),
    ("collapse.verdict.unknown", "1/op", "lower"),
    ("collapse.strong_collapse_core.steps", "1/op", "lower"),
    ("collapse.dominated_vertices.calls", "1/op", "lower"),
    ("mandatory.mandatory_set.hit_ratio", "ratio", "higher"),
    ("mandatory.mandatory_partition.hit_ratio", "ratio", "higher"),
    ("mandatory.cone_shortcut_ratio", "ratio", "higher"),
    ("ideals.sr_ideal.subsets", "1/op", "lower"),
    ("ideals.alexander_dual.self_s", "s/op", "lower"),
    ("ideals.minimal_masks.pairs", "1/op", "lower"),
    ("codemaps.verify.calls", "1/op", "lower"),
    *((f"codemaps.{v}.self_s", "s/op", "lower") for v in VERIFIERS),
    ("suites.code_reports.calls", "1/op", "lower"),
    ("randgen.random_code.self_s", "s/op", "lower"),
    # traced over untraced op time on the same inputs
    ("trace.overhead_ratio", "ratio", "lower"),
    # cached calls that bypassed every wrapper (cache hits + misses - calls)
    ("trace.coverage_gap", "1/op", "lower"),
]

# Functions whose own self time is a metric, and cli.main, the root of every
# op, get a span on every call.
SELF_TIMED = {m.rsplit(".", 1)[0] for m, _, _ in PER_LAYER
              if m.endswith(".self_s") and m.count(".") == 2} | {"cli.main"}
# Every function the metrics read; one that no longer exists is reported absent.
NAMED = SELF_TIMED | {
    "complexes.link", "complexes.delete_vertex", "complexes.facet_intersection",
    "homology.reduced_homology", "collapse.contractibility", "collapse.strong_collapse_core",
    "collapse.dominated_vertices", "mandatory.mandatory_set", "mandatory.mandatory_partition",
    "ideals.sr_ideal", "ideals.minimal_masks", "suites.code_reports",
}


# ---- probes: counts computed from a call's arguments and result ------------


def _pairs(t: "Tracer", key: str, layer: str, args: tuple) -> tuple:
    masks = args[0]
    if not isinstance(masks, (set, frozenset)):
        masks = set(masks)  # consume a generator once, pass the set on
    t.counts[key + ".pairs"] += len(masks) ** 2
    return (masks,) + args[1:]


PRE = {"complexes.maximal_masks": _pairs, "ideals.minimal_masks": _pairs}


def _post_link(t, key, layer, args, result):
    t.counts["complexes.link.faces_scanned"] += len(args[0])


def _post_subsets(t, key, layer, args, result):
    t.counts[key + ".subsets"] += 1 << args[0].n


def _post_rank_gf2(t, key, layer, args, result):
    t.counts["homology.rank_gf2.columns"] += len(args[0])


def _post_rank_ff(t, key, layer, args, result):
    rows = args[0]
    t.counts["homology.rank_fraction_free.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _post_contractibility(t, key, layer, args, result):
    t.counts["collapse.verdict." + result.status.value] += 1


def _post_collapse(t, key, layer, args, result):
    t.counts["collapse.strong_collapse_core.steps"] += len(result.steps)


def _post_facet_intersection(t, key, layer, args, result):
    if layer == "mandatory":
        t.counts["mandatory.facet_intersection.calls"] += 1
        if result.bits != args[1].bits:
            t.counts["mandatory.facet_intersection.shortcuts"] += 1


POST = {
    "complexes.link": _post_link,
    "complexes.dual_complex": _post_subsets,
    "ideals.sr_ideal": _post_subsets,
    "homology.rank_gf2": _post_rank_gf2,
    "homology.rank_fraction_free": _post_rank_ff,
    "collapse.contractibility": _post_contractibility,
    "collapse.strong_collapse_core": _post_collapse,
    "complexes.facet_intersection": _post_facet_intersection,
}


# ---- discovery and wrapping ------------------------------------------------


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1] if "." in module_name else "package"


def _is_traceable(value: object) -> bool:
    return (isinstance(value, (types.FunctionType, functools._lru_cache_wrapper))
            and str(getattr(value, "__module__", "")).startswith(PACKAGE + "."))


def _cache_counts(fn) -> tuple[int, int] | None:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    """Wrappers for one imported ``obstrukt`` plus the state of the current op."""

    def __init__(self) -> None:
        self.bindings: list[tuple[types.ModuleType, str, object, str, str]] = []
        self.functions: dict[str, object] = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(value):
                    continue
                key = f"{_layer_of(value.__module__)}.{value.__name__}"
                self.functions[key] = value
                self.bindings.append((module, attr, value, key, _layer_of(mod_name)))
        self.absent = sorted(NAMED - set(self.functions))
        self.wrappers = [self._wrap(b) for b in range(len(self.bindings))]
        self.reset()

    def reset(self) -> None:
        """Start a new op: empty spans and counters, note cache positions."""
        n = len(self.bindings)
        self.stack: list[list] = []  # [span index, seconds spent in child spans]
        self.span_parent = array("i")
        self.span_fn = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.counts: collections.Counter = collections.Counter()
        self.probe_errors = 0
        self.cache_base = {k: _cache_counts(f) for k, f in self.functions.items()}

    def install(self) -> None:
        for (module, attr, _, _, _), wrapper in zip(self.bindings, self.wrappers):
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _, _ in self.bindings:
            setattr(module, attr, original)

    def _wrap(self, b: int):
        _, _, fn, key, caller = self.bindings[b]
        callee = key.split(".", 1)[0]
        pre, post = PRE.get(key), POST.get(key)
        t = self

        def probe_pre(args):
            try:
                return pre(t, key, caller, args)
            except Exception:
                t.probe_errors += 1
                return args

        def probe_post(args, result):
            try:
                post(t, key, caller, args, result)
            except Exception:
                t.probe_errors += 1

        if inspect.isgeneratorfunction(fn) or (callee == caller and key not in SELF_TIMED):
            def counted(*args, **kwargs):
                if pre is not None:
                    args = probe_pre(args)
                t.calls[b] += 1
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    t.errors[b] += 1
                    raise
                if post is not None:
                    probe_post(args, result)
                return result

            return functools.wraps(fn)(counted)

        perf = time.perf_counter

        def spanned(*args, **kwargs):
            if pre is not None:
                args = probe_pre(args)
            stack = t.stack
            parent = stack[-1] if stack else None
            sid = len(t.span_start)
            t.span_parent.append(parent[0] if parent else -1)
            t.span_fn.append(b)
            t.span_start.append(0.0)
            t.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t.errors[b] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                t.span_start[sid] = t0
                t.span_end[sid] = t1
                t.calls[b] += 1
                t.self_s[b] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if post is not None:
                probe_post(args, result)
            return result

        return functools.wraps(fn)(spanned)

    def summary(self) -> dict:
        """Per-op totals and spans, in types ``marshal`` can carry."""
        cache = {}
        for k, base in self.cache_base.items():
            if base is not None:
                hits, misses = _cache_counts(self.functions[k])
                cache[k] = [hits - base[0], misses - base[1]]
        return {
            "keys": [b[3] for b in self.bindings],
            "layers": [b[4] for b in self.bindings],
            "calls": self.calls,
            "errors": self.errors,
            "self_s": self.self_s,
            "counts": dict(self.counts),
            "cache": cache,
            "probe_errors": self.probe_errors,
            "spans": [a.tobytes() for a in
                      (self.span_parent, self.span_fn, self.span_start, self.span_end)],
        }


class Totals:
    """Op summaries of one traced run, summed, plus the spans of every op."""

    def __init__(self, absent: list[str]) -> None:
        self.absent = absent
        self.ops = 0
        self.bindings: list[tuple[str, str]] = []
        self.calls: collections.Counter = collections.Counter()
        self.errors: collections.Counter = collections.Counter()
        self.self_s: collections.Counter = collections.Counter()
        self.layer_self: collections.Counter = collections.Counter()
        self.layer_errors: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.cache: dict[str, list[int]] = {}
        self.coverage_gap = 0
        self.probe_errors = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.spans: list[tuple[int, list[bytes]]] = []

    def add(self, op_index: int, s: dict) -> None:
        self.ops += 1
        self.bindings = list(zip(s["keys"], s["layers"]))
        op_calls: collections.Counter = collections.Counter()
        for key, calls, errors, self_s in zip(s["keys"], s["calls"], s["errors"], s["self_s"]):
            layer = key.split(".", 1)[0]
            op_calls[key] += calls
            self.errors[key] += errors
            self.self_s[key] += self_s
            self.layer_self[layer] += self_s
            self.layer_errors[layer] += errors
        self.calls.update(op_calls)
        self.counts.update(s["counts"])
        for key, delta in s["cache"].items():
            total = self.cache.setdefault(key, [0, 0])
            total[0] += delta[0]
            total[1] += delta[1]
            self.coverage_gap += abs(delta[0] + delta[1] - op_calls[key])
        self.probe_errors += s["probe_errors"]
        self.spans.append((op_index, s["spans"]))

    def _hit_ratio(self, key: str) -> float:
        hits, misses = self.cache.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        per_op = 1 / max(self.ops, 1)
        shortcut_calls = self.counts["mandatory.facet_intersection.calls"]
        values = {
            "homology.reduced_homology.hit_ratio": self._hit_ratio("homology.reduced_homology"),
            "mandatory.mandatory_set.hit_ratio": self._hit_ratio("mandatory.mandatory_set"),
            "mandatory.mandatory_partition.hit_ratio":
                self._hit_ratio("mandatory.mandatory_partition"),
            "mandatory.cone_shortcut_ratio":
                self.counts["mandatory.facet_intersection.shortcuts"] / shortcut_calls
                if shortcut_calls else 0.0,
            "codemaps.verify.calls":
                sum(self.calls[f"codemaps.{v}"] for v in VERIFIERS) * per_op,
            "trace.overhead_ratio":
                self.traced_s / self.untraced_s if self.untraced_s else 0.0,
            "trace.coverage_gap": self.coverage_gap * per_op,
        }
        for name, _, _ in PER_LAYER:
            if name in values:
                continue
            head, _, tail = name.rpartition(".")
            if head in LAYERS:
                source = self.layer_self if tail == "self_s" else self.layer_errors
                values[name] = source[head] * per_op
            elif tail == "self_s":
                values[name] = self.self_s[head] * per_op
            elif tail == "calls":
                values[name] = self.calls[head] * per_op
            else:
                values[name] = self.counts[name] * per_op
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then per op the parent (int32), binding
        (uint16), start and end (float64, ``time.perf_counter`` seconds)
        arrays of its spans, back to back."""
        header = {
            "bindings": [{"function": k, "called_from": c} for k, c in self.bindings],
            "ops": [{"op": i, "spans": len(blobs[0]) // array("i").itemsize}
                    for i, blobs in self.spans],
            "arrays": [["parent", "i"], ["binding", "H"], ["start", "d"], ["end", "d"]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, blobs in self.spans:
                for blob in blobs:
                    fh.write(blob)


def load_spans(path: Path) -> tuple[dict, list[dict[str, array]]]:
    """Read a file written by ``Totals.write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        ops = []
        for op in header["ops"]:
            arrays = {}
            for name, code in header["arrays"]:
                arr = array(code)
                arr.frombytes(fh.read(op["spans"] * arr.itemsize))
                arrays[name] = arr
            ops.append(arrays)
    return header, ops
