"""Span recorder for the traced run, installed from outside the package.

Every listed public function is rebound, in each ``ramseykit`` module
namespace that holds it (and in module-level dicts such as
``classes.GENERATORS``), by a wrapper that records one span: name, start,
end and parent.  Self time is a span's duration minus the durations of its
direct child spans.  Spans stay in memory and are written once, after the
measurement, by :meth:`Recorder.dump`.

Only calls that go through a module global are seen.  ``joint_arrow_check``
and ``ramsey_degree_upper_probe`` call the private ``_search_bad_coloring``
directly, so their search time is their own self time; so is the search
inside ``check_instance``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from array import array

LAYERS = {
    "arrows": ("check_instance", "arrow_instance", "subset_arrow_instance",
               "coloring_refutes", "joint_arrow_check",
               "ramsey_degree_upper_probe", "render_cnf"),
    "embeddings": ("enumerate_embeddings", "embeds", "first_embedding",
                   "automorphism_group"),
    "qftypes": ("qftp", "induced_type", "copies_of_type",
                "enumerate_qf_copies"),
    "structures": ("canonical_certificate", "canonical_form",
                   "generated_substructure"),
    "indiscernibles": ("delta_type", "is_indiscernible", "check_locally_based",
                       "extract_indiscernible_pattern"),
    "formulas": ("eval_on_tuple",),
    "expansions": ("qf_type_morleyisation", "isolator", "same_qftp_partition",
                   "define_by_type_union"),
    "classes": ("hp_check", "jep_check", "ap_check", "erp_check",
                "f_erp_check", "orderability_search", "graphs",
                "ordered_graphs"),
    "fileformat": ("parse_document", "serialize_structure", "serialize_class"),
    "certificates": ("render_certificate", "write_certificate",
                     "parse_certificate", "replay_certificate"),
    "cli": ("main",),
}


def _joint_nodes(res):
    return sum(v for k, v in res.stats if k.startswith("nodes_"))


def _nbytes(text):
    return len(text.encode("utf-8"))


# Work counted from a wrapped function's return value, per call.
COUNTERS = {
    "arrows.check_instance": lambda r: {"nodes": r.stat("nodes"),
                                        "prunes": r.stat("prunes")},
    "arrows.arrow_instance": lambda r: {"acopies": len(r.copy_keys),
                                        "bcopies": len(r.bcopy_keys)},
    "arrows.subset_arrow_instance": lambda r: {"acopies": len(r.copy_keys),
                                               "bcopies": len(r.bcopy_keys)},
    "arrows.joint_arrow_check": lambda r: {"nodes": _joint_nodes(r)},
    "arrows.render_cnf": lambda r: {"bytes": _nbytes(r)},
    "embeddings.enumerate_embeddings": lambda r: {"maps": len(r)},
    "embeddings.embeds": lambda r: {"hits": int(bool(r))},
    "qftypes.copies_of_type": lambda r: {"tuples": len(r)},
    "qftypes.enumerate_qf_copies": lambda r: {"tuples": len(r)},
    "indiscernibles.extract_indiscernible_pattern":
        lambda r: {"candidates_checked": r.candidates_checked},
    "fileformat.serialize_structure": lambda r: {"bytes": _nbytes(r)},
    "fileformat.serialize_class": lambda r: {"bytes": _nbytes(r)},
    "certificates.render_certificate": lambda r: {"bytes": _nbytes(r)},
}


# Extra per-layer metrics beyond calls and self_s: raw counters from above,
# plus rates and ratios derived from them.
EXTRAS = {
    "arrows.check_instance": ("nodes", "prunes", "nodes_per_s", "prune_ratio"),
    "arrows.arrow_instance": ("acopies", "bcopies"),
    "arrows.subset_arrow_instance": ("acopies", "bcopies"),
    "arrows.render_cnf": ("bytes",),
    "embeddings.enumerate_embeddings": ("maps",),
    "embeddings.embeds": ("hit_ratio",),
    "qftypes.copies_of_type": ("tuples",),
    "qftypes.enumerate_qf_copies": ("tuples",),
    "indiscernibles.extract_indiscernible_pattern": ("candidates_checked",),
    "fileformat.serialize_structure": ("bytes",),
    "fileformat.serialize_class": ("bytes",),
    "certificates.render_certificate": ("bytes",),
}
UNITS = {"calls": "count", "self_s": "s", "nodes_per_s": "1/s",
         "prune_ratio": "ratio", "hit_ratio": "ratio", "bytes": "bytes"}


def layer_metrics(rec: "Recorder", passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass value and unit of every per-layer metric, 0 when not called."""
    out = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            calls = rec.calls.get(name, 0)
            self_s = rec.self_s.get(name, 0.0)
            raw = rec.counts.get(name, {})
            values = {"calls": calls / passes, "self_s": self_s / passes}
            for extra in EXTRAS.get(name, ()):
                if extra == "nodes_per_s":
                    v = raw.get("nodes", 0) / self_s if self_s else 0.0
                elif extra == "prune_ratio":
                    tried = raw.get("nodes", 0) + raw.get("prunes", 0)
                    v = raw.get("prunes", 0) / tried if tried else 0.0
                elif extra == "hit_ratio":
                    v = raw.get("hits", 0) / calls if calls else 0.0
                else:
                    v = raw.get(extra, 0) / passes
                values[extra] = v
            for key, v in values.items():
                out[f"{name}.{key}"] = (v, UNITS.get(key, "count"))
    return out


def pass_counts(rec: "Recorder") -> dict[str, int]:
    """The deterministic work counts, cumulative since the last reset."""
    nodes = sum(rec.counts.get(n, {}).get("nodes", 0)
                for n in ("arrows.check_instance", "arrows.joint_arrow_check"))
    return {
        "pass.search_nodes": nodes,
        "pass.embedding_maps": rec.counts.get("embeddings.enumerate_embeddings", {}).get("maps", 0),
        "pass.qftp_calls": rec.calls.get("qftypes.qftp", 0),
        "pass.delta_type_calls": rec.calls.get("indiscernibles.delta_type", 0),
        "pass.cert_bytes": rec.counts.get("certificates.render_certificate", {}).get("bytes", 0),
    }


class Recorder:
    """Spans plus per-function aggregates; ``enabled`` gates recording."""

    def __init__(self, max_spans: int):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.max_spans = max_spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.enabled = False
        self._stack: list[list] = []  # [span id or -1, start, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, dict[str, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name_id: int) -> list:
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.span_start) < self.max_spans:
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        frame = [sid, start, 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: str) -> None:
        stop = time.perf_counter()
        self._stack.pop()
        duration = stop - frame[1]
        if frame[0] >= 0:
            self.span_end[frame[0]] = stop
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]

    def count(self, name: str, values: dict) -> None:
        bucket = self.counts.setdefault(name, {})
        for key, v in values.items():
            bucket[key] = bucket.get(key, 0) + v

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one job."""
        frame = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end(frame, name)

    def dump(self, path: str, header: dict) -> None:
        n = len(self.span_start)
        record = dict(header, names=self.names, dropped=self.dropped,
                      spans=[[i, self.span_parent[i], self.names[self.span_name[i]],
                              self.span_start[i], self.span_end[i]]
                             for i in range(n)])
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(record, fh)


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(frame, name)
        if counter is not None:
            rec.count(name, counter(result))
        return result

    return wrapper


def install(rec: Recorder) -> int:
    """Rebind every listed function wherever the package holds it.

    Returns the number of bindings replaced.
    """
    import ramseykit

    modules = {layer: importlib.import_module(f"ramseykit.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            original = getattr(modules[layer], fn, None)
            if original is not None:  # a renamed function just reads 0
                wrappers[id(original)] = _wrap(rec, f"{layer}.{fn}", original)
    replaced = 0
    seen_dicts = set()
    for mod in [ramseykit, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
                replaced += 1
            elif isinstance(value, dict) and id(value) not in seen_dicts:
                seen_dicts.add(id(value))
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
                        replaced += 1
    return replaced
