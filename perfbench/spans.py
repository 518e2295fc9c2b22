"""Spans and counters recorded from outside the library.

`Tracer.install()` replaces each traced function by a wrapper at every
place it is bound: its home module, every other ``mukailat`` module that
imported it by name, and the class that holds a traced method.  Each call
opens a span (name, parent span, operation id, start, end); spans are kept
in memory in flat integer arrays and written out when the run ends.

Per traced function F the tracer keeps
  calls   every call, recursive ones included,
  busy    wall time covered by F's spans (outermost calls only, so a
          recursive F is not counted twice),
  self    span time minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import zlib

# (module, qualified name) of every traced function, in report order
TRACED = (
    ("linalg", "mat_mul"), ("linalg", "mat_vec"),
    ("linalg", "smith_normal_form"), ("linalg", "kernel_basis"),
    ("linalg", "det"), ("linalg", "det_q"), ("linalg", "mat_inv_q"),
    ("linalg", "signature"),
    ("lattices", "Isometry.compose"), ("lattices", "Isometry.inverse"),
    ("lattices", "check_isometry"), ("lattices", "discriminant_group"),
    ("lattices", "orthogonal_complement"), ("lattices", "Lattice.pair"),
    ("mukai", "mukai_pairing"),
    ("characters", "reflection"), ("characters", "general_reflection"),
    ("characters", "orientation_char"),
    ("embeddings", "embed_rank2"), ("embeddings", "clearing_isometry"),
    ("stabilizer", "vperp_model"), ("stabilizer", "factor"),
    ("stabilizer", "normalize_word"), ("stabilizer", "GeneratorWord.product"),
    ("stabilizer", "VPerpModel.restrict"), ("stabilizer", "disc_action"),
    ("fourier_mukai", "elliptic_phi"), ("fourier_mukai", "mon_twist"),
    ("jsonio", "isometry_from_json"), ("jsonio", "word_to_json"),
)
# linalg results whose entries feed linalg.max_entry_bits
_MATRIX_RESULTS = {"mat_mul", "smith_normal_form", "kernel_basis",
                   "mat_inv_q"}
OP = "bench.op"


def traced_names():
    return [f"{mod}.{qual}" for mod, qual in TRACED]


def _entry_bits(x):
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _max_bits(result):
    """Largest entry bit length of a matrix, or of each matrix in a tuple."""
    if not result:
        return 0
    first = result[0]
    if isinstance(first, tuple) and first and isinstance(first[0], tuple):
        return max(_max_bits(m) for m in result)
    return max(_entry_bits(x) for row in result for x in row)


class Tracer:
    def __init__(self):
        self.names = [OP] + traced_names()
        n = len(self.names)
        self.calls = [0] * n
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        self._depth = [0] * n
        # one span per row: parent span, operation id, name index, start, end
        self.parent = array.array("q")
        self.op = array.array("q")
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = []  # [span id, name index, start, child ns]
        self.op_id = -1
        self.max_entry_bits = 0
        self.embed_calls = 0
        self.embed_free_plane = 0
        self.clearing_hits = 0
        self.witness_not_found = 0
        self._sites = None

    # -- spans ----------------------------------------------------------------

    def _open(self, idx):
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.name.append(idx)
        t = time.perf_counter_ns()
        self.start.append(t)
        self.end.append(t)
        self._stack.append([sid, idx, t, 0])
        self.calls[idx] += 1
        self._depth[idx] += 1

    def _close(self):
        t = time.perf_counter_ns()
        sid, idx, t0, child = self._stack.pop()
        self.end[sid] = t
        dur = t - t0
        self.self_ns[idx] += dur - child
        self._depth[idx] -= 1
        if not self._depth[idx]:
            self.busy_ns[idx] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def operation(self, fn, *args):
        """Run one benchmark operation under a root span of its own id."""
        self.op_id += 1
        self._open(0)
        try:
            return fn(*args)
        finally:
            self._close()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, idx, label):
        tracer = self
        hook = self._hooks(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.calls[tracer._clearing]
            tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close()
                if label == "embeddings.embed_rank2":
                    tracer.embed_calls += 1
                    if type(exc).__name__ == "WitnessNotFound":
                        tracer.witness_not_found += 1
                raise
            tracer._close()
            if hook:
                hook(result, before)
            return result

        return wrapper

    def _hooks(self, label):
        mod, _, fname = label.partition(".")
        if mod == "linalg" and fname in _MATRIX_RESULTS:
            def bits(result, _before):
                b = _max_bits(result)
                if b > self.max_entry_bits:
                    self.max_entry_bits = b
            return bits
        if label == "embeddings.embed_rank2":
            def embed(_result, before):
                self.embed_calls += 1
                if self.calls[self._clearing] == before:
                    self.embed_free_plane += 1
            return embed
        if label == "embeddings.clearing_isometry":
            def clearing(result, _before):
                if result is not None:
                    self.clearing_hits += 1
            return clearing
        return None

    def install(self):
        """Patch every binding site of the traced functions.  The sites and
        wrappers are found on the first call; later calls only set them."""
        if self._sites is None:
            self._sites = self._find_sites()
        for target, attr, _, wrapper in self._sites:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _ in reversed(self._sites or ()):
            setattr(target, attr, original)

    def _find_sites(self):
        """(target, attribute, original, wrapper) for every binding site."""
        for modname, _ in TRACED:
            importlib.import_module(f"mukailat.{modname}")
        self._clearing = self.names.index("embeddings.clearing_isometry")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mukailat" or name.startswith("mukailat.")]
        sites = []
        for idx, (modname, qual) in enumerate(TRACED, start=1):
            home = sys.modules[f"mukailat.{modname}"]
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else None
            original = (owner.__dict__ if owner else vars(home))[attr]
            wrapper = self._wrap(original, idx, f"{modname}.{qual}")
            if owner is not None:
                sites.append((owner, attr, original, wrapper))
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        sites.append((m, key, original, wrapper))
        return sites

    # -- results --------------------------------------------------------------

    def counters(self):
        """Raw counters, summable across processes (see merge)."""
        return {
            "calls": self.calls, "busy_ns": self.busy_ns,
            "self_ns": self.self_ns, "max_entry_bits": self.max_entry_bits,
            "embed_calls": self.embed_calls,
            "embed_free_plane": self.embed_free_plane,
            "clearing_hits": self.clearing_hits,
            "witness_not_found": self.witness_not_found,
            "spans": len(self.start),
        }

    def write_spans(self, path):
        """Spans as a zlib-compressed JSON header line plus five int64
        arrays (parent, op, name, start_ns, end_ns)."""
        header = json.dumps({"names": self.names, "spans": len(self.start),
                             "columns": ["parent", "op", "name", "start_ns",
                                         "end_ns"], "dtype": "int64"})
        raw = b"".join(a.tobytes() for a in
                       (self.parent, self.op, self.name, self.start,
                        self.end))
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.write(zlib.compress(raw, 1))


def merge(total, part):
    """Add counters from one process (a traced CLI child) into total."""
    if not total:
        return json.loads(json.dumps(part))
    for key in ("calls", "busy_ns", "self_ns"):
        total[key] = [a + b for a, b in zip(total[key], part[key])]
    total["max_entry_bits"] = max(total["max_entry_bits"],
                                  part["max_entry_bits"])
    for key in ("embed_calls", "embed_free_plane", "clearing_hits",
                "witness_not_found", "spans"):
        total[key] += part[key]
    return total


def layer_metrics(counters):
    """The per-layer metrics, named <module>.<F>.calls / busy_s / self_s."""
    out = {}
    c = counters
    for i, name in enumerate(traced_names(), start=1):
        out[f"{name}.calls"] = (c["calls"][i], "count")
        out[f"{name}.busy_s"] = (c["busy_ns"][i] / 1e9, "s")
        out[f"{name}.self_s"] = (c["self_ns"][i] / 1e9, "s")
    out["linalg.max_entry_bits"] = (c["max_entry_bits"], "bits")
    embeds = c["embed_calls"]
    clearings = c["calls"][traced_names().index(
        "embeddings.clearing_isometry") + 1]
    out["embeddings.free_plane_ratio"] = (
        c["embed_free_plane"] / embeds if embeds else 0.0, "ratio")
    out["embeddings.clearing_hit_ratio"] = (
        c["clearing_hits"] / clearings if clearings else 0.0, "ratio")
    out["embeddings.witness_not_found"] = (c["witness_not_found"], "count")
    return out

