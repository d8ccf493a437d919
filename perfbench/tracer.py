"""Outside-in layer tracing: wrap rbhopf's public functions and methods.

`Tracer.install` replaces every public function and method of each rbhopf
module (the layers) by a wrapper that records a span (name, start, end,
parent) in memory, and rebinds the wrapper wherever another rbhopf module
imported the original by name (e.g. `check_rb_coalgebra` inside `ydsmash`,
`hopfmod` and `prelie`).  The hottest calls (scalar coercion, `Fp`, `Mat`
and `TermSum` construction) only bump counters.  Self time of a span is its
duration minus the time its child spans cover.

The per-layer metrics are built from additive raw accumulators, so the
figures of several traced processes (the `cli` workload) can be summed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

LAYERS = ("fields", "linalg", "tensorops", "structures", "rb", "hopfmod",
          "ydsmash", "prelie", "fileformat", "cli")

# Accessors too cheap and too frequent to be worth a span.
NO_SPAN = {"by_first", "by_pair", "items", "is_zero", "require", "basis_term",
           "coaction_dims", "value", "as_coalgebra"}
SPAN_DUNDERS = {"__mul__", "__matmul__", "__add__", "__sub__", "__neg__"}
REWRITES = {"map_at", "split_at", "split_map_at", "merge_at", "merge_map_at",
            "pair_at", "insert_at", "drop_at", "permute"}
DENSE_SCANS = {"map_at", "split_map_at", "merge_map_at"}

COUNTS = ("coerce_calls", "fp_new", "mat_new", "mat_entries", "termsum_new",
          "rewrites", "rows_scanned", "rows_hit", "basis_inputs",
          "rb_check_calls", "candidates", "yd_check_calls",
          "smash_coproduct_calls", "bytes_read", "bytes_written",
          "cli_processes")
# Inclusive time of a group of spans: a span counts only when no span of
# the same group is open around it.
GROUPS = ("structures_check", "rb_check", "rb_search", "hopfmod_check",
          "hopfmod_projection", "load", "save")
SELF = ("compose", "kron", "tensorops", "ydsmash", "prelie", "cli")
TIMES = GROUPS + SELF + ("import",)


def _groups_of(layer: str, name: str) -> tuple[str, ...]:
    short = name.rsplit(".", 1)[-1]
    out = []
    if layer == "structures" and short.startswith("check_"):
        out.append("structures_check")
    if layer == "rb" and short.startswith("check_rb_"):
        out.append("rb_check")
    if layer == "rb" and short == "search_rb_operators":
        out.append("rb_search")
    if layer == "hopfmod" and short.startswith("check_"):
        out.append("hopfmod_check")
    if layer == "hopfmod" and short in ("coinvariant_projection", "pi_operator"):
        out.append("hopfmod_projection")
    if layer == "fileformat" and short in ("load", "loads", "resolve_structure"):
        out.append("load")
    if layer == "fileformat" and short in ("save", "dumps"):
        out.append("save")
    return tuple(out)


def _self_of(layer: str, name: str) -> str | None:
    if name == "Mat.__mul__":
        return "compose"
    if name == "Mat.__matmul__":
        return "kron"
    return layer if layer in SELF else None


class Tracer:
    """Spans and counters of one process; `reset` starts a new pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.group_ids: list[tuple[int, ...]] = []
        self.self_key: list[str | None] = []
        self.count = dict.fromkeys(COUNTS, 0)
        self.time = dict.fromkeys(TIMES, 0.0)
        self.patches: list[tuple[object, str, object]] = []
        self._nnz: dict = {}
        self.reset()

    def reset(self):
        """Start a new pass: zero the accumulators, drop the spans."""
        for k in self.count:
            self.count[k] = 0
        for k in self.time:
            self.time[k] = 0.0
        self.depth = [0] * len(GROUPS)
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._nnz.clear()

    def raw(self) -> dict:
        return {**self.count, **{f"{k}_s": v for k, v in self.time.items()}}

    # -- spans ---------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.group_ids.append(tuple(GROUPS.index(g)
                                    for g in _groups_of(layer, name)))
        self.self_key.append(_self_of(layer, name))
        return len(self.names) - 1

    def _open(self, nid: int):
        stack = self.stack
        t = perf_counter()
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(t)
        self.span_end.append(0.0)
        for g in self.group_ids[nid]:
            self.depth[g] += 1
        stack.append([idx, t, 0.0, nid])

    def _close(self):
        t = perf_counter()
        idx, start, child, nid = self.stack.pop()
        self.span_end[idx] = t
        dur = t - start
        if self.stack:
            self.stack[-1][2] += dur
        key = self.self_key[nid]
        if key is not None:
            self.time[key] += dur - child
        for g in self.group_ids[nid]:
            self.depth[g] -= 1
            if self.depth[g] == 0:
                self.time[GROUPS[g]] += dur

    def write_spans(self, directory: str):
        """Write the current pass's spans: names.json plus four arrays."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "arrays": ["name.i32", "parent.i32", "start.f64",
                                  "end.f64"]}, fh)
        for fname, arr in (("name.i32", self.span_name),
                           ("parent.i32", self.span_parent),
                           ("start.f64", self.span_start),
                           ("end.f64", self.span_end)):
            with open(os.path.join(directory, fname), "wb") as fh:
                arr.tofile(fh)

    # -- hooks ---------------------------------------------------------

    def _col_nnz(self, m) -> list:
        entry = self._nnz.get(id(m))
        if entry is None or entry[0] is not m:
            cols = [0] * m.cols
            for row in m.entries:
                for j, a in enumerate(row):
                    if a:
                        cols[j] += 1
            if len(self._nnz) > 4096:
                self._nnz.clear()
            entry = self._nnz[id(m)] = (m, cols)
        return entry[1]

    def _dense_scan(self, short: str, args):
        ts, pos, m = args[0], args[1], args[2]
        cnt = self.count
        cnt["rows_scanned"] += len(ts.terms) * m.rows
        nnz = self._col_nnz(m)
        if short == "merge_map_at":
            b = ts.dims[pos + 1]
            cnt["rows_hit"] += sum(nnz[k[pos] * b + k[pos + 1]] for k in ts.terms)
        else:
            cnt["rows_hit"] += sum(nnz[k[pos]] for k in ts.terms)

    def _before(self, layer: str, short: str):
        """A hook run inside the span before the call, or None."""
        cnt = self.count
        if layer == "tensorops" and short in REWRITES:
            if short in DENSE_SCANS:
                def hook(args, kwargs):
                    cnt["rewrites"] += 1
                    self._dense_scan(short, args)
            else:
                def hook(args, kwargs):
                    cnt["rewrites"] += 1
            return hook
        if layer == "tensorops" and short == "basis":
            def hook(args, kwargs):
                stack = self.stack
                if len(stack) > 1 and self.layer_of[stack[-2][3]] == "structures":
                    cnt["basis_inputs"] += 1
            return hook
        key = {"check_rb_algebra": "rb_check_calls",
               "check_rb_coalgebra": "rb_check_calls",
               "check_yd_coalgebra": "yd_check_calls",
               "smash_coproduct": "smash_coproduct_calls"}.get(short)
        if key is not None:
            def hook(args, kwargs):
                cnt[key] += 1
            return hook
        if layer == "fileformat" and short == "loads":
            def hook(args, kwargs):
                cnt["bytes_read"] += len(args[0].encode("utf-8"))
            return hook
        return None

    def _after(self, layer: str, short: str):
        cnt = self.count
        if layer == "rb" and short == "search_rb_operators":
            def hook(result):
                cnt["candidates"] += result.candidates_scanned
            return hook
        if layer == "fileformat" and short == "save":
            def hook(result):
                cnt["bytes_written"] += len(result.encode("utf-8"))
            return hook
        return None

    def _span_wrapper(self, fn, layer: str, name: str):
        nid = self._name_id(layer, name)
        short = name.rsplit(".", 1)[-1]
        before, after = self._before(layer, short), self._after(layer, short)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            open_(nid)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, new):
        if isinstance(owner, dict):
            self.patches.append((owner, attr, owner[attr]))
            owner[attr] = new
            return
        # The class's own attribute, so a classmethod is restored as one.
        orig = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        self.patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def _install_counters(self, mods):
        cnt = self.count
        fields, linalg, tensorops = mods["fields"], mods["linalg"], mods["tensorops"]
        for cls in (fields.Rationals, fields.PrimeField):
            orig = cls.coerce

            def coerce(fld, x, _orig=orig):
                cnt["coerce_calls"] += 1
                return _orig(fld, x)
            self._patch(cls, "coerce", coerce)

        fp_init = fields.Fp.__init__

        def fp_new(obj, residue, p):
            cnt["fp_new"] += 1
            fp_init(obj, residue, p)
        self._patch(fields.Fp, "__init__", fp_new)

        mat_init = linalg.Mat.__init__

        def mat_new(obj, field, rows, cols=None):
            mat_init(obj, field, rows, cols)
            cnt["mat_new"] += 1
            cnt["mat_entries"] += obj.rows * obj.cols
        self._patch(linalg.Mat, "__init__", mat_new)

        ts_init = tensorops.TermSum.__init__

        def ts_new(obj, field, dims, terms):
            cnt["termsum_new"] += 1
            ts_init(obj, field, dims, terms)
        self._patch(tensorops.TermSum, "__init__", ts_new)

    def install(self):
        """Patch every layer module of rbhopf; returns the module map."""
        mods = {layer: importlib.import_module(f"rbhopf.{layer}")
                for layer in LAYERS}
        self._install_counters(mods)
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            if layer == "fields":
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._span_wrapper(obj, layer, name)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, layer)
        # Rebind every module-level name bound to a wrapped function,
        # including names imported into other modules and the package, and
        # module-level tables of functions such as the CLI's check table.
        for mod in [importlib.import_module("rbhopf"), *mods.values()]:
            for name, obj in list(vars(mod).items()):
                targets = [(mod, name, obj)]
                if isinstance(obj, dict) and not name.startswith("__"):
                    targets = [(obj, k, v) for k, v in obj.items()]
                for owner, key, value in targets:
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(owner, key, hit[1])
        return mods

    def _install_class(self, cls, layer: str):
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_") and attr not in NO_SPAN
            if not (public or attr in SPAN_DUNDERS):
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._span_wrapper(member, layer, name))
            elif isinstance(member, classmethod):
                wrapped = self._span_wrapper(member.__func__, layer, name)
                self._patch(cls, attr, classmethod(wrapped))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self.patches.clear()


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics (name -> value) from summed raw accumulators."""
    c = raw
    scanned = c["rows_scanned"]
    return {
        "fields.coerce_calls": c["coerce_calls"],
        "fields.fp_new": c["fp_new"],
        "linalg.mat_new": c["mat_new"],
        "linalg.mat_entries": c["mat_entries"],
        "linalg.compose_s": c["compose_s"],
        "linalg.kron_s": c["kron_s"],
        "tensorops.termsum_new": c["termsum_new"],
        "tensorops.rewrites": c["rewrites"],
        "tensorops.self_s": c["tensorops_s"],
        "tensorops.dense_rows_scanned": scanned,
        "tensorops.dense_scan_yield": c["rows_hit"] / scanned if scanned else 0.0,
        "structures.check_s": c["structures_check_s"],
        "structures.basis_inputs": c["basis_inputs"],
        "rb.check_calls": c["rb_check_calls"],
        "rb.check_s": c["rb_check_s"],
        "rb.search.candidates_per_s": (c["candidates"] / c["rb_search_s"]
                                       if c["rb_search_s"] else 0.0),
        "hopfmod.check_s": c["hopfmod_check_s"],
        "hopfmod.projection_s": c["hopfmod_projection_s"],
        "ydsmash.yd_check_calls": c["yd_check_calls"],
        "ydsmash.smash_coproduct_calls": c["smash_coproduct_calls"],
        "ydsmash.self_s": c["ydsmash_s"],
        "prelie.self_s": c["prelie_s"],
        "fileformat.load_s": c["load_s"],
        "fileformat.save_s": c["save_s"],
        "fileformat.bytes_read": c["bytes_read"],
        "fileformat.bytes_written": c["bytes_written"],
        "cli.import_s": (c["import_s"] / c["cli_processes"]
                         if c["cli_processes"] else 0.0),
        "cli.self_s": c["cli_s"],
    }


UNITS = {
    "fields.coerce_calls": "count", "fields.fp_new": "count",
    "linalg.mat_new": "count", "linalg.mat_entries": "count",
    "linalg.compose_s": "s", "linalg.kron_s": "s",
    "tensorops.termsum_new": "count", "tensorops.rewrites": "count",
    "tensorops.self_s": "s", "tensorops.dense_rows_scanned": "count",
    "tensorops.dense_scan_yield": "ratio", "structures.check_s": "s",
    "structures.basis_inputs": "count", "rb.check_calls": "count",
    "rb.check_s": "s", "rb.search.candidates_per_s": "1/s",
    "hopfmod.check_s": "s", "hopfmod.projection_s": "s",
    "ydsmash.yd_check_calls": "count", "ydsmash.smash_coproduct_calls": "count",
    "ydsmash.self_s": "s", "prelie.self_s": "s", "fileformat.load_s": "s",
    "fileformat.save_s": "s", "fileformat.bytes_read": "bytes",
    "fileformat.bytes_written": "bytes", "cli.import_s": "s", "cli.self_s": "s",
}
