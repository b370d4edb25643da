"""Per-layer spans for the traced benchmark run.

The tracer wraps public slicerank functions from outside the program. A
module binds the names it imports when it is imported, so each wrapper is
installed under every slicerank module attribute that holds the original
function, and removed again afterwards. Spans (group, parent, start, end)
are kept in memory in flat arrays and reduced when the traced pass ends.
A span's self time is its duration minus the durations of its child spans,
so the self times of all spans of a job add up to the job's time.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

# function name -> the metric that sums the self time of its spans
GROUPS = {
    "build_parser": "cli.parser_s",
    "load_json": "serialize.parse_s",
    "tensor_from_obj": "serialize.parse_s",
    "decomposition_from_obj": "serialize.parse_s",
    "certificate_from_obj": "serialize.parse_s",
    "subspace_from_obj": "serialize.parse_s",
    "dump_json": "serialize.dump_s",
    "tensor_to_obj": "serialize.dump_s",
    "decomposition_to_obj": "serialize.dump_s",
    "certificate_to_obj": "serialize.dump_s",
    "subspace_to_obj": "serialize.dump_s",
    "rank_result_to_obj": "serialize.dump_s",
    "split_trace_to_obj": "serialize.dump_s",
    "slice_rank_exact": "rank.search_s",
    "decomposition_from_certificate": "rank.witness_s",
    "verify_certificate": "rank.verify_s",
    "min_slice_cover": "rank.cover_s",
    "mode_product": "tensor.mode_product_s",
    "echelonize": "linalg.s",
    "complete_basis": "linalg.s",
    "invert_matrix": "linalg.s",
    "annihilator": "linalg.s",
    "matrix_rank": "linalg.s",
    "kernel_basis": "linalg.s",
    "split_certificate": "splitting.split_s",
    "split_certificate_distinguished_axis": "splitting.split_s",
    "check_triangular": "splitting.triangular_self_s",
    "triangular_normalize": "normalize.s",
}
JOB = "cli.main_self_s"  # the job span: its self time lies outside every traced function
NAMES = [JOB] + sorted(set(GROUPS.values()))


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.mode_product_ops = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        gid = NAMES.index(name)
        group, parent, start, end, stack = self.group, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(group)
            group.append(gid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_mode_product(self, args, result):
        arr, mat = args[0], args[1]
        self.mode_product_ops += mat.shape[0] * arr.size

    def _count_load(self, args, result):
        self.bytes_in += os.path.getsize(args[0])

    def _count_dump(self, args, result):
        self.bytes_out += len(result.encode("utf-8"))

    def install(self) -> None:
        """Wrap every traced function wherever a slicerank module binds it."""
        after = {"mode_product": self._count_mode_product,
                 "load_json": self._count_load, "dump_json": self._count_dump}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "slicerank" or name.startswith("slicerank.")]
        for fname, group in GROUPS.items():
            owners = [m for m in modules if getattr(m, fname, None) is not None]
            homes = [getattr(m, fname) for m in owners
                     if getattr(getattr(m, fname), "__module__", None) == m.__name__]
            if not homes:
                raise SystemExit(f"traced function {fname} is not defined in slicerank")
            original = homes[0]
            wrapper = self.wrap(group, original, after.get(fname))
            for m in owners:
                if getattr(m, fname) is original:
                    self._patched.append((m, fname, original))
                    setattr(m, fname, wrapper)

    def uninstall(self) -> None:
        for m, fname, original in reversed(self._patched):
            setattr(m, fname, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Self time per group, span counts, and the deterministic counters."""
        n = len(self.group)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            if self.parent[i] >= 0:
                self_time[self.parent[i]] -= dur[i]
        out = {name: 0.0 for name in NAMES}
        calls = {name: 0 for name in NAMES}
        for i in range(n):
            name = NAMES[self.group[i]]
            out[name] += self_time[i]
            calls[name] += 1
        tri = NAMES.index("splitting.triangular_self_s")
        search = NAMES.index("rank.search_s")
        nested = 0
        for i in range(n):
            if self.group[i] == search:
                j = self.parent[i]
                while j >= 0 and self.group[j] != tri:
                    j = self.parent[j]
                nested += j >= 0
        triangular_calls = calls["splitting.triangular_self_s"]
        out.update({
            "job_s": sum(dur[i] for i in range(n) if self.parent[i] < 0),
            "jobs": calls[JOB],
            "rank.search_calls": calls["rank.search_s"],
            "rank.cover_calls": calls["rank.cover_s"],
            "tensor.mode_product_calls": calls["tensor.mode_product_s"],
            "tensor.mode_product_ops": self.mode_product_ops,
            "serialize.bytes_in": self.bytes_in,
            "serialize.bytes_out": self.bytes_out,
            "splitting.triangular_search_calls":
                nested / triangular_calls if triangular_calls else 0.0,
        })
        return out
