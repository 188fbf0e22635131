"""Traced run of one tensq CLI command.

Usage: python3 perfbench/tracer.py TRACE.json ARG...

Runs ``tensq ARG...`` in this process after wrapping the public
functions of each tensq module from the outside (the package is not
edited), then writes the spans, the per-parent aggregates and the
counters to TRACE.json and exits with the command's exit code.

A span is (name, start, end, parent span index, tuple id).  The tuple
id is the parameter tuple of the latest ``metagrp.validate`` call.
High-frequency calls are not spans: each (parent span, name) pair keeps
a count and a total time.  Wrapped functions called inside an
aggregated call run unwrapped, so no time is counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SPANNED = {
    "numth": ["mult_order", "geom_sum", "geom_sum_mod", "capital_k"],
    "metagrp": [
        "validate",
        "derived_invariants",
        "elements",
        "power",
        "derived_subgroup",
        "coset_order",
    ],
    "abgrp": [
        "quotient_structure",
        "quotient_from_lattice",
        "smith_normal_form",
        "element_order",
        "lattice_member",
        "RowLattice.copy",
        "RowLattice.clear_unit_columns",
    ],
    "presentations": [
        "exterior_and_schur",
        "tensor_descriptor",
        "tensor_structure",
        "exterior_order",
        "upsilon_order_bounds",
        "nu_presentation",
        "tensor_presentation",
        "presentation_to_text",
        "presentation_to_gap",
    ],
    "oracle": [
        "build_tensor_oracle",
        "exterior_oracle",
        "oracle_schur_order",
        "verify_identities",
        "verify_bounds",
    ],
    "fpgrp": ["parse_presentation", "todd_coxeter", "certify_nu_order"],
    "cli": ["main", "cmd_compute", "cmd_verify", "cmd_emit", "cmd_batch", "build_run_record"],
}
AGGREGATED = {
    "metagrp": ["mul", "conj"],
    "abgrp": ["RowLattice.insert", "RowLattice.contains"],
    "fpgrp": ["CosetTable.merge"],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.agg: dict[tuple[int, str], list] = {}
        self.agg_depth = 0
        self.tuple_id = ""
        self.counters: dict[str, int] = {}
        self.per_tuple: dict[str, dict] = {}

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        row = self.per_tuple.setdefault(self.tuple_id, {})
        row[name] = row.get(name, 0) + value

    def spanned(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.agg_depth:
                return fn(*args, **kwargs)
            if pre:
                pre(self, args)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.tuple_id)
            if post:
                post(self, result)
            return result

        return wrapper

    def aggregated(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.agg_depth:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            self.agg_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.agg_depth -= 1
                slot = self.agg.get((parent, name))
                if slot is None:
                    slot = self.agg[(parent, name)] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "agg": [[p, name, c, t] for (p, name), (c, t) in self.agg.items()],
            "counters": self.counters,
            "per_tuple": self.per_tuple,
        }


def _set_tuple(tr, args):
    tr.tuple_id = ",".join(str(x) for x in args[:4])


def _oracle_counters(tr, model):
    pivots = model.handle.lattice.pivots
    tr.count("abgrp.pivots", len(pivots))
    tr.count("abgrp.unit_pivots", sum(1 for j, row in pivots.items() if row[j] == 1))
    tr.count("abgrp.core_dim", len(model.handle.core_columns))
    bits = max((abs(v).bit_length() for row in pivots.values() for v in row.values()), default=0)
    tr.per_tuple.setdefault(tr.tuple_id, {})["abgrp.max_coeff_bits"] = bits
    tr.counters["abgrp.max_coeff_bits"] = max(tr.counters.get("abgrp.max_coeff_bits", 0), bits)
    tr.count("oracle.raw_rows", model.raw_rows)
    tr.count("oracle.distinct_rows", model.distinct_rows)


def _suite_counters(tr, report):
    tr.count("oracle.suite_instances", sum(c.instances for c in report.checks))
    tr.count("oracle.suite_failed", report.failed_instances)


def _enumeration_counters(tr, result):
    tr.count("fpgrp.cosets_used", result.cosets_used)
    tr.count("fpgrp.nu_order", result.order or 0)


HOOKS = {
    "metagrp.validate": {"pre": _set_tuple},
    "oracle.build_tensor_oracle": {"post": _oracle_counters},
    "oracle.verify_identities": {"post": _suite_counters},
    "oracle.verify_bounds": {"post": _suite_counters},
    "fpgrp.todd_coxeter": {"post": _enumeration_counters},
}


def install(tr: Tracer) -> None:
    """Wrap every listed function wherever a tensq module binds it."""
    import importlib

    modules = {name: importlib.import_module(f"tensq.{name}") for name in SPANNED}
    coset_table = modules["fpgrp"].CosetTable
    merge = coset_table.merge

    @functools.wraps(merge)
    def counted_merge(self, k, l):
        live = self.live
        merge(self, k, l)
        if self.live < live:
            tr.counters["fpgrp.coincidences"] = tr.counters.get("fpgrp.coincidences", 0) + 1

    coset_table.merge = counted_merge

    def wrap(layer, attr, make):
        mod = modules[layer]
        name = f"{layer}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(name, getattr(cls, meth), **HOOKS.get(name, {})))
            return
        original = getattr(mod, attr)
        wrapper = make(name, original, **HOOKS.get(name, {}))
        for other in modules.values():
            for binding, value in list(vars(other).items()):
                if value is original:
                    setattr(other, binding, wrapper)

    for layer, attrs in SPANNED.items():
        for attr in attrs:
            wrap(layer, attr, tr.spanned)
    for layer, attrs in AGGREGATED.items():
        for attr in attrs:
            wrap(layer, attr, tr.aggregated)


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    from tensq import cli

    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 64
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
