"""Every function the benchmark tracer wraps by name must still exist,
a traced run must still fill the counters its hooks read, and a traced
manifest batch must still record its spans.

perfbench/tracer.py wraps tensq functions from outside the package, so
renaming or deleting one would otherwise only surface in a traced
benchmark run.  The name check loads the module by path without calling
install(); the smoke tests run the tracer in a child process.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve_to_callables():
    tracer = load_tracer()
    for table in (tracer.SPANNED, tracer.AGGREGATED):
        for layer, attrs in table.items():
            target = importlib.import_module(f"tensq.{layer}")
            for attr in attrs:
                obj = target
                for part in attr.split("."):
                    obj = getattr(obj, part, None)
                assert callable(obj), f"tensq.{layer}.{attr}"


def run_traced(tmp_path, *args) -> dict:
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TENSQ_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, str(TRACER), str(trace), *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_traced_verify_run_fills_the_hook_counters(tmp_path):
    # The hooks read attributes of oracle models, suite reports and
    # enumeration results, which only a traced run reaches; coincidences
    # are counted only if the enumeration merges through CosetTable.merge.
    args = ["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--suite", "all"]
    counters = run_traced(tmp_path, *args)["counters"]
    names = ("abgrp.pivots", "abgrp.core_dim", "oracle.raw_rows", "oracle.suite_instances", "fpgrp.cosets_used",
             "fpgrp.coincidences")
    for name in names:
        assert name in counters, name


def test_traced_manifest_batch_records_its_spans(tmp_path):
    # Three of the four benchmark workloads run batch --manifest.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0], [9, 3, 4, 3]]}))
    args = ["batch", "--manifest", str(manifest), "--out", str(tmp_path / "rows.jsonl")]
    names = [span[0] for span in run_traced(tmp_path, *args)["spans"]]
    assert names.count("cli.cmd_batch") == 1
    assert names.count("cli.build_run_record") == 2

    # With --oracle, cli imports the oracle inside build_run_record; its
    # calls must still reach the functions the tracer wrapped.
    names = [span[0] for span in run_traced(tmp_path, *args, "--oracle")["spans"]]
    assert names.count("cli.build_run_record") == 2
    assert names.count("oracle.build_tensor_oracle") == 2


def test_traced_compute_records_the_abgrp_spans(tmp_path):
    # The closed forms read G (x) G off one Smith form of the eight
    # tensor relations and build no lattice; the closed-form-sweep
    # abgrp.* per-layer metrics read these spans.
    args = ["compute", "--m", "9", "--n", "3", "--r", "4", "--s", "3"]
    names = [span[0] for span in run_traced(tmp_path, *args)["spans"]]
    assert names.count("abgrp.smith_normal_form") == 1
    assert names.count("abgrp.quotient_structure") == 0
    assert names.count("abgrp.quotient_from_lattice") == 0

    # With --oracle the tensor and exterior lattices each reach
    # quotient_from_lattice, which takes the Smith form of its core;
    # the oracle-crosscheck per-layer metrics read these spans.
    spans = run_traced(tmp_path, *args, "--oracle")["spans"]
    parents = sorted(spans[span[3]][0] for span in spans if span[0] == "abgrp.quotient_from_lattice")
    assert parents == ["oracle.build_tensor_oracle", "oracle.exterior_oracle"]
    snf_parents = sorted(spans[span[3]][0] for span in spans if span[0] == "abgrp.smith_normal_form")
    assert snf_parents == ["abgrp.quotient_from_lattice"] * 2 + ["presentations.tensor_structure"]
