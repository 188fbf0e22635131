"""The benchmark's correctness gate, run on the benchmark's own panels.

perfbench/workloads.py reduces each `tensq verify` output and `tensq
batch` row to its semantic fields and compares their digests with the
ones pinned in perfbench/pinned.json.  A change that adds, removes or
renames a verify line, or moves a record's invariants, fails here
instead of only in a benchmark run.  The harness module is loaded by
path and only read; the commands run in-process.
"""

import importlib.util
import json
from pathlib import Path

from tensq.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def batch_digests(wl, tuples, flags, tmp_path):
    """Per-tuple semantic digests of one batch run over tuples; every row ok."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [list(t) for t in tuples]}))
    out = tmp_path / "rows.jsonl"
    assert main(["batch", *flags, "--manifest", str(manifest), "--out", str(out)]) == 0
    digests = {}
    for line in out.read_text().splitlines():
        k, digest, ok, _ = wl.batch_row_semantics(json.loads(line))
        assert ok, k
        digests[k] = digest
    assert sorted(digests) == sorted(map(wl.key, tuples))
    return digests


def test_verify_panel_matches_the_pinned_digests(monkeypatch, capsys):
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    wl = load_workloads()
    pinned = wl.load_pinned()
    for t in wl.VERIFY_PANEL:
        m, n, r, s = map(str, t)
        code = main(["verify", "--m", m, "--n", n, "--r", r, "--s", s, "--suite", "all"])
        digest, ok, _ = wl.verify_semantics(t, code, capsys.readouterr().out)
        assert ok, t
        assert digest == wl.expected_digest(pinned, f"verify:{wl.key(t)}"), t


def test_oracle_panel_matches_the_pinned_digests(monkeypatch, tmp_path):
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    wl = load_workloads()
    pinned = wl.load_pinned()
    digests = batch_digests(wl, wl.ORACLE_PANEL, ["--oracle"], tmp_path)
    for t in wl.ORACLE_PANEL:
        k = wl.key(t)
        assert wl.group_digest(digests, [k]) == wl.expected_digest(pinned, f"oracle:{k}"), t


def test_closed_form_block_matches_its_pinned_digest(monkeypatch, tmp_path):
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    wl = load_workloads()
    pinned = wl.load_pinned()
    block = [t for i, t in enumerate(wl.population()) if i % wl.BLOCKS == 0]
    digests = batch_digests(wl, block, [], tmp_path)
    keys = [wl.key(t) for t in block]
    assert wl.group_digest(digests, keys) == wl.expected_digest(pinned, "block0")
