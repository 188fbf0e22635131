import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from tensq import cli, metagrp
from tensq.cli import main
from tensq.fpgrp import parse_presentation
from tensq.presentations import nu_presentation

DATA = Path(__file__).parent / "data"


def test_compute_ok(capsys):
    assert main(["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema_version"] == 1
    assert record["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
    assert record["tensor"]["invariant_factors"] == [6]
    assert record["exterior"]["invariant_factors"] == [3]
    assert record["nu_order_predicted"] == 216
    assert record["oracle"] is None
    assert record["nu_certification"] is None


def test_compute_golden_record(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    rc = main(
        [
            "compute",
            "--m", "9", "--n", "3", "--r", "4", "--s", "3",
            "--oracle",
            "--json", str(out_path),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert out_path.read_text() == text
    record = json.loads(text)
    record["timings"] = {}
    assert record == json.loads((DATA / "compute_9343.json").read_text())


def test_validation_exit_code(capsys):
    assert main(["compute", "--m", "10", "--n", "2", "--r", "3", "--s", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "odd" in err


def test_resource_exit_code(capsys):
    rc = main(["compute", "--m", "11", "--n", "20", "--r", "10", "--s", "0", "--oracle"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["emit", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--what", "bogus"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["batch", "--manifest", "jobs.json", "--max-order", "30"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["batch", "--manifest", "jobs.json", "--include-s-zero"])
    assert info.value.code == 64


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("tensq ")


def test_emit_native_matches_golden(capsys):
    rc = main(["emit", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--what", "nu"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text == (DATA / "nu_3220.txt").read_text()
    parsed = parse_presentation(text)
    assert parsed.relators == nu_presentation(metagrp.validate(3, 2, 2, 0)).relators


def test_emit_tensor_matches_golden(capsys):
    params = ["--m", "9", "--n", "3", "--r", "4", "--s", "3", "--what", "tensor"]
    assert main(["emit", *params]) == 0
    assert main(["emit", *params, "--format", "gap"]) == 0
    assert capsys.readouterr().out == (DATA / "tensor_9343.txt").read_text()


def test_emit_gap(capsys):
    rc = main(
        ["emit", "--m", "3", "--n", "2", "--r", "2", "--s", "0",
         "--what", "tensor", "--format", "gap"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "FreeGroup" in out
    assert "G := F / rels;;" in out


def test_verify_identities(capsys):
    rc = main(["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0",
               "--suite", "identities"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_all(capsys):
    rc = main(["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "nu order: enumerated 216 == predicted 216" in out


def test_verify_nu_inconclusive(capsys):
    rc = main(["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0",
               "--suite", "nu", "--max-cosets", "10"])
    assert rc == 3
    assert "[INCONCLUSIVE]" in capsys.readouterr().out


BIG = ["--m", "1000000007", "--n", "1000000006", "--r", "5", "--s", "0"]
# m is prime, so phi(m) = m - 1 = 4 * 11 * 22727272727272727 must be factored.
BIG_PRIME = ["--m", "999999999999999989", "--n", "999999999999999988", "--r", "2", "--s", "0"]
# m and (m - 1) / 2 pass Miller-Rabin above its proof bound: exit 3, no hang.
HUGE_PRIME = ["--m", "10000000000000000000001879", "--n", "10000000000000000000001878", "--r", "2", "--s", "0"]


def semiprime(p: int, q: int) -> list[str]:
    """The tuple g(pq, 2; pq - 1, 0), whose mult_order must factor m = pq."""
    return ["--m", str(p * q), "--n", "2", "--r", str(p * q - 1), "--s", "0"]


# Pollard rho splits two primes near 10^12 within its step budget; two
# near 10^18 exhaust it and exit 3 instead of running for hours.
SEMIPRIME = semiprime(999_999_999_989, 1_000_000_000_039)
HARD_SEMIPRIME = semiprime(999_999_999_999_999_989, 1_000_000_000_000_000_003)
# |nu(G)| would pass 4300 digits: n of 2201 digits exits 2.
OVERSIZED_N = ["--m", "3", "--n", str(10**2200), "--r", "2", "--s", "0"]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args, code",
    [
        (["compute", *BIG], 0),
        (["emit", *BIG, "--what", "nu"], 0),
        (["verify", *BIG, "--suite", "nu"], 3),
        (["compute", *BIG_PRIME], 0),
        (["compute", *HUGE_PRIME], 3),
        (["compute", *SEMIPRIME], 0),
        (["compute", *HARD_SEMIPRIME], 3),
        (["compute", *OVERSIZED_N], 2),
    ],
    ids=[
        "compute",
        "emit-nu",
        "verify-nu",
        "compute-prime-m",
        "compute-unprovable-prime-m",
        "compute-semiprime-m",
        "compute-unsplit-semiprime-m",
        "compute-oversized-n",
    ],
)
def test_big_tuple_runs_in_bounded_time_and_memory(args, code):
    # Every closed form on this tuple stays polylogarithmic in m and n:
    # the run gets 20 s and a 1 GiB address space.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tensq.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


SMALL = ["--m", "3", "--n", "2", "--r", "2", "--s", "0"]


@pytest.mark.parametrize(
    "args, cache_is_a_file",
    [
        (["compute", *SMALL, "--json", "{missing}"], False),
        (["batch", "--max-order", "30", "--out", "{missing}"], False),
        (["compute", *SMALL], True),
    ],
    ids=["compute-json", "batch-out", "cache-dir"],
)
def test_unwritable_path_exits_2(args, cache_is_a_file, tmp_path, monkeypatch, capsys):
    missing = tmp_path / "no-such-dir" / "out.json"
    if cache_is_a_file:
        cache = tmp_path / "cache"
        cache.write_text("")
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    assert main([a.format(missing=missing) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_batch_out_fails_before_the_first_record(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("a record was built before --out was opened")

    monkeypatch.setattr(cli, "build_run_record", fail)
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    missing = tmp_path / "no-such-dir" / "rows.jsonl"
    assert main(["batch", "--max-order", "30", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_batch_rows_are_written_as_each_tuple_finishes(tmp_path, monkeypatch, capsys):
    # A run that dies at the third tuple has already written and flushed
    # the first two rows as complete lines.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0], [9, 3, 4, 3], [7, 3, 2, 0]]}))
    out_path = tmp_path / "rows.jsonl"
    build = cli.build_run_record
    seen_on_disk = []

    def fail_at_third(params, with_oracle):
        if params.m == 7:
            seen_on_disk.append(out_path.read_text())
            raise RuntimeError("killed at the third tuple")
        return build(params, with_oracle)

    monkeypatch.setattr(cli, "build_run_record", fail_at_third)
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    with pytest.raises(RuntimeError):
        main(["batch", "--manifest", str(manifest), "--out", str(out_path)])
    (text,) = seen_on_disk
    assert text.endswith("\n")
    rows = [json.loads(line) for line in text.splitlines()]
    assert [row["params"] for row in rows] == [
        {"m": 3, "n": 2, "r": 2, "s": 0},
        {"m": 9, "n": 3, "r": 4, "s": 3},
    ]
    assert all(row["status"] == "ok" for row in rows)
    assert out_path.read_text() == text
    assert capsys.readouterr().out == ""


def test_batch_max_order(capsys):
    rc = main(["batch", "--max-order", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    expected = metagrp.enumerate_valid_tuples(30)
    assert len(rows) == len(expected) > 0
    assert [row["params"] for row in rows] == [{"m": p.m, "n": p.n, "r": p.r, "s": p.s} for p in expected]
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["record"]["oracle"] is None for row in rows)
    assert captured.err == (
        f"tuples: {len(rows)}  ok: {len(rows)}  mismatches: 0  errors: 0\n"
    )


def test_batch_empty_range(capsys):
    rc = main(["batch", "--max-order", "20"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tuples: 0  ok: 0  mismatches: 0  errors: 0\n"


def test_batch_manifest_with_bad_row(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0], [10, 2, 3, 0]]}))
    out_path = tmp_path / "rows.jsonl"
    rc = main(["batch", "--oracle", "--manifest", str(manifest), "--out", str(out_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "tuples: 2  ok: 1  mismatches: 0  errors: 1\n"
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert rows[0]["status"] == "ok"
    assert rows[0]["record"]["oracle"]["match"] is True
    assert rows[1]["status"] == "error"
    assert rows[1]["error"]["type"] == "OutOfScopeError"
    assert "odd" in rows[1]["error"]["message"]


def test_batch_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["batch", "--manifest", str(bad)]) == 2
    assert main(["batch", "--manifest", str(tmp_path / "missing.json")]) == 2
    assert main(["batch"]) == 2
    capsys.readouterr()
    for body, named in [
        ({"tuples": [[3, 2, 2, 0], [3, 2, 2]]}, "[3, 2, 2]"),
        ({"tuples": [[3, 2, "x", 0]]}, "'x'"),
        ({"tuples": 5}, "5"),
        ({"tuples": [[3, 2, 2, 0], 7]}, "7"),
        ({"max_order": 45}, "'max_order'"),
        ({"tuples": [[3, 2, 2, 0]], "oracle": True}, "'oracle'"),
        ({"tuples": [[3, 2, 2, 0]], "include_s_zero": False}, "'include_s_zero'"),
    ]:
        bad.write_text(json.dumps(body))
        assert main(["batch", "--manifest", str(bad)]) == 2, body
        err = capsys.readouterr().err
        assert err.startswith("error: manifest ") and named in err, (body, err)


def test_deeply_nested_manifest_exits_2(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000)
    assert main(["batch", "--manifest", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {bad}")


def test_deeply_nested_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.json")
    capsys.readouterr()
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
    assert path.read_text() == text


def test_cache_returns_stored_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    assert files[0].read_text() == first
    assert main(argv) == 0
    second = capsys.readouterr().out
    # Byte-identical timings prove the record came from the cache.
    assert second == first
    assert list(tmp_path.glob("*.json")) == files


def test_schema_version_is_in_the_cache_key(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    (old,) = tmp_path.glob("*.json")
    capsys.readouterr()
    monkeypatch.setattr(cli, "SCHEMA_VERSION", 2)
    assert main(argv) == 0
    text = capsys.readouterr().out
    (new,) = set(tmp_path.glob("*.json")) - {old}
    assert json.loads(text)["schema_version"] == 2
    assert new.read_text() == text


def test_truncated_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    # A truncated file does not parse; the other bodies parse but are not
    # a record.  Each is a miss, and the record is built and rewritten.
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.json")
    full = capsys.readouterr().out
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    for body in (full[:40], full[:-10], "{}", "[1, 2]", "null"):
        path.write_text(body)
        assert main(argv) == 0, body
        text = capsys.readouterr().out
        assert json.loads(text)["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
        assert json.loads(text).keys() == json.loads(full).keys()
        assert path.read_text() == text

        path.write_text(body)
        assert main(["batch", "--manifest", str(manifest)]) == 0, body
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["status"] == "ok"
        assert path.read_text() == json.dumps(row["record"], sort_keys=True, indent=2) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, manifest.name])


def test_verify_suites_match_golden(capsys):
    params = ["--m", "9", "--n", "3", "--r", "4", "--s", "3"]
    assert main(["verify", *params, "--suite", "identities"]) == 0
    assert main(["verify", *params, "--suite", "bounds"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_9343.txt").read_text()
