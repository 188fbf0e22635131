import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from tensq import cli, metagrp
from tensq.cli import main
from tensq.fpgrp import parse_presentation
from tensq.presentations import nu_presentation
from support import enumerate_valid_tuples

DATA = Path(__file__).parent / "data"


def test_compute_ok(capsys):
    assert main(["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema_version"] == cli.SCHEMA_VERSION == 3
    assert record["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
    assert record["tensor"]["invariant_factors"] == [6]
    assert record["exterior"]["invariant_factors"] == [3]
    assert record["nu_order_predicted"] == 216
    assert record["oracle"] is None
    assert "nu_certification" not in record


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


def test_record_holds_only_json_types():
    # json encodes any tuple, a value type included, as a list without
    # complaint, so the record is checked before it is encoded.
    def walk(node):
        assert type(node) in (dict, list, str, int, float, bool, type(None)), repr(node)
        for child in node.values() if type(node) is dict else node if type(node) is list else ():
            walk(child)

    walk(cli.build_run_record(metagrp.validate(9, 3, 4, 3), True))


def test_validation_exit_code(monkeypatch, capsys):
    assert main(["compute", "--m", "10", "--n", "2", "--r", "3", "--s", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "odd" in err

    # 300 seeded argument lists: half a valid tuple with |G| <= 30, half
    # with fields replaced by 0, negative or 31-digit values, some with a
    # stray token.  Each returns or exits with a documented code.
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    rng = random.Random(31)
    valid = enumerate_valid_tuples(30, include_s_zero=True)
    stray = ["--bogus", "x", "--m", "--oracle", "-3", "--what", "--max-cosets", "--suite", "--"]
    codes = set()
    for _ in range(300):
        p = rng.choice(valid)
        values = [p.m, p.n, p.r, p.s]
        if rng.random() < 0.5:
            for i in rng.sample(range(4), rng.randint(1, 4)):
                values[i] = rng.choice(
                    [0, rng.randint(-40, -1), rng.choice([-1, 1]) * rng.randrange(10**30, 10**31)]
                )
        command = rng.choice(["compute", "compute", "emit", "verify"])
        argv = [command]
        for name, value in zip(("--m", "--n", "--r", "--s"), values):
            argv += [name, str(value)]
        if command == "verify":
            argv += ["--suite", rng.choice(["identities", "bounds", "nu", "all"])]
            argv += ["--max-cosets", str(rng.choice([-1, 0, 5, 20000]))]
        elif command == "emit":
            argv += ["--what", rng.choice(["nu", "tensor"])]
        if rng.random() < 0.25:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(stray))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4, 64), argv
        codes.add(code)
    assert {0, 2, 64} <= codes, codes


def test_resource_exit_code(capsys):
    rc = main(["compute", "--m", "11", "--n", "100", "--r", "10", "--s", "0", "--oracle"])
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
    capsys.readouterr()
    # A bound of 0 or less is a usage error, not an empty or inconclusive run.
    for argv in (
        ["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--suite", "nu", "--max-cosets", "-1"],
        ["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--suite", "nu", "--max-cosets", "0"],
        ["batch", "--max-order", "-5"],
        ["batch", "--max-order", "0"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be a positive integer, got '{argv[-1]}'" in captured.err


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
    for bound in ("10", "1"):
        rc = main(["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0",
                   "--suite", "nu", "--max-cosets", bound])
        assert rc == 3
        out = capsys.readouterr().out
        assert "[INCONCLUSIVE]" in out
        assert f"within {bound} cosets" in out


BIG = ["--m", "1000000007", "--n", "1000000006", "--r", "5", "--s", "0"]
# Prime m of 18 and 26 digits with n = m - 1; no closed form factors m or phi(m).
BIG_PRIME = ["--m", "999999999999999989", "--n", "999999999999999988", "--r", "2", "--s", "0"]
HUGE_PRIME = ["--m", "10000000000000000000001879", "--n", "10000000000000000000001878", "--r", "2", "--s", "0"]
# A 400-digit m; |G| is far past the coset bound, so verify --suite nu
# is INCONCLUSIVE.
DIGITS_400 = ["--m", str(10**399 + 1), "--n", "2", "--r", str(10**399), "--s", "0"]


def semiprime(p: int, q: int) -> list[str]:
    """The tuple g(pq, 2; pq - 1, 0), with m the product of two large primes."""
    return ["--m", str(p * q), "--n", "2", "--r", str(p * q - 1), "--s", "0"]


# Two primes near 10^12, and two near 10^18 that no quick factoring splits.
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
        (["compute", *HUGE_PRIME], 0),
        (["compute", *SEMIPRIME], 0),
        (["compute", *HARD_SEMIPRIME], 0),
        (["compute", *OVERSIZED_N], 2),
        (["compute", *DIGITS_400], 0),
        (["emit", *DIGITS_400, "--what", "nu"], 0),
        (["verify", *DIGITS_400, "--suite", "nu"], 3),
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
        "compute-400-digit-m",
        "emit-nu-400-digit-m",
        "verify-nu-400-digit-m",
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


@pytest.mark.parametrize("unusable", ["json-path", "cache-dir"])
def test_compute_output_fails_before_the_record(unusable, tmp_path, monkeypatch, capsys):
    # An unusable --json path or cache directory exits 2 before any work:
    # nothing is built and nothing reaches stdout.
    built = []

    def fail(*args):
        built.append(args)
        raise AssertionError("a record was built before its output was checked")

    def refuse(*args, **kwargs):
        raise PermissionError("cache directory refused")

    monkeypatch.setattr(cli, "build_run_record", fail)
    argv = ["compute", "--m", "63", "--n", "3", "--r", "4", "--s", "0", "--oracle"]
    if unusable == "json-path":
        monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
        argv += ["--json", str(tmp_path / "no-such-dir" / "x.json")]
    else:
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(os, "makedirs", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert built == []


def test_failed_compute_keeps_an_existing_json_file(tmp_path, monkeypatch, capsys):
    # The --json file is emptied only once the record is ready: a run that
    # fails after the path check (exit 3) leaves an existing file's bytes,
    # and a good run then replaces all of them with the record.
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    path = tmp_path / "record.json"
    old = '{"old": 1}\n' * 1000
    path.write_text(old)
    argv = ["compute", "--m", "11", "--n", "100", "--r", "10", "--s", "0", "--oracle", "--json", str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""
    assert path.read_text() == old
    assert main(["compute", *SMALL, "--json", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out
    # A file that cannot be truncated still takes the record.
    assert main(["compute", *SMALL, "--json", os.devnull]) == 0


def test_failed_compute_leaves_no_new_json_file(tmp_path, monkeypatch, capsys):
    # A run that fails after the path check (exit 3) removes the --json
    # file its open created: nothing that is not a record is left there.
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    path = tmp_path / "fresh.json"
    argv = ["compute", "--m", "11", "--n", "100", "--r", "10", "--s", "0", "--oracle", "--json", str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""
    assert not path.exists()


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
    expected = enumerate_valid_tuples(30)
    assert len(rows) == len(expected) > 0
    assert [row["params"] for row in rows] == [{"m": p.m, "n": p.n, "r": p.r, "s": p.s} for p in expected]
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["record"]["oracle"] is None for row in rows)
    assert captured.err == (
        f"tuples: {len(rows)}  ok: {len(rows)}  mismatches: 0  errors: 0\n"
    )


def test_batch_empty_range(capsys):
    # No valid tuple has |G| <= 20 with s > 0, and no group at all has |G| <= 5.
    for bound in ("20", "5"):
        rc = main(["batch", "--max-order", bound])
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


def _random_json(rng, depth=0):
    """A seeded JSON value: nested lists and dicts of small ints, floats,
    strings, bools and null, with manifest-like keys and rows mixed in."""
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return rng.randint(-5, 50)
    if kind == 1:
        return rng.uniform(-5, 50)
    if kind == 2:
        return rng.choice(["", "x", "3", "tuples"])
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return [rng.randint(-5, 50) for _ in range(4)]
    if kind == 6:
        keys = ["tuples", "tuples", "max_order", "x"]
        return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(rng.randrange(3))}
    return [_random_json(rng, depth + 1) for _ in range(rng.randrange(5))]


def test_batch_rejects_bad_manifest(tmp_path, monkeypatch, capsys):
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

    # Seeded random manifests: every one gives exit 0, 1 or 2, and no
    # exception escapes main.
    monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
    rng = random.Random(13)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(200):
        value = _random_json(rng)
        rows = [[rng.randint(-5, 50) for _ in range(4)] for _ in range(rng.randrange(4))]
        body = rng.choice([value, {"tuples": value}, {"tuples": rows}])
        bad.write_text(json.dumps(body))
        code = main(["batch", "--manifest", str(bad)])
        assert code in (0, 1, 2), body
        codes[code] += 1
        capsys.readouterr()
    assert all(codes.values()), codes


def test_deeply_nested_manifest_exits_2(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000)
    assert main(["batch", "--manifest", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {bad}")


def _body(path):
    """A cache file's record body, the text after its seal line."""
    return path.read_text().partition("\n")[2]


def _one_line(text):
    """The one-line canonical form of a printed record, as a cache file stores it."""
    return json.dumps(json.loads(text), sort_keys=True)


def test_edited_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    # The body is edited and the seal line kept: the seal no longer
    # matches, so the true record is built again and the file rewritten.
    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    (path,) = cache.glob("*.json")
    capsys.readouterr()
    edited = json.loads(_body(path))
    edited["tensor"]["invariant_factors"] = [7]
    edited["nu_order_predicted"] = "x"
    forged = path.read_text().partition("\n")[0] + "\n" + json.dumps(edited, sort_keys=True)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))

    path.write_text(forged)
    assert main(argv) == 0
    text = capsys.readouterr().out
    record = json.loads(text)
    assert record["tensor"]["invariant_factors"] == [6]
    assert record["nu_order_predicted"] == 216
    assert _body(path) == _one_line(text)

    path.write_text(forged)
    assert main(["batch", "--manifest", str(manifest)]) == 0
    (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert row["status"] == "ok"
    assert row["record"]["tensor"]["invariant_factors"] == [6]
    assert row["record"]["nu_order_predicted"] == 216
    assert _body(path) == json.dumps(row["record"], sort_keys=True)


def test_moved_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    # The seal covers the key, so a file copied onto another tuple's path,
    # or onto the other oracle flag's path, is a miss there and is rewritten.
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))

    def cached(args):
        before = set(tmp_path.glob("*.json"))
        assert main(["compute", *args]) == 0
        (path,) = set(tmp_path.glob("*.json")) - before
        capsys.readouterr()
        return path

    def untimed(text):
        record = json.loads(text)
        del record["timings"]
        return record

    small = ["--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    source = cached(small)
    for args in (["--m", "7", "--n", "3", "--r", "2", "--s", "0"], [*small, "--oracle"]):
        target = cached(args)
        stored = _body(target)
        target.write_bytes(source.read_bytes())
        assert main(["compute", *args]) == 0
        text = capsys.readouterr().out
        assert untimed(text) == untimed(stored)
        assert _body(target) == _one_line(text)
    assert len(list(tmp_path.glob("*.json"))) == 3


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
    assert _body(path) == _one_line(text)


def test_cache_returns_stored_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    assert _body(files[0]) == _one_line(first)
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
    monkeypatch.setattr(cli, "SCHEMA_VERSION", cli.SCHEMA_VERSION + 1)
    assert main(argv) == 0
    text = capsys.readouterr().out
    (new,) = set(tmp_path.glob("*.json")) - {old}
    assert json.loads(text)["schema_version"] == cli.SCHEMA_VERSION
    assert _body(new) == _one_line(text)


def test_truncated_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    # Neither a truncated file, sealed or not, nor an unsealed body carries
    # a matching seal line.  Each is a miss, and the record is built and
    # rewritten.
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.json")
    full = capsys.readouterr().out
    stored = path.read_text()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    # A schema-1 record: it carries nu_certification and schema_version 1.
    schema_1 = dict(json.loads(full), nu_certification=None, schema_version=1)
    # Proper prefixes, short of the closing brace (full[:-1] still parses).
    prefixes = [full[:k] for k in random.Random(7).sample(range(len(full) - 1), 50)]
    # Proper prefixes of the sealed file, down to one short of its closing brace.
    prefixes += [stored[:k] for k in random.Random(11).sample(range(len(stored)), 50)]
    bodies = [full[:40], full[:-10], "{}", "[1, 2]", "null", cli._record_json(schema_1)]
    for body in bodies + prefixes:
        path.write_text(body)
        assert main(argv) == 0, body
        text = capsys.readouterr().out
        assert json.loads(text)["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
        assert json.loads(text).keys() == json.loads(full).keys()
        assert _body(path) == _one_line(text)

        path.write_text(body)
        assert main(["batch", "--manifest", str(manifest)]) == 0, body
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["status"] == "ok"
        assert _body(path) == json.dumps(row["record"], sort_keys=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, manifest.name])


# Cache file names of (3, 2, 2, 0) without and with --oracle.  They move
# only when the schema or tool version does, so an existing cache keeps
# its paths.
PINNED_KEYS = {
    False: "95b8f5e74c712bfb37e65c905bf7d4333216a9f1f96adf84b0b2e11c6ed84469",
    True: "d10776793a991943d7c65d582c041896dc18b7f32882fa833aaa2a0f3885fe93",
}


def test_cache_keys_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    for oracle, key in PINNED_KEYS.items():
        before = set(tmp_path.iterdir())
        assert main(["compute", *SMALL, *(["--oracle"] if oracle else [])]) == 0
        assert set(tmp_path.iterdir()) - before == {tmp_path / f"{key}.json"}
    capsys.readouterr()


def _seal_body(key, body):
    """A cache file holding body under a valid seal for key."""
    seal = hashlib.sha256(key.encode("ascii") + body.encode("ascii")).hexdigest()
    return seal + "\n" + body


def test_cache_key_text_is_the_json_payload(monkeypatch):
    # The key text is formatted directly.  It must stay the bytes
    # json.dumps gives for the payload, or every tuple but the pinned one
    # would move to a new cache file.
    from tensq import __version__

    tuples = [(3, 2, 2, 0), (9, 3, 4, 3), (10**399 + 1, 2, 10**399, 0)]
    for schema in (cli.SCHEMA_VERSION, cli.SCHEMA_VERSION + 1):
        monkeypatch.setattr(cli, "SCHEMA_VERSION", schema)
        for tup in tuples:
            params = metagrp.validate(*tup)
            for oracle in (False, True):
                payload = {
                    "m": params.m,
                    "n": params.n,
                    "r": params.r,
                    "s": params.s,
                    "oracle": oracle,
                    "schema_version": schema,
                    "version": __version__,
                }
                assert cli._cache_key_text(params, oracle) == json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
def test_sealed_body_that_is_no_record_is_a_miss(oracle, tmp_path, monkeypatch, capsys):
    # The seal's key is the file name, so anyone can seal a body.  A sealed
    # body that parses but has not the oracle entry the command reads is a
    # miss for compute and for batch: the true record is built once and
    # the file rewritten.
    flags = ["--oracle"] if oracle else []
    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    assert main(["compute", *SMALL, *flags]) == 0
    true_record = json.loads(capsys.readouterr().out)
    path = cache / f"{PINNED_KEYS[oracle]}.json"
    # The true record with the other flag's oracle entry.
    swapped = dict(true_record, oracle=None if oracle else {"match": True})
    bodies = ["[1]", "null", "{}", '{"oracle": 1}', '{"oracle": {}}', '{"oracle": {"match": 1}}']
    bodies.append(json.dumps(swapped, sort_keys=True))
    del true_record["timings"]
    build = cli.build_run_record
    built = []
    monkeypatch.setattr(cli, "build_run_record", lambda *args: built.append(args) or build(*args))
    for body in bodies:
        for argv in (["compute", *SMALL, *flags], ["batch", *flags, "--manifest", str(manifest)]):
            path.write_text(_seal_body(path.stem, body))
            assert main(argv) == 0, (body, argv)
            out = json.loads(capsys.readouterr().out)
            if argv[0] == "batch":
                assert out["status"] == "ok"
                out = out["record"]
            assert _body(path) == json.dumps(out, sort_keys=True)
            del out["timings"]
            assert out == true_record, (body, argv)
            assert len(built) == 1, (body, argv)
            built.clear()


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
def test_sealed_record_of_another_tuple_is_a_miss(oracle, tmp_path, monkeypatch, capsys):
    # A body sealed under this tuple's key is served only if its params
    # block is this tuple's: a forged body that holds nothing but the
    # oracle entry, and the true record of another tuple, are misses for
    # compute and for batch.
    flags = ["--oracle"] if oracle else []
    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    assert main(["compute", *SMALL, *flags]) == 0
    true_record = json.loads(capsys.readouterr().out)
    del true_record["timings"]
    assert main(["compute", "--m", "7", "--n", "3", "--r", "2", "--s", "0", *flags]) == 0
    other = json.loads(capsys.readouterr().out)
    assert other["params"] != true_record["params"]
    path = cache / f"{PINNED_KEYS[oracle]}.json"
    forged = json.dumps({"oracle": {"match": True} if oracle else None})
    build = cli.build_run_record
    built = []
    monkeypatch.setattr(cli, "build_run_record", lambda *args: built.append(args) or build(*args))
    for body in (forged, json.dumps(other, sort_keys=True)):
        for argv in (["compute", *SMALL, *flags], ["batch", *flags, "--manifest", str(manifest)]):
            path.write_text(_seal_body(path.stem, body))
            assert main(argv) == 0, (body, argv)
            out = json.loads(capsys.readouterr().out)
            if argv[0] == "batch":
                assert out["status"] == "ok"
                out = out["record"]
            assert _body(path) == json.dumps(out, sort_keys=True)
            del out["timings"]
            assert out == true_record, (body, argv)
            assert len(built) == 1, (body, argv)
            built.clear()


def test_cache_file_over_the_limit_is_a_miss(tmp_path, monkeypatch, capsys):
    # A sealed record padded with spaces, which json.loads skips, one byte
    # past CACHE_FILE_LIMIT: it is not read, and the record is built once
    # and the file rewritten in the canonical one-line form.
    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    assert main(["compute", *SMALL]) == 0
    cold = capsys.readouterr().out
    path = cache / f"{PINNED_KEYS[False]}.json"
    canonical = path.read_bytes()
    padding = cli.CACHE_FILE_LIMIT + 1 - len(canonical)
    path.write_text(_seal_body(path.stem, _body(path) + " " * padding))
    assert path.stat().st_size == cli.CACHE_FILE_LIMIT + 1
    build = cli.build_run_record
    built = []
    monkeypatch.setattr(cli, "build_run_record", lambda *args: built.append(args) or build(*args))
    assert main(["compute", *SMALL]) == 0
    text = capsys.readouterr().out
    assert _untimed(text) == _untimed(cold)
    assert len(built) == 1
    assert path.read_text() == _seal_body(path.stem, _one_line(text))


@pytest.mark.parametrize("command", ["compute", "batch"])
def test_directory_at_a_cache_file_path_exits_2(command, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    path = cache / f"{PINNED_KEYS[False]}.json"
    path.mkdir(parents=True)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    argv = ["compute", *SMALL] if command == "compute" else ["batch", "--manifest", str(manifest)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="makes a named pipe")
def test_fifo_at_a_cache_file_path_is_a_miss(tmp_path, monkeypatch, capsys):
    # A FIFO with no writer at the cache file's path reads as an empty
    # file, a miss, and is replaced by the sealed record, which the rerun
    # hits.  The first run is a child process, so a blocking open fails
    # the test on its timeout instead of stalling the suite.
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"{PINNED_KEYS[False]}.json"
    os.mkfifo(path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), TENSQ_CACHE_DIR=str(cache))
    proc = subprocess.run(
        [sys.executable, "-m", "tensq.cli", "compute", *SMALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert path.is_file()
    assert path.read_text() == _seal_body(path.stem, _one_line(proc.stdout))

    def fail(*args):
        raise AssertionError("a record was built on a warm cache")

    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    monkeypatch.setattr(cli, "build_run_record", fail)
    assert main(["compute", *SMALL]) == 0
    assert capsys.readouterr().out == proc.stdout


def test_short_reads_still_hit(tmp_path, monkeypatch, capsys):
    # A cache file that arrives a few bytes per read is read whole and is
    # a hit: no record is built and the stored bytes are printed.
    def fail(*args):
        raise AssertionError("a record was built on a warm cache")

    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    assert main(["compute", *SMALL]) == 0
    cold = capsys.readouterr().out
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 7)))
    monkeypatch.setattr(cli, "build_run_record", fail)
    assert main(["compute", *SMALL]) == 0
    assert capsys.readouterr().out == cold


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc/self/fd")
def test_warm_batch_leaves_no_descriptor_open(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
    manifest = tmp_path / "manifest.json"
    tuples = [[p.m, p.n, p.r, p.s] for p in enumerate_valid_tuples(80)]
    assert len(tuples) >= 50
    manifest.write_text(json.dumps({"tuples": tuples}))
    argv = ["batch", "--manifest", str(manifest)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    before = len(os.listdir("/proc/self/fd"))
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert len(os.listdir("/proc/self/fd")) == before


def _untimed(text):
    """Every record or row in text, with each timings block emptied."""
    return re.sub(r'"timings": \{[^}]*\}', '"timings": {}', text)


def test_indented_cache_body_is_a_miss(tmp_path, monkeypatch, capsys):
    # Earlier versions stored the indented record under the same seal and
    # key.  Such a file is a miss for compute and for batch: it is
    # rewritten once in the one-line form, and the output does not change.
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    assert main(["compute", *SMALL]) == 0
    cold = capsys.readouterr().out
    (path,) = (tmp_path / "cache").glob("*.json")
    assert path.stem == PINNED_KEYS[False]
    assert main(["batch", "--manifest", str(manifest)]) == 0
    cold_row = capsys.readouterr().out
    indented = _seal_body(path.stem, cli._record_json(json.loads(cold)))
    build = cli.build_run_record
    built = []
    monkeypatch.setattr(cli, "build_run_record", lambda *args: built.append(args) or build(*args))
    for argv, expected in ((["compute", *SMALL], cold), (["batch", "--manifest", str(manifest)], cold_row)):
        path.write_text(indented)
        assert main(argv) == 0
        rewritten = capsys.readouterr().out
        assert _untimed(rewritten) == _untimed(expected)
        assert len(built) == 1
        built.clear()
        assert path.read_text() == _seal_body(path.stem, _body(path))
        assert "\n" not in _body(path)
        stat = path.stat()
        assert main(argv) == 0
        assert capsys.readouterr().out == rewritten
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


def _rows_of(argv, out_path, capsys):
    """The rows and summary of one batch run, written to out_path or stdout."""
    code = main([*argv, "--out", str(out_path)] if out_path else argv)
    captured = capsys.readouterr()
    if out_path:
        return code, out_path.read_text(), captured.out
    return code, captured.out, captured.err


def test_batch_rows_are_the_same_with_and_without_the_cache(tmp_path, monkeypatch, capsys):
    # ok rows, an error row, and with --oracle a mismatch forced by a wrong
    # Schur order for m = 7: the rows are byte-identical apart from timings
    # with no cache, from a cold cache and from a warm one, on stdout and
    # through --out, and each is the canonical encoding of the row.
    from tensq import oracle

    true_schur_order = oracle.oracle_schur_order

    def schur_order(model):
        return true_schur_order(model) + (model.params.m == 7)

    monkeypatch.setattr(oracle, "oracle_schur_order", schur_order)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0], [10, 2, 3, 0], [7, 3, 2, 0], [9, 3, 4, 3]]}))
    for flags, statuses in (([], ["ok", "error", "ok", "ok"]), (["--oracle"], ["ok", "error", "mismatch", "ok"])):
        argv = ["batch", *flags, "--manifest", str(manifest)]
        runs = []
        for cache, out in [(None, None), (None, "rows.jsonl"), ("a", None), ("b", "rows.jsonl")] * 2:
            if cache:
                monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / (cache + "".join(flags))))
            else:
                monkeypatch.delenv("TENSQ_CACHE_DIR", raising=False)
            runs.append(_rows_of(argv, out and tmp_path / out, capsys))
        summary = f"tuples: 4  ok: {statuses.count('ok')}  mismatches: {statuses.count('mismatch')}  errors: 1\n"
        for code, rows, summary_text in runs:
            assert (code, summary_text) == (1, summary)
            assert _untimed(rows) == _untimed(runs[0][1])
        lines = runs[0][1].splitlines()
        assert [json.loads(line)["status"] for line in lines] == statuses
        assert all(json.dumps(json.loads(line), sort_keys=True) == line for line in lines)
        # The warm runs replay the cold runs' rows, timings included.
        assert runs[6][1] == runs[2][1] and runs[7][1] == runs[3][1]


def test_warm_batch_builds_no_record(tmp_path, monkeypatch, capsys):
    # A second batch over a filled cache builds no record, rewrites no
    # cache file, and replays the cold pass's rows byte for byte.
    def fail(*args):
        raise AssertionError("a record was built on a warm cache")

    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    manifest = tmp_path / "manifest.json"
    tuples = [[p.m, p.n, p.r, p.s] for p in enumerate_valid_tuples(30)] + [[3, 2, 2, 0], [10, 2, 3, 0]]
    manifest.write_text(json.dumps({"tuples": tuples}))
    for flags in ([], ["--oracle"]):
        argv = ["batch", *flags, "--manifest", str(manifest)]
        cold = _rows_of(argv, None, capsys)
        files = {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()}
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_run_record", fail)
            assert _rows_of(argv, None, capsys) == cold
        assert {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()} == files
    assert len(files) == 2 * (len(tuples) - 1)


def test_compute_from_the_cache_matches_golden(tmp_path, monkeypatch, capsys):
    # A cache hit prints the bytes the cold compute printed, timings
    # included, and both match the golden record.
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["compute", "--m", "9", "--n", "3", "--r", "4", "--s", "3", "--oracle"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main([*argv, "--json", str(tmp_path / "record.json")]) == 0
    assert capsys.readouterr().out == cold == (tmp_path / "record.json").read_text()
    record = json.loads(cold)
    record["timings"] = {}
    assert record == json.loads((DATA / "compute_9343.json").read_text())


@pytest.mark.parametrize("command", ["compute", "batch"])
def test_failed_cache_write_leaves_no_temporary_file(command, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise OSError("rename refused")

    cache = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    monkeypatch.setattr(os, "replace", refuse)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))
    argv = ["compute", *SMALL] if command == "compute" else ["batch", "--manifest", str(manifest)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: rename refused\n"
    assert list(cache.iterdir()) == []


def test_verify_suites_match_golden(capsys):
    params = ["--m", "9", "--n", "3", "--r", "4", "--s", "3"]
    assert main(["verify", *params, "--suite", "identities"]) == 0
    assert main(["verify", *params, "--suite", "bounds"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_9343.txt").read_text()


BASE_MODULES = {"tensq", "tensq.cli", "tensq.errors"}
GROUP_MODULES = BASE_MODULES | {"tensq.metagrp", "tensq.numth"}
CLOSED_FORM_MODULES = GROUP_MODULES | {"tensq.presentations", "tensq.abgrp"}
ALL_MODULES = CLOSED_FORM_MODULES | {"tensq.oracle", "tensq.fpgrp"}

LOADED_MODULES = """
import json, sys
from tensq import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules if name.startswith("tensq"))))
"""


def _loaded_modules(args, cache_dir=None) -> set:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("TENSQ_CACHE_DIR", None)
    if cache_dir:
        env["TENSQ_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_command_loads_only_the_layers_it_runs(tmp_path, monkeypatch, capsys):
    # --version, --help and usage errors load no layer; an invalid tuple
    # stops at metagrp; compute runs the closed forms without the oracle
    # or fpgrp; a batch served from the cache never builds a record; and
    # verify runs every layer.
    assert _loaded_modules(["--version"]) == BASE_MODULES
    assert _loaded_modules(["verify", "--help"]) == BASE_MODULES
    assert _loaded_modules(["batch", "--max-order", "0"]) == BASE_MODULES
    assert _loaded_modules(["compute", "--m", "4", "--n", "2", "--r", "3", "--s", "0"]) == GROUP_MODULES
    assert _loaded_modules(["compute", *SMALL]) == CLOSED_FORM_MODULES
    assert _loaded_modules(["verify", *SMALL, "--suite", "all"]) == ALL_MODULES

    cache = tmp_path / "cache"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0], [9, 3, 4, 3], [10, 2, 3, 0]]}))
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
    assert main(["batch", "--manifest", str(manifest)]) == 1
    capsys.readouterr()
    assert _loaded_modules(["batch", "--manifest", str(manifest)], cache) == GROUP_MODULES


VERIFY_IMPORTS = """
import sys
from tensq import cli, fpgrp, oracle
code = cli.main(["verify", "--m", "3", "--n", "2", "--r", "2", "--s", "0", "--suite", "all"])
print(code, sorted(name for name in ("dataclasses", "inspect", "typing") if name in sys.modules))
"""


def test_verify_loads_neither_dataclasses_nor_inspect():
    # dataclasses, which imports inspect, and typing each add milliseconds
    # to the start-up of every process.  -S skips the site imports, which
    # may load them on their own.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("TENSQ_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", VERIFY_IMPORTS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_package_exports_resolve_on_first_access():
    import tensq

    assert tensq.validate(3, 2, 2, 0) == metagrp.GroupParams(3, 2, 2, 0)
    assert tensq.validate is metagrp.validate
    assert tensq.Element is metagrp.Element
    assert tensq.GroupParams is metagrp.GroupParams
    with pytest.raises(AttributeError, match="'nope'"):
        tensq.nope
