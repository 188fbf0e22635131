import json
import os
import random
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
    forged = path.read_text().partition("\n")[0] + "\n" + cli._record_json(edited)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tuples": [[3, 2, 2, 0]]}))

    path.write_text(forged)
    assert main(argv) == 0
    text = capsys.readouterr().out
    record = json.loads(text)
    assert record["tensor"]["invariant_factors"] == [6]
    assert record["nu_order_predicted"] == 216
    assert _body(path) == text

    path.write_text(forged)
    assert main(["batch", "--manifest", str(manifest)]) == 0
    (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert row["status"] == "ok"
    assert row["record"]["tensor"]["invariant_factors"] == [6]
    assert row["record"]["nu_order_predicted"] == 216
    assert _body(path) == cli._record_json(row["record"])


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
        assert _body(target) == text
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
    assert _body(path) == text


def test_cache_returns_stored_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    argv = ["compute", "--m", "3", "--n", "2", "--r", "2", "--s", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    assert _body(files[0]) == first
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
    assert _body(new) == text


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
    # Proper prefixes of the sealed file, down to one short of its final newline.
    prefixes += [stored[:k] for k in random.Random(11).sample(range(len(stored)), 50)]
    bodies = [full[:40], full[:-10], "{}", "[1, 2]", "null", cli._record_json(schema_1)]
    for body in bodies + prefixes:
        path.write_text(body)
        assert main(argv) == 0, body
        text = capsys.readouterr().out
        assert json.loads(text)["params"] == {"m": 3, "n": 2, "r": 2, "s": 0}
        assert json.loads(text).keys() == json.loads(full).keys()
        assert _body(path) == text

        path.write_text(body)
        assert main(["batch", "--manifest", str(manifest)]) == 0, body
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["status"] == "ok"
        assert _body(path) == json.dumps(row["record"], sort_keys=True, indent=2) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, manifest.name])


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


def test_package_exports_resolve_on_first_access():
    import tensq

    assert tensq.validate(3, 2, 2, 0) == metagrp.GroupParams(3, 2, 2, 0)
    assert tensq.validate is metagrp.validate
    assert tensq.Element is metagrp.Element
    assert tensq.GroupParams is metagrp.GroupParams
    with pytest.raises(AttributeError, match="'nope'"):
        tensq.nope
