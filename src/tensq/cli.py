"""Command-line surface: compute, verify, emit and batch subcommands.

Every run that produces structures emits one JSON record (schema 3)
with sorted keys, so identical inputs give byte-identical output apart
from the timing block.  With TENSQ_CACHE_DIR set, records are cached by
a content hash of (params, flags, schema version, tool version); each
command reads TENSQ_CACHE_DIR once.  Each cache file is sealed: a first
line holds the sha256 of the key and the record body, so a file that
was truncated, edited or moved to another key is a miss and is
rewritten.  So is a sealed body whose params block is not the
tuple's, or whose oracle entry is not what the command reads: null
without --oracle, an object with a boolean match with it.  A hit costs
one key hash, one read of the file through a raw descriptor, one seal
hash and one parse.  The body is the record's one-line canonical JSON,
the exact text a batch row carries, so a batch row is spliced from it
without encoding the record again, and a rerun of compute prints the
stored record re-indented, byte for byte as the first run printed it.
The --json path and the cache directory are checked before any record
is built.

Each layer is imported where it is first used, so a command loads only
the layers it runs: --version, --help and usage errors load none;
checking a tuple loads metagrp and numth; building a record adds
presentations and abgrp, and --oracle adds the oracle; a batch served
from the cache builds no record; verify loads the oracle only for an
oracle suite and fpgrp only for the nu suite, so --suite all loads
every layer.
hashlib is imported only when TENSQ_CACHE_DIR is set.  No module
imports dataclasses (which loads inspect) or typing: the value types
are named tuples and __slots__ classes, cheap to define and to build.

Exit codes: 0 success, 1 failed verification or batch rows, 2 invalid
parameters or a path that cannot be read or written, 3 resource bound
hit (the oracle's group-order limit, or a coset enumeration that did
not close), 4 internal formula inconsistency, 64 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import __version__
from .errors import (
    FormulaInconsistencyError,
    ResourceLimitError,
    TensqError,
    ValidationError,
)

# typing.TYPE_CHECKING, without importing typing at start-up; type
# checkers take this name as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .metagrp import GroupParams

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_FORMULA = 4
EXIT_USAGE = 64

SCHEMA_VERSION = 3

# An OSError is a manifest, --out, --json or cache path that cannot be used.
EXIT_CODES = {
    ValidationError: EXIT_VALIDATION,
    OSError: EXIT_VALIDATION,
    ResourceLimitError: EXIT_RESOURCE,
    FormulaInconsistencyError: EXIT_FORMULA,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _structure_block(structure) -> dict:
    return {
        "invariant_factors": list(structure.invariant_factors),
        "order": structure.order,
        "exponent": structure.torsion_exponent,
    }


def _params_block(params: GroupParams) -> dict:
    return {"m": params.m, "n": params.n, "r": params.r, "s": params.s}


def build_run_record(params: GroupParams, with_oracle: bool) -> dict:
    """Closed-form record for one tuple, plus the oracle block on request."""
    from . import presentations

    timings = {}
    start = time.perf_counter()
    inv = params.inv
    report = presentations.exterior_and_schur(params)
    timings["closed_form_s"] = time.perf_counter() - start
    oracle_block = None
    if with_oracle:
        from . import oracle

        start = time.perf_counter()
        model = oracle.build_tensor_oracle(params)
        ext = oracle.exterior_oracle(model)
        schur_order = oracle.oracle_schur_order(model)
        timings["oracle_s"] = time.perf_counter() - start
        tensor_match = model.handle.structure == report.tensor
        exterior_match = ext == report.exterior
        schur_match = schur_order == report.schur.order
        oracle_block = {
            "tensor_invariant_factors": list(model.handle.structure.invariant_factors),
            "exterior_invariant_factors": list(ext.invariant_factors),
            "schur_order": schur_order,
            "raw_rows": model.raw_rows,
            "distinct_rows": model.distinct_rows,
            "tensor_match": tensor_match,
            "exterior_match": exterior_match,
            "schur_match": schur_match,
            "match": tensor_match and exterior_match and schur_match,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "tensq", "version": __version__},
        "params": _params_block(params),
        "derived": {
            "group_order": params.order,
            "o_a": params.m,
            "o_b": inv.o_b,
            "o_prime_a": inv.oprime_a,
            "o_prime_b": inv.oprime_b,
            "t": inv.t_derived,
            "k": inv.k,
        },
        "tensor": _structure_block(report.tensor),
        "exterior": _structure_block(report.exterior),
        "schur": _structure_block(report.schur),
        "delta_order": report.delta_order,
        "nu_order_predicted": report.nu_order_predicted,
        "oracle": oracle_block,
        "timings": timings,
    }


# One encoder for every one-line record and batch row: json.dumps would
# build a new one per call.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def _record_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _seal(key: str, body: bytes) -> bytes:
    import hashlib

    return hashlib.sha256(key.encode("ascii") + body).hexdigest().encode("ascii")


# The tool version as JSON text, for the cache key.
_VERSION_JSON = json.dumps(__version__)


def _cache_key_text(params: GroupParams, with_oracle: bool) -> str:
    """The text the cache key hashes: the bytes json.dumps gives, keys
    sorted, for {m, n, oracle, r, s, schema_version, version}, formatted
    directly.  SCHEMA_VERSION is read at each call."""
    return (
        f'{{"m": {params.m}, "n": {params.n}, "oracle": {"true" if with_oracle else "false"}, '
        f'"r": {params.r}, "s": {params.s}, "schema_version": {SCHEMA_VERSION}, '
        f'"version": {_VERSION_JSON}}}'
    )


def _cache_dir() -> str | None:
    """TENSQ_CACHE_DIR with a trailing separator, so that a cache file's
    path is one concatenation; None when it is unset or empty.  Each
    command reads it once."""
    cache_dir = os.environ.get("TENSQ_CACHE_DIR")
    return os.path.join(cache_dir, "") if cache_dir else None


# A record holds fewer than 100 integers, each below 10^3600 (see
# metagrp.DIGIT_LIMIT), so a cache file of one stays under 400 KB.
CACHE_FILE_LIMIT = 1 << 20


def _read_file(path: str) -> bytes:
    """The whole file at path, read through a raw descriptor: one read of
    the size fstat gives, repeated only after a short read.  A file over
    CACHE_FILE_LIMIT bytes raises ValueError unread.  The descriptor is
    opened non-blocking, so a FIFO with no writer reads as empty rather
    than blocking the open."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        size = os.fstat(fd).st_size
        if size > CACHE_FILE_LIMIT:
            raise ValueError(f"{path} is over {CACHE_FILE_LIMIT} bytes")
        data = os.read(fd, size)
        while len(data) < size:
            chunk = os.read(fd, size - len(data))
            if not chunk:
                break
            data += chunk
        return data
    except OSError as exc:
        # os.read's errors carry no path; name it, as open() would.
        exc.filename = path
        raise
    finally:
        os.close(fd)


def _serves(record, params: GroupParams, with_oracle: bool) -> bool:
    """Whether a parsed cache body is a record of params with the one
    entry a command reads of it: params equal to the tuple's block, and
    oracle, null without --oracle, and with it an object whose match is
    a boolean."""
    if type(record) is not dict or "oracle" not in record:
        return False
    if record.get("params") != _params_block(params):
        return False
    entry = record["oracle"]
    if not with_oracle:
        return entry is None
    return type(entry) is dict and type(entry.get("match")) is bool


def _load_record(params: GroupParams, with_oracle: bool, cache_dir: str | None) -> tuple[dict, str]:
    """The record for one tuple and its one-line canonical JSON text,
    read from cache_dir (see _cache_dir) when it is not None.

    A cache file is one seal line, the hex sha256 of the cache key and
    the body together, then the body: the record's one-line canonical
    text, the same bytes _ROW_ENCODER gives.  A hit costs one key hash,
    one raw read, one seal hash and one parse.  A file is a hit only if
    its seal matches, its body holds no line break, the body parses,
    and it is a record of this tuple whose oracle entry is what the
    command reads (see _serves); the parsed record is returned with the
    body itself, which is never encoded again.  Any other file, missing,
    over CACHE_FILE_LIMIT bytes, truncated, edited, moved from another
    key's path, unsealed, an indented body from an earlier version, or a
    sealed body that is no record of this tuple, is a miss: the cache
    directory is created, then the record is built, encoded once, and
    the file rewritten atomically, through a temporary file and
    os.replace, so a reader never sees a partial record.  A temporary
    file whose write or rename fails is removed before the error
    propagates.
    """
    if cache_dir is None:
        record = build_run_record(params, with_oracle)
        return record, _ROW_ENCODER.encode(record)
    import hashlib

    key = hashlib.sha256(_cache_key_text(params, with_oracle).encode("ascii")).hexdigest()
    path = cache_dir + key + ".json"
    try:
        seal, _, body = _read_file(path).partition(b"\n")
        if seal == _seal(key, body) and b"\r" not in body and b"\n" not in body:
            text = body.decode("ascii")
            record = json.loads(text)
            if _serves(record, params, with_oracle):
                return record, text
    except (FileNotFoundError, ValueError, RecursionError):
        # json raises RecursionError on deeply nested arrays or objects.
        pass
    os.makedirs(cache_dir, exist_ok=True)
    record = build_run_record(params, with_oracle)
    text = _ROW_ENCODER.encode(record)
    body = text.encode("ascii")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_seal(key, body) + b"\n" + body)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return record, text


def _params(args) -> GroupParams:
    from . import metagrp

    return metagrp.validate(args.m, args.n, args.r, args.s)


def cmd_compute(args) -> int:
    params = _params(args)
    # --json is opened before the record is built, so an unusable path fails at
    # once, but for appending: a file there is emptied only when the record is
    # ready (a pipe or /dev/null cannot be truncated, and need not be), and a
    # file this open created is removed again if the run then fails.
    created = bool(args.json) and not os.path.lexists(args.json)
    with open(args.json, "a", encoding="utf-8") if args.json else contextlib.nullcontext() as fh:
        try:
            text = _record_json(_load_record(params, args.oracle, _cache_dir())[0])
            sys.stdout.write(text)
            if fh:
                if fh.seekable() and fh.tell():
                    fh.truncate(0)
                fh.write(text)
        except BaseException:
            if created:
                os.remove(args.json)
            raise
    return EXIT_OK


def _print_suite(report) -> int:
    failed = 0
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        line = f"[{tag}] {check.name} ({check.instances} instances)"
        if not check.passed:
            failed += 1
            line += f" failed {check.failed}: " + "; ".join(check.examples)
        print(line)
    return failed


def cmd_verify(args) -> int:
    params = _params(args)
    failures = 0
    inconclusive = False
    if args.suite in ("identities", "bounds", "all"):
        from . import oracle

        model = oracle.build_tensor_oracle(params)
        if args.suite in ("identities", "all"):
            failures += _print_suite(oracle.verify_identities(model))
        if args.suite in ("bounds", "all"):
            failures += _print_suite(oracle.verify_bounds(model))
    if args.suite in ("nu", "all"):
        from . import fpgrp

        max_cosets = fpgrp.DEFAULT_MAX_COSETS if args.max_cosets is None else args.max_cosets
        cert = fpgrp.certify_nu_order(params, max_cosets=max_cosets)
        if cert.status == "INCONCLUSIVE":
            inconclusive = True
            print(
                f"[INCONCLUSIVE] nu order: the coset table does not close within "
                f"{max_cosets} cosets (predicted {cert.predicted}); raise --max-cosets"
            )
        else:
            failures += cert.status == "FAIL"
            relation = "==" if cert.status == "PASS" else "!="
            print(
                f"[{cert.status}] nu order: enumerated {cert.enumerated} {relation} predicted "
                f"{cert.predicted} (cosets used {cert.cosets_used})"
            )
    if failures:
        return EXIT_CHECK_FAILED
    if inconclusive:
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_emit(args) -> int:
    from . import presentations

    params = _params(args)
    if args.what == "nu":
        pres = presentations.nu_presentation(params)
    else:
        pres = presentations.tensor_presentation(params)
    if args.format == "native":
        sys.stdout.write(presentations.presentation_to_text(pres))
    else:
        sys.stdout.write(presentations.presentation_to_gap(pres))
    return EXIT_OK


def _load_manifest(path: str) -> list:
    """The tuples of a manifest, a JSON object {"tuples": [[m, n, r, s], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError([f"cannot read manifest {path}: {exc}"])
    if not isinstance(manifest, dict):
        raise ValidationError([f"manifest {path} must be a JSON object"])
    for key in manifest:
        if key != "tuples":
            raise ValidationError(
                [f"manifest key {key!r} is not allowed; a manifest carries only tuples"]
            )
    tuples = manifest.get("tuples")
    if not isinstance(tuples, list):
        raise ValidationError([f"manifest tuples must be a list of rows, got {tuples!r}"])
    for row in tuples:
        if not (isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row)):
            raise ValidationError(
                [f"manifest row {row!r} is not a list of four integers [m, n, r, s]"]
            )
    return tuples


def _sweep(jobs, with_oracle: bool, rows_out, summary_out) -> int:
    """One JSON line per tuple to rows_out, then the summary.

    Each row is written and flushed as soon as its tuple is done, and
    nothing is kept but the counts, so memory does not grow with the
    number of tuples and a run that is killed keeps every finished row.
    """
    from . import metagrp

    cache_dir = _cache_dir()
    counts = {"ok": 0, "mismatch": 0, "error": 0}
    for m, n, r, s in jobs:
        try:
            params = metagrp.validate(m, n, r, s)
            record, text = _load_record(params, with_oracle, cache_dir)
        except TensqError as exc:
            status = "error"
            row = _ROW_ENCODER.encode(
                {
                    "status": status,
                    "params": {"m": m, "n": n, "r": r, "s": s},
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
        else:
            status = "ok"
            if record["oracle"] is not None and not record["oracle"]["match"]:
                status = "mismatch"
            # The row _ROW_ENCODER would give, keys sorted, with the
            # record's text spliced in: the manifest's ints print as JSON.
            row = (
                f'{{"params": {{"m": {m}, "n": {n}, "r": {r}, "s": {s}}}, '
                f'"record": {text}, "status": "{status}"}}'
            )
        counts[status] += 1
        rows_out.write(row + "\n")
        rows_out.flush()

    summary_out.write(
        f"tuples: {sum(counts.values())}  ok: {counts['ok']}  "
        f"mismatches: {counts['mismatch']}  errors: {counts['error']}\n"
    )
    if counts["mismatch"] or counts["error"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_batch(args) -> int:
    if args.manifest:
        jobs = _load_manifest(args.manifest)
    elif args.max_order is not None:
        from . import metagrp

        jobs = metagrp.iter_valid_tuples(args.max_order, args.include_s_zero)
    else:
        raise ValidationError(["batch needs --max-order or --manifest"])
    if not args.out:
        return _sweep(jobs, args.oracle, sys.stdout, sys.stderr)
    # Opened before the first tuple, so an unusable path fails at once.
    with open(args.out, "w", encoding="utf-8") as fh:
        return _sweep(jobs, args.oracle, fh, sys.stdout)


def _positive_int(text: str) -> int:
    """argparse type of a size bound: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_params(sub) -> None:
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tensq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", parents=[], help="closed forms for one tuple")
    _add_params(compute)
    compute.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    compute.add_argument("--json", metavar="PATH", help="also write the record to PATH")
    compute.set_defaults(func=cmd_compute)

    verify = subs.add_parser("verify", help="run verification suites for one tuple")
    _add_params(verify)
    verify.add_argument(
        "--suite",
        choices=["identities", "bounds", "nu", "all"],
        default="all",
    )
    # None stands for fpgrp.DEFAULT_MAX_COSETS, read in cmd_verify so that
    # building the parser loads no layer.
    verify.add_argument("--max-cosets", type=_positive_int)
    verify.set_defaults(func=cmd_verify)

    emit = subs.add_parser("emit", help="print a presentation")
    _add_params(emit)
    emit.add_argument("--what", choices=["nu", "tensor"], required=True)
    emit.add_argument("--format", choices=["native", "gap"], default="native")
    emit.set_defaults(func=cmd_emit)

    batch = subs.add_parser("batch", help="sweep many tuples")
    jobs = batch.add_mutually_exclusive_group()
    jobs.add_argument("--manifest", metavar="PATH", help='JSON manifest {"tuples": [[m, n, r, s], ...]}')
    jobs.add_argument("--max-order", type=_positive_int, help="enumerate all valid tuples with mn <= this")
    batch.add_argument("--include-s-zero", action="store_true", help="with --max-order, also s = 0")
    batch.add_argument("--oracle", action="store_true")
    batch.add_argument("--out", metavar="PATH", help="write JSON lines here instead of stdout")
    batch.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "batch" and args.manifest and args.include_s_zero:
        parser.error("argument --include-s-zero: not allowed with argument --manifest")
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
