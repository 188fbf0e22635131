"""Inputs and the correctness gate of the tensq benchmark.

Inputs are generated here, without importing tensq, so the program under
test receives only manifests and command-line arguments.  The gate
reduces every output to its semantic fields (parameters, invariant
factors, predicted |nu(G)| and verdicts; never timings or counters) and
compares their digests with the ones pinned in ``pinned.json``.

Digests are order-independent, so a seed that only reorders a fixed
panel shares one pinned digest.  The closed-form population is split
into interleaved blocks (tuple i belongs to block i mod BLOCKS), each a
systematic sample of the whole population with its own pinned digest;
a seed draws whole blocks, so every seeded manifest is checkable and
costs about the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

POPULATION_MAX_ORDER = 1000
BLOCKS = 64
SWEEP_BLOCKS = 10
SWEEP_TAIL = 4

# Both panels are fixed; a seed only reorders them.  The oracle panel
# holds the two |G| = 42 tuples with equal pivot counts but very
# different coefficient growth, (21,2,13,7) and (21,2,8,6).
ORACLE_PANEL = [
    (7, 3, 2, 0),
    (9, 3, 4, 0),
    (9, 3, 4, 3),
    (15, 2, 4, 10),
    (15, 2, 11, 3),
    (21, 2, 13, 7),
    (21, 2, 8, 6),
]
VERIFY_PANEL = [(3, 2, 2, 0), (7, 3, 2, 0), (9, 3, 4, 3), (9, 3, 4, 0)]


def key(t) -> str:
    return ",".join(str(x) for x in t)


def population() -> list[tuple[int, int, int, int]]:
    """Every valid (m, n, r, s) with m*n <= POPULATION_MAX_ORDER, s = 0 included.

    Same set and order as tensq's enumerate_valid_tuples(1000,
    include_s_zero=True): odd m >= 3, n >= 2, 1 < r < m a unit with
    r**n == 1 (mod m), s a multiple of m/(m, r-1) in [0, m).
    """
    out = []
    top = POPULATION_MAX_ORDER
    for m in range(3, top // 2 + 1, 2):
        for n in range(2, top // m + 1):
            for r in range(2, m):
                if gcd(r, m) != 1 or pow(r, n, m) != 1:
                    continue
                for s in range(0, m, m // gcd(m, r - 1)):
                    out.append((m, n, r, s))
    return out


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_manifest(rng, pop, pinned) -> tuple[list, dict]:
    """Seeded closed-form manifest: SWEEP_BLOCKS whole blocks plus a tail.

    Returns the tuples in run order and the digest groups the gate
    checks them in: block id -> tuple keys, and one group per tail tuple.
    """
    blocks = sorted(rng.sample(range(BLOCKS), SWEEP_BLOCKS))
    groups = {f"block{b}": [] for b in blocks}
    tuples = []
    for i, t in enumerate(pop):
        group = groups.get(f"block{i % BLOCKS}")
        if group is not None:
            group.append(key(t))
            tuples.append(t)
    tail = rng.sample([tuple(t) for t in pinned["tail_pool"]], SWEEP_TAIL)
    for t in tail:
        groups[f"tail:{key(t)}"] = [key(t)]
        tuples.append(t)
    rng.shuffle(tuples)
    return tuples, groups


def expected_digest(pinned, group: str) -> str | None:
    """Pinned digest of a group: "block<i>", or "tail:", "oracle:" or
    "verify:" followed by a tuple key."""
    if group.startswith("block"):
        return pinned["block_digests"][int(group[len("block"):])]
    return pinned["digests"].get(group)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def group_digest(tuple_digests: dict, keys) -> str:
    """Digest of a set of tuples from their per-tuple digests, in key order."""
    return _digest([[k, tuple_digests.get(k)] for k in sorted(keys)])


def batch_row_semantics(row: dict):
    """Key and semantic digest of one `tensq batch` row; ok flag too."""
    params = row.get("params") or {}
    k = key((params.get("m"), params.get("n"), params.get("r"), params.get("s")))
    record = row.get("record")
    sem = {"status": row.get("status"), "params": params}
    ok = row.get("status") == "ok"
    if record is not None:
        sem.update(
            tensor=record["tensor"]["invariant_factors"],
            exterior=record["exterior"]["invariant_factors"],
            schur=record["schur"]["invariant_factors"],
            nu_order_predicted=record["nu_order_predicted"],
        )
        orc = record.get("oracle")
        if orc is not None:
            sem["oracle"] = {
                name: orc[name]
                for name in (
                    "tensor_invariant_factors",
                    "exterior_invariant_factors",
                    "schur_order",
                    "tensor_match",
                    "exterior_match",
                    "schur_match",
                    "match",
                )
            }
            ok = ok and orc["match"] is True
    else:
        ok = False
    return k, _digest(sem), ok, record


_SUITE_LINE = re.compile(r"^\[(\w+)\] (.*?)(?: \((\d+) instances\))?(?: failed .*)?$")
_NU_LINE = re.compile(r"^\[(\w+)\] nu order: .*?predicted (\d+)(?:.*cosets used (\d+))?")


def verify_semantics(t, exit_code: int, text: str):
    """Semantic digest, ok flag and counters of one `tensq verify` output.

    The digest covers the verdict tag and check name of every line and
    the predicted |nu(G)|; instance and coset counts are counters, kept
    out of the digest and returned separately.
    """
    lines = []
    ok = exit_code == 0
    instances = 0
    cosets = 0
    for line in text.splitlines():
        nu = _NU_LINE.match(line)
        if nu:
            lines.append([nu.group(1), "nu order", int(nu.group(2))])
            cosets += int(nu.group(3) or 0)
        else:
            suite = _SUITE_LINE.match(line)
            if not suite:
                lines.append(["UNPARSED", line])
                ok = False
                continue
            lines.append([suite.group(1), suite.group(2)])
            instances += int(suite.group(3) or 0)
        ok = ok and lines[-1][0] == "PASS"
    ok = ok and bool(lines)
    sem = {"params": list(t), "exit": exit_code, "lines": lines}
    return _digest(sem), ok, {"oracle.suite_instances": instances, "fpgrp.cosets_used": cosets}
