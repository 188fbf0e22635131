"""Regenerate perfbench/pinned.json from the tensq CLI in src/.

Usage (from the repository root): python3 perfbench/pin.py

Pins the large-parameter tail pool and the semantic digest of every
block of the closed-form population, of every tail tuple, and of every
oracle and verify panel tuple.  Run it only when a change is meant to
alter results (parameters, invariant factors, predicted |nu(G)| or
verdicts), and say so in the change.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import shutil
import sys

import workloads as wl

TAIL_POOL = 16
TAIL_M = (900_000, 1_000_000)
TAIL_L = (110_000, 120_000)
TAIL_R_MIN = 1 << 19


def _prime_factors(x: int) -> list[int]:
    out, d = [], 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    return out + ([x] if x > 1 else [])


def tail_pool() -> list[tuple[int, int, int, int]]:
    """Tuples (p, l, r, 0) with p prime near 10^6 and r of order exactly l.

    l, and so the O(l) multiplicative-order loop, is held in a narrow
    band, and r has exactly 20 bits, so the exact geometric sum E has
    between 19*l and 20*l bits and every tail tuple costs about the
    same.  (With r free, E's cost varied by 5x across the pool, and the
    four tuples a seed draws moved a sweep unit's time by 6%.)
    """
    rng = random.Random(20251016)
    pool = []
    while len(pool) < TAIL_POOL:
        p = rng.randrange(*TAIL_M) | 1
        if _prime_factors(p) != [p]:
            continue
        ls = [c for c in range(TAIL_L[0], TAIL_L[1]) if (p - 1) % c == 0]
        if not ls:
            continue
        l = rng.choice(ls)
        qs = _prime_factors(l)
        g = rng.randrange(2, p - 1)
        r = pow(g, (p - 1) // l, p)
        if r < TAIL_R_MIN or any(pow(r, l // q, p) == 1 for q in qs):
            continue
        pool.append((p, l, r, 0))
    return pool


def _tensq(args, cwd) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("TENSQ_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-m", "tensq.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0 and args[0] == "batch":
        raise SystemExit(f"tensq {' '.join(args)} exited {done.returncode}: {done.stderr}")
    return done.returncode, done.stdout


def _batch_digests(tuples, oracle, tmp) -> dict:
    manifest = os.path.join(tmp, "manifest.json")
    out = os.path.join(tmp, "rows.jsonl")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"tuples": [list(t) for t in tuples]}, fh)
    _tensq(["batch", *(["--oracle"] if oracle else []), "--manifest", manifest, "--out", out], tmp)
    digests = {}
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            k, digest, ok, _ = wl.batch_row_semantics(json.loads(line))
            if not ok:
                raise SystemExit(f"row {k} is not ok; refusing to pin it")
            digests[k] = digest
    return digests


def main() -> int:
    pop = wl.population()
    pool = tail_pool()
    tmp = os.path.join(os.getcwd(), ".perfbench_work", "pin")
    os.makedirs(tmp, exist_ok=True)
    try:
        closed = _batch_digests(pop + pool, False, tmp)
        oracle = _batch_digests(wl.ORACLE_PANEL, True, tmp)
        digests = {f"tail:{wl.key(t)}": wl.group_digest(closed, [wl.key(t)]) for t in pool}
        digests.update({f"oracle:{k}": wl.group_digest(oracle, [k]) for k in oracle})
        for t in wl.VERIFY_PANEL:
            code, text = _tensq(["verify", "--m", str(t[0]), "--n", str(t[1]), "--r", str(t[2]),
                                 "--s", str(t[3]), "--suite", "all"], tmp)
            digest, ok, _ = wl.verify_semantics(t, code, text)
            if not ok:
                raise SystemExit(f"verify {t} did not pass; refusing to pin it")
            digests[f"verify:{wl.key(t)}"] = digest
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    blocks = [[] for _ in range(wl.BLOCKS)]
    for i, t in enumerate(pop):
        blocks[i % wl.BLOCKS].append(wl.key(t))
    pinned = {
        "population": {"max_order": wl.POPULATION_MAX_ORDER, "tuples": len(pop), "blocks": wl.BLOCKS},
        "block_digests": [wl.group_digest(closed, keys) for keys in blocks],
        "tail_pool": [list(t) for t in pool],
        "digests": digests,
    }
    with open(wl.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(pop)} population tuples in {wl.BLOCKS} blocks, "
          f"{len(pool)} tail tuples, {len(digests) - len(pool)} panel tuples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
