"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line (run with -s to see
them) and covers one advertised guarantee: closed forms against the
relation-lattice oracle, the split family, coset-enumeration
certificates, the identity and bound suites, multiplier agreement, and
the brute-force invariant sweep.
"""

import time
from math import gcd

import pytest

from tensq import fpgrp, metagrp, oracle, presentations
from support import enumerate_valid_tuples
from test_metagrp import brute_invariants

SWEEP_LIMIT = 45
PANEL = [(9, 3, 4, 3), (3, 2, 2, 0), (7, 3, 2, 0), (9, 3, 4, 0)]


def _report(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep_models():
    start = time.perf_counter()
    models = {}
    for p in enumerate_valid_tuples(SWEEP_LIMIT):
        models[(p.m, p.n, p.r, p.s)] = oracle.build_tensor_oracle(p)
    return models, time.perf_counter() - start


@pytest.fixture(scope="module")
def panel_models(sweep_models):
    built = sweep_models[0]
    out = {}
    for tup in PANEL:
        out[tup] = built.get(tup) or oracle.build_tensor_oracle(metagrp.validate(*tup))
    return out


def test_criterion_1_closed_forms_match_oracle(sweep_models):
    models, build_s = sweep_models
    start = time.perf_counter()
    bad = []
    for tup, model in models.items():
        report = presentations.exterior_and_schur(model.params)
        if model.handle.structure != report.tensor:
            bad.append((tup, "tensor"))
        if oracle.exterior_oracle(model) != report.exterior:
            bad.append((tup, "exterior"))
    elapsed = build_s + (time.perf_counter() - start)
    ok = not bad and len(models) == 18 and elapsed < 600
    detail = (
        f"closed forms match the oracle on all {len(models)} tuples with "
        f"s > 0 and |G| <= {SWEEP_LIMIT} ({elapsed:.1f}s, limit 600s)"
    )
    if bad:
        detail += f"; mismatches: {bad}"
    _report(1, ok, detail)


def test_criterion_2_split_family():
    bad = []
    checked = crosses = 0
    for m in (3, 5, 7, 9, 15):
        for n in (2, 4, 6):
            p = metagrp.validate(m, n, m - 1, 0)
            rep = presentations.exterior_and_schur(p)
            checked += 1
            d = gcd(m, n)
            want = tuple(f for f in (d, m * n // d) if f > 1)
            if (
                rep.tensor.invariant_factors != want
                or rep.exterior.invariant_factors != (m,)
                or rep.schur.order != 1
            ):
                bad.append((m, n, "closed"))
            if m * n <= SWEEP_LIMIT:
                crosses += 1
                model = oracle.build_tensor_oracle(p)
                if (
                    model.handle.structure != rep.tensor
                    or oracle.exterior_oracle(model) != rep.exterior
                    or oracle.oracle_schur_order(model) != 1
                ):
                    bad.append((m, n, "oracle"))
    detail = (
        f"split family r = m - 1, s = 0: C_(m,n) x C_[m,n] tensor, C_m "
        f"exterior, trivial multiplier on {checked} (m, n) pairs, oracle "
        f"cross-checked on {crosses}"
    )
    if bad:
        detail += f"; mismatches: {bad}"
    _report(2, not bad, detail)


def test_criterion_3_smallest_example():
    structure = presentations.tensor_structure(metagrp.validate(3, 2, 2, 0))
    _report(
        3,
        structure.invariant_factors == (6,),
        f"g(3,2;2,0) has tensor square C6 (got {structure})",
    )


def test_criterion_4_coset_enumeration():
    ok = True
    parts = []
    for tup, order in [((3, 2, 2, 0), 216), ((7, 3, 2, 0), 9261)]:
        params = metagrp.validate(*tup)
        start = time.perf_counter()
        cert = fpgrp.certify_nu_order(params)
        # The trivial-subgroup run cross-checks the <x1, y1> certificate.
        full = fpgrp.todd_coxeter(presentations.nu_presentation(params))
        dt = time.perf_counter() - start
        good = cert.status == "PASS" and cert.enumerated == full.order == order and dt < 60
        ok = ok and good
        parts.append(
            f"nu(g{tup}) enumerated to {cert.enumerated} over <x1, y1> and "
            f"{full.order} over 1 (want {order}, {dt:.1f}s, limit 60s)"
        )
    _report(4, ok, "; ".join(parts))


def test_criterion_5_identity_suite(panel_models):
    bad = []
    instances = 0
    for tup, model in panel_models.items():
        report = oracle.verify_identities(model)
        instances += sum(c.instances for c in report.checks)
        if not report.passed:
            bad.append((tup, report.failed_instances))
    detail = (
        f"identity suite: zero failures across {instances} instances "
        f"on {len(panel_models)} parameter tuples"
    )
    if bad:
        detail += f"; failures: {bad}"
    _report(5, not bad and instances > 0, detail)


def test_criterion_6_order_bounds(panel_models):
    bad = []
    for tup, model in panel_models.items():
        report = oracle.verify_bounds(model)
        has_sweep = any("odd o'(h)" in c.name for c in report.checks)
        if not report.passed or not has_sweep:
            bad.append(tup)
    detail = (
        f"generator order bounds divide as predicted, including the "
        f"odd-order diagonal sweep over h, on {len(panel_models)} tuples"
    )
    if bad:
        detail += f"; failures: {bad}"
    _report(6, not bad, detail)


def test_criterion_7_schur_multiplier(sweep_models):
    models, _ = sweep_models
    bad = []
    beyl = 0
    for tup, model in models.items():
        closed = presentations.exterior_and_schur(model.params).schur.order
        if oracle.oracle_schur_order(model) != closed:
            bad.append(tup)
        m, n, r, s = tup
        if s == m // gcd(m, r - 1):
            beyl += 1
            if closed != 1:
                bad.append((tup, "expected trivial"))
    ok = not bad and beyl >= 2
    detail = (
        f"oracle multiplier |G ^ G| / |G'| equals the closed form on "
        f"{len(models)} tuples; trivial on all {beyl} tuples with "
        f"s = m/(m, r-1)"
    )
    if bad:
        detail += f"; mismatches: {bad}"
    _report(7, ok, detail)


def test_criterion_8_brute_force_sweep():
    start = time.perf_counter()
    tuples = enumerate_valid_tuples(200, include_s_zero=True)
    bad = [p for p in tuples if brute_invariants(p)]
    dt = time.perf_counter() - start
    ok = not bad and dt < 60 and len(tuples) == 1189
    detail = (
        f"closed-form invariants match enumeration on all {len(tuples)} "
        f"valid tuples with |G| <= 200 ({dt:.1f}s, limit 60s)"
    )
    if bad:
        detail += f"; mismatches: {[(p.m, p.n, p.r, p.s) for p in bad[:5]]}"
    _report(8, ok, detail)
