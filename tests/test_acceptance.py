"""Acceptance suite.

Every criterion is checked exactly (integer equality or exact rational
equality; there are no tolerances anywhere).  Each test prints one
``[ACCEPTANCE] ... PASS`` line; run ``pytest -s tests/test_acceptance.py``
to see them as they complete.  Stated runtime ceilings are asserted too;
on current hardware the whole suite runs in well under two minutes.
"""

import random
import time

from conftest import tensor_row
from loopinv._rat import Q
from loopinv.invariants import (
    conjecture_evidence,
    spaces_for,
    verify_relations,
)
from loopinv.linalg import (
    contains,
    intersect,
    kernel,
    orthogonal_complement,
    span,
    span_tensors,
    subspace_sum,
)
from loopinv.paths import (
    PiecewiseLinearPath,
    close,
    fuzz_closure,
    fuzz_conjugation,
    fuzz_loop,
    path_signature,
    random_path,
    staircase_eval,
)
from loopinv.tensor import (
    TensorElement,
    bracket,
    left_closure,
    right_closure,
    rotation_sum,
    shuffle,
)
from loopinv.words import all_words, necklaces

W = TensorElement.word

# the full set of table cells reproduced by criterion 1
SCOPE = {2: range(1, 11), 3: range(1, 7), 4: range(1, 5), 5: range(1, 5), 6: range(1, 5)}


def _criterion(label: str, failures: list, elapsed: float, limit: float) -> None:
    ok = not failures and elapsed <= limit
    print("[ACCEPTANCE] %-58s %s (%.1fs)" % (label, "PASS" if ok else "FAIL", elapsed))
    assert not failures, "%s: %s" % (label, failures)
    assert elapsed <= limit, "%s exceeded %.0fs: took %.1fs" % (label, limit, elapsed)


def _column(d: int, levels, name: str) -> list:
    sp = spaces_for(d)
    return [sp.report(n).dims[name] for n in levels]


def test_criterion_1a_tables_two_letters():
    t0 = time.time()
    failures = []
    expected = {
        "conjugation": [2, 3, 4, 6, 8, 14, 20, 36, 60, 108],
        "logsignature": [2, 1, 2, 3, 6, 9, None, None, None, None],
        "min_generators": [2, 0, 0, 1, 0, 4, None, None, None, None],
        "V_n": [None] * 6 + [32, 64, 128, 256],
        "bracket_VR": [None] * 6 + [32, 54, 120, 232],
        "letter_reduced_loop": [None] * 6 + [0, 10, 8, 24],
    }
    for name, values in expected.items():
        got = _column(2, range(1, 11), name)
        for level, want in enumerate(values, start=1):
            if want is not None and got[level - 1] != want:
                failures.append("d=2 %s level %d: %d != %d" % (name, level, got[level - 1], want))
    _criterion("1a: d=2 table, levels 1-10", failures, time.time() - t0, 600)


def test_criterion_1b_tables_three_letters():
    t0 = time.time()
    failures = []
    expected = {
        "conjugation": [3, 6, 11, 24, 51, 130],
        "V_n": [0, 3, 8, 24, 72, 216],
        "bracket_VR": [0, 0, 8, 18, 66, 178],
        "letter_reduced_loop": [0, 3, 0, 6, 6, 38],
        "min_generators": [3, 0, 1, 6, 6, 38],
    }
    for name, values in expected.items():
        got = _column(3, range(1, 7), name)
        if got != values:
            failures.append("d=3 %s: %s != %s" % (name, got, values))
    _criterion("1b: d=3 table, levels 1-6", failures, time.time() - t0, 1800)


def test_criterion_1c_four_letter_gap():
    t0 = time.time()
    failures = []
    report = spaces_for(4).report(4)
    if report.dims["letter_reduced_conj"] != 20:
        failures.append("letter-reduced conjugation %d != 20" % report.dims["letter_reduced_conj"])
    if report.dims["letter_reduced_loop"] != 21:
        failures.append("letter-reduced loop %d != 21" % report.dims["letter_reduced_loop"])
    _criterion("1c: d=4 level-4 gap (20 vs 21)", failures, time.time() - t0, 600)


def test_criterion_1d_five_and_six_letters():
    t0 = time.time()
    failures = []
    for d, conj, vdims, gens4 in (
        (5, [5, 15, 45, 165], [0, 10, 40, 205], 50),
        (6, [6, 21, 76, 336], [0, 15, 70, 435], 105),
    ):
        got = _column(d, range(1, 5), "conjugation")
        if got != conj:
            failures.append("d=%d conjugation %s != %s" % (d, got, conj))
        got_v = _column(d, range(1, 5), "V_n")
        if got_v != vdims:
            failures.append("d=%d V %s != %s" % (d, got_v, vdims))
        got4 = spaces_for(d).report(4).dims["min_generators"]
        if got4 != gens4:
            failures.append("d=%d min generators %d != %d" % (d, got4, gens4))
    _criterion("1d: d=5 and d=6 tables, levels 1-4", failures, time.time() - t0, 1200)


def test_criterion_2_identity_verification():
    t0 = time.time()
    failures = []
    names_seen = set()
    for d in (2, 3, 4):
        for check in verify_relations(d):
            names_seen.add(check.name)
            if not check.holds:
                failures.append("d=%d %s" % (d, check.name))
    # the required identities must all have been evaluated
    required_fragments = [
        "three-letter level-6",
        "four-letter alternating volume",
        "vol3 =",
        "area12^2 = 2 rcl rot(1212)",
        "area12 area13 = ",
        "area12^3 = ",
        "area12^2 area13 = ",
        "area12 area13 area23 = ",
    ]
    for fragment in required_fragments:
        if not any(fragment in name for name in names_seen):
            failures.append("identity not evaluated: %s" % fragment)
    _criterion("2: explicit shuffle identities", failures, time.time() - t0, 60)


def test_criterion_3_two_route_equalities():
    """Every report cell builds each space by one route and checks it
    against the other by containment and dimension, raising on mismatch,
    so criterion 1 already exercises both descriptions at every computed
    (d, n).  This test re-runs every cell (cached, so cheap) and then
    reconstructs all four route pairs from public primitives at the cells
    small enough to redo from scratch."""
    t0 = time.time()
    failures = []
    for d, levels in SCOPE.items():
        sp = spaces_for(d)
        for n in levels:
            sp.report(n)  # raises CrossCheckError on any route mismatch
    for d, top in ((2, 6), (3, 4), (4, 3)):
        sp = spaces_for(d)
        for n in range(1, top + 1):
            # conjugation invariants: rotation span == bracket-constraint kernel
            rows = []
            for i in range(1, d + 1):
                for q in all_words(d, n - 1):
                    elt = bracket(W(d, (i,)), W(d, q) if q else TensorElement.unit(d))
                    if not elt.is_zero():
                        rows.append(tensor_row(elt, n))
            via_kernel = kernel(d, n, rows)
            via_rot = span_tensors(d, n, (rotation_sum(w) for w in necklaces(d, n)))
            if via_kernel != via_rot or via_rot != sp.conjugation_invariants(n):
                failures.append("conj routes differ at d=%d n=%d" % (d, n))
            # V: complement of the letter shuffle ideal == PBW span == series
            s_rows = []
            for i in range(1, d + 1):
                for q in all_words(d, n - 1):
                    s_rows.append(
                        shuffle(W(d, (i,)), W(d, q) if q else TensorElement.unit(d))
                    )
            via_complement = orthogonal_complement(span_tensors(d, n, s_rows))
            if via_complement != sp.zero_increment_space(n):
                failures.append("V routes differ at d=%d n=%d" % (d, n))
            # loop invariants: bracket complement == kernel of (rcl - lcl)
            diff_rows: dict = {}
            for w in all_words(d, n):
                delta = right_closure(W(d, w)) - left_closure(W(d, w))
                for word, c in delta.items():
                    diff_rows.setdefault(word.letters, {})[w] = c
            constraints = [
                tensor_row(TensorElement(d, row.items()), n) for row in diff_rows.values()
            ]
            via_closure_kernel = kernel(d, n, constraints)
            bracket_v = span_tensors(d, n, (
                bracket(b, W(d, (i,)))
                for b in sp.zero_increment_space(n - 1).basis_tensors()
                for i in range(1, d + 1)
            ))
            via_bracket = orthogonal_complement(bracket_v)
            if via_closure_kernel != via_bracket or via_bracket != sp.loop_invariants(n):
                failures.append("loop routes differ at d=%d n=%d" % (d, n))
            # letter-reduced conjugation invariants: quotient == rank
            bracket_full = span(d, n, rows)
            quotient = sp.zero_increment_space(n).dim - intersect(
                bracket_full, sp.zero_increment_space(n)
            ).dim
            rank = span_tensors(
                d, n, (right_closure(rotation_sum(w)) for w in necklaces(d, n))
            ).dim
            if quotient != rank or rank != sp.letter_reduced_conj_dim(n):
                failures.append("letter-reduced conj routes differ at d=%d n=%d" % (d, n))
    _criterion("3: two-route equalities at every computed cell", failures, time.time() - t0, 600)


def test_criterion_4_structural_properties():
    t0 = time.time()
    failures = []
    rng = random.Random(2024)

    def random_homog(d, n):
        data = {}
        for _ in range(4):
            w = tuple(rng.randint(1, d) for _ in range(n))
            data[w] = Q(rng.randint(-4, 4), rng.randint(1, 3))
        return TensorElement(d, data)

    # idempotence and shuffle morphism on random inputs up to level 6
    for _ in range(25):
        x = random_homog(2, rng.randint(1, 6))
        if right_closure(right_closure(x)) != right_closure(x):
            failures.append("right closure not idempotent on %s" % x)
        na = rng.randint(1, 5)
        a = random_homog(2, na)
        b = random_homog(2, rng.randint(1, 6 - na))
        if right_closure(shuffle(a, b)) != shuffle(right_closure(a), right_closure(b)):
            failures.append("right closure not a shuffle morphism")
    for d in (2, 3):
        sp = spaces_for(d)
        for n in range(1, 7):
            s = sp.letter_shuffle_ideal(n)
            closure = sp.closure_invariants(n)
            # kernel of the closure equals S: S dies, and rank + dim S fills the level
            if any(not right_closure(b).is_zero() for b in s.basis_tensors()):
                failures.append("closure does not kill S at d=%d n=%d" % (d, n))
            if closure.dim + s.dim != d**n:
                failures.append("rank defect at d=%d n=%d" % (d, n))
            if subspace_sum(closure, s).dim != d**n:
                failures.append("S + image of closure too small at d=%d n=%d" % (d, n))
            if not contains(sp.loop_invariants(n), sp.conjugation_invariants(n)):
                failures.append("conjugation escapes loop at d=%d n=%d" % (d, n))
            rank = span_tensors(
                d, n, (right_closure(b) for b in sp.loop_invariants(n).basis_tensors())
            ).dim
            if rank != sp.letter_reduced_loop_dim(n):
                failures.append("closed loop rank mismatch at d=%d n=%d" % (d, n))
    _criterion("4: structural properties of the closure", failures, time.time() - t0, 600)


def test_criterion_5_path_oracle_fuzz():
    t0 = time.time()
    failures = []
    for d, level, trials in ((2, 6, 100), (3, 5, 50)):
        for fuzz in (fuzz_conjugation, fuzz_loop, fuzz_closure):
            report = fuzz(d, level, trials, seed=7)
            if not report.ok:
                failures.append("%s d=%d: %s" % (report.kind, d, report.failures[:1]))
    # closing lemma on 100 random (path, word) pairs
    rng = random.Random(99)
    for _ in range(100):
        x = random_path(rng, 2)
        w = W(2, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 6))))
        lhs = path_signature(x, 6).pair(right_closure(w))
        rhs = path_signature(close(x), 6).pair(w)
        if lhs != rhs:
            failures.append("closing lemma fails on %r" % x)
    # steps path: 10 random rational step quadruples
    for _ in range(10):
        a, b, c, d4 = (Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4))
        sig = path_signature(PiecewiseLinearPath(2, [(a, 0), (0, b), (c, 0), (0, d4)]), 4)
        if sig.pair(W(2, "1212")) != a * b * c * d4 or sig.pair(W(2, "2121")) != 0:
            failures.append("steps path values wrong for %s" % ((a, b, c, d4),))
    # staircase closed form for n, m <= 3
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            xs = [Q(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
            try:
                staircase_eval(n, m, xs)
            except AssertionError as exc:
                failures.append(str(exc))
    _criterion("5: exact path-oracle fuzz", failures, time.time() - t0, 300)


def test_criterion_6_non_invariance_witnesses():
    t0 = time.time()
    failures = []
    # the signed area takes different values on AB and BA for an explicit pair
    area = W(2, "12") - W(2, "21")
    a = PiecewiseLinearPath(2, [(1, 0)])
    b = PiecewiseLinearPath(2, [(0, 1)])
    v_ab = path_signature(a.followed_by(b), 2).pair(area)
    v_ba = path_signature(b.followed_by(a), 2).pair(area)
    if not (v_ab == 1 and v_ba == -1):
        failures.append("explicit area witness lost: %s vs %s" % (v_ab, v_ba))
    if not fuzz_conjugation(2, 4, 10, seed=5).witness_found:
        failures.append("fuzz did not report an area witness")
    # the distinct-letter area product escapes the closed rotations at d=4
    evidence = conjecture_evidence(spaces_for(4), 4)
    membership = dict(evidence.area_product_membership)
    if membership.get("area12*area34") is not False:
        failures.append("area12*area34 unexpectedly inside the closed rotations")
    if membership.get("area12*area12") is not True:
        failures.append("area12^2 unexpectedly outside the closed rotations")
    _criterion("6: non-invariance witnesses", failures, time.time() - t0, 300)
