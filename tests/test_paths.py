import json

import pytest

from loopinv._rat import Q
from loopinv.invariants import spaces_for
from loopinv.paths import (
    PiecewiseLinearPath,
    TruncatedSignature,
    close,
    closing_segment,
    fuzz_closure,
    fuzz_conjugation,
    fuzz_loop,
    path_from_json,
    path_signature,
    path_to_json,
    random_path,
    reverse,
    segment_signature,
    staircase_eval,
    staircase_word,
)
from loopinv.tensor import TensorElement, left_closure, right_closure, rotation_sum
from loopinv.words import Word

W = TensorElement.word


class TestPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            PiecewiseLinearPath(0, [])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PiecewiseLinearPath(2, [[0.1, 0.2]])
        p = PiecewiseLinearPath(2, [["1/10", 1], [Q(1, 3), 0]])
        assert p.segments == ((Q(1, 10), Q(1)), (Q(1, 3), Q(0)))

    def test_closing_segment(self):
        p = PiecewiseLinearPath(2, [(1, 0), (0, 1)])
        assert closing_segment(p) == (Q(-1), Q(-1))
        assert close(p).total_increment() == (0, 0)

    def test_reverse(self):
        p = PiecewiseLinearPath(2, [(1, 0), (0, 1)])
        assert reverse(p).segments == ((Q(0), Q(-1)), (Q(-1), Q(0)))

    def test_rotation(self):
        p = PiecewiseLinearPath(2, [(1, 0), (0, 1), (2, 2)])
        assert p.rotated(1).segments[0] == (Q(0), Q(1))
        assert p.rotated(3) == p

    def test_json_round_trip(self):
        p = PiecewiseLinearPath(2, [(Q(1, 2), Q(-3))])
        payload = path_to_json(p)
        assert payload == {"d": 2, "segments": [["1/2", "-3"]]}
        assert path_from_json(json.loads(json.dumps(payload))) == p


class TestSegmentSignature:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            segment_signature(2, (0.5, 0), 2)
        assert segment_signature(2, ("1/2", 0), 2).coefficient("11") == Q(1, 8)

    def test_axis_segment(self):
        sig = segment_signature(2, (1, 0), 2)
        assert sig.pair(W(2, "11")) == Q(1, 2)
        assert sig.pair(W(2, "12")) == 0

    def test_zero_increment(self):
        sig = segment_signature(2, (0, 0), 3)
        assert sig.elem == TensorElement.unit(2)

    def test_coefficient_formula(self):
        z = (Q(2, 3), Q(-1, 2))
        sig = segment_signature(2, z, 3)
        # coefficient of 121 is z1 * z2 * z1 / 3!
        assert sig.coefficient("121") == z[0] * z[1] * z[0] / 6

    def test_grouplike(self, rng):
        for _ in range(5):
            z = tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            assert segment_signature(2, z, 4).is_grouplike(4)


class TestPathSignature:
    def test_steps_path_values(self, rng):
        for _ in range(3):
            a, b, c, d = (Q(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(4))
            p = PiecewiseLinearPath(2, [(a, 0), (0, b), (c, 0), (0, d)])
            sig = path_signature(p, 4)
            assert sig.pair(W(2, "1212")) == a * b * c * d
            assert sig.pair(W(2, "2121")) == 0
            assert sig.pair(rotation_sum(Word((1, 2, 1, 2), 2))) == 2 * a * b * c * d

    def test_single_segment_reduces_to_exponential(self):
        z = (Q(1, 2), Q(3))
        p = PiecewiseLinearPath(2, [z])
        assert path_signature(p, 4).elem == segment_signature(2, z, 4).elem

    def test_unit_right_then_up(self):
        sig = path_signature(PiecewiseLinearPath(2, [(1, 0), (0, 1)]), 2)
        assert sig.pair(W(2, "12")) == 1
        assert sig.pair(W(2, "21")) == 0

    def test_level_one_is_total_increment(self, rng):
        p = random_path(rng, 3)
        sig = path_signature(p, 2)
        inc = p.total_increment()
        for i in range(3):
            assert sig.pair(W(3, (i + 1,))) == inc[i]

    def test_chen_multiplicativity(self, rng):
        for _ in range(5):
            a = random_path(rng, 2)
            b = random_path(rng, 2)
            joint = path_signature(a.followed_by(b), 4)
            assert joint == path_signature(a, 4).product(path_signature(b, 4))

    def test_chen_associativity(self, rng):
        a, b, c = (random_path(rng, 2) for _ in range(3))
        sa, sb, sc = (path_signature(p, 4) for p in (a, b, c))
        assert sa.product(sb).product(sc) == sa.product(sb.product(sc))

    def test_reverse_cancels(self, rng):
        p = random_path(rng, 2)
        sig = path_signature(p.followed_by(reverse(p)), 4)
        assert sig.elem == TensorElement.unit(2)

    def test_closed_path_kills_level_one(self, rng):
        loop = close(random_path(rng, 2))
        sig = path_signature(loop, 3)
        assert sig.pair(W(2, "1")) == 0 and sig.pair(W(2, "2")) == 0

    def test_random_signatures_grouplike(self, rng):
        for _ in range(4):
            assert path_signature(random_path(rng, 2), 5).is_grouplike(5)


class TestTruncatedSignature:
    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSignature(2, W(2, "12"))

    def test_rejects_deep_terms(self):
        sig = path_signature(PiecewiseLinearPath(2, [(1, 1)]), 3)
        with pytest.raises(ValueError):
            sig.pair(W(2, "1111"))
        with pytest.raises(ValueError):
            TruncatedSignature(2, sig.elem)


class TestLoopPairings:
    def test_letter_shuffle_ideal_vanishes_on_loops(self, rng):
        s_basis = []
        sp = spaces_for(2)
        for n in range(1, 6):
            s_basis.extend(sp.letter_shuffle_ideal(n).basis_tensors())
        for _ in range(5):
            loop = close(random_path(rng, 2))
            sig = path_signature(loop, 5)
            for b in s_basis:
                assert sig.pair(b) == 0

    def test_loop_invariants_survive_conjugation(self, rng):
        sp = spaces_for(2)
        basis = []
        for n in range(1, 5):
            basis.extend(sp.loop_invariants(n).basis_tensors())
        for _ in range(4):
            loop = close(random_path(rng, 2))
            other = random_path(rng, 2)
            conjugated = reverse(other).followed_by(loop).followed_by(other)
            sig_a = path_signature(loop, 4)
            sig_b = path_signature(conjugated, 4)
            for b in basis:
                assert sig_a.pair(b) == sig_b.pair(b)


class TestUnitSquareLoop:
    def test_area_survives_rotation(self):
        square = PiecewiseLinearPath(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])
        area = W(2, "12") - W(2, "21")
        base = path_signature(square, 2).pair(area)
        assert base == 2  # twice the enclosed area
        for k in range(1, 4):
            assert path_signature(square.rotated(k), 2).pair(area) == base


class TestClosureLemma:
    def test_worked_example(self):
        x = PiecewiseLinearPath(2, [(1, 0), (0, 1)])
        lhs = path_signature(x, 2).pair(right_closure(W(2, "12")))
        rhs = path_signature(close(x), 2).pair(W(2, "12"))
        assert lhs == rhs == Q(1, 2)

    def test_level_one_dies(self, rng):
        x = random_path(rng, 2)
        closed = path_signature(close(x), 1)
        assert closed.pair(W(2, "1")) == path_signature(x, 1).pair(right_closure(W(2, "1")))
        assert closed.pair(W(2, "1")) == 0

    def test_random_words_both_sides(self, rng):
        for _ in range(10):
            x = random_path(rng, 3)
            sig = path_signature(x, 4)
            sig_right = path_signature(close(x), 4)
            sig_left = path_signature(
                PiecewiseLinearPath(3, [closing_segment(x)]).followed_by(x), 4
            )
            for k in range(1, 5):
                w = W(3, tuple(rng.randint(1, 3) for _ in range(k)))
                assert sig.pair(right_closure(w)) == sig_right.pair(w)
                assert sig.pair(left_closure(w)) == sig_left.pair(w)


class TestFuzzers:
    def test_conjugation_fuzz(self):
        report = fuzz_conjugation(2, 4, 8, seed=11)
        assert report.ok
        assert report.witness_found
        assert report.checks > 0

    def test_conjugation_fuzz_runs_every_trial(self):
        # the canonical axis pair runs in addition to the random trials
        report = fuzz_conjugation(2, 1, 1000, seed=5)
        assert report.trials == 1000
        assert report.checks == 1001 * 2

    def test_loop_fuzz(self):
        report = fuzz_loop(2, 4, 8, seed=11)
        assert report.ok

    def test_closure_fuzz(self):
        report = fuzz_closure(2, 4, 8, seed=11)
        assert report.ok

    def test_determinism(self):
        a = fuzz_loop(2, 4, 6, seed=3)
        b = fuzz_loop(2, 4, 6, seed=3)
        assert a == b
        c = fuzz_conjugation(2, 4, 6, seed=3)
        d = fuzz_conjugation(2, 4, 6, seed=3)
        assert c.to_json() == d.to_json()

    def test_three_letters(self):
        assert fuzz_conjugation(3, 4, 5, seed=2).ok
        assert fuzz_loop(3, 4, 5, seed=2).ok
        assert fuzz_closure(3, 4, 5, seed=2).ok


class TestStaircase:
    def test_word(self):
        assert staircase_word(1, 1).letters == (1, 1, 2)
        assert staircase_word(2, 1).letters == (1, 1, 2, 1, 2)
        assert staircase_word(3, 2).letters == (1, 1, 1, 2, 1, 2, 1, 2)

    def test_values(self):
        assert staircase_eval(1, 1, [1]) == Q(1, 2)
        assert staircase_eval(2, 1, [1, 2]) == 3
        assert staircase_eval(2, 2, [1, 1]) == Q(1, 3)

    def test_rational_steps(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                xs = [Q(k + 1, 2) for k in range(n)]
                staircase_eval(n, m, xs)

    def test_power_sum_separates_paths(self):
        # same product, different power sums: the invariant distinguishes
        assert staircase_eval(2, 2, [1, 4]) != staircase_eval(2, 2, [2, 2])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            staircase_eval(0, 1, [])
        with pytest.raises(ValueError):
            staircase_eval(2, 1, [1])
