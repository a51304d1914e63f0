import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_element, random_homogeneous
from loopinv._rat import Q
from loopinv.tensor import (
    TensorElement,
    bracket,
    closing_segment_dual,
    concat,
    concat_truncated,
    cyclic_shift,
    deconcat,
    left_closure,
    lyndon_bracketing,
    pair,
    right_closure,
    rotation_sum,
    shuffle,
    shuffle_power,
    tensor_from_json,
    tensor_to_json,
)
from loopinv.words import Word, all_words, lyndon_words, necklaces

W = TensorElement.word
E = TensorElement.unit
Z = TensorElement.zero


def shuffle_words_oracle(u, v):
    """Independent recursive definition of the shuffle of two words."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in shuffle_words_oracle(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle_words_oracle(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


def rcl_oracle(x):
    """Right closure straight from its defining composition."""
    out = Z(x.d)
    for u, v, c in deconcat(x):
        left = W(x.d, u.letters) if u.letters else E(x.d)
        right = closing_segment_dual(W(x.d, v.letters) if v.letters else E(x.d))
        out = out + c * shuffle(left, right)
    return out


def lcl_oracle(x):
    """Left closure straight from its defining composition."""
    out = Z(x.d)
    for u, v, c in deconcat(x):
        left = closing_segment_dual(W(x.d, u.letters) if u.letters else E(x.d))
        right = W(x.d, v.letters) if v.letters else E(x.d)
        out = out + c * shuffle(left, right)
    return out


elements = st.builds(
    lambda seed: random_element(random.Random(seed), d=2, max_level=3, terms=4),
    st.integers(0, 10**9),
)


class TestElement:
    def test_canonical_form(self):
        x = TensorElement(2, [((1, 2), Q(1)), ((1, 2), Q(-1)), ((2,), Q(0))])
        assert x.is_zero()
        assert x.max_level == -1

    def test_alphabet_checks(self):
        with pytest.raises(ValueError):
            TensorElement(2, {Word((1,), 3): Q(1)})
        with pytest.raises(ValueError):
            concat(W(2, "1"), W(3, "1"))
        with pytest.raises(ValueError):
            shuffle(W(2, "1"), W(3, "1"))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            TensorElement(2, {(1,): 0.1})
        for scale in (lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x / 0.5):
            with pytest.raises(TypeError):
                scale(W(2, "1"))
        x = TensorElement(2, {(1,): "1/10", (2,): Q(1, 3), (1, 2): 2})
        assert x.coefficient("1") == Q(1, 10)
        assert (x * "3/2").coefficient("2") == Q(1, 2)

    def test_arithmetic(self):
        x = W(2, "12") + 2 * W(2, "21")
        assert x.coefficient("21") == 2
        assert (x - x).is_zero()
        assert (-x + x).is_zero()
        assert (x / 2).coefficient("12") == Q(1, 2)

    def test_string_form(self):
        assert str(W(2, "12") - W(2, "21")) == "12-21"
        assert str(Z(2)) == "0"
        assert str(Q(1, 2) * W(2, "11")) == "1/2*11"

    def test_homogeneity(self):
        assert W(2, "12").is_homogeneous(2)
        assert not (W(2, "12") + W(2, "1")).is_homogeneous()
        assert (W(2, "12") + W(2, "1")).homogeneous_part(1) == W(2, "1")


class TestProducts:
    def test_concat_examples(self):
        assert concat(W(4, "1"), W(4, "43")) == W(4, "143")
        x = W(3, "132") - 2 * W(3, "2")
        assert concat(E(3), x) == x and concat(x, E(3)) == x
        assert concat(W(3, "12") + W(3, "21"), W(3, "3")) == W(3, "123") + W(3, "213")

    def test_concat_associative(self, rng):
        for _ in range(20):
            a, b, c = (random_element(rng, d=2, max_level=2) for _ in range(3))
            assert concat(concat(a, b), c) == concat(a, concat(b, c))

    def test_concat_truncated(self, rng):
        for _ in range(20):
            a, b = (random_element(rng, d=2, max_level=3) for _ in range(2))
            assert concat_truncated(a, b, 4) == concat(a, b).truncate(4)

    def test_shuffle_examples(self):
        assert shuffle(W(2, "1"), W(2, "2")) == W(2, "12") + W(2, "21")
        assert shuffle(W(3, "12"), W(3, "3")) == W(3, "123") + W(3, "132") + W(3, "312")
        assert shuffle(W(2, "1"), W(2, "1")) == 2 * W(2, "11")

    @pytest.mark.parametrize("lu,lv", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_shuffle_words_against_oracle(self, lu, lv, rng):
        for _ in range(10):
            u = tuple(rng.randint(1, 2) for _ in range(lu))
            v = tuple(rng.randint(1, 2) for _ in range(lv))
            got = shuffle(W(2, u), W(2, v))
            expected = TensorElement(2, shuffle_words_oracle(u, v).items())
            assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(elements, elements)
    def test_shuffle_commutative(self, a, b):
        assert shuffle(a, b) == shuffle(b, a)

    @settings(max_examples=25, deadline=None)
    @given(elements, elements, elements)
    def test_shuffle_associative(self, a, b, c):
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))

    def test_shuffle_unit(self, rng):
        x = random_element(rng)
        assert shuffle(E(2), x) == x

    def test_shuffle_power(self):
        area = W(2, "12") - W(2, "21")
        assert shuffle_power(area, 0) == E(2)
        assert shuffle_power(area, 2) == shuffle(area, area)

    def test_bracket(self):
        assert bracket(W(2, "1"), W(2, "2")) == W(2, "12") - W(2, "21")
        x = W(2, "121") + 3 * W(2, "2")
        assert bracket(x, x).is_zero()
        got = bracket(W(3, "1"), bracket(W(3, "2"), W(3, "3")))
        assert got == W(3, "123") - W(3, "132") - W(3, "231") + W(3, "321")

    def test_jacobi(self, rng):
        for _ in range(10):
            a, b, c = (random_element(rng, d=2, max_level=2, terms=3) for _ in range(3))
            total = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert total.is_zero()

    def test_pair(self):
        assert pair(W(4, "143"), W(4, "143")) == 1
        assert pair(W(2, "12") + 2 * W(2, "21"), W(2, "21")) == 2
        x = 5 * E(2) + W(2, "12")
        assert pair(x, E(2)) == 5
        assert pair(W(2, "12"), W(2, "21")) == 0


class TestDeconcat:
    def test_examples(self):
        splits = deconcat(W(4, "143"))
        assert [(str(u), str(v)) for u, v, _ in splits] == [
            ("e", "143"), ("1", "43"), ("14", "3"), ("143", "e")
        ]
        assert all(c == 1 for _, _, c in splits)
        assert deconcat(E(2)) == [(Word((), 2), Word((), 2), Q(1))]
        assert len(deconcat(W(2, "12"))) == 3

    def test_counit(self, rng):
        # splitting at either end reproduces the element
        x = random_element(rng)
        left = Z(2)
        right = Z(2)
        for u, v, c in deconcat(x):
            if u.is_empty():
                right = right + c * W(2, v.letters) if v.letters else right + c * E(2)
            if v.is_empty():
                left = left + c * W(2, u.letters) if u.letters else left + c * E(2)
        assert left == x and right == x

    def test_coassociativity(self):
        # (split left) then split again == (split right) then split again,
        # compared as multisets of triples, for all words up to level 5
        for n in range(0, 6):
            for w in all_words(2, n):
                left = {}
                right = {}
                for i in range(n + 1):
                    for j in range(i + 1):
                        key = (w[:j], w[j:i], w[i:])
                        left[key] = left.get(key, 0) + 1
                    for j in range(i, n + 1):
                        key = (w[:i], w[i:j], w[j:])
                        right[key] = right.get(key, 0) + 1
                assert left == right


class TestCyclicOperators:
    def test_rotation_sum_examples(self):
        assert rotation_sum(Word((1,), 2)) == W(2, "1")
        assert rotation_sum(Word((1, 1), 2)) == 2 * W(2, "11")
        assert rotation_sum(Word((1, 2), 2)) == W(2, "12") + W(2, "21")
        assert rotation_sum(Word((1, 2, 2), 2)) == W(2, "122") + W(2, "212") + W(2, "221")
        assert rotation_sum(Word((1, 2, 1, 2), 2)) == 2 * (W(2, "1212") + W(2, "2121"))
        with pytest.raises(ValueError):
            rotation_sum(Word((), 2))

    def test_rotation_coefficients_equal_repetition_count(self):
        from loopinv.words import repetition_count

        for n in range(1, 7):
            for w in all_words(2, n):
                elt = rotation_sum(Word(w, 2))
                rep = repetition_count(w)
                assert all(c == rep for _, c in elt.items())

    def test_concat_commutes_against_rotation_sums(self):
        # the pairing of a b and b a with any rotation sum agree
        for n in range(2, 7):
            for w in all_words(2, n):
                rot = rotation_sum(Word(w, 2))
                for k in range(0, n + 1):
                    for a in all_words(2, k):
                        for b in all_words(2, n - k):
                            ab = concat(W(2, a) if a else E(2), W(2, b) if b else E(2))
                            ba = concat(W(2, b) if b else E(2), W(2, a) if a else E(2))
                            assert pair(ab, rot) == pair(ba, rot)

    def test_cyclic_shift(self):
        assert cyclic_shift(W(3, "231")) == W(3, "123")
        got = cyclic_shift(W(5, "12345") + 3 * W(5, "12344"), 5)
        assert got == W(5, "51234") + 3 * W(5, "41234")
        with pytest.raises(ValueError):
            cyclic_shift(W(2, "1") + W(2, "12"))
        with pytest.raises(ValueError):
            cyclic_shift(W(2, "12"), 3)

    def test_rotation_sums_are_shift_fixed(self):
        for n in range(1, 7):
            for w in necklaces(2, n):
                rot = rotation_sum(w)
                assert cyclic_shift(rot, n) == rot

    def test_shift_fixed_space_is_the_rotation_span(self):
        # the fixed space of the cyclic shift on one level coincides with
        # the span of the rotation sums over necklaces
        from loopinv.linalg import LevelVector, kernel, span_tensors, word_index
        from loopinv.words import necklaces

        for n in range(1, 6):
            constraints = []
            for w in all_words(2, n):
                shifted = (w[-1],) + w[:-1]
                if shifted != w:
                    constraints.append(
                        LevelVector(2, n, {word_index(w, 2): Q(1), word_index(shifted, 2): Q(-1)})
                    )
            fixed = kernel(2, n, constraints)
            rot_span = span_tensors(2, n, (rotation_sum(w) for w in necklaces(2, n)))
            assert fixed == rot_span

    def test_shift_fixed_elements_average_their_rotations(self, rng):
        # a shift-fixed homogeneous element equals the average of the
        # shifts of any element it came from, hence sits in the span of
        # rotation sums
        for n in range(1, 6):
            x = random_homogeneous(rng, 2, n)
            total = Z(2)
            y = x
            for _ in range(n):
                total = total + y
                y = cyclic_shift(y, n)
            assert cyclic_shift(total, n) == total


class TestClosingDual:
    def test_examples(self):
        assert closing_segment_dual(W(2, "1")) == -1 * W(2, "1")
        assert closing_segment_dual(W(2, "12")) == Q(1, 2) * (W(2, "12") + W(2, "21"))
        assert closing_segment_dual(E(2)) == E(2)

    def test_against_letter_shuffles(self, rng):
        # (-1)^n / n! times the actual shuffle product of the letters
        for _ in range(15):
            n = rng.randint(1, 6)
            letters = tuple(rng.randint(1, 2) for _ in range(n))
            expected = E(2)
            for a in letters:
                expected = shuffle(expected, W(2, (a,)))
            expected = Q((-1) ** n, math.factorial(n)) * expected
            assert closing_segment_dual(W(2, letters)) == expected


class TestClosures:
    def test_examples(self):
        assert right_closure(W(2, "1")).is_zero()
        assert right_closure(W(2, "12")) == Q(1, 2) * (W(2, "12") - W(2, "21"))
        assert left_closure(W(2, "1")).is_zero()
        assert left_closure(W(2, "12")) == Q(1, 2) * (W(2, "12") - W(2, "21"))
        assert left_closure(W(2, "112")) != right_closure(W(2, "112"))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_against_defining_composition(self, n):
        for w in all_words(2, n):
            x = W(2, w) if w else E(2)
            assert right_closure(x) == rcl_oracle(x)
            assert left_closure(x) == lcl_oracle(x)

    def test_linear_inputs(self, rng):
        for _ in range(10):
            x = random_element(rng, d=3, max_level=4)
            assert right_closure(x) == rcl_oracle(x)
            assert left_closure(x) == lcl_oracle(x)

    def test_idempotent(self, rng):
        for _ in range(12):
            x = random_element(rng, d=2, max_level=6, terms=4)
            assert right_closure(right_closure(x)) == right_closure(x)
            assert left_closure(left_closure(x)) == left_closure(x)

    def test_shuffle_homomorphism(self, rng):
        for _ in range(12):
            na = rng.randint(1, 3)
            a = random_homogeneous(rng, 2, na, terms=3)
            b = random_homogeneous(rng, 2, rng.randint(1, 6 - na), terms=3)
            assert right_closure(shuffle(a, b)) == shuffle(right_closure(a), right_closure(b))
            assert left_closure(shuffle(a, b)) == shuffle(left_closure(a), left_closure(b))

    def test_level_preserving(self, rng):
        x = random_homogeneous(rng, 2, 4)
        assert right_closure(x).is_homogeneous(4)


class TestLyndonBracketing:
    def test_examples(self):
        assert lyndon_bracketing(Word((1, 2), 2)) == W(2, "12") - W(2, "21")
        got = lyndon_bracketing(Word((1, 1, 2), 2))
        assert got == W(2, "112") - 2 * W(2, "121") + W(2, "211")
        with pytest.raises(ValueError):
            lyndon_bracketing(Word((2, 1), 2))

    def test_leading_word_property(self):
        for n in range(1, 7):
            for w in lyndon_words(2, n):
                poly = lyndon_bracketing(w)
                support = sorted(word.letters for word, _ in poly.items())
                assert support[0] == w.letters
                assert poly.coefficient(w) == 1


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(10):
            x = random_element(rng, d=3, max_level=4)
            assert tensor_from_json(tensor_to_json(x)) == x

    def test_wire_format(self):
        payload = tensor_to_json(Q(-1, 2) * W(2, "21") + W(2, "11"))
        assert payload == {
            "d": 2,
            "terms": [
                {"word": "11", "num": "1", "den": "1"},
                {"word": "21", "num": "-1", "den": "2"},
            ],
        }
