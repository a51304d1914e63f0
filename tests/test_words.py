import itertools

import pytest

from loopinv.invariants import InvariantSpaces
from loopinv.paths import PiecewiseLinearPath
from loopinv.tensor import TensorElement
from loopinv.words import (
    Word,
    all_words,
    anagrams,
    is_lyndon,
    lyndon_count,
    lyndon_words,
    min_rotation,
    necklace_count,
    necklaces,
    repetition_count,
    rotations,
    standard_factorization,
)


def brute_lyndon(d, n):
    """Independent oracle: words strictly below all their proper rotations."""
    out = []
    for w in itertools.product(range(1, d + 1), repeat=n):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


def brute_necklaces(d, n):
    """Independent oracle: distinct minimal rotations of all words."""
    return sorted({min(rotations(w)) for w in itertools.product(range(1, d + 1), repeat=n)})


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word((0, 1), 2)
        with pytest.raises(ValueError):
            Word((1, 3), 2)
        with pytest.raises(ValueError):
            Word((1,), 0)
        assert len(Word((), 3)) == 0
        assert str(Word((1, 4, 3), 4)) == "143"
        assert str(Word((), 2)) == "e"

    def test_letters_are_exact_integers(self):
        # int() would truncate 1.9 to 1 and read True as 1
        for letters in ((1.9, 2), (True, 2), (1, 2.0)):
            with pytest.raises(TypeError):
                Word(letters, 2)
        with pytest.raises(TypeError):
            TensorElement(2, {(1.5, 2): 1})
        assert Word(("1", 2), 2) == Word((1, 2), 2)

    def test_alphabet_size_is_an_exact_integer(self):
        # a float alphabet was a 2.5-letter one, and True read as d=1; each
        # is refused up front, by the exact-integer reader, before the
        # check of d >= 1 could call 0.5 too small
        refused = "exact .* expected, got the (float|bool)"
        for d in (2.5, 2.0, 0.5, True):
            for make in (
                lambda: Word((1,), d),
                lambda: TensorElement(d, {(1,): 1}),
                lambda: InvariantSpaces(d),
                lambda: PiecewiseLinearPath(d, [[1] * int(d)]),
                lambda: lyndon_words(d, 3),
                lambda: necklaces(d, 2),
            ):
                with pytest.raises(TypeError, match=refused):
                    make()

    def test_from_string(self):
        assert Word.from_string("143", 4).letters == (1, 4, 3)
        with pytest.raises(ValueError):
            Word.from_string("19", 2)

    def test_equality_includes_alphabet(self):
        assert Word((1, 2), 2) != Word((1, 2), 3)
        assert Word((1, 2), 2) == Word((1, 2), 2)

    def test_all_words_order_and_count(self):
        words = list(all_words(2, 3))
        assert len(words) == 8
        assert words == sorted(words)
        assert words[0] == (1, 1, 1) and words[-1] == (2, 2, 2)
        assert list(all_words(3, 0)) == [()]


class TestRotations:
    def test_rotations(self):
        assert rotations((1, 2, 2)) == [(1, 2, 2), (2, 2, 1), (2, 1, 2)]

    def test_min_rotation_is_smallest(self):
        for w in itertools.product((1, 2, 3), repeat=4):
            m = min_rotation(w)
            assert m in rotations(w)
            assert all(m <= r for r in rotations(w))

    def test_repetition_count(self):
        assert repetition_count((1, 2, 1, 2)) == 2
        assert repetition_count((1, 2, 3)) == 1
        assert repetition_count((1, 1, 1, 1)) == 4
        with pytest.raises(ValueError):
            repetition_count(())

    def test_repetition_is_maximal(self):
        for n in range(1, 7):
            for w in itertools.product((1, 2), repeat=n):
                k = repetition_count(w)
                assert n % k == 0
                base = w[: n // k]
                assert base * k == w
                for bigger in range(k + 1, n + 1):
                    assert not (n % bigger == 0 and w[: n // bigger] * bigger == w)


class TestLyndon:
    def test_examples(self):
        assert [str(w) for w in lyndon_words(2, 1)] == ["1", "2"]
        assert [str(w) for w in lyndon_words(2, 4)] == ["1112", "1122", "1222"]
        assert len(lyndon_words(3, 3)) == 8

    @pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 6)])
    def test_against_brute_force(self, d, n):
        ours = [w.letters for w in lyndon_words(d, n)]
        assert ours == brute_lyndon(d, n)
        assert len(ours) == lyndon_count(d, n)

    def test_counts_match_log_signature_dims(self):
        assert [lyndon_count(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        assert [lyndon_count(3, n) for n in range(1, 7)] == [3, 3, 8, 18, 48, 116]

    @pytest.mark.parametrize("d,n", [(2, 0), (3, -1), (0, 3), (-1, 2), (0, 0)])
    def test_refuses_a_level_or_alphabet_below_one(self, d, n):
        # the count refuses what the enumeration refuses, the same way
        for count in (lyndon_count, lyndon_words):
            with pytest.raises(ValueError, match="need d >= 1 and n >= 1"):
                count(d, n)

    def test_standard_factorization(self):
        assert standard_factorization((1, 2)) == ((1,), (2,))
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        with pytest.raises(ValueError):
            standard_factorization((2, 1))
        with pytest.raises(ValueError):
            standard_factorization((1,))

    def test_factorization_properties(self):
        for n in range(2, 7):
            for w in lyndon_words(2, n):
                left, right = standard_factorization(w.letters)
                assert left + right == w.letters
                assert is_lyndon(left) and is_lyndon(right)
                # right factor is the lexicographically smallest proper suffix
                suffixes = [w.letters[i:] for i in range(1, len(w))]
                assert right == min(suffixes)


class TestAnagrams:
    @pytest.mark.parametrize("n", range(8))
    def test_against_permutations(self, n):
        # letters and count tuples alike, zeros included
        for t in itertools.combinations_with_replacement(range(4), n):
            assert anagrams(t) == tuple(sorted(set(itertools.permutations(t))))


class TestNecklaces:
    def test_examples(self):
        assert [str(w) for w in necklaces(2, 2)] == ["11", "12", "22"]
        assert len(necklaces(2, 6)) == 14
        assert len(necklaces(3, 4)) == 24

    @pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 6)] + [(4, 4), (6, 3)])
    def test_against_brute_force(self, d, n):
        ours = [w.letters for w in necklaces(d, n)]
        assert ours == brute_necklaces(d, n)
        assert len(ours) == necklace_count(d, n)

    def test_representatives_are_minimal_rotations(self):
        for w in necklaces(3, 5):
            assert w.letters == min_rotation(w.letters)

    def test_closed_form_columns(self):
        assert [necklace_count(2, n) for n in range(1, 7)] == [2, 3, 4, 6, 8, 14]
        assert [necklace_count(3, n) for n in range(1, 7)] == [3, 6, 11, 24, 51, 130]
        assert [necklace_count(5, n) for n in range(1, 5)] == [5, 15, 45, 165]
        assert [necklace_count(6, n) for n in range(1, 5)] == [6, 21, 76, 336]

    @pytest.mark.parametrize("d,n", [(2, 0), (3, -1), (0, 3), (-1, 2), (0, 0)])
    def test_refuses_a_level_or_alphabet_below_one(self, d, n):
        for count in (necklace_count, necklaces):
            with pytest.raises(ValueError, match="need d >= 1 and n >= 1"):
                count(d, n)
