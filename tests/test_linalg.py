import pytest

from conftest import random_homogeneous
from loopinv._rat import Q
from loopinv.linalg import (
    Budget,
    BudgetExceeded,
    LevelVector,
    contains,
    index_word,
    intersect,
    kernel,
    member,
    member_tensor,
    orthogonal_complement,
    reduce_vector,
    span,
    span_tensors,
    subspace_sum,
    word_index,
)
from loopinv.tensor import TensorElement, rotation_sum
from loopinv.words import Word, all_words

W = TensorElement.word


def vec(x, n=None):
    return LevelVector.from_tensor(x, n)


def random_subspace(rng, d, n, rows):
    return span(d, n, [vec(random_homogeneous(rng, d, n), n) for _ in range(rows)])


class TestIndexing:
    def test_round_trip(self):
        for n in range(0, 5):
            for w in all_words(3, n):
                assert index_word(word_index(w, 3), 3, n) == w

    def test_lex_order_matches_index_order(self):
        words = list(all_words(2, 4))
        assert [word_index(w, 2) for w in words] == list(range(16))


class TestLevelVector:
    def test_from_tensor(self):
        v = vec(W(2, "12") - W(2, "21"))
        assert v.n == 2 and v.entries == {1: Q(1), 2: Q(-1)}
        assert v.to_tensor() == W(2, "12") - W(2, "21")

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            vec(W(2, "1") + W(2, "12"))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            LevelVector(2, 2, {4: Q(1)})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LevelVector(2, 1, {0: 0.1})
        assert LevelVector(2, 1, {0: "1/3", 1: 2}).entries == {0: Q(1, 3), 1: Q(2)}


class TestSpan:
    def test_independent_pair(self):
        s = span_tensors(2, 2, [W(2, "12") + W(2, "21"), W(2, "12") - W(2, "21")])
        assert s.dim == 2

    def test_dependence(self):
        s = span_tensors(2, 2, [W(2, "12"), 2 * W(2, "12")])
        assert s.dim == 1

    def test_empty(self):
        assert span(2, 2, []).dim == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            span(2, 2, [vec(W(2, "121"))])

    def test_rref_is_canonical(self, rng):
        # re-reducing a reduced basis reproduces it identically, and the
        # result does not depend on the order of the generators
        for _ in range(10):
            vectors = [vec(random_homogeneous(rng, 2, 3), 3) for _ in range(4)]
            s = span(2, 3, vectors)
            again = span(2, 3, s.basis_vectors())
            assert again == s
            shuffled = vectors[::-1]
            assert span(2, 3, shuffled) == s

    def test_pivots_normalized(self, rng):
        s = random_subspace(rng, 2, 3, 3)
        for pivot, row in zip(s.pivots, s.rows):
            assert row[pivot] == 1
            for other in s.rows:
                if other is not row:
                    assert pivot not in other


class TestKernel:
    def test_single_constraint(self):
        s = kernel(2, 2, [vec(W(2, "12") - W(2, "21"))])
        assert s.dim == 3

    def test_empty_constraints(self):
        assert kernel(2, 3, []).dim == 8

    def test_full_rank(self):
        rows = [vec(W(2, w), 2) for w in ("11", "12", "21", "22")]
        assert kernel(2, 2, rows).dim == 0

    def test_kernel_annihilates(self, rng):
        rows = [vec(random_homogeneous(rng, 2, 3), 3) for _ in range(3)]
        ker = kernel(2, 3, rows)
        from loopinv.tensor import pair

        for b in ker.basis_tensors():
            for r in rows:
                assert pair(r.to_tensor(), b) == 0


class TestComplement:
    def test_example(self):
        s = span_tensors(2, 2, [W(2, "12") - W(2, "21")])
        comp = orthogonal_complement(s)
        assert comp.dim == 3
        for t in (W(2, "12") + W(2, "21"), W(2, "11"), W(2, "22")):
            assert member_tensor(t, comp)

    def test_full_space(self):
        full = kernel(2, 2, [])
        assert orthogonal_complement(full).dim == 0

    def test_involution_and_dim_sum(self, rng):
        for _ in range(8):
            s = random_subspace(rng, 2, 3, rng.randint(0, 5))
            comp = orthogonal_complement(s)
            assert s.dim + comp.dim == 8
            assert orthogonal_complement(comp) == s


class TestSumIntersect:
    def test_self_intersection(self, rng):
        s = random_subspace(rng, 2, 3, 3)
        assert intersect(s, s) == s
        assert subspace_sum(s, s) == s

    def test_sum_example(self):
        a = span_tensors(2, 2, [W(2, "12")])
        b = span_tensors(2, 2, [W(2, "21")])
        assert subspace_sum(a, b).dim == 2

    def test_dimension_formula(self, rng):
        for _ in range(8):
            a = random_subspace(rng, 2, 3, rng.randint(1, 4))
            b = random_subspace(rng, 2, 3, rng.randint(1, 4))
            lhs = subspace_sum(a, b).dim
            assert lhs == a.dim + b.dim - intersect(a, b).dim

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(span(2, 2, []), span(2, 3, []))


class TestMembership:
    def test_rotation_sum_in_its_span(self):
        from loopinv.invariants import spaces_for

        conj4 = spaces_for(2).conjugation_invariants(4)
        assert member_tensor(rotation_sum(Word((1, 2, 1, 2), 2)), conj4)

    def test_area_not_conjugation_invariant(self):
        from loopinv.invariants import spaces_for

        conj2 = spaces_for(2).conjugation_invariants(2)
        assert not member_tensor(W(2, "12") - W(2, "21"), conj2)

    def test_zero_member_everywhere(self, rng):
        s = random_subspace(rng, 2, 2, 2)
        assert member(LevelVector(2, 2, {}), s)

    def test_contains(self, rng):
        s = random_subspace(rng, 2, 3, 4)
        sub = span(2, 3, s.basis_vectors()[:2])
        assert contains(s, sub)

    def test_reduce_vector(self):
        s = span_tensors(2, 2, [W(2, "11")])
        x = vec(W(2, "11") + W(2, "12"), 2)
        assert reduce_vector(x, s).to_tensor() == W(2, "12")


class TestBudget:
    def test_time_budget(self):
        budget = Budget(seconds=0.0)
        import time

        time.sleep(0.01)
        with pytest.raises(BudgetExceeded):
            budget.check()

    def test_bit_budget(self):
        with pytest.raises(BudgetExceeded):
            Budget(max_bits=8).check(bits=9)
        Budget(max_bits=8).check(bits=8)

    def test_threaded_through_span(self, rng):
        vectors = [vec(random_homogeneous(rng, 2, 4), 4) for _ in range(8)]
        with pytest.raises(BudgetExceeded):
            span(2, 4, vectors, Budget(seconds=-1.0))
