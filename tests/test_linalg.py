from array import array
from math import gcd

import pytest

import all_contents
from conftest import random_homogeneous, tensor_row
from loopinv import linalg
from loopinv._rat import Q
from loopinv.linalg import (
    Budget,
    BudgetExceeded,
    CrossCheckError,
    Subspace,
    _modular_rank,
    contains,
    index_word,
    intersect,
    kernel,
    member_tensor,
    orthogonal,
    orthogonal_complement,
    span,
    span_tensors,
    subspace_sum,
    word_index,
)
from loopinv.tensor import TensorElement, rotation_sum
from loopinv.words import Word, all_words

W = TensorElement.word


def random_subspace(rng, d, n, rows):
    return span_tensors(d, n, [random_homogeneous(rng, d, n) for _ in range(rows)])


class TestIndexing:
    def test_round_trip(self):
        for n in range(0, 5):
            for w in all_words(3, n):
                assert index_word(word_index(w, 3), 3, n) == w

    def test_lex_order_matches_index_order(self):
        words = list(all_words(2, 4))
        assert [word_index(w, 2) for w in words] == list(range(16))


class TestTensorBoundary:
    def test_from_tensor(self):
        x = W(2, "12") - W(2, "21")
        s = span_tensors(2, 2, [x])
        assert s == span(2, 2, [{1: 1, 2: -1}])
        assert s.basis_tensors() == [x]
        assert span_tensors(2, 2, [Q(2, 3) * x]) == s

    @pytest.mark.parametrize(
        "x", [W(2, "1") + W(2, "12"), W(2, "121"), W(3, "12")],
        ids=["inhomogeneous", "wrong_level", "wrong_alphabet"],
    )
    def test_rejects_wrong_level_or_alphabet(self, x):
        with pytest.raises(ValueError):
            span_tensors(2, 2, [W(2, "11"), x])
        with pytest.raises(ValueError):
            member_tensor(x, span(2, 2, [{0: 1}]))


class TestLevelVector:
    """A vector of level n over d letters enters as a raw row
    ``{word index: exact coefficient}`` or as a TensorElement."""

    def test_rejects_bad_index(self):
        # the index bound is d**n of the level the row is given at
        assert span(2, 2, [{2: 1}]).dim == 1
        with pytest.raises(ValueError):
            span(2, 1, [{2: 1}])
        with pytest.raises(ValueError):
            kernel(2, 1, [{2: 1}])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            kernel(2, 1, [{0: 0.1}])
        with pytest.raises(TypeError):
            span_tensors(2, 1, [0.1 * W(2, "1")])
        assert span(2, 1, [{0: Q(1, 3), 1: 2}]).rows == ({0: 1, 1: 6},)


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
            span_tensors(2, 2, [W(2, "121")])

    def test_raw_rows(self):
        s = span(2, 2, [{0: 2, 3: 0, 1: Q(2, 3)}, {1: 0}])
        assert s == span_tensors(2, 2, [3 * W(2, "11") + W(2, "12")])
        assert s.rows == ({0: 3, 1: 1},)
        assert kernel(2, 2, [{0: 1, 1: -1}]) == kernel(2, 2, [{0: Q(1, 2), 1: Q(-1, 2)}])

    @pytest.mark.parametrize("build", [span, kernel])
    @pytest.mark.parametrize("index", [4, -1])
    def test_raw_row_index_outside_level(self, build, index):
        with pytest.raises(ValueError):
            build(2, 2, [{0: 1}, {index: 1}])
        with pytest.raises(ValueError):
            build(2, 2, [{index: 0}])

    def test_raw_row_rejects_floats(self):
        with pytest.raises(TypeError):
            span(2, 2, [{0: 0.5}])

    @pytest.mark.parametrize("value", [True, False])
    def test_raw_row_rejects_bools(self, value):
        # bool subclasses int: True would read as 1 and False as a zero
        s = span(2, 1, [{0: 1}])
        with pytest.raises(TypeError):
            span(2, 1, [{0: value}])
        with pytest.raises(TypeError):
            kernel(2, 1, [{0: value}])
        with pytest.raises(TypeError):
            orthogonal(2, 1, s.rows, [{0: value}])

    def test_rref_is_canonical(self, rng):
        # re-reducing a reduced basis reproduces it identically, and the
        # result does not depend on the order of the generators
        for _ in range(10):
            elements = [random_homogeneous(rng, 2, 3) for _ in range(4)]
            s = span_tensors(2, 3, elements)
            again = span_tensors(2, 3, s.basis_tensors())
            assert again == s
            shuffled = elements[::-1]
            assert span_tensors(2, 3, shuffled) == s

    def test_pivots_normalized(self, rng):
        # stored rows are coprime integers with a positive pivot that no
        # other row touches; the exported basis has the same shape with
        # pivot entries 1
        for _ in range(10):
            s = random_subspace(rng, 2, 3, rng.randint(1, 5))
            assert s.dim > 0
            for pivot, row in zip(s.pivots, s.rows):
                assert all(type(v) is int for v in row.values())
                assert gcd(*row.values()) == 1
                assert row[pivot] > 0 and min(row) == pivot
                assert all(pivot not in other for other in s.rows if other is not row)
            basis = [tensor_row(b, 3) for b in s.basis_tensors()]
            for pivot, v in zip(s.pivots, basis):
                assert v[pivot] == 1 and min(v) == pivot
                assert all(pivot not in w for w in basis if w is not v)


class TestKernel:
    def test_single_constraint(self):
        s = kernel(2, 2, [{1: 1, 2: -1}])
        assert s.dim == 3

    def test_empty_constraints(self):
        assert kernel(2, 3, []).dim == 8

    def test_full_rank(self):
        rows = [{k: 1} for k in range(4)]
        assert kernel(2, 2, rows).dim == 0

    def test_kernel_annihilates(self, rng):
        elements = [random_homogeneous(rng, 2, 3) for _ in range(3)]
        ker = kernel(2, 3, [tensor_row(x, 3) for x in elements])
        from loopinv.tensor import pair

        for b in ker.basis_tensors():
            for x in elements:
                assert pair(x, b) == 0

    def test_on_a_subset_of_columns(self, rng):
        # the kernel among vectors supported on the columns is the full
        # kernel with the unit constraints x_k = 0 off the columns added
        for _ in range(8):
            columns = sorted(rng.sample(range(16), rng.randint(1, 16)))
            rows = [
                {k: rng.randint(-3, 3) for k in rng.sample(columns, min(3, len(columns)))}
                for _ in range(rng.randint(0, 5))
            ]
            off = [{k: 1} for k in range(16) if k not in columns]
            assert kernel(2, 4, rows, columns=columns) == kernel(2, 4, rows + off)

    def test_row_outside_the_columns(self):
        with pytest.raises(ValueError, match="outside the given columns"):
            kernel(2, 2, [{0: 1, 3: 2}], columns=[0, 1, 2])


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


class TestGuards:
    """Dimension identities every result must satisfy raise CrossCheckError,
    which ``python -O`` keeps, unlike an assert."""

    def test_rank_nullity(self):
        # a reduced form that lists one pivot twice
        with pytest.raises(CrossCheckError, match="rank-nullity"):
            linalg._null_space(2, 2, [(0, {0: 1}), (0, {0: 1})], None)

    def test_dropped_null_row(self, monkeypatch):
        s = span(2, 2, [{0: 1}])
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda rows, budget=None: real(rows, budget)[:-1])
        with pytest.raises(CrossCheckError, match="dependent"):
            orthogonal_complement(s)

    def test_intersection_dimension_formula(self, monkeypatch):
        a, b = span(2, 2, [{0: 1}, {1: 1}]), span(2, 2, [{1: 1}, {2: 1}])
        real = linalg.subspace_sum

        def short(x, y, budget=None):
            # the sum a + b that the dimension formula reads loses a row
            out = real(x, y, budget)
            if (x, y) == (a, b):
                out = Subspace(out.d, out.n, out.pivots[:-1], out.rows[:-1])
            return out

        monkeypatch.setattr(linalg, "subspace_sum", short)
        with pytest.raises(CrossCheckError, match="dimension formula"):
            intersect(a, b)


class TestMembership:
    def test_rotation_sum_in_its_span(self):
        from loopinv.invariants import spaces_for

        conj4 = spaces_for(2).conjugation_invariants(4)
        assert member_tensor(rotation_sum(Word((1, 2, 1, 2), 2)), conj4)

    def test_budget_per_reduction(self):
        s = span(2, 2, [{1: 1, 2: -1}])
        with pytest.raises(BudgetExceeded):
            member_tensor(W(2, "12") - W(2, "21"), s, Budget(seconds=-1.0))
        assert member_tensor(W(2, "12") - W(2, "21"), s, Budget(seconds=1000))

    def test_area_not_conjugation_invariant(self):
        from loopinv.invariants import spaces_for

        conj2 = spaces_for(2).conjugation_invariants(2)
        assert not member_tensor(W(2, "12") - W(2, "21"), conj2)

    def test_zero_member_everywhere(self, rng):
        for d, n in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)]:
            zero = TensorElement.zero(d)
            assert member_tensor(zero, span(d, n, []))
            assert member_tensor(zero, random_subspace(rng, d, n, 2))

    def test_member_agrees_with_sum_dimension(self, rng):
        seen = set()
        for _ in range(40):
            d, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            s = random_subspace(rng, d, n, rng.randint(0, 5))
            # half the candidates are rational combinations of the basis,
            # so both answers occur
            if rng.random() < 0.5:
                x = TensorElement.zero(d)
                for b in s.basis_tensors():
                    x = x + Q(rng.randint(-4, 4), rng.randint(1, 3)) * b
            else:
                x = Q(2, 3) * random_homogeneous(rng, d, n)
            expected = subspace_sum(s, span_tensors(d, n, [x])).dim == s.dim
            assert member_tensor(x, s) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_contains(self, rng):
        s = random_subspace(rng, 2, 3, 4)
        sub = span_tensors(2, 3, s.basis_tensors()[:2])
        assert contains(s, sub)

    def test_contains_agrees_with_sum_dimension(self, rng):
        seen = set()
        for _ in range(40):
            d, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            outer = random_subspace(rng, d, n, rng.randint(0, 5))
            # half the inner spaces are spanned by outer rows, some plus a
            # random vector, so both answers occur
            inner_rows = list(outer.rows[: rng.randint(0, outer.dim)])
            if rng.random() < 0.5:
                inner_rows.append(tensor_row(random_homogeneous(rng, d, n), n))
            inner = span(d, n, inner_rows)
            expected = subspace_sum(outer, inner).dim == outer.dim
            assert contains(outer, inner) == expected
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("inner_shape", [(2, 2), (3, 3)])
    def test_contains_shape_mismatch(self, rng, inner_shape):
        outer = random_subspace(rng, 2, 3, 3)
        for rows in ([], [{0: 1}]):
            with pytest.raises(ValueError):
                contains(outer, span(*inner_shape, rows))


def random_int_row(rng, size):
    return {rng.randrange(size): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}


class TestOrthogonal:
    @staticmethod
    def double_loop(s, rows):
        return all(
            sum(c * row.get(k, 0) for k, c in stored.items()) == 0
            for row in rows
            for stored in s.rows
        )

    def test_agrees_with_double_loop(self, rng):
        seen = set()
        for _ in range(60):
            d, n = rng.choice([(2, 3), (2, 4), (3, 2)])
            s = span(d, n, [random_int_row(rng, d**n) for _ in range(rng.randint(0, 4))])
            # rows of the complement pair to zero; a random row mostly does not
            rows = list(orthogonal_complement(s).rows)
            rows = rng.sample(rows, rng.randint(0, len(rows)))
            if rng.random() < 0.5:
                rows.append(random_int_row(rng, d**n))
            before = [dict(r) for r in rows]
            expected = self.double_loop(s, rows)
            assert orthogonal(d, n, s.rows, rows) == expected
            assert rows == before
            seen.add(expected)
        assert seen == {True, False}

    def test_one_pair_that_is_not_orthogonal(self):
        s = [{0: 1, 1: 2}]
        assert orthogonal(2, 2, s, [{0: -2, 1: 1}, {2: 5}])
        assert not orthogonal(2, 2, s, [{0: -2, 1: 1}, {1: 1, 3: 1}])
        assert orthogonal(2, 2, [], [{1: 1}])
        assert orthogonal(2, 2, s, [])

    @pytest.mark.parametrize("row", [{8: 1}, {-1: 1}, {0: 1, 20: 2}])
    def test_shape_mismatch(self, row):
        with pytest.raises(ValueError):
            orthogonal(2, 3, [{0: 1}], [row])

    def test_stops_at_the_first_nonzero_pairing(self):
        # each row is paired as it is drawn: no row after the first
        # nonzero pairing is drawn
        def rows():
            yield {1: 1}
            yield {0: 1, 3: 1}
            raise AssertionError("a row was drawn after a nonzero pairing")

        assert not orthogonal(2, 2, [{0: 1}], rows())

    def test_agrees_with_the_dict_route(self, rng):
        # a family with a dependent row among them, and drawn rows that
        # grow, so that the columns are packed again for wider slots
        seen = set()
        for _ in range(150):
            d, n = rng.choice([(2, 3), (2, 4), (3, 2)])
            stored = [random_int_row(rng, d**n) for _ in range(rng.randint(1, 4))]
            stored.append({k: -2 * v for k, v in stored[0].items()})
            rows = [
                {k: v << rng.randint(0, 80) for k, v in row.items()}
                for row in orthogonal_complement(span(d, n, stored)).rows
            ]
            if rng.random() < 0.5:
                rows.insert(rng.randint(0, len(rows)), random_int_row(rng, d**n))
            expected = all_contents.orthogonal(d, n, stored, rows)
            assert orthogonal(d, n, stored, rows) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_a_slot_one_bit_narrower_gives_a_false_zero(self):
        # c pairs to 4 with s_0 and to -1 with s_1.  The slot is the bit
        # length of max|s| * sum|c| = 4, 3 bits; in 2-bit slots the
        # columns 2 + 1 * 4 and 2 - 2 * 4 pair with c to zero
        s = [{0: 2, 1: 2}, {0: 1, 1: -2}]
        c = {0: 1, 1: 1}

        def paired(bits):
            return sum(
                x * sum(row[k] << bits * i for i, row in enumerate(s)) for k, x in c.items()
            )

        assert (2 * 1 * 2).bit_length() == 3
        assert paired(2) == 0 != paired(3)
        assert not orthogonal(2, 1, s, [c])

    def test_a_dense_slot_one_bit_narrower_gives_a_false_zero(self):
        # the case above read densely, against the family packed by
        # position: 3-bit slots, the stated width, see the pairing to 4;
        # a pack one bit narrower than asked reads zero
        s = [{0: 2, 1: 2}, {0: 1, 1: -2}]
        pack, largest = linalg._packed_by_column(s, {0: 0, 1: 1})
        c = array("q", [1, 1])
        assert largest == 2 and (largest * sum(c)).bit_length() == 3
        assert not linalg._pairs_to_zero(pack, largest, [c])
        assert linalg._pairs_to_zero(lambda need: pack(need - 1), largest, [c])

    def test_dense_rows_agree_with_the_dict_route(self, rng):
        # the same rows, dense by position and sparse by column, against
        # the family packed each way; rows that grow make a wider pack
        seen = set()
        for _ in range(150):
            size = rng.randint(1, 9)
            columns = sorted(rng.sample(range(40), size))
            position = {k: j for j, k in enumerate(columns)}
            family = [
                {k: rng.randint(-5, 5) for k in rng.sample(columns, rng.randint(1, size))}
                for _ in range(rng.randint(1, 4))
            ]
            family = [row for row in ({k: v for k, v in r.items() if v} for r in family) if row]
            rows = [
                [row.get(k, 0) << rng.randint(0, 80) for k in columns]
                for row in kernel(2, 6, family, None, columns).rows
            ]
            if rng.random() < 0.5 or not rows:
                rows.insert(rng.randint(0, len(rows)), [rng.randint(-3, 3) for _ in columns])
            sparse = [{k: x for k, x in zip(columns, row) if x} for row in rows]
            expected = all_contents.orthogonal(2, 6, family, sparse)
            dense = linalg._pairs_to_zero(*linalg._packed_by_column(family, position), rows)
            assert dense == linalg._pairs_to_zero(*linalg._packed_by_column(family), sparse) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_dense_row_of_another_length(self):
        pack, largest = linalg._packed_by_column([{0: 1}], {0: 0, 1: 1})
        for row in ([0], [0, 0, 0]):
            with pytest.raises(ValueError, match="dense row of %d entries against 2 columns" % len(row)):
                linalg._pairs_to_zero(pack, largest, [row])

    def test_empty_space_still_checks_each_row(self):
        with pytest.raises(ValueError):
            orthogonal(2, 2, [], [{9: 1}])
        with pytest.raises(TypeError):
            orthogonal(2, 2, [], [{1: 0.5}])

    def test_budget_per_row(self):
        s = [{0: 1}]
        assert orthogonal(2, 2, s, [], Budget(seconds=-1.0))
        with pytest.raises(BudgetExceeded):
            orthogonal(2, 2, s, [{1: 1}], Budget(seconds=-1.0))


class CountingBudget(Budget):
    """A budget that never runs out and counts its checks."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self, bits: int = 0) -> None:
        self.checks += 1


class TestModularRank:
    """The rank modulo the prime of dense rows of a given width, read up to a stop."""

    @staticmethod
    def counted(rows, read):
        """The rows, appending each to ``read`` as it is drawn."""
        return (read.append(row) or row for row in rows)

    def test_full_rank(self):
        rows = [[1, 3, 0], [0, 2, -1], [4, 0, 9]]
        assert _modular_rank(rows, 3, None) == 3
        assert _modular_rank([], 3, None) == 0
        for stop in range(1, 4):
            read = []
            assert _modular_rank(self.counted(rows, read), 3, stop) == stop
            assert read == rows[:stop]

    def test_stops_at_the_row_that_reaches_the_stop(self):
        rows = [[1, 2, 0], [2, 4, 0], [0, 1, 1], [0, 0, 5]]
        read = []
        assert _modular_rank(self.counted(rows, read), 3, 2) == 2
        assert read == rows[:3]
        # a stop above the rank reads every row
        read = []
        assert _modular_rank(self.counted(rows[:3], read), 3, 3) == 2
        assert read == rows[:3]

    def test_stop_zero_reads_no_row(self):
        read = []
        assert _modular_rank(self.counted([[1, 0]], read), 2, 0) == 0
        assert read == []

    def test_small_prime_falls_short_of_the_exact_rank(self, monkeypatch):
        # 1, 4 and 1, 1 agree modulo 3, so the rank there is 1, not 2
        rows = [[1, 1], [1, 4]]
        assert _modular_rank(rows, 2, None) == span(2, 1, all_contents.as_dicts(rows, range(2))).dim == 2
        monkeypatch.setattr(linalg, "_PRIME", 3)
        assert _modular_rank(rows, 2, None) == 1
        assert _modular_rank(rows, 2, 2) == 1

    def test_never_exceeds_the_exact_rank(self, rng, monkeypatch):
        seen = set()
        for prime in (linalg._PRIME, 3):
            monkeypatch.setattr(linalg, "_PRIME", prime)
            for _ in range(80):
                size = rng.randint(1, 8)
                columns = sorted(rng.sample(range(16), size))
                rows = [
                    [rng.randint(-40000, 40000) * rng.randint(0, 1) for _ in columns]
                    for _ in range(rng.randint(0, 8))
                ]
                rank = span(2, 4, all_contents.as_dicts(rows, columns)).dim
                modular = _modular_rank(rows, size, None)
                assert modular <= rank
                seen.add(modular == rank)
                for stop in range(1, rank + 2):
                    assert _modular_rank(rows, size, stop) == min(stop, modular)
        assert seen == {True, False}

    def test_agrees_with_the_dense_route(self, rng, monkeypatch):
        # large and negative entries, zeros, and rows that are combinations
        # of earlier ones, for every stop
        seen = set()
        for prime in (linalg._PRIME, 3):
            monkeypatch.setattr(linalg, "_PRIME", prime)
            for _ in range(60):
                width = rng.randint(1, 9)
                rows = [
                    [rng.randint(-2**40, 2**40) * rng.randint(0, 1) for _ in range(width)]
                    for _ in range(rng.randint(0, 7))
                ]
                for a, b in [rng.sample(rows, 2) for _ in range(rng.randint(0, 3)) if len(rows) > 1]:
                    rows.append([3 * x - y for x, y in zip(a, b)])
                rng.shuffle(rows)
                full = all_contents.modular_rank(rows, None)
                seen.add(full < len(rows))
                for stop in [None] + list(range(width + 2)):
                    assert _modular_rank(rows, width, stop) == all_contents.modular_rank(rows, stop)
        assert seen == {True, False}

    def test_a_slot_one_bit_narrower_gives_a_false_zero(self, monkeypatch):
        # with p = 2^32 - 5 two reduction steps leave x + 2 p (p - 1) in
        # slot 2, a 65-bit value for x = 2^64 mod p: it carries into slot 3,
        # and both then read 0 modulo p, though the third row is independent
        p = 2**32 - 5
        monkeypatch.setattr(linalg, "_PRIME", p)
        rows = [[1, p - 1, 0, p - 1], [0, 1, 0, p - 1], [p - 1, 0, 2**64 % p, 1]]
        assert (2**64 % p + 2 * p * (p - 1)).bit_length() == 65
        assert all_contents.modular_rank(rows, None) == 3
        assert _modular_rank(rows, 4, None) == 2
        # the real prime: below 2^33 steps a slot stays below p + steps * p^2
        monkeypatch.undo()
        assert (linalg._PRIME + 2**33 * linalg._PRIME**2).bit_length() <= 64
        assert _modular_rank(rows, 4, None) == all_contents.modular_rank(rows, None)

    def test_dense_rows(self, rng):
        # the rows of test_full_rank and a dependent one, as array('q'),
        # list or tuple
        dense = [[1, 3, 0], [0, 2, -1], [4, 0, 9], [1, 5, -1]]
        assert _modular_rank([array("q", r) for r in dense], 3, None) == 3
        assert _modular_rank(map(tuple, dense), 3, None) == 3
        assert _modular_rank([dense[0], dense[1], dense[3]], 3, None) == 2
        for stop in range(1, 4):
            read = []
            assert _modular_rank(self.counted(dense, read), 3, stop) == stop
            assert read == dense[:stop]
        for _ in range(40):
            width = rng.randint(1, 7)
            rows = [[rng.randint(-2**40, 2**40) * rng.randint(0, 1) for _ in range(width)]
                    for _ in range(rng.randint(0, 6))]
            assert _modular_rank(rows, width, None) == span(2, 5, all_contents.as_dicts(rows, range(width))).dim

    def test_dense_row_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="dense rank row of 2 entries for 3 columns"):
            _modular_rank([[1, 0]], 3, None)
        with pytest.raises(ValueError, match="dense rank row of 4 entries for 3 columns"):
            _modular_rank([(1, 0, 0), array("q", [0, 1, 0, 0])], 3, None)

    def test_budget_per_row(self):
        rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        budget = CountingBudget()
        assert _modular_rank(rows, 3, 2, budget) == 2
        assert budget.checks == 2
        budget = CountingBudget()
        assert _modular_rank(rows, 3, None, budget) == 3
        assert budget.checks == 4
        with pytest.raises(BudgetExceeded):
            _modular_rank(rows, 3, 2, Budget(seconds=-1.0))
        assert _modular_rank(rows, 3, 0, Budget(seconds=-1.0)) == 0


class TestBudget:
    def test_time_budget(self):
        budget = Budget(seconds=0.0)
        import time

        time.sleep(0.01)
        with pytest.raises(BudgetExceeded):
            budget.check()

    def test_nan_seconds_refused(self):
        # NaN compares false, so check() would never raise
        with pytest.raises(ValueError, match="nan"):
            Budget(seconds=float("nan"))
        Budget(seconds=float("inf")).check()

    def test_nan_max_bits_refused(self):
        # NaN compares false, so check() would pass any size
        with pytest.raises(ValueError, match="max_bits must be a number, not nan"):
            Budget(max_bits=float("nan"))
        Budget(max_bits=float("inf")).check(10**6)
        with pytest.raises(BudgetExceeded):
            Budget(max_bits=2**70).check(2**71)

    def test_bool_or_non_number_refused(self):
        # False would refuse every elimination and True be a 1 s budget; a
        # string would fail only at the first check inside a heavy loop
        for bad in (False, True, "5", Q(1, 2), [1]):
            with pytest.raises(TypeError, match="must be an int or a float"):
                Budget(seconds=bad)
            with pytest.raises(TypeError, match="must be an int or a float"):
                Budget(max_bits=bad)
        Budget(seconds=5, max_bits=8.0).check(8)

    def test_huge_int_seconds(self):
        # an int past the range of a float is a number, not a NaN
        budget = Budget(seconds=10**400)
        budget.check()
        assert budget.seconds == 10**400

    def test_bit_budget(self):
        with pytest.raises(BudgetExceeded):
            Budget(max_bits=8).check(bits=9)
        Budget(max_bits=8).check(bits=8)

    def test_bits_of_combined_rows(self):
        # the pivots are small, but cancelling column 0 leaves a 20-bit entry
        rows = [{0: 1, 1: 3}, {0: 2, 2: 2**20}]
        with pytest.raises(BudgetExceeded):
            span(2, 2, rows, Budget(max_bits=8))
        assert span(2, 2, rows, Budget(max_bits=20)).dim == 2

    def test_threaded_through_span(self, rng):
        elements = [random_homogeneous(rng, 2, 4) for _ in range(8)]
        with pytest.raises(BudgetExceeded):
            span_tensors(2, 4, elements, Budget(seconds=-1.0))
