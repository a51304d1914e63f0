import time
from fractions import Fraction
from math import factorial

import pytest

import all_contents
from conftest import row_tensor
from test_tensor import anagrams_of, rcl_word_oracle
from loopinv.invariants import (
    BlockSpace,
    CrossCheckError,
    InvariantReport,
    InvariantSpaces,
    conjecture_evidence,
    inverse_euler_transform,
    signed_volume,
    spaces_for,
    verify_relations,
    zero_increment_content_dim,
    zero_increment_series_dim,
)
from loopinv import invariants, linalg, tensor
from loopinv.linalg import (
    Budget,
    BudgetExceeded,
    Subspace,
    contains,
    index_word,
    intersect,
    kernel,
    member_tensor,
    orthogonal_complement,
    span,
    subspace_sum,
    word_index,
)
from loopinv.tensor import (
    TensorElement,
    bracket,
    concat,
    lyndon_bracketing,
    right_closure,
    rotation_sum,
    shuffle,
)
from loopinv.words import Word, content_necklace_count, lyndon_words, necklaces

W = TensorElement.word


def with_block(space, content, block):
    """The BlockSpace with the block of one canonical content replaced."""
    return BlockSpace(space.orbits, {**space.blocks, content: block})


def first_word(content, d):
    """Index of the sorted word of a content."""
    return word_index([a + 1 for a, k in enumerate(content) for _ in range(k)], d)


class TestSeriesDims:
    def test_three_letter_series(self):
        assert [zero_increment_series_dim(3, n) for n in range(9)] == [
            1, 0, 3, 8, 24, 72, 216, 648, 1944,
        ]

    def test_two_letter_series(self):
        assert zero_increment_series_dim(2, 2) == 1
        assert [zero_increment_series_dim(2, n) for n in range(2, 11)] == [
            1, 2, 4, 8, 16, 32, 64, 128, 256,
        ]

    def test_level_one_is_empty(self):
        for d in range(2, 7):
            assert zero_increment_series_dim(d, 1) == 0


class TestInverseEuler:
    def test_two_letter_conjugation_dims(self):
        assert inverse_euler_transform([2, 3, 4, 6, 8, 14]) == [2, 0, 0, 1, 0, 4]

    def test_polynomial_algebra_on_one_generator(self):
        assert inverse_euler_transform([1] * 7) == [1, 0, 0, 0, 0, 0, 0]

    def test_relation_detection_at_deep_level(self):
        # a free algebra would need 64 new generators at level 12, the
        # actual minimal-generator count there is 68
        dims = [2, 3, 4, 6, 8, 14, 20, 36, 60, 108, 188, 352]
        assert inverse_euler_transform(dims)[-1] == 64

    def test_free_counts_at_level_four(self):
        assert inverse_euler_transform([3, 6, 11, 24, 51, 130])[-1] == 37
        assert inverse_euler_transform([4, 10, 24, 70])[-1] == 19
        assert inverse_euler_transform([5, 15, 45, 165])[-1] == 45
        assert inverse_euler_transform([6, 21, 76, 336])[-1] == 90


class TestSmallTables:
    def test_two_letters_through_level_six(self):
        sp = spaces_for(2)
        reports = [sp.report(n) for n in range(1, 7)]
        assert [r.dims["conjugation"] for r in reports] == [2, 3, 4, 6, 8, 14]
        assert [r.dims["logsignature"] for r in reports] == [2, 1, 2, 3, 6, 9]
        assert [r.dims["min_generators"] for r in reports] == [2, 0, 0, 1, 0, 4]
        assert [r.dims["V_n"] for r in reports] == [0, 1, 2, 4, 8, 16]
        assert [r.dims["bracket_VR"] for r in reports] == [0, 0, 2, 3, 8, 12]
        assert [r.dims["letter_reduced_conj"] for r in reports] == [0, 0, 0, 1, 0, 4]
        assert [r.dims["letter_reduced_loop"] for r in reports] == [0, 1, 0, 1, 0, 4]
        assert [r.dims["closure"] for r in reports] == [0, 1, 2, 4, 8, 16]
        assert [r.dims["S_n"] for r in reports] == [2, 3, 6, 12, 24, 48]

    def test_three_letters_through_level_four(self):
        sp = spaces_for(3)
        reports = [sp.report(n) for n in range(1, 5)]
        assert [r.dims["conjugation"] for r in reports] == [3, 6, 11, 24]
        assert [r.dims["V_n"] for r in reports] == [0, 3, 8, 24]
        assert [r.dims["bracket_VR"] for r in reports] == [0, 0, 8, 18]
        assert [r.dims["letter_reduced_loop"] for r in reports] == [0, 3, 0, 6]
        assert [r.dims["min_generators"] for r in reports] == [3, 0, 1, 6]

    def test_space_s_examples(self):
        assert spaces_for(2).letter_shuffle_ideal(2).dim == 3
        assert spaces_for(3).letter_shuffle_ideal(2).dim == 6
        assert spaces_for(2).letter_shuffle_ideal(1).dim == 2

    def test_space_v_level_zero_and_beyond(self):
        assert spaces_for(3).zero_increment_space(0).dim == 1
        assert spaces_for(3).zero_increment_space(1).dim == 0
        assert spaces_for(3).zero_increment_space(2).dim == 3

    def test_bracket_span_of_trivial_space(self):
        sp = spaces_for(2)
        assert sp.bracket_zero_increment(1).dim == 0
        assert sp.bracket_zero_increment(2).dim == 0


class TestLoopSpaces:
    def test_area_is_loop_but_not_conjugation_invariant(self):
        sp = spaces_for(2)
        area = W(2, "12") - W(2, "21")
        assert member_tensor(area, sp.loop_invariants(2))
        assert not member_tensor(area, sp.conjugation_invariants(2))

    def test_level_two_loop_invariants_fill_the_level(self):
        assert spaces_for(2).loop_invariants(2).dim == 4

    def test_conjugation_inside_loop(self):
        sp = spaces_for(3)
        for n in range(1, 5):
            assert contains(sp.loop_invariants(n), sp.conjugation_invariants(n))

    def test_letter_shuffle_ideal_inside_loop(self):
        sp = spaces_for(2)
        for n in range(1, 6):
            assert contains(sp.loop_invariants(n), sp.letter_shuffle_ideal(n))

    def test_closure_restricted_to_loop_stays_loop(self):
        sp = spaces_for(2)
        for n in range(1, 6):
            loop = sp.loop_invariants(n)
            for b in loop.basis_tensors():
                closed = right_closure(b)
                assert closed.is_zero() or member_tensor(closed, loop)


class TestClosureSpaces:
    def test_level_two_image(self):
        image = spaces_for(2).closure_invariants(2)
        assert image.dim == 1
        assert member_tensor(W(2, "12") - W(2, "21"), image)

    def test_kernel_of_closure_is_letter_shuffle_ideal(self):
        for d, top in ((2, 6), (3, 4)):
            sp = spaces_for(d)
            for n in range(1, top + 1):
                s = sp.letter_shuffle_ideal(n)
                # the closure kills S, and the image dimension says the
                # kernel cannot be anything bigger
                for b in s.basis_tensors():
                    assert right_closure(b).is_zero()
                assert sp.closure_invariants(n).dim == d**n - s.dim

    def test_direct_sum_with_letter_shuffle_ideal(self):
        sp = spaces_for(2)
        for n in range(1, 6):
            closure = sp.closure_invariants(n)
            s = sp.letter_shuffle_ideal(n)
            assert subspace_sum(closure, s).dim == 2**n
            assert intersect(closure, s).dim == 0

    def test_closed_loop_span_matches_letter_reduced_dim(self):
        for d, top in ((2, 6), (3, 4)):
            sp = spaces_for(d)
            for n in range(1, top + 1):
                assert sp.closed_loop_span(n).dim == sp.letter_reduced_loop_dim(n)


class TestFreeColumnRoutes:
    """The closure image and loop route B work on the free columns of S."""

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 5)])
    def test_against_all_words(self, d, top):
        # the replaced routes: the closure of every word, and the kernel of
        # the closure-difference rows over every column
        sp = spaces_for(d)
        for n in range(1, top + 1):
            words = range(d**n)
            image = span(d, n, (all_contents.closure_row({i: 1}, d, n) for i in words))
            assert sp.closure_invariants(n) == image
            full = kernel(d, n, all_contents.closure_difference_rows(d, n, words))
            assert sp.loop_invariants(n) == full

    @pytest.mark.parametrize("build", ["closure_invariants", "loop_invariants"])
    def test_premise_failure_raises(self, monkeypatch, build):
        real = tensor._rcl_row

        def perturbed(w):
            row = real(w)
            if w == (1, 2, 1, 2):
                row[anagrams_of((1, 1, 2, 2)).index((2, 2, 1, 1))] += 1
            return row

        monkeypatch.setattr(tensor, "_rcl_row", perturbed)
        sp = InvariantSpaces(2)
        with pytest.raises(CrossCheckError, match="does not vanish"):
            getattr(sp, build)(4)
        assert ("Sclosed", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_projection_certificate_has_teeth(self, monkeypatch, d):
        # doubling one content class keeps the closure zero on S, the image
        # and the closure-difference kernel; only the certificate sees it
        real = tensor._rcl_row

        def doubled(w):
            row = real(w)
            if sorted(w) == [1, 1, 2, 2]:
                row = [2 * c for c in row]
            return row

        monkeypatch.setattr(tensor, "_rcl_row", doubled)
        sp = InvariantSpaces(d)
        with pytest.raises(CrossCheckError, match="not the identity modulo"):
            sp.closures_vanish_on_shuffle_ideal(4)
        assert ("Sclosed", 4) not in sp._memo

    def test_route_b_keeps_pivot_rows_only(self, monkeypatch):
        counts = []
        real = invariants.kernel

        def counted(d, n, rows, budget=None, columns=None):
            rows = list(rows)
            if columns is not None:
                counts.append(len(rows))
            return real(d, n, rows, budget, columns)

        monkeypatch.setattr(invariants, "kernel", counted)
        sp = InvariantSpaces(3)
        sp.loop_invariants(5)
        s = sp.letter_shuffle_ideal(5)
        # one kernel per canonical block, on the pivot rows of its S only
        assert len(counts) == len(s.blocks)
        every_output = 0
        for count, (c, block) in zip(counts, s.blocks.items()):
            assert count <= block.dim
            free = sp._free_columns(5, c)
            every_output += len(sp._closure_difference_rows(5, c, free, range(3**5)))
        assert sum(b.dim for b in s.blocks.values()) < every_output


class TestOneRouteChecks:
    """conj, V and loop are built by one route and checked against the other
    by pairing, containment and dimension, on each canonical block.  Each
    fault below breaks one of those checks and must raise without storing
    the space."""

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 5)])
    def test_against_replaced_routes(self, d, top):
        sp = spaces_for(d)
        for n in range(1, top + 1):
            brackets = all_contents.letter_bracket_rows(sp, n)
            assert sp.conjugation_invariants(n) == kernel(d, n, brackets)
            assert sp.zero_increment_space(n) == orthogonal_complement(sp.letter_shuffle_ideal(n))
            assert sp.loop_invariants(n) == orthogonal_complement(sp.bracket_zero_increment(n))

    def test_report_takes_no_complement(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orthogonal_complement called while building a report")

        monkeypatch.setattr(invariants, "orthogonal_complement", refuse)
        sp = InvariantSpaces(2)
        for n in range(1, 7):
            sp.report(n)

    @staticmethod
    def assert_refused(sp, build, n, key, match="disagree"):
        with pytest.raises(CrossCheckError, match=match):
            getattr(sp, build)(n)
        assert (key, n) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_perturbed_rotation_row(self, monkeypatch, d):
        # 2 * 1112 + 1121 + 1211 + 2111 keeps the dimension of its block
        # but leaves the bracket kernel
        real = InvariantSpaces._rotation_row
        target = Word((1, 1, 1, 2), d)

        def perturbed(self, w):
            row = real(self, w)
            if w == target:
                row[1] += 1
            return row

        monkeypatch.setattr(InvariantSpaces, "_rotation_row", perturbed)
        self.assert_refused(
            InvariantSpaces(d), "conjugation_invariants", 4, "conj", "rotation span and bracket"
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotation_row_leaving_its_content(self, monkeypatch, d):
        # 4 * 1111 + 1112 pairs to zero with the bracket rows of 1111's
        # block; only the content of its rows sees it
        real = InvariantSpaces._rotation_row
        target = necklaces(d, 4)[0]

        def perturbed(self, w):
            row = real(self, w)
            if w == target:
                row[1] = 1
            return row

        monkeypatch.setattr(InvariantSpaces, "_rotation_row", perturbed)
        self.assert_refused(InvariantSpaces(d), "conjugation_invariants", 4, "conj", "leaves its content")

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_necklace(self, monkeypatch, d):
        # every row stays in the bracket kernel, but the block of 1111 is
        # empty where the necklace count is 1
        real = InvariantSpaces._necklaces

        def dropped(self, c):
            return [w for w in real(self, c) if w.letters != (1, 1, 1, 1)]

        monkeypatch.setattr(InvariantSpaces, "_necklaces", dropped)
        self.assert_refused(InvariantSpaces(d), "conjugation_invariants", 4, "conj", "necklace count")

    @pytest.mark.parametrize("d", [2, 3])
    def test_bracket_rows_missing(self, monkeypatch, d):
        # the rotation span keeps its closed-form dimension and pairs to zero
        # with no rows at all, but N_c - rank is then N_c
        monkeypatch.setattr(InvariantSpaces, "_letter_bracket_rows", lambda self, n, c: iter(()))
        self.assert_refused(
            InvariantSpaces(d), "conjugation_invariants", 4, "conj", "rotation span and bracket"
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_pbw_product(self, monkeypatch, d):
        # the first canonical block with a product, (3, 1), loses it
        real = InvariantSpaces._pbw_products
        monkeypatch.setattr(
            InvariantSpaces, "_pbw_products", lambda self, c, factors: real(self, c, factors)[:-1]
        )
        self.assert_refused(InvariantSpaces(d), "zero_increment_space", 4, "V", "closed form")

    @pytest.mark.parametrize("d", [2, 3])
    def test_perturbed_pbw_product(self, monkeypatch, d):
        # the span keeps its dimension, but the unit vector of a block's
        # first word pairs with the shuffle of its first letter with the
        # rest of the word
        real = InvariantSpaces._pbw_products

        def perturbed(self, c, factors):
            rows = real(self, c, factors)
            if rows:
                k = first_word(c, self.d)
                rows[-1] = dict(rows[-1])
                rows[-1][k] = rows[-1].get(k, 0) + 1
            return rows

        monkeypatch.setattr(InvariantSpaces, "_pbw_products", perturbed)
        self.assert_refused(
            InvariantSpaces(d), "zero_increment_space", 4, "V", "shuffle-ideal complement"
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_shuffle_ideal_missing_a_row(self, d):
        # P still pairs to zero with S and matches the closed form, but
        # S^perp is now larger than P in the block of 1122
        sp = InvariantSpaces(d)
        s = sp.letter_shuffle_ideal(4)
        c = (2, 2) + (0,) * (d - 2)
        block = s.blocks[c]
        smaller = Subspace(d, 4, block.pivots[:-1], block.rows[:-1])
        sp._memo[("S", 4)] = with_block(s, c, smaller)
        self.assert_refused(sp, "zero_increment_space", 4, "V", "shuffle-ideal complement")

    @pytest.mark.parametrize("d", [2, 3])
    def test_stray_row_in_bracket_space(self, d):
        # the unit vector of 1111 lies outside V and grows [V, letters]
        sp = InvariantSpaces(d)
        brackets = sp.bracket_zero_increment(4)
        c = (4,) + (0,) * (d - 1)
        grown = span(d, 4, brackets.blocks[c].rows + ({0: 1},))
        sp._memo[("bracketV", 4)] = with_block(brackets, c, grown)
        assert sp.bracket_zero_increment(4).dim == brackets.dim + brackets.orbits.sizes[c]
        self.assert_refused(sp, "loop_invariants", 4, "loop")

    @pytest.mark.parametrize("d", [2, 3])
    def test_bracket_row_outside_v(self, d):
        # adding a pivot column of S to one row keeps the dimension and
        # the pairing with the free-column kernel; only containment in V fails
        sp = InvariantSpaces(d)
        brackets = sp.bracket_zero_increment(4)
        c = (2, 2) + (0,) * (d - 2)
        block = brackets.blocks[c]
        p = sp.letter_shuffle_ideal(4).blocks[c].pivots[0]
        first = dict(block.rows[0])
        first[p] = first.get(p, 0) + 1
        moved = span(d, 4, (first,) + block.rows[1:])
        assert moved.dim == block.dim
        sp._memo[("bracketV", 4)] = with_block(brackets, c, moved)
        self.assert_refused(sp, "loop_invariants", 4, "loop")

    @staticmethod
    def patch_free_kernel(monkeypatch, change):
        real = invariants.kernel

        def patched(d, n, rows, budget=None, columns=None):
            out = real(d, n, rows, budget, columns)
            return out if columns is None else change(out, columns)

        monkeypatch.setattr(invariants, "kernel", patched)

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_kernel_row(self, monkeypatch, d):
        # S + K stays inside the complement of [V, letters] but falls short
        self.patch_free_kernel(
            monkeypatch, lambda k, columns: Subspace(k.d, k.n, k.pivots[:-1], k.rows[:-1])
        )
        self.assert_refused(InvariantSpaces(d), "loop_invariants", 4, "loop")

    @pytest.mark.parametrize("d", [2, 3])
    def test_kernel_row_off_the_complement(self, monkeypatch, d):
        # a row of [V, letters] of the block added to a kernel row keeps
        # dim(S + K) but pairs to a nonzero with itself
        sp = InvariantSpaces(d)
        brackets = sp.bracket_zero_increment(4)

        def shifted(k, columns):
            rows = k.rows and brackets.blocks[all_contents.content_of(columns[0], d, 4)].rows
            if not rows:
                return k
            first = dict(k.rows[0])
            for j, c in rows[0].items():
                first[j] = first.get(j, 0) + c
            return Subspace(k.d, k.n, k.pivots, (first,) + k.rows[1:])

        self.patch_free_kernel(monkeypatch, shifted)
        self.assert_refused(sp, "loop_invariants", 4, "loop")


class TestBlockChecks:
    """The remaining per-block checks, each with a fault that only it sees."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_closure_image_short_of_v(self, d):
        sp = InvariantSpaces(d)
        v = sp.zero_increment_space(4)
        c = (2, 2) + (0,) * (d - 2)
        block = v.blocks[c]
        sp._memo[("V", 4)] = with_block(v, c, Subspace(d, 4, block.pivots[1:], block.rows[1:]))
        with pytest.raises(CrossCheckError, match="differs from dim V"):
            sp.closure_invariants(4)
        assert ("closure", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_closure_image_meeting_s(self, monkeypatch, d):
        # n! rcl(e_f) - n! e_f lies in S: at level 2 the image becomes
        # 12 + 21, of the dimension of V but inside S
        sp = InvariantSpaces(d)
        sp.zero_increment_space(2)
        sp.closures_vanish_on_shuffle_ideal(2)
        real = InvariantSpaces._closure_row

        def into_s(self, row, n):
            out = real(self, row, n)
            (f, one), = row.items()
            out[f] = out.get(f, 0) - factorial(n) * one
            return out

        monkeypatch.setattr(InvariantSpaces, "_closure_row", into_s)
        with pytest.raises(CrossCheckError, match="do not complement"):
            sp.closure_invariants(2)
        assert ("closure", 2) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_rotation_rank_short(self, d):
        sp = InvariantSpaces(d)
        rank = sp.closed_rotation_span(4)
        c = (2, 2) + (0,) * (d - 2)
        block = rank.blocks[c]
        assert block.dim == 1
        sp._memo[("rclrot", 4)] = with_block(rank, c, Subspace(d, 4, (), ()))
        with pytest.raises(CrossCheckError, match="quotient and rank"):
            sp.letter_reduced_conj_dim(4)
        assert ("lrconj", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_loop_span_off_the_chain(self, d):
        # [V, letters] grown after the loop space was built
        sp = InvariantSpaces(d)
        sp.loop_invariants(4)
        brackets = sp.bracket_zero_increment(4)
        c = (4,) + (0,) * (d - 1)
        grown = span(d, 4, brackets.blocks[c].rows + ({0: 1},))
        sp._memo[("bracketV", 4)] = with_block(brackets, c, grown)
        with pytest.raises(CrossCheckError, match="letter-reduced loop dimension"):
            sp.closed_loop_span(4)
        assert ("rclloop", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_conjugation_escaping_loop(self, d):
        # every other cell of the report is built; then a row of
        # [V, letters], which pairs to a nonzero with itself, joins conj
        sp = InvariantSpaces(d)
        sp.letter_reduced_conj_dim(4)
        sp.min_generator_count(4)
        sp.closure_invariants(4)
        conj = sp.conjugation_invariants(4)
        c = (2, 2) + (0,) * (d - 2)
        stray = sp.bracket_zero_increment(4).blocks[c].rows[0]
        sp._memo[("conj", 4)] = with_block(conj, c, span(d, 4, conj.blocks[c].rows + (stray,)))
        with pytest.raises(CrossCheckError, match="escape the loop"):
            sp.report(4)
        assert ("report", 4) not in sp._memo


class TestOrbits:
    """Each level is built on one canonical content per letter-permutation
    orbit; the other blocks are renamed copies."""

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 7), (4, 6), (5, 4)])
    def test_orbits_cover_the_level(self, d, top):
        sp = InvariantSpaces(d)
        for n in range(top + 1):
            orbits = sp._orbits(n)
            assert all(list(c) == sorted(c, reverse=True) for c in orbits.canonical)
            assert sorted(m for c in orbits.canonical for m in orbits.members(c)) == sorted(
                all_contents.contents(d, n)
            )
            assert all(len(orbits.members(c)) == orbits.sizes[c] for c in orbits.canonical)
            assert sum(orbits.sizes[c] * len(orbits.words(c)) for c in orbits.canonical) == d**n

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 5)])
    def test_against_all_contents(self, d, top):
        # every assembled level against its rows of all contents at once,
        # and every minimal-generator count against all-pairs products
        sp = InvariantSpaces(d)
        wholes = {}
        for n in range(1, top + 1):
            wholes[n] = all_contents.whole_level(sp, n, wholes.get(n - 1))
            for name, method in all_contents.METHODS.items():
                space = getattr(sp, method)(n)
                assert space == wholes[n][name], (name, n)
                assert space.dim == wholes[n][name].dim
            for family, name in (("conj", "conj"), ("loop_closure", "rclloop")):
                expected = all_contents.min_generators(sp, n, wholes, name)
                assert sp.min_generator_count(n, family) == expected, (family, n)

    @pytest.mark.parametrize("d, top", [(3, 6), (4, 5)])
    def test_renamed_blocks_against_direct(self, d, top):
        # the block of every non-canonical content, renamed from its
        # canonical content, spans the block built on the content itself
        sp = spaces_for(d)
        direct = {}
        for n in range(1, top + 1):
            orbits = sp._orbits(n)
            direct[n] = {
                c: all_contents.block(sp, n, c, direct.get(n - 1)) for c in all_contents.contents(d, n)
            }
            for name, method in all_contents.METHODS.items():
                space = getattr(sp, method)(n)
                for c in orbits.canonical:
                    assert space.blocks[c] == direct[n][c][name], (name, n, c)
                    for member in orbits.members(c):
                        renamed = span(d, n, space.block(member))
                        assert renamed == direct[n][member][name], (name, n, member)

    def test_report_assembles_no_level(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a whole level was assembled while building a report")

        monkeypatch.setattr(BlockSpace, "whole", refuse)
        for d, top in ((2, 7), (3, 5), (4, 4)):
            sp = InvariantSpaces(d)
            for n in range(1, top + 1):
                sp.report(n)

    def test_closed_forms_against_counts(self):
        for d, top in ((2, 10), (3, 7), (4, 5)):
            for n in range(1, top + 1):
                found = {}
                for w in necklaces(d, n):
                    c = tuple(w.letters.count(a) for a in range(1, d + 1))
                    found[c] = found.get(c, 0) + 1
                for c in all_contents.contents(d, n):
                    assert content_necklace_count(c) == found.get(c, 0)
                assert sum(map(zero_increment_content_dim, all_contents.contents(d, n))) == (
                    zero_increment_series_dim(d, n)
                )

    LEVEL_METHODS = [
        "conjugation_invariants", "letter_shuffle_ideal", "zero_increment_space",
        "bracket_zero_increment", "closures_vanish_on_shuffle_ideal", "loop_invariants",
        "closure_invariants", "closed_rotation_span", "letter_reduced_loop_dim",
        "letter_reduced_conj_dim", "closed_loop_span", "min_generator_count", "report",
    ]

    @pytest.mark.parametrize("d", [2, 3])
    def test_level_zero(self, d):
        # V(0) is the one-dimensional span of the empty word, which [V,
        # letters] at level 1 needs; the other spaces start at level 1
        sp = InvariantSpaces(d)
        assert sp.space("V", 0).dim == 1
        assert sp.space("V", 0).rows == ({0: 1},)
        for name in self.LEVEL_METHODS:
            method = getattr(sp, name)
            for n in (0, -1):
                if (name, n) == ("zero_increment_space", 0):
                    continue
                least = 0 if name == "zero_increment_space" else 1
                with pytest.raises(ValueError, match="level must be at least %d, got %d$" % (least, n)):
                    method(n)

    def test_shuffle_generators_shuffled_once(self, monkeypatch):
        # the closure proof reuses the generator rows kept by the build of S
        sp = InvariantSpaces(3)
        sp.letter_shuffle_ideal(5)
        calls = []
        real = tensor._shuffle_words_into
        monkeypatch.setattr(tensor, "_shuffle_words_into", lambda *a: calls.append(a) or real(*a))
        assert sp.closures_vanish_on_shuffle_ideal(5)
        assert calls == []
        assert 5 not in sp._shuffle_generators


class TestClosureTable:
    @pytest.mark.parametrize("d, top", [(3, 6), (2, 9)])
    def test_against_word_dp(self, d, top):
        # one row per word of a canonical content, and no other
        sp = InvariantSpaces(d)
        for n in range(top + 1):
            table = sp._closure_table(n)
            canonical = {c for c in all_contents.contents(d, n) if list(c) == sorted(c, reverse=True)}
            assert sorted(table) == [
                k for k in range(d**n) if all_contents.content_of(k, d, n) in canonical
            ]
            for k, row in table.items():
                expected = rcl_word_oracle(index_word(k, d, n))
                assert row == {word_index(x, d): c for x, c in expected.items()}

    def test_interrupted_table_is_not_stored(self):
        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded):
            sp._closure_table(4)
        assert sp._closure_tables == {}
        sp.budget = None
        assert sp._closure_table(4) is sp._closure_table(4)


class TestMinGenerators:
    def test_conjugation_family(self):
        assert spaces_for(2).min_generator_count(4) == 1
        assert spaces_for(3).min_generator_count(3) == 1

    FAMILIES = {"conj": "conjugation_invariants", "loop_closure": "closed_loop_span"}

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 6)])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_against_all_pairs(self, d, top, family):
        # generator products against all products of two whole-level rows
        sp = spaces_for(d)
        space_of = getattr(sp, self.FAMILIES[family])
        wholes = {n: {family: space_of(n)} for n in range(1, top + 1)}
        for n in range(1, top + 1):
            expected = all_contents.min_generators(sp, n, wholes, family)
            assert sp.min_generator_count(n, family) == expected, n

    def test_products_have_a_generator_factor(self, monkeypatch):
        sp = InvariantSpaces(2)
        for n in range(1, 9):
            sp.min_generator_count(n)
        calls = []
        real = sp._shuffle_row
        monkeypatch.setattr(sp, "_shuffle_row", lambda *args: calls.append(args) or real(*args))
        assert sp.min_generator_count(9) == 8
        # all pairs of rows of the blocks take 118 products
        assert 0 < len(calls) <= 57
        for a, na, b, nb in calls:
            assert a in sp.minimal_generators(na).block(all_contents.content_of(min(a), 2, na))
            assert b in sp.conjugation_invariants(nb).block(all_contents.content_of(min(b), 2, nb))

    def test_dropped_generator_changes_a_later_count(self):
        # the oracle has teeth: without the one generator of level 4,
        # the products with a generator no longer span the decomposables
        sp = InvariantSpaces(2)
        gens = sp.minimal_generators(4)
        assert gens.dim == 1
        (c,) = [c for c, b in gens.blocks.items() if b.dim]
        sp._memo[("gens", 4, "conj")] = with_block(gens, c, Subspace(2, 4, (), ()))
        wholes = {n: {"conj": sp.conjugation_invariants(n)} for n in range(1, 9)}
        assert any(
            sp.min_generator_count(n) != all_contents.min_generators(sp, n, wholes, "conj")
            for n in range(5, 9)
        )

    def test_generators_share_the_family_rows(self):
        sp = InvariantSpaces(3)
        for n in range(1, 7):
            conj, gens = sp.conjugation_invariants(n), sp.minimal_generators(n)
            assert gens.dim == sp.min_generator_count(n)
            for c, block in gens.blocks.items():
                stored = dict(zip(conj.blocks[c].pivots, conj.blocks[c].rows))
                assert all(stored[p] is row for p, row in zip(block.pivots, block.rows))

    def test_loop_closure_family(self):
        sp = spaces_for(2)
        counts = [sp.min_generator_count(n, family="loop_closure") for n in range(1, 7)]
        # level-2 area is the first generator; everything at level <= 6
        # except level-6 brings nothing beyond products
        assert counts[0] == 0 and counts[1] == 1
        assert all(c >= 0 for c in counts)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            spaces_for(2).min_generator_count(2, family="nope")


class TestLieBasisElements:
    def test_bracketings_are_primitive(self):
        from loopinv.invariants import LieBasisElement
        from loopinv.words import lyndon_words

        for d, top in ((2, 6), (3, 4)):
            for n in range(1, top + 1):
                for w in lyndon_words(d, n):
                    assert LieBasisElement.for_word(w).is_primitive()

    def test_square_of_a_letter_is_not_primitive(self):
        from loopinv.invariants import LieBasisElement
        from loopinv.words import Word

        fake = LieBasisElement(Word((1, 1), 2), W(2, "11"))
        assert not fake.is_primitive()


class TestRelations:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_identities_hold(self, d):
        for check in verify_relations(d):
            assert check.holds, check.name

    def test_signed_volume_matches_rotations(self):
        vol = signed_volume(3, 1, 2, 3)
        expected = (
            W(3, "123") + W(3, "231") + W(3, "312")
            - W(3, "213") - W(3, "132") - W(3, "321")
        )
        assert vol == expected


class TestEvidence:
    def test_two_letter_levels(self):
        sp = spaces_for(2)
        for n in range(1, 7):
            ev = conjecture_evidence(sp, n)
            assert ev.loop_matches_s_plus_area_conj
            assert ev.closure_conj_intersection_dim == 0

    def test_area_square_is_closed_rotation(self):
        ev = conjecture_evidence(spaces_for(2), 4)
        assert ("area12*area12", True) in ev.area_product_membership

    def test_distinct_letter_product_is_not(self):
        ev = conjecture_evidence(spaces_for(4), 4)
        assert ("area12*area34", False) in ev.area_product_membership
        assert ("area12*area13", True) in ev.area_product_membership

    def test_area_conj_algebra_contains_its_generators(self):
        sp = spaces_for(2)
        alg4 = sp.area_conjugation_algebra(4)
        area = W(2, "12") - W(2, "21")
        assert member_tensor(shuffle(area, area), alg4)
        assert contains(alg4, sp.conjugation_invariants(4))

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 6), (4, 5), (5, 4)])
    def test_area_conj_algebra_against_all_generators(self, d, top):
        # areas times the level two below against every generator times every row
        sp = spaces_for(d)
        expected = all_contents.area_conjugation_algebra(sp, top)
        for n in range(1, top + 1):
            assert sp.area_conjugation_algebra(n) == expected[n], n

    def test_every_area_product_is_reported(self):
        # the 15 areas of six letters have 120 products of two
        ev = conjecture_evidence(spaces_for(6), 4)
        assert len(ev.area_product_membership) == 120
        assert ev.area_product_membership[-1][0] == "area56*area56"

    def test_decomposables_outside_the_conjugation_invariants_raise(self, monkeypatch):
        # B_n rests on conj being a shuffle subalgebra, checked before B is built
        units = iter(range(16))
        sp = InvariantSpaces(2)
        TestReportValidation.patch_level_four(sp, monkeypatch, lambda row: {next(units): 1})
        with pytest.raises(CrossCheckError, match="decomposables escaped the family"):
            conjecture_evidence(sp, 4)
        assert ("areaconj", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_whole_level_complement(self, d, monkeypatch):
        def refuse(*args):
            raise AssertionError("whole-level complement or intersection in evidence")

        monkeypatch.setattr(invariants, "intersect", refuse)
        monkeypatch.setattr(linalg, "orthogonal_complement", refuse)
        sp = InvariantSpaces(d)
        for n in range(1, 7):
            conjecture_evidence(sp, n)

    def test_areas_shuffle_the_level_two_below(self, monkeypatch):
        sp = InvariantSpaces(2)
        for n in range(1, 9):
            sp.report(n)
        calls = []
        real = sp._shuffle_row
        monkeypatch.setattr(sp, "_shuffle_row", lambda *args: calls.append(args) or real(*args))
        for n in range(1, 9):
            conjecture_evidence(sp, n)
        # every generator times every row below takes 1892 products
        assert 0 < len(calls) <= 50
        assert all(na == 2 for _, na, _, _ in calls)


class TestReportValidation:
    def test_broken_dims_raise(self):
        good = spaces_for(2).report(2).dims
        bad = dict(good)
        bad["closure"] = bad["closure"] + 1
        with pytest.raises(CrossCheckError):
            InvariantReport(2, 2, bad)

    def test_fresh_pipeline_reproduces_shared_one(self):
        fresh = InvariantSpaces(2)
        assert fresh.report(3) == spaces_for(2).report(3)

    def test_budget_interface(self):
        from loopinv.linalg import Budget, BudgetExceeded

        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1.0)
        with pytest.raises(BudgetExceeded):
            sp.report(4)
        sp.budget = None
        assert sp.report(4).dims["conjugation"] == 6

    @staticmethod
    def patch_level_four(sp, monkeypatch, stray):
        """Level-4 products go through stray(row)."""
        real = sp._shuffle_row

        def shuffle_row(a, na, b, nb):
            row = real(a, na, b, nb)
            return stray(row) if na + nb == 4 else row

        monkeypatch.setattr(sp, "_shuffle_row", shuffle_row)

    @classmethod
    def assert_escapes(cls, sp, monkeypatch, stray):
        """Level-4 products go through stray(row); the count must fail."""
        cls.patch_level_four(sp, monkeypatch, stray)
        with pytest.raises(CrossCheckError, match="escaped the family"):
            sp.min_generator_count(4)
        assert ("mingen", 4, "conj") not in sp._memo
        assert ("gens", 4, "conj") not in sp._memo

    def test_decomposables_outside_the_family_raise(self, monkeypatch):
        # unit rows stand in for the products of level 4; the second, the
        # word 1112, is not a conjugation invariant
        units = iter(range(16))
        self.assert_escapes(InvariantSpaces(2), monkeypatch, lambda row: {next(units): 1})

    def test_decomposables_within_the_rank_outside_the_family_raise(self, monkeypatch):
        # every product of content (2, 2) becomes the word 1122: their span
        # has dimension 1, below the 2 of the conjugation invariants of
        # that content, but it holds no conjugation invariant
        def stray(row):
            return {3: 1} if all_contents.content_of(min(row), 2, 4) == (2, 2) else row

        self.assert_escapes(InvariantSpaces(2), monkeypatch, stray)


class TestMemo:
    """The memo behind every space method of InvariantSpaces."""

    def test_hit_returns_stored_object(self, monkeypatch):
        sp = InvariantSpaces(2)
        first = sp.conjugation_invariants(4)
        monkeypatch.setattr(invariants, "span", None)  # a rebuild would fail
        assert sp.conjugation_invariants(4) is first

    def test_failed_build_stores_nothing(self, monkeypatch):
        sp = InvariantSpaces(2)
        monkeypatch.setattr(invariants, "zero_increment_series_dim", lambda d, n: -1)
        with pytest.raises(CrossCheckError, match="generating series"):
            sp.zero_increment_space(4)
        assert ("V", 4) not in sp._memo
        monkeypatch.undo()
        assert sp.zero_increment_space(4).dim == zero_increment_series_dim(2, 4)
        assert ("V", 4) in sp._memo

    def test_default_family_shares_entry(self, monkeypatch):
        sp = InvariantSpaces(2)
        count = sp.min_generator_count(4)
        monkeypatch.setattr(invariants, "span", None)  # a rebuild would fail
        assert sp.min_generator_count(4, family="conj") == count
        assert sp.min_generator_count(4, "conj") == count
        assert sum(key[0] == "mingen" for key in sp._memo) == 1


class TestBudgetInHeavyLoops:
    """An expired budget stops each row-building loop before elimination."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    CLOSURE_LOOPS = {
        "closures_vanish_on_shuffle_ideal": "Sclosed",
        "closure_invariants": "closure",
        "loop_invariants": "loop",
    }

    @pytest.mark.parametrize("build", list(CLOSURE_LOOPS))
    def test_closure_table(self, monkeypatch, build):
        # every input but the closure rows of the space itself is built;
        # the closure table is dropped, so the build has to make it again
        sp = InvariantSpaces(2)
        sp.zero_increment_space(5)
        if build != "closures_vanish_on_shuffle_ideal":
            sp.closures_vanish_on_shuffle_ideal(5)
        sp._closure_tables.clear()
        calls = self.count_calls(monkeypatch, tensor, "_rcl_row")
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            getattr(sp, build)(5)
        assert err.value.space == (self.CLOSURE_LOOPS[build], 5)
        assert calls == []
        # the counter sees the table: without a budget it is built row by row
        sp.budget = None
        getattr(sp, build)(5)
        assert len(calls) == len(sp._closure_table(5)) > 1

    def test_lazy_span_input(self, monkeypatch):
        calls = self.count_calls(monkeypatch, tensor, "_rcl_row")
        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded):
            sp.closed_rotation_span(6)
        assert calls == []
        sp.budget = None
        sp.closed_rotation_span(6)
        assert len(calls) == len(sp._closure_table(6)) > 1

    def test_names_the_space(self):
        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            sp.report(4)
        assert err.value.space == ("conj", 4)
        assert str(err.value).endswith("in ('conj', 4)")
        # the memo of a completed space is kept; the next one is named
        sp.budget = None
        sp.conjugation_invariants(4)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            sp.report(4)
        assert err.value.space == ("S", 4)

    def test_pbw_products(self):
        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded):
            sp._pbw_products((3, 3), sp._pbw_factors(6, [(3, 3)]))

    def test_necklaces(self):
        # the necklaces of a level are listed one content at a time, under
        # the budget: listing all of d=9, level 7 at once takes seconds.
        # The budget is well below the 0.5-0.8 s that all of conj takes, so
        # it always runs out inside conj
        sp = InvariantSpaces(9)
        sp.budget = Budget(seconds=0.1)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as err:
            sp.report(7)
        assert time.monotonic() - start < 2
        assert err.value.space == ("conj", 7)

    def test_min_generator_shuffles(self, monkeypatch):
        sp = InvariantSpaces(2)
        for k in range(1, 6):
            sp.conjugation_invariants(k)
        calls = self.count_calls(monkeypatch, tensor, "_shuffle_words_into")
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded):
            sp.min_generator_count(6)
        assert calls == []


def _random_row(rng, d, n):
    return {rng.randrange(d**n): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}


def _random_canonical_row(rng, d, n):
    """A random row on the words of one canonical content."""
    canonical = [c for c in all_contents.contents(d, n) if list(c) == sorted(c, reverse=True)]
    words = all_contents.words_of(rng.choice(canonical), d)
    return {rng.choice(words): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}


def _pbw_products_oracle(d, n):
    """Concatenated Lyndon bracketings as tensor elements, in the order of
    all_contents.pbw_products."""
    basis = sorted((w for k in range(2, n + 1) for w in lyndon_words(d, k)), key=lambda w: w.letters)
    out = []

    def extend(start, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start, len(basis)):
            w = basis[i]
            if len(w.letters) <= remaining:
                poly = lyndon_bracketing(w)
                extend(i, remaining - len(w.letters), poly if acc is None else concat(acc, poly))

    extend(0, n, None)
    return out


class TestRowOperators:
    """The integer row operators against the tensor operations they replace."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_against_tensor_operations(self, d, rng):
        sp = InvariantSpaces(d)
        for _ in range(15):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            a, b = _random_row(rng, d, na), _random_row(rng, d, nb)
            ta, tb = row_tensor(d, na, a), row_tensor(d, nb, b)
            assert row_tensor(d, na + nb, sp._shuffle_row(a, na, b, nb)) == shuffle(ta, tb)
            closable = _random_canonical_row(rng, d, na)
            assert row_tensor(d, na, sp._closure_row(closable, na)) == factorial(na) * right_closure(
                row_tensor(d, na, closable)
            )
            i = rng.randrange(d)
            letter = TensorElement.word(d, (i + 1,))
            assert row_tensor(d, na + 1, sp._bracket_row(a, na, i)) == bracket(ta, letter)
        for n in range(1, 5):
            for w in necklaces(d, n):
                assert row_tensor(d, n, sp._rotation_row(w)) == rotation_sum(w)

    def test_shuffle_row_with_zero_entry(self):
        # a zero coefficient adds nothing: 0 shuffled with 0 is 2 * 00
        assert InvariantSpaces(2)._shuffle_row({0: 1, 1: 0}, 1, {0: 1}, 1) == {0: 2}

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 4)])
    def test_pbw_products(self, d, n):
        # every content, canonical or not: the products of all contents,
        # in order, restricted to the content
        sp = InvariantSpaces(d)
        every = all_contents.pbw_products(d, n)
        assert [row_tensor(d, n, r) for r in every] == _pbw_products_oracle(d, n)
        factors = sp._pbw_factors(n, all_contents.contents(d, n))
        for c in all_contents.contents(d, n):
            own = [r for r in every if all_contents.content_of(min(r), d, n) == c]
            assert sp._pbw_products(c, factors) == own

    def test_lyndon_words_once_per_level(self, monkeypatch):
        # the PBW factors of a level are listed once, not once per block
        calls = []
        real = invariants.lyndon_words
        monkeypatch.setattr(invariants, "lyndon_words", lambda d, k: calls.append(k) or real(d, k))
        InvariantSpaces(3).zero_increment_space(6)
        assert sorted(calls) == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 5)])
    def test_letter_reduced_conj_against_intersection(self, d, top):
        # the route the quotient formula replaced: dim V - dim(V meet brackets)
        sp = spaces_for(d)
        for n in range(1, top + 1):
            v = sp.zero_increment_space(n)
            brackets = span(d, n, all_contents.letter_bracket_rows(sp, n))
            assert v.dim - intersect(brackets, v).dim == sp.letter_reduced_conj_dim(n)


class TestIntegerPipeline:
    def test_report_forms_no_rational(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rational object was formed while building a report")

        monkeypatch.setattr(TensorElement, "__init__", refuse)
        monkeypatch.setattr(TensorElement, "_raw", refuse)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert InvariantSpaces(2).report(7).dims["conjugation"] == 20
        assert InvariantSpaces(3).report(5).dims["conjugation"] == 51
