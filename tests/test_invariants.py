import pytest

from loopinv.invariants import (
    CrossCheckError,
    InvariantReport,
    InvariantSpaces,
    area_conjugation_algebra,
    conjecture_evidence,
    inverse_euler_transform,
    signed_volume,
    spaces_for,
    verify_relations,
    zero_increment_series_dim,
)
from loopinv import invariants, tensor
from loopinv.linalg import Budget, BudgetExceeded, contains, intersect, member_tensor, subspace_sum
from loopinv.tensor import TensorElement, right_closure, shuffle

W = TensorElement.word


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


class TestMinGenerators:
    def test_conjugation_family(self):
        assert spaces_for(2).min_generator_count(4) == 1
        assert spaces_for(3).min_generator_count(3) == 1

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
        alg4 = area_conjugation_algebra(sp, 4)
        area = W(2, "12") - W(2, "21")
        assert member_tensor(shuffle(area, area), alg4)
        assert contains(alg4, sp.conjugation_invariants(4))


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
        sp.set_budget(Budget(seconds=-1.0))
        with pytest.raises(BudgetExceeded):
            sp.report(4)
        sp.set_budget(None)
        assert sp.report(4).dims["conjugation"] == 6


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

    @pytest.mark.parametrize("build", ["closure_invariants", "_closure_difference_rows"])
    def test_closure_table(self, monkeypatch, build):
        calls = self.count_calls(monkeypatch, tensor, "_rcl_word")
        sp = InvariantSpaces(2)
        sp.set_budget(Budget(seconds=-1))
        with pytest.raises(BudgetExceeded):
            getattr(sp, build)(5)
        assert len(calls) <= 1

    def test_lazy_span_input(self, monkeypatch):
        calls = self.count_calls(monkeypatch, invariants, "right_closure")
        sp = InvariantSpaces(2)
        sp.set_budget(Budget(seconds=-1))
        with pytest.raises(BudgetExceeded):
            sp.closed_rotation_span(6)
        assert len(calls) <= 1

    def test_pbw_products(self):
        sp = InvariantSpaces(2)
        sp.set_budget(Budget(seconds=-1))
        with pytest.raises(BudgetExceeded):
            sp._pbw_products(6)

    def test_min_generator_shuffles(self, monkeypatch):
        sp = InvariantSpaces(2)
        for k in range(1, 6):
            sp.conjugation_invariants(k)
        calls = self.count_calls(monkeypatch, invariants, "shuffle")
        sp.set_budget(Budget(seconds=-1))
        with pytest.raises(BudgetExceeded):
            sp.min_generator_count(6)
        assert calls == []
