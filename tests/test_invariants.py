import gc
import inspect
import itertools
import time
import tracemalloc
from array import array
from fractions import Fraction
from math import factorial

import pytest

import all_contents
from conftest import row_tensor
from test_linalg import CountingBudget
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
from loopinv.words import (
    Word,
    content_necklace_count,
    lyndon_words,
    min_rotation,
    necklaces,
    repetition_count,
)

W = TensorElement.word


def live_closure_blocks():
    """The ids of the closure blocks still alive after a full collection."""
    gc.collect()
    return {id(o) for o in gc.get_objects() if type(o) is invariants._ClosureBlock}


def with_block(space, content, block):
    """The BlockSpace with the block of one canonical content replaced."""
    return BlockSpace(space.orbits, {**space.blocks, content: block})


def perturbed_rcl_block(real):
    """One entry of the closure row of 1212 perturbed: the closure no longer
    vanishes on S."""

    def perturbed(content, words):
        words = list(words)
        for w, row in zip(words, real(content, words)):
            if w == (1, 2, 1, 2):
                row[anagrams_of((1, 1, 2, 2)).index((2, 2, 1, 1))] += 1
            yield row

    return perturbed


def doubled_rcl_block(real):
    """The closure rows of content 1122 doubled: the closure still vanishes
    on S, but is no longer the identity modulo S."""

    def doubled(content, words):
        for row in real(content, words):
            yield [2 * c for c in row] if content == (1, 1, 2, 2) else row

    return doubled


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
        assert sp.bracket_zero_increment(1) == 0
        assert sp.bracket_zero_increment(2) == 0


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
        monkeypatch.setattr(tensor, "_rcl_block", perturbed_rcl_block(tensor._rcl_block))
        sp = InvariantSpaces(2)
        with pytest.raises(CrossCheckError, match="does not vanish"):
            getattr(sp, build)(4)
        assert (TestProvenClosureTable.READERS[build], 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_projection_certificate_has_teeth(self, monkeypatch, d):
        # doubling one content class keeps the closure zero on S, the image
        # and the closure-difference kernel; only the certificate sees it
        monkeypatch.setattr(tensor, "_rcl_block", doubled_rcl_block(tensor._rcl_block))
        sp = InvariantSpaces(d)
        with pytest.raises(CrossCheckError, match="not the identity modulo"):
            all_contents.closure_table(sp, 4)

    def test_route_b_keeps_pivot_rows_only(self, monkeypatch):
        kernels, certificates, eliminations = [], [], []
        real_kernel, real_modular = invariants.kernel, invariants._modular_rank
        real_eliminate = linalg._eliminate

        def kernel_spy(d, n, rows, budget=None, columns=None):
            rows = list(rows)
            if columns is not None:
                kernels.append((rows, columns))
            return real_kernel(d, n, rows, budget, columns)

        def modular_spy(rows, width, stop, budget=None):
            certificates.append(stop)
            return real_modular(rows, width, stop, budget)

        sp = InvariantSpaces(3)
        sp.letter_shuffle_ideal(5)
        v = sp.zero_increment_space(4)
        monkeypatch.setattr(invariants, "kernel", kernel_spy)
        monkeypatch.setattr(invariants, "_modular_rank", modular_spy)
        monkeypatch.setattr(
            linalg, "_eliminate", lambda *args: eliminations.append(args) or real_eliminate(*args)
        )
        sp.loop_invariants(5)
        s = sp.letter_shuffle_ideal(5)
        # one kernel per canonical block, on the raw rows of [V, letters]
        # restricted to the free columns of S, and one rank certificate, on
        # the closure-difference rows at the pivot columns of S only.  Per
        # block, the kernel eliminates those rows and then its null vectors,
        # and the sum with S is the third elimination: no stored space of
        # [V, letters] is eliminated again
        assert len(kernels) == len(certificates) == len(s.blocks)
        assert len(eliminations) == 3 * len(s.blocks)
        every_output = 0
        for (rows, columns), stop, (c, block) in zip(kernels, certificates, s.blocks.items()):
            free = all_contents.free_columns(s, c)
            raw = [
                sp._bracket_row(row, 4, i)
                for i in range(3) if c[i] for row in v.block(invariants._without(c, i))
            ]
            assert columns == free
            assert rows == all_contents.on_columns(raw, free)
            made = sp._closure_difference_rows(5, c, sp._closure_block(5, c))
            assert stop <= sum(1 for _ in made) <= block.dim
            every_output += sum(map(bool, all_contents.on_columns(
                all_contents.closure_difference_rows(3, 5, s.orbits.words(c)), free
            )))
        assert sum(b.dim for b in s.blocks.values()) < every_output

    def test_certificate_reads_rows_as_they_are_made(self, monkeypatch):
        # the closure-difference rows stream into the modular pass, which
        # reads none after the one at which its rank reaches the target
        passes = []
        real_modular = invariants._modular_rank

        def modular_spy(rows, width, stop, budget=None):
            assert inspect.isgenerator(rows)
            read = []
            rank = real_modular((read.append(row) or row for row in rows), width, stop, budget)
            passes.append((read, width, stop, rank, sum(1 for _ in rows)))
            return rank

        sp = InvariantSpaces(3)
        s = sp.letter_shuffle_ideal(5)
        monkeypatch.setattr(invariants, "_modular_rank", modular_spy)
        sp.loop_invariants(5)
        assert len(passes) == len(s.blocks)
        for (read, width, stop, rank, unread), c in zip(passes, s.blocks):
            made = sp._closure_difference_rows(5, c, sp._closure_block(5, c))
            assert inspect.isgenerator(made)
            assert len(read) + unread == sum(1 for _ in made)
            assert rank == stop
            if stop:
                assert real_modular(read[:-1], width, None) == stop - 1
            else:
                assert read == []
        assert any(unread for *_, unread in passes)

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 6)])
    def test_loop_against_closure_difference_kernel(self, d, top):
        # the construction the loop space replaced: S plus the kernel of the
        # closure-difference rows at the pivot columns of S, among its free
        # columns
        sp = spaces_for(d)
        for n in range(1, top + 1):
            s = sp.letter_shuffle_ideal(n)
            for c, block in s.blocks.items():
                free = all_contents.free_columns(s, c)
                rows = all_contents.as_dicts(sp._closure_difference_rows(n, c, sp._closure_block(n, c)), free)
                expected = subspace_sum(kernel(d, n, rows, None, free), block)
                assert sp.loop_invariants(n).blocks[c] == expected, (n, c)

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 6), (4, 5)])
    def test_closure_column_from_the_proof(self, d, top):
        sp = spaces_for(d)
        for n in range(1, top + 1):
            assert sp.report(n).dims["closure"] == sp.closure_invariants(n).dim

    def test_report_builds_no_closure_image(self, monkeypatch):
        # the report reads the closure column off the loop build's proof and
        # certifies each loop block by a rank lower bound modulo the prime
        # alone; no closed row, rotation sum or other, is ever made
        passes, readings, images = [], [], []
        real_modular = invariants._modular_rank
        real_rows = InvariantSpaces._closure_difference_rows

        def modular_spy(rows, width, stop, budget=None):
            passes.append(stop)
            return real_modular(rows, width, stop, budget)

        monkeypatch.setattr(invariants, "_modular_rank", modular_spy)
        monkeypatch.setattr(
            InvariantSpaces, "_closure_difference_rows",
            lambda self, n, c, block: readings.append((n, c)) or real_rows(self, n, c, block),
        )
        monkeypatch.setattr(invariants._ClosureBlock, "image", lambda *args: images.append(args))
        sp = InvariantSpaces(3)
        for n in range(1, 7):
            sp.report(n)
            assert ("closure", n) not in sp._memo
        blocks = [(n, c) for n in range(1, 7) for c in sp._orbits(n).canonical]
        # per block, the loop certificate with its stop, and no other pass
        assert len(passes) == len(blocks)
        assert None not in passes
        # the closure-difference rows are read by the pairing and the
        # modular pass: never again for an exact rank
        assert sorted(readings) == sorted(blocks + blocks)
        assert images == []

    def test_report_stores_no_intermediate_space(self):
        # [V, letters] is a dimension of the loop build, and the closed
        # rotation span is left to evidence
        sp = InvariantSpaces(3)
        for n in range(1, 8):
            sp.report(n)
            assert ("rclrot", n) not in sp._memo
            assert not isinstance(sp._memo.get(("bracketV", n)), BlockSpace)


class TestDenseCertificateRoutes:
    """Proof step 2 of a closure block, the rows of M and the quotient of
    the letter-reduced check read the stored blocks as they are stored; the
    sparse routes they replaced agree with them block by block."""

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 7), (4, 5)])
    def test_against_the_replaced_routes(self, d, top):
        sp, verdicts = spaces_for(d), set()
        for n in range(1, top + 1):
            v = sp.zero_increment_space(n)
            for c, block in all_contents.closure_table(sp, n).items():
                # the proof at the true scale n!, and one off it, where a
                # free column's difference keeps its own unit vector
                for scale in (factorial(n), factorial(n) + 1):
                    verdict = block.fixes_free_columns(v.blocks[c].rows, scale)
                    assert verdict == all_contents.fixes_free_columns(d, n, block, v.blocks[c].rows, scale)
                    verdicts.add(verdict)
                made = all_contents.as_dicts(sp._closure_difference_rows(n, c, block), block.free)
                assert made == all_contents.pivot_difference_rows(sp, n, c, block), (n, c)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 7), (4, 5)])
    def test_quotients_against_the_eliminated_sums(self, d, top):
        # every reader of _quotient_dim against the route it replaced, the
        # sum of the two blocks eliminated by subspace_sum, block by block:
        # the letter-reduced quotient, the closure fill check and the two
        # sums of the evidence, whose totals follow
        sp = spaces_for(d)
        for n in range(1, top + 1):
            s, conj = sp.letter_shuffle_ideal(n), sp.conjugation_invariants(n)
            closure, algebra = sp.closure_invariants(n), sp.area_conjugation_algebra(n)
            sums = {}
            for name, base, rows in (("lrconj", s, conj), ("fill", s, closure), ("S + B", s, algebra),
                                     ("closure + conj", closure, conj)):
                total = 0
                for c, size in s.orbits.sizes.items():
                    quotient = sp._quotient_dim(base.blocks[c], rows.blocks[c].rows)
                    assert quotient == all_contents.quotient_dim(base.blocks[c], rows.blocks[c].rows), (n, c)
                    total += size * quotient
                sums[name] = base.dim + total
            assert sums["lrconj"] - s.dim == sp.letter_reduced_conj_dim(n)
            assert sums["fill"] == d**n
            evidence = conjecture_evidence(sp, n)
            assert evidence.s_plus_area_conj_dim == sums["S + B"]
            assert evidence.closure_conj_intersection_dim == closure.dim + conj.dim - sums["closure + conj"]


class TestProvenClosureTable:
    """Each closure block is proven to be the projection along S before its
    reader gets it, so each fault of the closure rows raises on a fresh
    pipeline in whichever space reads the level first, and stores nothing."""

    READERS = {
        "closed_rotation_span": "rclrot",
        "closure_invariants": "closure",
        "loop_invariants": "loop",
        "report": "report",
    }
    FAULTS = {
        "perturbed": (perturbed_rcl_block, "does not vanish"),
        "doubled": (doubled_rcl_block, "not the identity modulo"),
    }

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("reader", list(READERS))
    def test_fault_raises_in_every_reader(self, monkeypatch, d, fault, reader):
        wrap, match = self.FAULTS[fault]
        monkeypatch.setattr(tensor, "_rcl_block", wrap(tensor._rcl_block))
        sp = InvariantSpaces(d)
        with pytest.raises(CrossCheckError, match=match):
            getattr(sp, reader)(4)
        assert (self.READERS[reader], 4) not in sp._memo

    def test_letter_reduced_conj_reads_no_table(self, monkeypatch):
        # the column sums the rows of V over rotation classes, so a fault of
        # the closure rows never reaches it, and no table is built
        expected = {d: spaces_for(d).report(4).dims["letter_reduced_conj"] for d in (2, 3)}
        for wrap, _ in self.FAULTS.values():
            monkeypatch.setattr(tensor, "_rcl_block", wrap(tensor._rcl_block))
            for d in (2, 3):
                sp = InvariantSpaces(d)
                assert sp.letter_reduced_conj_dim(4) == expected[d]
            monkeypatch.undo()


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
            full = span(d, n, all_contents.bracket_rows(sp, n, sp.zero_increment_space(n - 1)))
            assert sp.loop_invariants(n) == orthogonal_complement(full)
            assert sp.bracket_zero_increment(n) == full.dim

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 7)])
    def test_bracket_blocks_against_full_rows(self, d, top):
        # the routes the one elimination replaced: span the full rows of
        # each block of [V, letters], then take the kernel of that echelon
        # form restricted to the free columns of S; and [V, letters] of the
        # whole level, whose dimension is bracket_VR
        sp = spaces_for(d)
        for n in range(1, top + 1):
            v, s, loop = sp.zero_increment_space(n - 1), sp.letter_shuffle_ideal(n), sp.loop_invariants(n)
            for c, block in s.blocks.items():
                full = span(d, n, (
                    sp._bracket_row(row, n - 1, i)
                    for i in range(d) if c[i] for row in v.block(invariants._without(c, i))
                ))
                words = s.orbits.words(c)
                free = all_contents.free_columns(s, c)
                k_a = kernel(d, n, all_contents.on_columns(full.rows, free), None, free)
                assert loop.blocks[c] == subspace_sum(k_a, block), (n, c)
                assert full.dim == len(words) - loop.blocks[c].dim, (n, c)
            whole = span(d, n, all_contents.bracket_rows(sp, n, v))
            assert sp.bracket_zero_increment(n) == whole.dim, n

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 7), (4, 6), (5, 5)])
    def test_written_down_conj_against_rotation_span(self, d, top):
        # the route the written-down rotation classes replaced: each
        # canonical block of conj is the span of the rotation sums of the
        # necklaces of its content
        sp = spaces_for(d)
        for n in range(1, top + 1):
            own = {}
            for w in necklaces(d, n):
                own.setdefault(all_contents.content_of(word_index(w.letters, d), d, n), []).append(w)
            for c, block in sp.conjugation_invariants(n).blocks.items():
                assert block == span(d, n, (all_contents.rotation_row(d, w) for w in own[c])), (n, c)

    def test_loop_takes_no_containment(self, monkeypatch):
        # [V, letters] inside V is checked by its pairing with S, once
        def refuse(*args, **kwargs):
            raise AssertionError("contains called while building the loop space")

        monkeypatch.setattr(invariants, "contains", refuse)
        for d, top in ((2, 7), (3, 5)):
            sp = InvariantSpaces(d)
            for n in range(1, top + 1):
                sp.loop_invariants(n)

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
        # 1112 + 1121 + 1211, the class of 1112 without 2111, keeps the
        # dimension of its block but leaves the bracket kernel
        real = invariants.rotations
        monkeypatch.setattr(
            invariants, "rotations", lambda x: real(x)[:-1] if x == (1, 1, 1, 2) else real(x)
        )
        self.assert_refused(
            InvariantSpaces(d), "conjugation_invariants", 4, "conj", "rotation span and bracket"
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotation_row_leaving_its_content(self, monkeypatch, d):
        # 1111 + 1112 pairs to zero with the bracket rows of 1111's block;
        # only the words of its block see that 1112 leaves it
        real = invariants.rotations
        monkeypatch.setattr(
            invariants, "rotations", lambda x: real(x) + [(1, 1, 1, 2)] if x == (1,) * 4 else real(x)
        )
        self.assert_refused(InvariantSpaces(d), "conjugation_invariants", 4, "conj", "leaves its content")

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_necklace(self, monkeypatch, d):
        # every row stays in the bracket kernel, but the block of 1111 is
        # empty where the necklace count is 1
        real = invariants.min_rotation
        monkeypatch.setattr(invariants, "min_rotation", lambda x: () if x == (1,) * 4 else real(x))
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
    def test_chosen_generator_dropped(self, monkeypatch, d):
        # P still pairs to zero with every generator and matches the closed
        # form, but the generators kept, one per smallest word less one,
        # fall one short of S in the first block that has one; S builds V
        # first, so neither is stored
        real = invariants._one_per_leading_word
        monkeypatch.setattr(invariants, "_one_per_leading_word", lambda rows: real(rows)[:-1])
        sp = InvariantSpaces(d)
        self.assert_refused(sp, "letter_shuffle_ideal", 4, "V", "shuffle-ideal complement")
        assert sp._memo == {}

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 7), (4, 5)])
    def test_leading_words_are_the_pivots(self, d, top):
        # on every canonical block: the generators i ⧢ u kept, one per
        # smallest word, lead at the pivots of the RREF of all generators,
        # and the PBW products lead at distinct words, the pivots of V
        sp = spaces_for(d)
        for n in range(1, top + 1):
            v = sp.zero_increment_space(n)
            factors = sp._pbw_factors(n, v.orbits.canonical)
            for c in v.orbits.canonical:
                kept = invariants._one_per_leading_word(sp._letter_shuffle_rows(n, c))
                s = all_contents.letter_shuffle_block(sp, n, c)
                assert sorted(map(min, kept)) == list(s.pivots), (n, c)
                products = sp._pbw_products(c, factors)
                assert sorted(map(min, products)) == list(v.blocks[c].pivots), (n, c)

    @staticmethod
    def patch_bracket_rows(monkeypatch, d, c, change):
        """Pass every raw row [v, i] of the block of content c at level 4
        through change(row, p), p the first pivot column of that block of S."""
        p = InvariantSpaces(d).letter_shuffle_ideal(4).blocks[c].pivots[0]
        real = InvariantSpaces._bracket_row

        def patched(self, row, n, i):
            out = real(self, row, n, i)
            if n == 3 and all_contents.content_of(next(iter(out)), d, 4) == c:
                return change(out, p)
            return out

        monkeypatch.setattr(InvariantSpaces, "_bracket_row", patched)

    @pytest.mark.parametrize("d", [2, 3])
    def test_stray_row_in_bracket_space(self, monkeypatch, d):
        # every bracket row of the block of 1112 becomes the unit vector of
        # a pivot column of S, which lies outside V; the pairing with S
        # refuses it before the dimension reader sees [V, letters]
        self.patch_bracket_rows(monkeypatch, d, (3, 1) + (0,) * (d - 2), lambda row, p: {p: 1})
        sp = InvariantSpaces(d)
        with pytest.raises(CrossCheckError, match=r"\[V, letters\] leaves V"):
            sp.letter_reduced_loop_dim(4)
        assert ("bracketV", 4) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_bracket_row_outside_v(self, monkeypatch, d):
        # a pivot column of S added to each bracket row of the block of 1122
        # keeps the rows on their content, but moves them out of V; the
        # pairing with S refuses them before [V, letters] or the loop is stored
        def moved(row, p):
            row[p] = row.get(p, 0) + 1
            return row

        self.patch_bracket_rows(monkeypatch, d, (2, 2) + (0,) * (d - 2), moved)
        sp = InvariantSpaces(d)
        self.assert_refused(sp, "loop_invariants", 4, "loop", r"\[V, letters\] leaves V")
        assert ("bracketV", 4) not in sp._memo

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
        v = sp.zero_increment_space(3)

        def shifted(k, columns):
            if not k.rows:
                return k
            c = all_contents.content_of(columns[0], d, 4)
            rows = [
                row for row in all_contents.on_columns((
                    sp._bracket_row(r, 3, i)
                    for i in range(d) if c[i] for r in v.block(invariants._without(c, i))
                ), columns) if row
            ]
            if not rows:
                return k
            first = dict(k.rows[0])
            for j, c in rows[0].items():
                first[j] = first.get(j, 0) + c
            return Subspace(k.d, k.n, k.pivots, (first,) + k.rows[1:])

        self.patch_free_kernel(monkeypatch, shifted)
        self.assert_refused(sp, "loop_invariants", 4, "loop")


    @pytest.mark.parametrize("d", [2, 3])
    def test_kernel_row_off_the_free_columns(self, monkeypatch, d):
        # a pivot column of S added to a kernel row keeps the dimension, the
        # bracket containment, and the pairing and the rank on the free
        # columns; only the support of K_A sees it
        sp = InvariantSpaces(d)
        s = sp.letter_shuffle_ideal(4)

        def moved(k, columns):
            if not k.rows:
                return k
            pivots = s.blocks[all_contents.content_of(columns[0], d, 4)].pivots
            first = dict(k.rows[0])
            first[pivots[0]] = 1
            return Subspace(k.d, k.n, k.pivots, (first,) + k.rows[1:])

        self.patch_free_kernel(monkeypatch, moved)
        self.assert_refused(sp, "loop_invariants", 4, "loop", "bracket complement")

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_bracket_row(self, monkeypatch, d):
        # [V, letters] one row short stays in V and keeps the dimension
        # chain, as K_A grows by one; the closure difference sees K_A grow
        real = invariants.kernel

        def short(d, n, rows, budget=None, columns=None):
            if columns is not None:
                rows = span(d, n, rows).rows[:-1]
            return real(d, n, rows, budget, columns)

        monkeypatch.setattr(invariants, "kernel", short)
        self.assert_refused(InvariantSpaces(d), "loop_invariants", 4, "loop", "closure-difference kernel")

    @pytest.mark.parametrize("d", [2, 3])
    def test_row_added_to_the_kernel(self, monkeypatch, d):
        # the unit vector of a free column outside the kernel joins it
        def grown(k, columns):
            extra = next((f for f in columns if f not in k.pivots), None)
            if extra is None:
                return k
            return Subspace(k.d, k.n, k.pivots + (extra,), k.rows + ({extra: 1},))

        self.patch_free_kernel(monkeypatch, grown)
        self.assert_refused(InvariantSpaces(d), "loop_invariants", 4, "loop")

    @pytest.mark.parametrize("d", [2, 3])
    def test_closure_difference_rank_short(self, monkeypatch, d):
        # one closure-difference row per block still pairs to zero with
        # K_A, but its rank falls short wherever K_A leaves two free columns
        real = InvariantSpaces._closure_difference_rows
        monkeypatch.setattr(
            InvariantSpaces, "_closure_difference_rows",
            lambda self, *args: itertools.islice(real(self, *args), 1),
        )
        self.assert_refused(InvariantSpaces(d), "loop_invariants", 6, "loop", "closure-difference kernel")


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
        real = invariants._ClosureBlock.image

        def into_s(self, row):
            out = real(self, row)
            (f, one), = row.items()
            out[f] = out.get(f, 0) - factorial(2) * one
            return out

        monkeypatch.setattr(invariants._ClosureBlock, "image", into_s)
        with pytest.raises(CrossCheckError, match="do not complement"):
            sp.closure_invariants(2)
        assert ("closure", 2) not in sp._memo

    @pytest.mark.parametrize("d", [2, 3])
    def test_class_sum_rank_short(self, monkeypatch, d):
        # the span of the class sums of V loses a row in the first block
        # where they have rank, so its rank falls short of the quotient.
        # Dropping one row of V would not do: the two rows of V at 1122
        # have proportional class sums.  With conj, S and V built (S builds
        # V), the class sums are the only span of this module that runs
        sp = InvariantSpaces(d)
        sp.conjugation_invariants(4)
        sp.letter_shuffle_ideal(4)
        real, cut = invariants.span, []

        def short(*args):
            out = real(*args)
            if out.dim and not cut:
                cut.append(out)
                return Subspace(out.d, out.n, out.pivots[:-1], out.rows[:-1])
            return out

        monkeypatch.setattr(invariants, "span", short)
        with pytest.raises(CrossCheckError, match="quotient and rank"):
            sp.letter_reduced_conj_dim(4)
        assert cut and ("lrconj", 4) not in sp._memo
        monkeypatch.undo()
        assert sp.letter_reduced_conj_dim(4) == spaces_for(d).report(4).dims["letter_reduced_conj"]
        assert ("rclrot", 4) not in sp._memo

    def test_quotient_short(self, monkeypatch):
        # a span of the remainders of conj_c modulo S_c one row short makes
        # the quotient too small; the rank of the class sums of V stays the
        # true quotient, above the computed one
        sp = InvariantSpaces(2)
        sp.conjugation_invariants(6)
        sp.zero_increment_space(6)
        real, real_span = InvariantSpaces._quotient_dim, invariants.span

        def cut(out):
            return Subspace(out.d, out.n, out.pivots[:-1], out.rows[:-1]) if out.dim else out

        def short(self, base, rows):
            with monkeypatch.context() as inside:
                inside.setattr(invariants, "span", lambda *args: cut(real_span(*args)))
                return real(self, base, rows)

        monkeypatch.setattr(InvariantSpaces, "_quotient_dim", short)
        with pytest.raises(CrossCheckError, match="quotient and rank"):
            sp.letter_reduced_conj_dim(6)
        assert ("lrconj", 6) not in sp._memo
        monkeypatch.undo()
        assert sp.letter_reduced_conj_dim(6) == 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_rotation_span_short(self, monkeypatch, d):
        # the first nonzero block of the span loses its last row
        sp = InvariantSpaces(d)
        sp.letter_reduced_conj_dim(4)
        real, cut = invariants.span, []

        def short(*args):
            out = real(*args)
            if out.dim and not cut:
                cut.append(out)
                return Subspace(out.d, out.n, out.pivots[:-1], out.rows[:-1])
            return out

        monkeypatch.setattr(invariants, "span", short)
        with pytest.raises(CrossCheckError, match="closed rotation span differs"):
            sp.closed_rotation_span(4)
        assert cut and ("rclrot", 4) not in sp._memo

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
        below = (1, 2) + (0,) * (d - 2)
        stray = sp._bracket_row(sp.zero_increment_space(3).block(below)[0], 3, 0)
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
                assert getattr(sp, method)(n) == wholes[n][name], (name, n)
            assert sp.bracket_zero_increment(n) == wholes[n]["bracketV"].dim, n
            assert sp.min_generator_count(n) == all_contents.min_generators(sp, n, wholes), n

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
                    for member in orbits.members(c):
                        expected = direct[n][member][name]
                        renamed = span(d, n, space.block(member))
                        assert renamed == expected, (name, n, member)
                        if member == c:
                            assert space.blocks[c] == expected, (name, n, c)
            # [V, letters] of each content, by rank-nullity on its loop block
            loop = sp.loop_invariants(n)
            for member in all_contents.contents(d, n):
                words = all_contents.words_of(member, d)
                assert len(words) - len(loop.block(member)) == direct[n][member]["bracketV"].dim

    def test_report_assembles_no_level(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a whole level was assembled while building a report")

        monkeypatch.setattr(BlockSpace, "whole", refuse)
        for d, top in ((2, 7), (3, 5), (4, 4)):
            sp = InvariantSpaces(d)
            for n in range(1, top + 1):
                sp.report(n)

    def test_whole_level_losing_a_row_raises(self, monkeypatch):
        # a renamed block one row short: the assembled level falls below
        # the sum of its block dimensions
        s = InvariantSpaces(2).letter_shuffle_ideal(4)
        assert s.block((1, 3))
        real = BlockSpace.block

        def short(self, content):
            rows = real(self, content)
            return rows[:-1] if content == (1, 3) else rows

        monkeypatch.setattr(BlockSpace, "block", short)
        with pytest.raises(CrossCheckError, match="lost a row"):
            s.whole()

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
        "bracket_zero_increment", "loop_invariants", "closure_invariants",
        "closure_dim", "closed_rotation_span", "letter_reduced_loop_dim",
        "letter_reduced_conj_dim", "min_generator_count", "report",
    ]

    @pytest.mark.parametrize("d", [2, 3])
    def test_level_zero(self, d):
        # V(0) is the one-dimensional span of the empty word, which [V,
        # letters] at level 1 needs; the other spaces start at level 1
        sp = InvariantSpaces(d)
        assert sp.space("V", 0).dim == 1
        assert sp.space("V", 0).rows == ({0: 1},)
        methods = {name: getattr(sp, name) for name in self.LEVEL_METHODS}
        # a closure block of the level's one content with no letter
        methods["_closure_block"] = lambda n: sp._closure_block(n, (0,) * d)
        for name, method in methods.items():
            for n in (0, -1):
                if (name, n) == ("zero_increment_space", 0):
                    continue
                least = 0 if name == "zero_increment_space" else 1
                with pytest.raises(ValueError, match="level must be at least %d, got %d$" % (least, n)):
                    method(n)

    def test_table_shuffles_each_generator_once(self, monkeypatch):
        # the proof of each block makes the letter generators of the block
        # again, once each, as a stream it keeps none of, by index
        # arithmetic: no general shuffle runs
        sp = InvariantSpaces(3)
        sp.letter_shuffle_ideal(5)
        made, shuffles = [], []
        real = InvariantSpaces._letter_shuffle_rows

        def spy(self, n, c):
            rows = real(self, n, c)
            assert inspect.isgenerator(rows)
            for row in rows:
                made.append((c, row))
                yield row

        monkeypatch.setattr(InvariantSpaces, "_letter_shuffle_rows", spy)
        monkeypatch.setattr(sp, "_shuffle_row", lambda *args: shuffles.append(args))
        all_contents.closure_table(sp, 5)
        monkeypatch.undo()
        lower = sp._orbits(4)
        assert shuffles == []
        assert made == [
            (c, sp._shuffle_row({i: 1}, 1, {u: 1}, 4))
            for c in sp._orbits(5).canonical
            for i in range(3) if c[i]
            for u in lower.words(invariants._without(c, i))
        ]
        assert len(made) > len(sp._orbits(5).canonical)


class TestClosureTable:
    @pytest.mark.parametrize("d, top", [(3, 6), (2, 9)])
    def test_against_word_dp(self, d, top):
        # one block per canonical content, one row per word of it, and no
        # other; like every space, the blocks start at level 1
        sp = InvariantSpaces(d)
        with pytest.raises(ValueError, match="level must be at least 1, got 0$"):
            sp._closure_block(0, (0,) * d)
        for n in range(1, top + 1):
            table = all_contents.closure_table(sp, n)
            canonical = [c for c in all_contents.contents(d, n) if list(c) == sorted(c, reverse=True)]
            assert sorted(table) == sorted(canonical)
            for c, block in table.items():
                # dense on exactly the words of its block, in ascending order
                assert block.words == all_contents.words_of(c, d)
                assert len(block.rows) == len(block.words)
                for k, row in zip(block.words, block.rows):
                    assert isinstance(row, array) and row.typecode == "q"
                    assert len(row) == len(block.words)
                    expected = rcl_word_oracle(index_word(k, d, n))
                    assert {j: x for j, x in zip(block.words, row) if x} == {
                        word_index(w, d): x for w, x in expected.items()
                    }

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 5)])
    def test_block_maps(self, d, top):
        # every map a block holds, against one derived here: the positions,
        # the reversal, the free columns of S from a span of the whole
        # level, and the closure-difference rows at the pivot outputs
        sp = InvariantSpaces(d)
        for n in range(1, top + 1):
            pivots = set(span(d, n, all_contents.letter_shuffle_rows(sp, n)).pivots)
            for c, block in all_contents.closure_table(sp, n).items():
                words = block.words
                assert block.position == {k: p for p, k in enumerate(words)}
                assert [block.reverse[q] for q in block.reverse] == list(range(len(words)))
                assert [index_word(words[q], d, n) for q in block.reverse] == [
                    index_word(k, d, n)[::-1] for k in words
                ]
                free = [k for k in words if k not in pivots]
                assert block.free == free
                expected = all_contents.on_columns(
                    all_contents.closure_difference_rows(d, n, words, pivots), free
                )
                made = all_contents.as_dicts(sp._closure_difference_rows(n, c, block), free)
                assert sorted(sorted(r.items()) for r in made) == sorted(
                    sorted(r.items()) for r in expected if r
                ), (n, c)

    def test_rows_share_their_block_index(self):
        # a block reads the one word list of its content that the orbits hold
        sp = InvariantSpaces(3)
        for c, block in all_contents.closure_table(sp, 4).items():
            assert block.words is sp._orbits(4).words(c)

    def test_dense_rows_hold_few_bytes(self):
        # a dict entry with its own int held about 68 bytes; an array('q')
        # entry holds 8, plus one array per row and the position and
        # reversal of each word
        sp = InvariantSpaces(3)
        sp.letter_shuffle_ideal(6)
        sp.zero_increment_space(6)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = all_contents.closure_table(sp, 6)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = sum(len(row) for block in table.values() for row in block.rows)
        assert entries == 13262
        assert held <= 16 * entries

    @pytest.mark.parametrize("d, top", [(2, 7), (3, 5)])
    def test_overflowing_rows_stay_lists(self, monkeypatch, d, top):
        # a row whose entries do not fit array('q') keeps the list that
        # _rcl_block yielded, and every reader of a block reads it alike
        def overflow(typecode, values):
            raise OverflowError("signed integer is greater than maximum")

        clean = spaces_for(d)
        monkeypatch.setattr(invariants, "array", overflow)
        sp = InvariantSpaces(d)
        for n in range(1, top + 1):
            assert sp.report(n) == clean.report(n)
            table = all_contents.closure_table(sp, n)
            assert all(type(row) is list for block in table.values() for row in block.rows)
            for build in ("closure_invariants", "loop_invariants", "closed_rotation_span"):
                assert getattr(sp, build)(n) == getattr(clean, build)(n)

    @pytest.mark.parametrize("d, top", [(2, 7), (3, 5)])
    def test_kills_agrees_with_the_dense_route(self, rng, d, top):
        # combinations of generators, which the closure kills, with small
        # and with 70-bit factors (wider slots), some with a word added
        sp, seen = InvariantSpaces(d), set()
        for n in range(1, top + 1):
            for c, block in all_contents.closure_table(sp, n).items():
                generators = list(sp._letter_shuffle_rows(n, c))
                for _ in range(8):
                    row = {}
                    for g in rng.sample(generators, min(3, len(generators))):
                        bound = 2**rng.choice([3, 70])
                        f = rng.randint(-bound, bound)
                        for k, v in g.items():
                            row[k] = row.get(k, 0) + f * v
                    if rng.random() < 0.5:
                        k = rng.choice(block.words)
                        row[k] = row.get(k, 0) + rng.randint(1, 3)
                    rows = [{k: v for k, v in row.items() if v}]
                    expected = all_contents.closure_kills(block, rows)
                    assert block.kills(rows) == expected, (n, c)
                    seen.add(expected)
        assert seen == {True, False}

    def test_signed_slots_restore_the_signs(self, rng):
        for _ in range(50):
            values = [rng.choice([-2**63, 2**63 - 1, -1, 0, rng.randint(-2**63, 2**63 - 1)]) for _ in range(5)]
            packed = sum(v << 64 * j for j, v in enumerate(values))
            assert linalg._signed_slots(array("q", values), 64) == packed
            assert linalg._signed_slots(values, 64) == packed
            assert linalg._signed_slots(array("q", values), 128) == sum(v << 128 * j for j, v in enumerate(values))
        # a narrower slot is the width asked for, not the 64 bits of the bytes
        assert linalg._signed_slots(array("q", [1, -1, 2]), 8) == 1 - (1 << 8) + (2 << 16)

    def test_a_table_slot_one_bit_narrower_gives_a_false_zero(self):
        # 4 e_0 + e_1 maps to (2^64, -1).  Its 5 generator terms times the
        # largest entry 2^62 need 65 bits, and in 64-bit slots 4 * 2^62 -
        # 2^64 reads zero; the block widens to 128 bits and sees the image
        rows = [array("q", [2**62, 0]), array("q", [0, -1])]
        block = invariants._ClosureBlock([0, 1], {0: 0, 1: 1}, rows, [0, 1], [], 2**62)
        g = {0: 4, 1: 1}
        assert (5 * 2**62).bit_length() == 65
        assert 4 * linalg._signed_slots(rows[0], 64) + linalg._signed_slots(rows[1], 64) == 0
        assert not all_contents.closure_kills(block, [g])
        assert not block.kills([g])

    def test_image_refuses_a_word_outside_its_block(self):
        block = InvariantSpaces(2)._closure_block(3, (2, 1))
        within = {word_index((1, 1, 2), 2): 1, word_index((2, 1, 1), 2): -1}
        assert block.image(within) == all_contents.closure_row(within, 2, 3)
        with pytest.raises(KeyError):
            block.image({word_index((1, 1, 1), 2): 1, word_index((1, 1, 2), 2): 1})

    def test_interrupted_table_is_not_stored(self):
        # a budget that runs out at each of its checks in turn: while the
        # rows are made, in proof step 1 and in proof step 2.  No block
        # outlives the interruption, and the next build equals a fresh one
        class Expiring(Budget):
            def __init__(self, checks):
                super().__init__()
                self.left = checks

            def check(self, bits=0):
                self.left -= 1
                if self.left < 0:
                    raise BudgetExceeded("budget spent")

        def fields(block):
            return [getattr(block, k) for k in block.__slots__]

        fresh = InvariantSpaces(2)._closure_block(4, (2, 2))
        alive = live_closure_blocks()
        counted = InvariantSpaces(2)
        counted.letter_shuffle_ideal(4)
        counted.budget = CountingBudget()
        counted._closure_block(4, (2, 2))
        assert counted.budget.checks > len(fresh.words) + len(fresh.free)
        for checks in range(counted.budget.checks):
            sp = InvariantSpaces(2)
            sp.letter_shuffle_ideal(4)
            sp.budget = Expiring(checks)
            with pytest.raises(BudgetExceeded):
                sp._closure_block(4, (2, 2))
            assert live_closure_blocks() == alive
            sp.budget = None
            assert fields(sp._closure_block(4, (2, 2))) == fields(fresh)


class TestClosureBlockLifetime:
    """Each reader builds each closure block once per build of its space,
    reads it and drops it: the pipeline holds no closure rows."""

    def test_report_leaves_no_block_alive(self):
        # a whole table kept for the life of the pipeline would hold the 7
        # blocks of level 6 here
        alive = live_closure_blocks()
        sp = InvariantSpaces(3)
        sp.report(6)
        assert live_closure_blocks() == alive
        assert sorted(vars(sp)) == ["_memo", "_orbit_tables", "budget", "d"]

    def test_report_builds_each_block_once(self, monkeypatch):
        # the loop build proves each block and hands it to its certificate;
        # the closure column is read off that proof, not off another build
        built = []
        real = InvariantSpaces._closure_block
        monkeypatch.setattr(
            InvariantSpaces, "_closure_block", lambda self, n, c: built.append((n, c)) or real(self, n, c)
        )
        sp = InvariantSpaces(3)
        for n in range(1, 8):
            sp.report(n)
        assert sorted(built) == sorted((n, c) for n in range(1, 8) for c in sp._orbits(n).canonical)
        assert len(built) == 30

    @pytest.mark.parametrize("d, top", [(2, 8), (3, 6)])
    def test_closure_dim_on_a_fresh_pipeline(self, d, top):
        for n in range(1, top + 1):
            sp = InvariantSpaces(d)
            assert sp.closure_dim(n) == spaces_for(d).report(n).dims["closure"]
            assert ("loop", n) in sp._memo


class TestMinGenerators:
    def test_conjugation_family(self):
        assert spaces_for(2).min_generator_count(4) == 1
        assert spaces_for(3).min_generator_count(3) == 1

    def test_shuffle_row_drops_cancelled_words(self):
        # 1 ⧢ (12 - 21) = 2 (112 - 211): the two words 121 cancel, and the
        # row keeps no index with coefficient 0
        one, twelve, twenty_one = word_index((1,), 2), word_index((1, 2), 2), word_index((2, 1), 2)
        row = InvariantSpaces(2)._shuffle_row({one: 1}, 1, {twelve: 1, twenty_one: -1}, 2)
        assert row == {word_index((1, 1, 2), 2): 2, word_index((2, 1, 1), 2): -2}

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 6)])
    def test_against_all_pairs(self, d, top):
        # generator products against all products of two whole-level rows
        sp = spaces_for(d)
        wholes = {n: {"conj": sp.conjugation_invariants(n)} for n in range(1, top + 1)}
        for n in range(1, top + 1):
            assert sp.min_generator_count(n) == all_contents.min_generators(sp, n, wholes), n

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
            # the shuffle is commutative: each unordered pair of levels once
            assert na <= nb
            assert a in sp.minimal_generators(na).block(all_contents.content_of(min(a), 2, na))
            assert b in sp.conjugation_invariants(nb).block(all_contents.content_of(min(b), 2, nb))

    def test_dropped_generator_changes_a_later_count(self):
        # the oracle has teeth: without the one generator of level 4,
        # the products with a generator no longer span the decomposables
        sp = InvariantSpaces(2)
        gens = sp.minimal_generators(4)
        assert gens.dim == 1
        (c,) = [c for c, b in gens.blocks.items() if b.dim]
        sp._memo[("gens", 4)] = with_block(gens, c, Subspace(2, 4, (), ()))
        wholes = {n: {"conj": sp.conjugation_invariants(n)} for n in range(1, 9)}
        assert any(
            sp.min_generator_count(n) != all_contents.min_generators(sp, n, wholes)
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

    @pytest.mark.parametrize("d, top", [(2, 10), (3, 8), (4, 6), (5, 6), (6, 5)])
    def test_memberships_against_whole_level_tensors(self, d, top):
        # each integer product, reduced against its one canonical block,
        # against the Fraction product tested in the assembled whole level
        sp = spaces_for(d)
        for n in range(1, top + 1):
            found = conjecture_evidence(sp, n).area_product_membership
            assert found == all_contents.area_product_membership(sp, n), n
            assert bool(found) == (n % 2 == 0 and n >= 4), n

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
        with pytest.raises(CrossCheckError):
            spaces_for(2).report(2)._replace(dims=bad)

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
        assert ("gens", 4) not in sp._memo

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

    def test_every_key_is_a_space_and_its_level(self):
        # each memoized space is a function of its level alone
        sp = InvariantSpaces(2)
        for n in range(1, 6):
            sp.report(n)
        for n in range(1, 6):
            conjecture_evidence(sp, n)
        stray = [
            key for key in sp._memo
            if not (len(key) == 2 and isinstance(key[0], str) and isinstance(key[1], int))
        ]
        assert stray == []
        assert {name for name, _ in sp._memo} >= {"report", "gens", "areaconj"}

    @pytest.mark.parametrize("n", [1, 4])
    def test_shuffle_ideal_stores_its_certificate(self, n):
        # V proves the generators of S span it, so S is built after V
        sp = InvariantSpaces(3)
        sp.letter_shuffle_ideal(n)
        assert list(sp._memo) == [("V", n), ("S", n)]


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

    @staticmethod
    def count_closure_rows(monkeypatch):
        """The rows that tensor._rcl_block yields from now on."""
        rows = []
        real = tensor._rcl_block

        def counted(content, words):
            for row in real(content, words):
                rows.append(row)
                yield row

        monkeypatch.setattr(tensor, "_rcl_block", counted)
        return rows

    CLOSURE_LOOPS = {
        "closed_rotation_span": "rclrot",
        "closure_invariants": "closure",
        "loop_invariants": "loop",
    }

    @pytest.mark.parametrize("build", list(CLOSURE_LOOPS))
    def test_closure_table(self, monkeypatch, build):
        # every input but the closure rows of the space itself is built;
        # no closure block is kept, so the build makes and proves its own,
        # and a budget spent there names the space that asked
        sp = InvariantSpaces(2)
        sp.letter_shuffle_ideal(5)
        sp.zero_increment_space(4)
        sp.conjugation_invariants(5)
        calls = self.count_closure_rows(monkeypatch)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            getattr(sp, build)(5)
        assert err.value.space == (self.CLOSURE_LOOPS[build], 5)
        assert calls == []
        # the counter sees the blocks: without a budget they are built row by row
        sp.budget = None
        getattr(sp, build)(5)
        assert len(calls) == sum(len(b.rows) for b in all_contents.closure_table(sp, 5).values()) > 1

    def test_lazy_span_input(self, monkeypatch):
        calls = self.count_closure_rows(monkeypatch)
        sp = InvariantSpaces(2)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded):
            sp.closed_rotation_span(6)
        assert calls == []
        sp.budget = None
        sp.closed_rotation_span(6)
        assert len(calls) == sum(len(b.rows) for b in all_contents.closure_table(sp, 6).values()) > 1

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
        assert err.value.space == ("V", 4)

    @pytest.mark.parametrize("assembled", [False, True])
    def test_evidence_after_the_spaces(self, monkeypatch, assembled):
        # every space of the evidence is built and the block sums ignore the
        # budget (test_quotient_readers has them); what is left, the area
        # products, stops on an expired budget.  The memberships read the
        # blocks of the closed rotation span, never its whole level, which
        # neither stops nor is assembled by the evidence
        sp = InvariantSpaces(3)
        sp.area_conjugation_algebra(4)
        for build in ("loop_invariants", "closure_invariants", "closed_rotation_span"):
            getattr(sp, build)(4)
        closed = sp.closed_rotation_span(4)
        if assembled:
            closed.whole()
        real = InvariantSpaces._quotient_dim

        def unbudgeted(self, base, rows):
            budget, self.budget = self.budget, None
            try:
                return real(self, base, rows)
            finally:
                self.budget = budget

        monkeypatch.setattr(InvariantSpaces, "_quotient_dim", unbudgeted)
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            conjecture_evidence(sp, 4)
        assert err.value.space == ("evidence", 4)
        assert (closed._whole is not None) == assembled
        sp.budget = Budget(seconds=1000, max_bits=100000)
        budgeted = conjecture_evidence(sp, 4)
        sp.budget = None
        assert budgeted == conjecture_evidence(sp, 4)
        assert budgeted.area_product_membership
        assert (closed._whole is not None) == assembled

    def test_area_products(self, monkeypatch):
        # with every space built and the block sums unbudgeted, a spent
        # budget stops the products of areas: each shuffle checks it, so
        # not one pair of words is shuffled
        sp = InvariantSpaces(4)
        conjecture_evidence(sp, 6)
        real = InvariantSpaces._quotient_dim

        def unbudgeted(self, base, rows):
            budget, self.budget = self.budget, None
            try:
                return real(self, base, rows)
            finally:
                self.budget = budget

        monkeypatch.setattr(InvariantSpaces, "_quotient_dim", unbudgeted)
        pairs = self.count_calls(monkeypatch, tensor, "_shuffle_words_into")
        sp.budget = Budget(seconds=-1)
        with pytest.raises(BudgetExceeded) as err:
            conjecture_evidence(sp, 6)
        assert err.value.space == ("evidence", 6)
        assert pairs == []
        # the counter sees the products: without a budget there are 56
        sp.budget = None
        assert len(conjecture_evidence(sp, 6).area_product_membership) == 56
        assert pairs

    # reader -> the build that runs it, and the space of its stored base
    QUOTIENT_READERS = {"closure fill": ("closure", "S"), "S + B": ("evidence", "S"),
                        "closure + conj": ("evidence", "closure")}

    @pytest.mark.parametrize("reader", list(QUOTIENT_READERS))
    def test_quotient_readers(self, monkeypatch, reader):
        # the closure fill check and the two sums of the evidence reduce
        # their rows through _quotient_dim: at least one budget check per
        # row, and a budget that runs out there stops the reader
        build, base_space = self.QUOTIENT_READERS[reader]
        real = InvariantSpaces._quotient_dim

        def pipeline():
            sp = InvariantSpaces(3)
            sp.area_conjugation_algebra(4)
            sp.loop_invariants(4)
            if build == "evidence":
                sp.closure_invariants(4)
            return sp, {id(b) for b in sp.space(base_space, 4).blocks.values()}

        def run(sp):
            return sp.closure_invariants(4) if build == "closure" else conjecture_evidence(sp, 4)

        (sp, bases), (fresh, fresh_bases) = pipeline(), pipeline()
        calls = []

        def counted(self, base, rows):
            rows, before = list(rows), self.budget.checks
            out = real(self, base, rows)
            if id(base) in bases:
                calls.append((len(rows), self.budget.checks - before))
            return out

        monkeypatch.setattr(InvariantSpaces, "_quotient_dim", counted)
        sp.budget = CountingBudget()
        run(sp)
        assert sum(rows for rows, _ in calls) > 0
        assert all(checks >= rows for rows, checks in calls), calls
        sp, stopped = fresh, []

        def running_out(self, base, rows):
            rows = list(rows)
            if id(base) in fresh_bases and rows:
                self.budget = Budget(seconds=-1)
            try:
                return real(self, base, rows)
            except BudgetExceeded:
                stopped.append(id(base))
                raise

        monkeypatch.setattr(InvariantSpaces, "_quotient_dim", running_out)
        with pytest.raises(BudgetExceeded) as err:
            run(sp)
        assert err.value.space == (build, 4)
        assert stopped and set(stopped) <= fresh_bases
        assert ("closure", 4) in sp._memo or build == "closure"
        assert ("closure", 4) not in sp._memo or build == "evidence"

    def test_whole_level(self):
        # a whole level is assembled once, for its readers, basis and the
        # fuzz, and takes no budget (test_source pins that): no build of
        # the pipeline reads one
        s = InvariantSpaces(3).letter_shuffle_ideal(3)
        assert s._whole is None
        assert s.rows is s.whole().rows and s.whole() is s._whole

    def test_dense_certificates(self):
        # proof step 2 checks the budget once per free column, and the rows
        # of M, which the loop certificate reads, once per row
        sp = InvariantSpaces(3)
        sp.loop_invariants(5)
        v, s = sp.zero_increment_space(5), sp.letter_shuffle_ideal(5)
        for c, block in all_contents.closure_table(sp, 5).items():
            budget = CountingBudget()
            assert block.fixes_free_columns(v.blocks[c].rows, factorial(5), budget)
            assert budget.checks >= len(block.free)
            sp.budget = CountingBudget()
            rows = list(sp._closure_difference_rows(5, c, block))
            # a row of M per pivot of S_c, zero or not, once M has a column
            assert sp.budget.checks >= len(s.blocks[c].pivots) * bool(block.free) >= len(rows)
            if block.free:
                with pytest.raises(BudgetExceeded):
                    block.fixes_free_columns(v.blocks[c].rows, factorial(5), Budget(seconds=-1))
                sp.budget = Budget(seconds=-1)
                with pytest.raises(BudgetExceeded):
                    next(sp._closure_difference_rows(5, c, block))
            sp.budget = None

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
    """A random canonical content and a random row on its words."""
    canonical = [c for c in all_contents.contents(d, n) if list(c) == sorted(c, reverse=True)]
    content = rng.choice(canonical)
    words = all_contents.words_of(content, d)
    return content, {rng.choice(words): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)}


def _pbw_products_oracle(d, n):
    """Concatenated Lyndon bracketings as tensor elements, in the order of
    all_contents.pbw_products."""
    basis = sorted((w for k in range(2, n + 1) for w in lyndon_words(d, k)), key=lambda w: w.letters)
    out = []

    def extend(stop, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(stop):
            w = basis[i]
            if len(w.letters) <= remaining:
                poly = lyndon_bracketing(w)
                extend(i + 1, remaining - len(w.letters), poly if acc is None else concat(acc, poly))

    extend(len(basis), n, None)
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
            c, closable = _random_canonical_row(rng, d, na)
            assert row_tensor(d, na, sp._closure_block(na, c).image(closable)) == factorial(na) * right_closure(
                row_tensor(d, na, closable)
            )
            i = rng.randrange(d)
            letter = TensorElement.word(d, (i + 1,))
            assert row_tensor(d, na + 1, sp._bracket_row(a, na, i)) == bracket(ta, letter)
        for n in range(1, 5):
            conj = sp.conjugation_invariants(n)
            rows = dict(zip(conj.pivots, conj.rows))
            for w in necklaces(d, n):
                row = rows[word_index(w.letters, d)]
                assert repetition_count(w.letters) * row_tensor(d, n, row) == rotation_sum(w)

    def test_shuffle_products_against_whole_levels(self):
        # the walk over sub-contents against every product of two rows of
        # whole levels that lands on the content: as many products, with
        # the same span (renamed blocks are bases, not the whole RREF rows)
        sp = spaces_for(3)
        conj3 = sp.conjugation_invariants(3)
        for left, j, right, n in [(sp.zero_increment_space(2), 2, conj3, 5), (conj3, 3, conj3, 6)]:
            products = [sp._shuffle_row(x, j, y, n - j) for x in left.rows for y in right.rows]
            for c in sp._orbits(n).canonical:
                walked = list(sp._shuffle_products(n, c, left, j, right))
                words = set(sp._orbits(n).words(c))
                whole = [row for row in products if min(row) in words]
                assert len(walked) == len(whole), c
                assert span(3, n, walked) == span(3, n, whole), c

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 6)])
    def test_letter_shuffle_rows_by_index(self, d, top):
        # every content, not only the canonical ones
        sp = InvariantSpaces(d)
        for n in range(1, top + 1):
            lower = sp._orbits(n - 1)
            for c in all_contents.contents(d, n):
                assert list(sp._letter_shuffle_rows(n, c)) == [
                    sp._shuffle_row({i: 1}, 1, {u: 1}, n - 1)
                    for i in range(d) if c[i] for u in lower.words(invariants._without(c, i))
                ], (n, c)

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

    @pytest.mark.parametrize("d, top", [(2, 9), (3, 6), (4, 5)])
    def test_letter_reduced_conj_against_closed_rotations(self, d, top):
        # the route the class sums replaced: on each canonical block, the
        # rank of the closed rotation sums, from closure rows of its own,
        # against the rank of the rows of V summed over rotation classes,
        # each class named by its smallest rotation
        sp = spaces_for(d)
        for n in range(1, top + 1):
            v, total = sp.zero_increment_space(n), 0
            for c, size in v.orbits.sizes.items():
                sums = []
                for row in v.blocks[c].rows:
                    out = {}
                    for k, x in row.items():
                        necklace = word_index(min_rotation(index_word(k, d, n)), d)
                        out[necklace] = out.get(necklace, 0) + x
                    sums.append(out)
                rank = span(d, n, sums).dim
                assert rank == all_contents.closed_rotation_rank(sp, n, c), (n, c)
                total += size * rank
            assert total == sp.letter_reduced_conj_dim(n), n


class TestIntegerPipeline:
    def test_report_forms_no_rational(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rational object was formed while building a report")

        monkeypatch.setattr(TensorElement, "__init__", refuse)
        monkeypatch.setattr(TensorElement, "_raw", refuse)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert InvariantSpaces(2).report(7).dims["conjugation"] == 20
        assert InvariantSpaces(3).report(5).dims["conjugation"] == 51
