"""Exact truncated signatures of piecewise linear paths.

A path is an ordered list of rational increment vectors.  Its signature
is the truncated concatenation product of segment exponentials (Chen's
identity).  This module is the independent oracle for the algebraic
invariance claims: seeded fuzz drivers compare pairings of concrete path
signatures against the invariant bases built in :mod:`loopinv.invariants`.
Conjugation and loop invariance are one check: BA is the product AB read
from its second piece, as a rotated loop is its segment cycle read from
another segment.

Signatures are computed on scaled integer levels.  Let D be a common
denominator of every increment in play.  Level k is a dense list of
``d**k`` ints in the word order of :func:`loopinv.linalg.word_index`,
equal to ``k! * D**k`` times the true level k:

* a segment with increment z has level k equal to the k-fold outer power
  of the integer vector ``D * z``;
* Chen's identity becomes a binomially weighted integer convolution,
  ``Z_k[u * d**(k-j) + v] = sum_j C(k, j) X_j[u] Y_(k-j)[v]``.

The fuzz drivers pair these levels with the stored integer rows of the
invariant subspaces and compare scaled values of one level and one D;
those pairings form no rational.  :func:`fuzz_closure` also pairs each
level with the ``right_closure`` and ``left_closure`` of one random word.
It reads the closures of each distinct word once per call, as integer
rows scaled by the lcm L of their denominators (``_scaled_row``), and
compares each pairing with L times the value of the closed path, so that
comparison forms no rational either.
:func:`path_signature` divides by ``k! * D**k`` once at the end.  The
rational route, :func:`segment_signature` folded with
:meth:`TruncatedSignature.product`, is kept as the test oracle.
"""

from __future__ import annotations

import json
import random
from functools import reduce
from itertools import accumulate
from math import comb, factorial, lcm
from typing import NamedTuple, Sequence

from ._rat import Q, exact, integer, rational_from_string, rational_to_string
from .tensor import (
    TensorElement,
    concat_truncated,
    left_closure,
    pair,
    right_closure,
    rotation_sum,
    shuffle,
)
from .words import Word, all_words
from .invariants import InvariantSpaces, spaces_for
from .linalg import word_index


class PiecewiseLinearPath:
    """Ordered increments in Q^d; only increments matter for signatures."""

    __slots__ = ("d", "segments")

    def __init__(self, d: int, segments: Sequence[Sequence]):
        d = integer(d)
        if d < 1:
            raise ValueError("dimension must be at least 1")
        segs = []
        for seg in segments:
            seg = tuple(exact(c) for c in seg)
            if len(seg) != d:
                raise ValueError("segment %r does not have %d coordinates" % (seg, d))
            segs.append(seg)
        self.d = d
        self.segments = tuple(segs)

    def followed_by(self, other: "PiecewiseLinearPath") -> "PiecewiseLinearPath":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return PiecewiseLinearPath(self.d, self.segments + other.segments)

    def total_increment(self) -> tuple:
        return tuple(sum(seg[i] for seg in self.segments) for i in range(self.d))

    def rotated(self, k: int) -> "PiecewiseLinearPath":
        """Start the same segment cycle k segments later."""
        k %= max(len(self.segments), 1)
        return PiecewiseLinearPath(self.d, self.segments[k:] + self.segments[:k])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseLinearPath)
            and self.d == other.d
            and self.segments == other.segments
        )

    def __repr__(self) -> str:
        return "PiecewiseLinearPath(d=%d, segments=%s)" % (
            self.d,
            [[rational_to_string(c) for c in seg] for seg in self.segments],
        )


def reverse(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """The path run backwards: segments reversed and negated."""
    return PiecewiseLinearPath(
        path.d, [tuple(-c for c in seg) for seg in reversed(path.segments)]
    )


def closing_segment(path: PiecewiseLinearPath) -> tuple:
    """Increment of the straight segment returning to the start point."""
    return tuple(-c for c in path.total_increment())


def close(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """The path with its straight closing segment appended."""
    return PiecewiseLinearPath(path.d, path.segments + (closing_segment(path),))


def path_to_json(path: PiecewiseLinearPath) -> dict:
    return {
        "d": path.d,
        "segments": [[rational_to_string(c) for c in seg] for seg in path.segments],
    }


def path_from_json(payload) -> PiecewiseLinearPath:
    return PiecewiseLinearPath(
        integer(payload["d"]),
        [[rational_from_string(c) for c in seg] for seg in payload["segments"]],
    )


class TruncatedSignature:
    """Signature coefficients up to a truncation level, constant term 1.

    Pairing is only defined against elements supported at or below the
    truncation level; anything deeper would silently read missing data,
    so it raises instead.
    """

    __slots__ = ("level", "elem")

    def __init__(self, level: int, elem: TensorElement):
        if elem.max_level > level:
            raise ValueError("element has terms above the truncation level")
        if elem.coefficient(Word((), elem.d)) != 1:
            raise ValueError("a signature has constant term 1")
        self.level = level
        self.elem = elem

    @property
    def d(self) -> int:
        return self.elem.d

    def pair(self, x: TensorElement):
        if x.max_level > self.level:
            raise ValueError(
                "pairing needs terms at level <= %d, got %d" % (self.level, x.max_level)
            )
        return pair(self.elem, x)

    def coefficient(self, word):
        return self.elem.coefficient(word)

    def product(self, other: "TruncatedSignature") -> "TruncatedSignature":
        """Chen: the signature of the concatenated path."""
        level = min(self.level, other.level)
        return TruncatedSignature(
            level, concat_truncated(self.elem, other.elem, level)
        )

    def is_grouplike(self, max_total: int | None = None) -> bool:
        """Check <g,u><g,v> == <g, u shuffle v> for all |u| + |v| <= bound."""
        bound = min(self.level, 5 if max_total is None else max_total)
        d = self.d
        for lu in range(1, bound):
            for lv in range(1, bound - lu + 1):
                for u in all_words(d, lu):
                    eu = TensorElement.word(d, u)
                    pu = self.pair(eu)
                    for v in all_words(d, lv):
                        ev = TensorElement.word(d, v)
                        if pu * self.pair(ev) != self.pair(shuffle(eu, ev)):
                            return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSignature)
            and self.level == other.level
            and self.elem == other.elem
        )

    def __repr__(self) -> str:
        return "TruncatedSignature(level=%d, %d terms)" % (
            self.level,
            self.elem.support_size(),
        )


def segment_signature(d: int, increment: Sequence, level: int) -> TruncatedSignature:
    """Truncated exponential of one linear segment.

    The coefficient of a word i_1 ... i_n is the product of the matching
    increment coordinates divided by n factorial.
    """
    if level < 0:
        raise ValueError("negative truncation level")
    z = tuple(exact(c) for c in increment)
    if len(z) != d:
        raise ValueError("increment does not have %d coordinates" % d)
    terms: dict[tuple[int, ...], object] = {(): Q(1)}
    frontier: dict[tuple[int, ...], object] = {(): Q(1)}
    for k in range(1, level + 1):
        nxt: dict[tuple[int, ...], object] = {}
        for w, c in frontier.items():
            base = c / k
            for i in range(d):
                if z[i]:
                    nxt[w + (i + 1,)] = base * z[i]
        frontier = nxt
        terms.update(nxt)
    return TruncatedSignature(level, TensorElement(d, terms))


def path_signature(path: PiecewiseLinearPath, level: int) -> TruncatedSignature:
    """Chen product of the segment exponentials, in path order."""
    if level < 0:
        raise ValueError("negative truncation level")
    scale = _common_denominator(path.segments)
    sig = _signature_levels(path.d, path.segments, level, scale)
    terms = {}
    for k, values in enumerate(sig):
        denominator = factorial(k) * scale**k
        for letters, v in zip(all_words(path.d, k), values):
            if v:
                terms[letters] = Q(v, denominator)
    return TruncatedSignature(level, TensorElement(path.d, terms))


# ---------------------------------------------------------------------------
# scaled integer levels: level k holds k! * D**k times the true level k
# ---------------------------------------------------------------------------


def _common_denominator(segments) -> int:
    """The lcm D of the denominators of every coordinate of the segments."""
    return lcm(*(c.denominator for seg in segments for c in seg))


def _unit_levels(d: int, level: int) -> list[list[int]]:
    return [[1]] + [[0] * d**k for k in range(1, level + 1)]


def _segment_levels(increment, level: int, scale: int) -> list[list[int]]:
    """Outer powers of the integer vector ``scale * increment``."""
    y = [c.numerator * (scale // c.denominator) for c in increment]
    levels = [[1]]
    for _ in range(level):
        levels.append([a * b for a in levels[-1] for b in y])
    return levels


def _chen(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """Scaled levels of the concatenated path, for x and y of one D."""
    out = [[1]]
    for k in range(1, min(len(x), len(y))):
        parts = [y[k], x[k]]
        for j in range(1, k):
            ys = y[k - j]
            weight = comb(k, j)
            parts.append([p * b for p in [weight * a for a in x[j]] for b in ys])
        out.append(list(map(sum, zip(*parts))))
    return out


def _signature_levels(d: int, segments, level: int, scale: int) -> list[list[int]]:
    """Scaled levels of the path with the given segments."""
    if not segments:
        return _unit_levels(d, level)
    return reduce(_chen, (_segment_levels(seg, level, scale) for seg in segments))


def _pair_row(sig: list[list[int]], entry: tuple[int, dict[int, int]]) -> int:
    """Scaled pairing with an integer row ``(n, {word index: coefficient})``."""
    n, row = entry
    values = sig[n]
    return sum(values[i] * c for i, c in row.items())


def _scaled_row(x: TensorElement, n: int) -> tuple[int, tuple[int, dict[int, int]]]:
    """``(L, (n, row))``: the integer row of L times an element x of level
    n, where L is the lcm of the denominators of its coefficients."""
    if not x.is_homogeneous(n):
        raise ValueError("element is not homogeneous of level %d" % n)
    terms = list(x.items())
    scale = lcm(*(c.denominator for _, c in terms))
    return scale, (n, {word_index(w.letters, x.d): c.numerator * (scale // c.denominator) for w, c in terms})


# ---------------------------------------------------------------------------
# seeded fuzzing against the invariant bases
# ---------------------------------------------------------------------------


class FuzzReport(NamedTuple):
    """Outcome of one seeded fuzz suite; merged deterministically."""

    kind: str
    d: int
    level: int
    trials: int
    seed: int
    checks: int
    failures: tuple[str, ...]
    witness_found: bool
    witness: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**self._asdict(), "failures": list(self.failures)}


def _report(kind: str, d: int, level: int, trials: int, seed: int, checks: int,
            failures: list[str], witness: str | None) -> FuzzReport:
    """The report of one suite; ``witness`` is None for a suite that
    searches for none, and empty for one that found none."""
    return FuzzReport(kind, d, level, trials, seed, checks, tuple(failures),
                      witness != "", witness or "")


def _unit_vector(d: int, axis: int) -> tuple:
    return tuple(Q(1) if i == axis else Q(0) for i in range(1, d + 1))


def random_increment(rng: random.Random, d: int) -> tuple:
    """Numerators uniform in [-3, 3], denominators in {1, 2, 3}."""
    return tuple(
        Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)
    )


def random_path(
    rng: random.Random, d: int, min_segments: int = 1, max_segments: int = 5
) -> PiecewiseLinearPath:
    count = rng.randint(min_segments, max_segments)
    return PiecewiseLinearPath(d, [random_increment(rng, d) for _ in range(count)])


def _describe_pair(a: PiecewiseLinearPath, b: PiecewiseLinearPath, what: str) -> str:
    return json.dumps(
        {"check": what, "first": path_to_json(a), "second": path_to_json(b)},
        sort_keys=True,
    )


def _invariant_rows(spaces: InvariantSpaces, level: int, kind: str):
    """Stored integer rows ``(n, row)`` of one invariant kind, levels 1..level.

    Every fuzz driver takes its basis from here.
    """
    return [(n, row) for n in range(1, level + 1) for row in spaces.space(kind, n).rows]


def _word_row(d: int, coefficients: dict) -> tuple[int, dict[int, int]]:
    """Integer row ``(n, row)`` of a combination of words of one length n."""
    n = len(next(iter(coefficients)))
    return n, {word_index(w, d): c for w, c in coefficients.items()}


def _rotations(pieces: list[list[list[int]]]) -> list[list[list[int]]]:
    """Scaled levels of the product of ``pieces`` read from every start.

    Entry k starts at piece k and wraps round, so entry 0 is the product
    in order.  Each later entry is one Chen product of the suffix from
    piece k and the prefix before it; the pieces [A, B] give AB and BA.
    """
    prefixes = list(accumulate(pieces, _chen))
    # suffixes[k - 1]: piece k on
    suffixes = list(accumulate(pieces[:0:-1], lambda tail, piece: _chen(piece, tail)))[::-1]
    return prefixes[-1:] + [_chen(suffix, prefix) for suffix, prefix in zip(suffixes, prefixes)]


def _agreeing(basis, sig: list[list[int]], expected: list[int], failures: list[str], describe) -> int:
    """The number of basis rows, up to the first that does not, that pair
    with ``sig`` to their ``expected`` values.  On a mismatch the failure
    ``describe()`` is appended, so its paths are built only then."""
    for count, (entry, value) in enumerate(zip(basis, expected)):
        if _pair_row(sig, entry) != value:
            failures.append(describe())
            return count
    return len(basis)


def _moved(rotations: list[list[list[int]]], probe) -> int:
    """The first rotation k >= 1 whose pairing with ``probe`` differs from
    that of rotation 0, or 0 if there is none."""
    base = _pair_row(rotations[0], probe)
    return next((k for k in range(1, len(rotations)) if _pair_row(rotations[k], probe) != base), 0)


def fuzz_conjugation(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """Pairings with conjugation invariants agree on AB versus BA.

    BA is the rotation of AB that starts at its second piece, so this is
    the two-piece case of the rotation check of :func:`fuzz_loop`.  Also
    searches the trial stream for a witness showing the signed area
    12 - 21 (level 2) is not conjugation invariant.  For d >= 2 the
    canonical axis pair is run in addition to the ``trials`` random
    pairs, so ``trials + 1`` pairs are checked and, from level 2 on, a
    witness is always found.
    """
    basis = _invariant_rows(spaces_for(d), level, "conj")
    area = None
    if d >= 2 and level >= 2:
        area = _word_row(d, {(1, 2): 1, (2, 1): -1})
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    witness = ""
    pairs = [(random_path(rng, d), random_path(rng, d)) for _ in range(trials)]
    if d >= 2:
        # canonical witness pair: a unit step right, then a unit step up
        axis_a = PiecewiseLinearPath(d, [_unit_vector(d, 1)])
        axis_b = PiecewiseLinearPath(d, [_unit_vector(d, 2)])
        pairs.append((axis_a, axis_b))
    for a, b in pairs:
        scale = _common_denominator(a.segments + b.segments)
        sig_ab, sig_ba = _rotations([_signature_levels(d, p.segments, level, scale) for p in (a, b)])
        checks += _agreeing(basis, sig_ba, [_pair_row(sig_ab, entry) for entry in basis], failures,
                            lambda: _describe_pair(a, b, "conjugation invariance"))
        if not witness and area is not None and _moved([sig_ab, sig_ba], area):
            witness = _describe_pair(a, b, "area distinguishes AB from BA")
    return _report("conjugation", d, level, trials, seed, checks, failures, witness)


def fuzz_loop(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """Pairings with loop invariants are stable under starting-point moves.

    Each trial closes a random path into a loop, walks through every
    rotation of its segment list, and also conjugates the loop by one
    random path.  The witness search looks for a rotation distinguishing
    the non-loop-invariant word 112.
    """
    basis = _invariant_rows(spaces_for(d), level, "loop")
    probe = _word_row(d, {(1, 1, 2): 1}) if d >= 2 and level >= 3 else None
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    witness = ""
    for _ in range(trials):
        loop = close(random_path(rng, d, min_segments=2, max_segments=5))
        conjugator = random_path(rng, d)
        rev_conjugator = reverse(conjugator)
        scale = _common_denominator(loop.segments + conjugator.segments)
        rotations = _rotations([_segment_levels(seg, level, scale) for seg in loop.segments])
        conjugated = _chen(
            _chen(_signature_levels(d, rev_conjugator.segments, level, scale), rotations[0]),
            _signature_levels(d, conjugator.segments, level, scale),
        )
        expected = [_pair_row(rotations[0], entry) for entry in basis]
        for k in range(1, len(rotations)):
            checks += _agreeing(basis, rotations[k], expected, failures,
                                lambda: _describe_pair(loop, loop.rotated(k), "loop invariance"))
        checks += _agreeing(basis, conjugated, expected, failures, lambda: _describe_pair(
            loop, rev_conjugator.followed_by(loop).followed_by(conjugator), "loop invariance"))
        if probe is not None and not witness:
            k = _moved(rotations, probe)
            if k:
                witness = _describe_pair(loop, loop.rotated(k), "112 distinguishes rotations")
    return _report("loop", d, level, trials, seed, checks, failures, witness)


def fuzz_closure(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """The closure operators match actually closing the path.

    Per trial and per level k <= N, a random word w is checked for
    <sig(X), rcl(w)> = <sig(X R_X), w> and the left mirror image, and
    every basis element of the closure invariants is checked to pair
    equally before and after closing.

    Both closures of a word are computed once per call, on its first
    draw, and kept as integer rows scaled by the lcm L of their
    denominators; the check is the identity above multiplied by L, so
    it is exact and integer.
    """
    basis = _invariant_rows(spaces_for(d), level, "closure")
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    # letters -> (index, scaled right closure, scaled left closure)
    closures: dict[tuple[int, ...], tuple] = {}
    for _ in range(trials):
        x = random_path(rng, d)
        closing = PiecewiseLinearPath(d, [closing_segment(x)])
        scale = _common_denominator(x.segments + closing.segments)
        sig_x = _signature_levels(d, x.segments, level, scale)
        sig_closing = _segment_levels(closing.segments[0], level, scale)
        sig_right = _chen(sig_x, sig_closing)
        sig_left = _chen(sig_closing, sig_x)
        for k in range(1, level + 1):
            letters = tuple(rng.randint(1, d) for _ in range(k))
            if letters not in closures:
                w = TensorElement.word(d, letters)
                closures[letters] = (word_index(letters, d), _scaled_row(right_closure(w), k),
                                     _scaled_row(left_closure(w), k))
            i, (scale_right, right), (scale_left, left) = closures[letters]
            ok_right = _pair_row(sig_x, right) == scale_right * sig_right[k][i]
            ok_left = _pair_row(sig_x, left) == scale_left * sig_left[k][i]
            if not (ok_right and ok_left):
                failures.append(
                    _describe_pair(x, closing, "closure operator on %s" % "".join(map(str, letters)))
                )
            checks += 2
        checks += _agreeing(basis, sig_right, [_pair_row(sig_x, entry) for entry in basis], failures,
                            lambda: _describe_pair(x, closing, "right-closure invariance"))
    return _report("closure", d, level, trials, seed, checks, failures, None)


# ---------------------------------------------------------------------------
# staircase evaluation
# ---------------------------------------------------------------------------


def staircase_word(n: int, m: int) -> Word:
    """1^(m+1) (21)^(n-1) 2 as a two-letter word."""
    letters = (1,) * (m + 1) + (2, 1) * (n - 1) + (2,)
    return Word(letters, 2)


def staircase_eval(n: int, m: int, xs: Sequence) -> object:
    """Evaluate the staircase invariant on the alternating axis path.

    The path steps x_1, ..., x_n to the right with unit rises in between.
    The pairing of its signature with the rotation sum of the staircase
    word equals x_1 ... x_n * sum(x_i^m) / (m+1)!, a polynomial multiple
    of the m-th power sum (which is what makes these invariants
    shuffle-independent in families).  Both sides are computed exactly; a
    mismatch raises.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    xs = [exact(c) for c in xs]
    if len(xs) != n:
        raise ValueError("expected %d step sizes" % n)
    segments = []
    for x in xs:
        segments.append((x, Q(0)))
        segments.append((Q(0), Q(1)))
    path = PiecewiseLinearPath(2, segments)
    word = staircase_word(n, m)
    level = len(word)
    value = path_signature(path, level).pair(rotation_sum(word))
    product = Q(1)
    for x in xs:
        product *= x
    power_sum = sum((x**m for x in xs), Q(0))
    expected = product * power_sum / factorial(m + 1)
    if value != expected:
        raise AssertionError(
            "staircase evaluation mismatch: %s != %s" % (value, expected)
        )
    return value

