"""Exact truncated signatures of piecewise linear paths.

A path is an ordered list of rational increment vectors.  Its signature
is the truncated concatenation product of segment exponentials (Chen's
identity), so every coefficient is an exact rational.  This module is
the independent oracle for the algebraic invariance claims: seeded fuzz
drivers compare pairings of concrete path signatures against the
invariant bases built in :mod:`loopinv.invariants`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence

from ._rat import Q, exact, rational_from_string, rational_to_string
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


class PiecewiseLinearPath:
    """Ordered increments in Q^d; only increments matter for signatures."""

    __slots__ = ("d", "segments")

    def __init__(self, d: int, segments: Sequence[Sequence]):
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
        int(payload["d"]),
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
    sig = segment_signature(path.d, (Q(0),) * path.d, level)
    for seg in path.segments:
        sig = sig.product(segment_signature(path.d, seg, level))
    return sig


# ---------------------------------------------------------------------------
# seeded fuzzing against the invariant bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzReport:
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
        return {
            "kind": self.kind,
            "d": self.d,
            "level": self.level,
            "trials": self.trials,
            "seed": self.seed,
            "checks": self.checks,
            "failures": list(self.failures),
            "witness_found": self.witness_found,
            "witness": self.witness,
        }


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


def _invariant_basis(spaces: InvariantSpaces, level: int, kind: str):
    out = []
    for n in range(1, level + 1):
        if kind == "conj":
            sub = spaces.conjugation_invariants(n)
        elif kind == "loop":
            sub = spaces.loop_invariants(n)
        else:
            sub = spaces.closure_invariants(n)
        out.extend(sub.basis_tensors())
    return out


def fuzz_conjugation(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """Pairings with conjugation invariants agree on AB versus BA.

    Also searches the trial stream for a witness showing the signed area
    12 - 21 (level 2) is not conjugation invariant.  For d >= 2 the
    canonical axis pair is run in addition to the ``trials`` random
    pairs, so ``trials + 1`` pairs are checked and, from level 2 on, a
    witness is always found.
    """
    spaces = spaces_for(d)
    basis = _invariant_basis(spaces, level, "conj")
    area = None
    if d >= 2 and level >= 2:
        area = TensorElement.word(d, (1, 2)) - TensorElement.word(d, (2, 1))
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
        sig_ab = path_signature(a.followed_by(b), level)
        sig_ba = path_signature(b.followed_by(a), level)
        for elt in basis:
            if sig_ab.pair(elt) != sig_ba.pair(elt):
                failures.append(_describe_pair(a, b, "conjugation invariance"))
                break
            checks += 1
        if not witness and area is not None and sig_ab.pair(area) != sig_ba.pair(area):
            witness = _describe_pair(a, b, "area distinguishes AB from BA")
    return FuzzReport(
        kind="conjugation",
        d=d,
        level=level,
        trials=trials,
        seed=seed,
        checks=checks,
        failures=tuple(failures),
        witness_found=bool(witness),
        witness=witness,
    )


def fuzz_loop(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """Pairings with loop invariants are stable under starting-point moves.

    Each trial closes a random path into a loop, walks through every
    rotation of its segment list, and also conjugates the loop by one
    random path.  The witness search looks for a rotation distinguishing
    the non-loop-invariant word 112.
    """
    spaces = spaces_for(d)
    basis = _invariant_basis(spaces, level, "loop")
    probe = TensorElement.word(d, (1, 1, 2)) if d >= 2 and level >= 3 else None
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    witness = ""
    for _ in range(trials):
        loop = close(random_path(rng, d, min_segments=2, max_segments=5))
        conjugator = random_path(rng, d)
        base_sig = path_signature(loop, level)
        base_values = [base_sig.pair(elt) for elt in basis]
        rotations = [loop.rotated(k) for k in range(1, len(loop.segments))]
        conjugated = reverse(conjugator).followed_by(loop).followed_by(conjugator)
        for other in rotations + [conjugated]:
            sig = path_signature(other, level)
            for elt, expected in zip(basis, base_values):
                if sig.pair(elt) != expected:
                    failures.append(_describe_pair(loop, other, "loop invariance"))
                    break
                checks += 1
        if probe is not None and not witness:
            base_probe = base_sig.pair(probe)
            for other in rotations:
                if path_signature(other, level).pair(probe) != base_probe:
                    witness = _describe_pair(loop, other, "112 distinguishes rotations")
                    break
    return FuzzReport(
        kind="loop",
        d=d,
        level=level,
        trials=trials,
        seed=seed,
        checks=checks,
        failures=tuple(failures),
        witness_found=bool(witness),
        witness=witness,
    )


def fuzz_closure(d: int, level: int, trials: int, seed: int) -> FuzzReport:
    """The closure operators match actually closing the path.

    Per trial and per level k <= N, a random word w is checked for
    <sig(X), rcl(w)> = <sig(X R_X), w> and the left mirror image, and
    every basis element of the closure invariants is checked to pair
    equally before and after closing.
    """
    spaces = spaces_for(d)
    basis = _invariant_basis(spaces, level, "closure")
    rng = random.Random(seed)
    checks = 0
    failures: list[str] = []
    for _ in range(trials):
        x = random_path(rng, d)
        closing = PiecewiseLinearPath(d, [closing_segment(x)])
        sig_x = path_signature(x, level)
        sig_right = path_signature(x.followed_by(closing), level)
        sig_left = path_signature(closing.followed_by(x), level)
        for k in range(1, level + 1):
            letters = tuple(rng.randint(1, d) for _ in range(k))
            w = TensorElement.word(d, letters)
            ok_right = sig_x.pair(right_closure(w)) == sig_right.pair(w)
            ok_left = sig_x.pair(left_closure(w)) == sig_left.pair(w)
            if not (ok_right and ok_left):
                failures.append(
                    _describe_pair(x, closing, "closure operator on %s" % "".join(map(str, letters)))
                )
            checks += 2
        for elt in basis:
            if sig_x.pair(elt) != sig_right.pair(elt):
                failures.append(_describe_pair(x, closing, "right-closure invariance"))
                break
            checks += 1
    return FuzzReport(
        kind="closure",
        d=d,
        level=level,
        trials=trials,
        seed=seed,
        checks=checks,
        failures=tuple(failures),
        witness_found=True,
        witness="",
    )


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
    expected = product * power_sum / _factorial_q(m + 1)
    if value != expected:
        raise AssertionError(
            "staircase evaluation mismatch: %s != %s" % (value, expected)
        )
    return value


def _factorial_q(n: int):
    out = Q(1)
    for k in range(2, n + 1):
        out *= k
    return out
