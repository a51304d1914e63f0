"""Words over the alphabet {1, ..., d} and their cyclic combinatorics.

Words are the basis of the tensor algebra.  This module also provides the
classic enumerations attached to them: Lyndon words (a basis of the free
Lie algebra), necklaces (cyclic equivalence classes of words), the
anagrams of a letter content, and the rotation / repetition bookkeeping
the invariant pipeline is built on.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial, gcd, isqrt
from typing import Iterator, Sequence

from ._rat import integer


class Word:
    """An immutable word over the alphabet {1, ..., d}.

    The alphabet size is carried with the word and validated up front;
    mixing alphabets silently is a corruption hazard in everything
    downstream.
    """

    __slots__ = ("letters", "d", "_hash")

    def __init__(self, letters: Sequence[int], d: int):
        d = integer(d)
        if d < 1:
            raise ValueError("alphabet size must be at least 1, got %r" % (d,))
        letters = tuple(map(integer, letters))
        for a in letters:
            if not 1 <= a <= d:
                raise ValueError("letter %r outside alphabet 1..%d" % (a, d))
        self.letters = letters
        self.d = d
        self._hash = hash((d, letters))

    @classmethod
    def from_string(cls, text: str, d: int) -> "Word":
        """Build a word from a digit string such as ``"143"`` (d <= 9)."""
        if d > 9:
            raise ValueError("digit-string words require d <= 9")
        return cls(tuple(int(c) for c in text), d)

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.d == other.d
            and self.letters == other.letters
        )

    def __lt__(self, other: "Word") -> bool:
        return self.letters < other.letters

    def __repr__(self) -> str:
        return "Word(%r, d=%d)" % ("".join(map(str, self.letters)), self.d)

    def __str__(self) -> str:
        if self.d <= 9:
            return "".join(map(str, self.letters)) or "e"
        return ".".join(map(str, self.letters)) or "e"

    def is_empty(self) -> bool:
        return not self.letters


def all_words(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """All letter tuples of length n over 1..d, in lexicographic order."""
    return itertools.product(range(1, d + 1), repeat=n)


@functools.lru_cache(maxsize=None)
def anagrams(letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of a tuple, in lexicographic order
    (cached; callers pass the sorted tuple of a letter content).  Each one
    follows from the last by the next-permutation step: find the last
    ascent i, swap x[i] with the last entry larger than it, and reverse
    the tail after i."""
    x = sorted(letters)
    out = [tuple(x)]
    while True:
        i = len(x) - 2
        while i >= 0 and x[i] >= x[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(x) - 1
        while x[j] <= x[i]:
            j -= 1
        x[i], x[j] = x[j], x[i]
        x[i + 1 :] = x[:i:-1]
        out.append(tuple(x))


def rotations(letters: Sequence[int]) -> list[tuple[int, ...]]:
    """The len(letters) cyclic rotations, including the word itself."""
    letters = tuple(letters)
    return [letters[i:] + letters[:i] for i in range(len(letters))]


def min_rotation(letters: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation (canonical necklace form)."""
    return min(rotations(letters))


def repetition_count(letters: Sequence[int]) -> int:
    """Largest k such that the word is a k-fold repetition of some pattern."""
    letters = tuple(letters)
    n = len(letters)
    if n == 0:
        raise ValueError("repetition count of the empty word is undefined")
    for period in range(1, n + 1):
        if n % period == 0 and letters == letters[:period] * (n // period):
            return n // period
    raise AssertionError("unreachable")


def is_lyndon(letters: Sequence[int]) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    letters = tuple(letters)
    if not letters:
        return False
    return all(letters < rot for rot in rotations(letters)[1:])


def lyndon_words(d: int, n: int) -> list[Word]:
    """All Lyndon words of length n over 1..d, lexicographically ordered.

    Duval's generation of the length-at-most-n Lyndon sequence, filtered
    to exact length n.
    """
    d = integer(d)
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    out = []
    word = [1]
    while word:
        if len(word) == n:
            out.append(Word(tuple(word), d))
        # extend periodically to length n, then increment the tail
        stem = word[:]
        while len(word) < n:
            word.append(word[len(word) % len(stem)])
        while word and word[-1] == d:
            word.pop()
        if word:
            word[-1] += 1
    return out


def lyndon_count(d: int, n: int) -> int:
    """Number of Lyndon words of length n over 1..d (necklace polynomial)."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    total = sum(_moebius(n // k) * d**k for k in _divisors(n))
    return total // n


def standard_factorization(letters: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word w = uv with v its smallest proper suffix.

    Both factors are again Lyndon; this drives the recursive bracketing
    of the Lyndon basis.
    """
    letters = tuple(letters)
    if len(letters) < 2 or not is_lyndon(letters):
        raise ValueError("standard factorization needs a Lyndon word of length >= 2")
    best = len(letters) - 1
    for i in range(1, len(letters)):
        if letters[i:] < letters[best:]:
            best = i
    return letters[:best], letters[best:]


def necklaces(d: int, n: int) -> list[Word]:
    """One canonical representative per cyclic class of length-n words.

    Representatives are the lexicographically smallest rotations, produced
    in lexicographic order by the classic prenecklace generation (FKM).
    """
    d = integer(d)
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    out: list[Word] = []
    a = [0] * (n + 1)

    def gen(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.append(Word(tuple(x + 1 for x in a[1 : n + 1]), d))
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, d):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return out


def necklace_count(d: int, n: int) -> int:
    """Closed form (1/n) * sum over k | n of phi(k) * d^(n/k)."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return sum(_euler_phi(k) * d ** (n // k) for k in _divisors(n)) // n


def multinomial(counts: Sequence[int]) -> int:
    """Number of words with the given letter counts."""
    out = factorial(sum(counts))
    for k in counts:
        out //= factorial(k)
    return out


def content_necklace_count(counts: Sequence[int]) -> int:
    """Necklaces with the given letter counts, by Burnside over rotations:
    (1/n) * sum over k | gcd(counts) of phi(k) * multinomial(counts / k)."""
    n = sum(counts)
    if n < 1:
        raise ValueError("need a nonempty content")
    g = gcd(*counts)
    return sum(_euler_phi(k) * multinomial([c // k for c in counts]) for k in _divisors(g)) // n


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    large = [n // k for k in reversed(small) if k * k != n]
    return small + large


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result, remaining, p = 1, n, 2
    while p * p <= remaining:
        if remaining % p == 0:
            remaining //= p
            if remaining % p == 0:
                return 0
            result = -result
        p += 1
    if remaining > 1:
        result = -result
    return result
