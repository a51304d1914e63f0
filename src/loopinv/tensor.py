"""Graded sparse tensor-algebra elements with exact rational coefficients.

A :class:`TensorElement` is a finite linear combination of words with
rational coefficients, stored sparsely (no zero coefficient is ever kept).
A sum is accumulated term by term, ``data[w] = data.get(w, 0) + c``, and
its cancelled words are dropped once, where the element (or a cached
polynomial) is made.
On top of the two products (concatenation and shuffle), the
deconcatenation coproduct and the word-basis pairing, this module builds
the operators the invariant pipeline needs:

* ``rotation_sum``    sum of all cyclic rotations of a word,
* ``cyclic_shift``    one-step rotation on a homogeneous level,
* ``closing_segment_dual``  the signed, normalized shuffle of a word's
  letters (dual to pairing against the straight segment that closes a
  path),
* ``right_closure`` / ``left_closure``  the projections realizing path
  closure algebraically, n!-scaled by counting subsequence embeddings
  along the trie of a content's anagrams (``_rcl_block``), for one word
  or for every anagram of a content in one pass,
* ``lyndon_bracketing``  the Lie polynomial attached to a Lyndon word.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._rat import Q, exact, integer, rational_to_string
from .words import Word, anagrams, rotations, standard_factorization

# caches shared across alphabet sizes: expansions depend on letters only
_RCL_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
_LYNDON_POLY_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


class TensorElement:
    """Sparse linear combination of words sharing one alphabet size."""

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping | Iterable = ()):
        d = integer(d)
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        self.d = d
        data: dict[tuple[int, ...], object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, value in items:
            letters = self._as_letters(key)
            data[letters] = data.get(letters, 0) + exact(value)
        self._terms = {t: c for t, c in data.items() if c}

    def _as_letters(self, key) -> tuple[int, ...]:
        if isinstance(key, Word):
            if key.d != self.d:
                raise ValueError("word alphabet %d != element alphabet %d" % (key.d, self.d))
            return key.letters
        if isinstance(key, str):
            return Word.from_string(key, self.d).letters
        return Word(key, self.d).letters

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "TensorElement":
        return cls(d)

    @classmethod
    def unit(cls, d: int) -> "TensorElement":
        """The empty word with coefficient 1."""
        elt = cls(d)
        elt._terms = {(): Q(1)}
        return elt

    @classmethod
    def word(cls, d: int, letters) -> "TensorElement":
        elt = cls(d)
        elt._terms = {elt._as_letters(letters): Q(1)}
        return elt

    @classmethod
    def _raw(cls, d: int, data: dict) -> "TensorElement":
        # internal fast path: data must already be canonical (no zeros)
        elt = cls.__new__(cls)
        elt.d = d
        elt._terms = data
        return elt

    @classmethod
    def _sum(cls, d: int, data: dict) -> "TensorElement":
        # internal: an accumulated sum, its cancelled words dropped here
        return cls._raw(d, {t: c for t, c in data.items() if c})

    # -- inspection ---------------------------------------------------

    def items(self):
        """Iterate ``(Word, coefficient)`` in degree-then-lexicographic order."""
        for letters in sorted(self._terms, key=lambda t: (len(t), t)):
            yield Word(letters, self.d), self._terms[letters]

    def coefficient(self, word) -> object:
        return self._terms.get(self._as_letters(word), Q(0))

    def support_size(self) -> int:
        return len(self._terms)

    @property
    def max_level(self) -> int:
        """Highest level carrying a term; -1 for the zero element."""
        return max((len(t) for t in self._terms), default=-1)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self, n: int | None = None) -> bool:
        levels = {len(t) for t in self._terms}
        if n is None:
            return len(levels) <= 1
        return levels <= {n}

    def homogeneous_part(self, n: int) -> "TensorElement":
        return TensorElement._raw(
            self.d, {t: c for t, c in self._terms.items() if len(t) == n}
        )

    def truncate(self, n: int) -> "TensorElement":
        return TensorElement._raw(
            self.d, {t: c for t, c in self._terms.items() if len(t) <= n}
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TensorElement") -> "TensorElement":
        _check_same_alphabet(self, other)
        data = dict(self._terms)
        for t, c in other._terms.items():
            data[t] = data.get(t, 0) + c
        return TensorElement._sum(self.d, data)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement._raw(self.d, {t: -c for t, c in self._terms.items()})

    def __mul__(self, scalar) -> "TensorElement":
        scalar = exact(scalar)
        if not scalar:
            return TensorElement.zero(self.d)
        return TensorElement._raw(self.d, {t: c * scalar for t, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TensorElement":
        return self * (Q(1) / exact(scalar))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.d == other.d
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return "TensorElement(%d, %s)" % (self.d, str(self) or "0")

    def __str__(self) -> str:
        parts = []
        for word, coeff in self.items():
            text = str(word)
            if coeff == 1 and word.letters:
                term = text
            elif coeff == -1 and word.letters:
                term = "-" + text
            elif word.letters:
                term = "%s*%s" % (rational_to_string(coeff), text)
            else:
                term = rational_to_string(coeff)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"


def _check_same_alphabet(a: TensorElement, b: TensorElement) -> None:
    if a.d != b.d:
        raise ValueError("alphabet size mismatch: %d vs %d" % (a.d, b.d))


# ---------------------------------------------------------------------------
# products, coproduct, pairing
# ---------------------------------------------------------------------------


def concat(a: TensorElement, b: TensorElement) -> TensorElement:
    """Concatenation (tensor) product, extended bilinearly."""
    return concat_truncated(a, b, a.max_level + b.max_level)


def concat_truncated(a: TensorElement, b: TensorElement, n: int) -> TensorElement:
    """Concatenation product with levels above n discarded up front."""
    _check_same_alphabet(a, b)
    data: dict[tuple[int, ...], object] = {}
    for u, cu in a._terms.items():
        room = n - len(u)
        if room < 0:
            continue
        for v, cv in b._terms.items():
            if len(v) > room:
                continue
            w = u + v
            data[w] = data.get(w, 0) + cu * cv
    return TensorElement._sum(a.d, data)


def _shuffle_words_into(data: dict, u: tuple, v: tuple, coeff) -> None:
    """Accumulate coeff * (u shuffle v) into data.  A word whose sum
    cancels stays, with coefficient 0, for the caller to drop."""
    if not coeff:
        return
    n = len(u) + len(v)
    if not u or not v:
        w = u + v
        data[w] = data.get(w, 0) + coeff
        return
    letters = [0] * n
    for positions in itertools.combinations(range(n), len(u)):
        it_u = iter(u)
        it_v = iter(v)
        mark = [False] * n
        for p in positions:
            mark[p] = True
        for i in range(n):
            letters[i] = next(it_u) if mark[i] else next(it_v)
        w = tuple(letters)
        data[w] = data.get(w, 0) + coeff


def shuffle(a: TensorElement, b: TensorElement) -> TensorElement:
    """Shuffle product: sum over all interleavings, extended bilinearly."""
    _check_same_alphabet(a, b)
    data: dict[tuple[int, ...], object] = {}
    for u, cu in a._terms.items():
        for v, cv in b._terms.items():
            _shuffle_words_into(data, u, v, cu * cv)
    return TensorElement._sum(a.d, data)


def shuffle_power(a: TensorElement, k: int) -> TensorElement:
    if k < 0:
        raise ValueError("negative shuffle power")
    result = TensorElement.unit(a.d)
    for _ in range(k):
        result = shuffle(result, a)
    return result


def bracket(a: TensorElement, b: TensorElement) -> TensorElement:
    """Commutator of the concatenation product."""
    return concat(a, b) - concat(b, a)


def pair(series: TensorElement, poly: TensorElement) -> object:
    """Word-basis pairing: sum of products of matching coefficients."""
    _check_same_alphabet(series, poly)
    small, large = series._terms, poly._terms
    if len(large) < len(small):
        small, large = large, small
    total = Q(0)
    for t, c in small.items():
        other = large.get(t)
        if other is not None:
            total += c * other
    return total


def deconcat(a: TensorElement) -> list[tuple[Word, Word, object]]:
    """All prefix/suffix splits of every term, empty sides included."""
    out = []
    for letters in sorted(a._terms, key=lambda t: (len(t), t)):
        c = a._terms[letters]
        for i in range(len(letters) + 1):
            out.append((Word(letters[:i], a.d), Word(letters[i:], a.d), c))
    return out


# ---------------------------------------------------------------------------
# cyclic operators
# ---------------------------------------------------------------------------


def rotation_sum(word: Word) -> TensorElement:
    """Sum of all cyclic rotations of a word, with multiplicity.

    Every distinct rotation appears with coefficient equal to the word's
    repetition count, e.g. a 2-periodic word of length 4 contributes each
    of its 2 distinct rotations twice.
    """
    if word.is_empty():
        raise ValueError("rotation sum of the empty word is undefined")
    data: dict[tuple[int, ...], object] = {}
    for rot in rotations(word.letters):
        data[rot] = data.get(rot, 0) + Q(1)
    return TensorElement._raw(word.d, data)


def cyclic_shift(x: TensorElement, level: int | None = None) -> TensorElement:
    """Rotate every word one step, last letter to the front.

    Defined on homogeneous elements only; the level is validated (and may
    be passed explicitly as a guard).
    """
    if not x.is_homogeneous():
        raise ValueError("cyclic shift needs a homogeneous element")
    if level is not None and not x.is_homogeneous(level):
        raise ValueError("element is not homogeneous of level %d" % level)
    data = {(t[-1],) + t[:-1] if t else t: c for t, c in x._terms.items()}
    return TensorElement._raw(x.d, data)


def closing_segment_dual(x: TensorElement) -> TensorElement:
    """Send each word of length n to (-1)^n / n! times the shuffle of its
    letters, extended linearly.  Pairing a path signature against the
    image equals pairing the signature of the straight closing segment
    against the original word.

    With letter multiplicities m_a, the shuffle of the letters is
    prod(m_a!) times the sum of the n! / prod(m_a!) distinct anagrams, so
    every anagram gets (-1)^n over the number of anagrams."""
    data: dict[tuple[int, ...], object] = {}
    for t, c in x._terms.items():
        words = anagrams(tuple(sorted(t)))
        value = c * Q((-1) ** len(t), len(words))
        for w in words:
            data[w] = data.get(w, 0) + value
    return TensorElement._sum(x.d, data)


def _gather(indices: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The entries of a vector at the given positions, then its last entry:
    vectors here end in a 0, so a position -1 reads 0 and every gathered
    vector ends in a 0 again."""
    return itemgetter(*indices, -1)


def _rcl_block(content: tuple[int, ...], words: Iterable[tuple[int, ...]]) -> Iterator[list[int]]:
    """n! times the right closure of each given anagram w of a sorted
    content, one list per w in the order given, holding its integer
    coefficients on the anagrams x_0 < x_1 < ... of the content (the order
    of :func:`~loopinv.words.anagrams`).

    The right closure is the sum over all splits w = u v (u = w[:i]) of
    the shuffle of u with h(v), the signed normalized letter shuffle of v:
    h(v) = c(v) * (sum of the anagrams y of v), c(v) = (-1)^|v| prod m_a!
    / |v|! over the letter multiplicities m_a of v.  Every shuffle u ⧢ y
    has the letter content of w, so rcl(w) lives on the anagrams x of w.
    For such an x, the coefficient of x in the sum over y of u ⧢ y is
    occ(u, x), the number of embeddings of u as a subsequence of x: the
    letters of x left over by an embedding form exactly one anagram y.
    Hence

        n! rcl(w)[x] = sum_i s_i occ(w[:i], x),
        s_i = (-1)^(n-i) prod_a m_a(w[i:])! * n! / (n-i)!,

    all integers.

    The nodes of the trie of prefixes of the anagrams are the words u
    that fit in the content, its leaves the anagrams x.  For trie nodes u
    and y,

        occ(ua, yb) = occ(ua, y) + [a = b] occ(u, y),

    so the vector occ(ua, .) on the nodes of depth j is a gather of
    occ(ua, .) at depth j - 1 plus a gather of occ(u, .) there at the
    nodes whose last letter is a.  The weight s_i depends only on the
    content of the prefix u = w[:i], so the row of w is the sum over the
    nodes u on its path of s(u) occ(u, .) on the leaves.  The walk keeps
    occ(u, .) and the partial sum for the n nodes on the path of the last
    word only, and each word recomputes them below its common prefix with
    the word before.  That state depends only on the prefix, so the words
    may come in any order; in anagram order they share it as a depth-first
    walk over the trie does, and a single word walks its own path only.
    """
    n = len(content)
    if not n:
        for _ in words:
            yield [1]
        return
    # the nodes of each depth, in lexicographic order: the position of each
    # node's parent one depth up, and its last letter (distinct anagrams
    # differ before their end, so the prefix scan stops in range)
    parents: list[list[int]] = [[0]] + [[] for _ in range(n)]
    lasts: list[list[int]] = [[0]] + [[] for _ in range(n)]
    xs = anagrams(content)
    prev: tuple = (None,) * n
    for x in xs:
        p = 0
        while x[p] == prev[p]:
            p += 1
        for depth in range(p + 1, n + 1):
            parents[depth].append(len(parents[depth - 1]) - 1)
            lasts[depth].append(x[depth - 1])
        prev = x
    leaves = {x: i for i, x in enumerate(xs)}
    by_parent = list(map(_gather, parents))
    by_letter = {
        a: [_gather([p if b == a else -1 for p, b in zip(ps, bs)]) for ps, bs in zip(parents, lasts)]
        for a in set(content)
    }
    scale, total = factorial(n), {a: content.count(a) for a in set(content)}

    def weight(prefix: tuple[int, ...]) -> int:
        mult = 1
        for a, k in total.items():
            mult *= factorial(k - prefix.count(a))
        i = len(prefix)
        return (-1) ** (n - i) * mult * (scale // factorial(n - i))

    # occ[i][j] is occ(u, .) at depth j (with a trailing 0) for the node u of
    # depth i on the path of the last word, sums[i] its partial sum on the leaves
    occ: list = [[(1,) * len(ps) + (0,) for ps in parents]] + [None] * (n - 1)
    sums: list = [[weight(())] * len(leaves)] + [None] * (n - 1)
    path: tuple[int, ...] = ()
    for w in words:
        p = 0
        while p < len(path) and w[p] == path[p]:
            p += 1
        for depth in range(p, n - 1):
            up, letter = occ[depth], by_letter[w[depth]]
            vec = letter[depth + 1](up[depth])
            down = [None] * (depth + 1) + [vec]
            for j in range(depth + 2, n + 1):
                vec = tuple(map(add, by_parent[j](vec), letter[j](up[j - 1])))
                down.append(vec)
            occ[depth + 1] = down
            s = weight(w[: depth + 1])
            sums[depth + 1] = list(map(add, sums[depth], map(mul, vec, itertools.repeat(s))))
        path = w[: n - 1]
        # the leaf w adds its own term: n! occ(w, .), the unit vector of w
        row = sums[n - 1][:]
        row[leaves[w]] += scale
        yield row


def _rcl_word(letters: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """n! times the right closure of a single word of length n, on the
    anagrams of the word (cached)."""
    hit = _RCL_CACHE.get(letters)
    if hit is None:
        content = tuple(sorted(letters))
        row = next(_rcl_block(content, [letters]))
        hit = {x: c for x, c in zip(anagrams(content), row) if c}
        _RCL_CACHE[letters] = hit
    return hit


def right_closure(x: TensorElement) -> TensorElement:
    """Projection whose pairing against sig(X) equals pairing the original
    against sig(X followed by its straight closing segment)."""
    data: dict[tuple[int, ...], object] = {}
    for t, c in x._terms.items():
        for w, v in _rcl_word(t).items():
            data[w] = data.get(w, 0) + c * v
    return TensorElement._raw(
        x.d, {w: c / factorial(len(w)) for w, c in data.items() if c}
    )


def _reversed(x: TensorElement) -> TensorElement:
    return TensorElement._raw(x.d, {t[::-1]: c for t, c in x._terms.items()})


def left_closure(x: TensorElement) -> TensorElement:
    """Mirror image of :func:`right_closure` (closing segment prepended).

    Reversal is a shuffle automorphism and fixes the signed letter
    shuffles, so the left closure is the reversed right closure of the
    reversed element.
    """
    return _reversed(right_closure(_reversed(x)))


# ---------------------------------------------------------------------------
# Lyndon bracketing
# ---------------------------------------------------------------------------


def _lyndon_poly(letters: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    if len(letters) == 1:
        return {letters: 1}
    hit = _LYNDON_POLY_CACHE.get(letters)
    if hit is not None:
        return hit
    left, right = standard_factorization(letters)
    pl, pr = _lyndon_poly(left), _lyndon_poly(right)
    data: dict[tuple[int, ...], int] = {}
    for u, cu in pl.items():
        for v, cv in pr.items():
            c = cu * cv
            for w, s in ((u + v, c), (v + u, -c)):
                data[w] = data.get(w, 0) + s
    data = {w: c for w, c in data.items() if c}
    _LYNDON_POLY_CACHE[letters] = data
    return data


def lyndon_bracketing(word: Word) -> TensorElement:
    """Lie polynomial of a Lyndon word via its standard factorization.

    Letters map to themselves; longer words map to the bracket of the
    bracketings of their standard factors.  The lexicographically smallest
    word in the support is the input word itself, with coefficient 1.
    """
    if word.is_empty():
        raise ValueError("lyndon bracketing needs a nonempty Lyndon word")
    poly = _lyndon_poly(word.letters)  # raises on non-Lyndon input
    return TensorElement._raw(word.d, {t: Q(c) for t, c in poly.items()})


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def tensor_to_json(x: TensorElement) -> dict:
    """``{"d": int, "terms": [{"word": "143", "num": "...", "den": "..."}]}``

    Words serialize as digit strings, so d <= 9 is required; terms come
    in degree-then-lexicographic order.
    """
    if x.d > 9:
        raise ValueError("digit-string words require d <= 9")
    terms = []
    for word, coeff in x.items():
        terms.append(
            {
                "word": "".join(map(str, word.letters)),
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
            }
        )
    return {"d": x.d, "terms": terms}


def tensor_from_json(payload: Mapping) -> TensorElement:
    d = integer(payload["d"])
    if d > 9:
        raise ValueError("digit-string words require d <= 9")
    data = {}
    for term in payload["terms"]:
        letters = tuple(int(c) for c in term["word"])
        if letters in data:
            raise ValueError("word %r listed twice" % term["word"])
        den = integer(term["den"])
        if not den:
            raise ValueError("zero denominator for word %r" % term["word"])
        data[letters] = Q(integer(term["num"]), den)
    return TensorElement(d, data)
