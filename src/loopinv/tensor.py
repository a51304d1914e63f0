"""Graded sparse tensor-algebra elements with exact rational coefficients.

A :class:`TensorElement` is a finite linear combination of words with
rational coefficients, stored sparsely (no zero coefficient is ever kept).
On top of the two products (concatenation and shuffle), the
deconcatenation coproduct and the word-basis pairing, this module builds
the operators the invariant pipeline needs:

* ``rotation_sum``    sum of all cyclic rotations of a word,
* ``cyclic_shift``    one-step rotation on a homogeneous level,
* ``closing_segment_dual``  the signed, normalized shuffle of a word's
  letters (dual to pairing against the straight segment that closes a
  path),
* ``right_closure`` / ``left_closure``  the projections realizing path
  closure algebraically,
* ``lyndon_bracketing``  the Lie polynomial attached to a Lyndon word.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, Mapping

from ._rat import Q, exact, rational_to_string
from .words import Word, rotations, standard_factorization

# caches shared across alphabet sizes: expansions depend on letters only
_RCL_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], object]] = {}
_H_CACHE: dict[tuple[int, ...], tuple[object, list[tuple[int, ...]]]] = {}
_LYNDON_POLY_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


class TensorElement:
    """Sparse linear combination of words sharing one alphabet size."""

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping | Iterable = ()):
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        self.d = d
        data: dict[tuple[int, ...], object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, value in items:
            letters = self._as_letters(key)
            value = exact(value)
            if value:
                new = data.get(letters, 0) + value
                if new:
                    data[letters] = new
                else:
                    del data[letters]
        self._terms = data

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
            new = data.get(t, 0) + c
            if new:
                data[t] = new
            else:
                data.pop(t, None)
        return TensorElement._raw(self.d, data)

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
    _check_same_alphabet(a, b)
    data: dict[tuple[int, ...], object] = {}
    for u, cu in a._terms.items():
        for v, cv in b._terms.items():
            w = u + v
            new = data.get(w, 0) + cu * cv
            if new:
                data[w] = new
            else:
                del data[w]
    return TensorElement._raw(a.d, data)


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
            new = data.get(w, 0) + cu * cv
            if new:
                data[w] = new
            else:
                del data[w]
    return TensorElement._raw(a.d, data)


def _shuffle_words_into(data: dict, u: tuple, v: tuple, coeff) -> None:
    """Accumulate coeff * (u shuffle v) into data."""
    n = len(u) + len(v)
    if not u or not v:
        w = u + v
        new = data.get(w, 0) + coeff
        if new:
            data[w] = new
        else:
            del data[w]
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
        new = data.get(w, 0) + coeff
        if new:
            data[w] = new
        else:
            del data[w]


def shuffle(a: TensorElement, b: TensorElement) -> TensorElement:
    """Shuffle product: sum over all interleavings, extended bilinearly."""
    _check_same_alphabet(a, b)
    data: dict[tuple[int, ...], object] = {}
    for u, cu in a._terms.items():
        for v, cv in b._terms.items():
            _shuffle_words_into(data, u, v, cu * cv)
    return TensorElement._raw(a.d, data)


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


def _h_expansion(letters: tuple[int, ...]):
    """Common coefficient and support of the signed letter shuffle.

    For a word with letter multiplicities m_1, ..., m_k and length n the
    shuffle of its letters is (prod m_i!) times the sum of its distinct
    anagrams, so the normalized expansion has the single coefficient
    (-1)^n * prod(m_i!) / n! on every anagram.
    """
    key = tuple(sorted(letters))
    hit = _H_CACHE.get(key)
    if hit is not None:
        return hit
    n = len(key)
    mult = 1
    run = 1
    for i in range(1, n):
        run = run + 1 if key[i] == key[i - 1] else 1
        mult *= run
    coeff = Q((-1) ** n * mult, factorial(n))
    anagrams = _multiset_permutations(key)
    _H_CACHE[key] = (coeff, anagrams)
    return coeff, anagrams


def _multiset_permutations(sorted_letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    if not sorted_letters:
        return [()]
    out = []
    seen_first = set()
    for i, a in enumerate(sorted_letters):
        if a in seen_first:
            continue
        seen_first.add(a)
        rest = sorted_letters[:i] + sorted_letters[i + 1 :]
        out.extend((a,) + tail for tail in _multiset_permutations(rest))
    return out


def closing_segment_dual(x: TensorElement) -> TensorElement:
    """Send each word of length n to (-1)^n / n! times the shuffle of its
    letters, extended linearly.  Pairing a path signature against the
    image equals pairing the signature of the straight closing segment
    against the original word."""
    data: dict[tuple[int, ...], object] = {}
    for t, c in x._terms.items():
        coeff, anagrams = _h_expansion(t)
        value = c * coeff
        for w in anagrams:
            new = data.get(w, 0) + value
            if new:
                data[w] = new
            else:
                del data[w]
    return TensorElement._raw(x.d, data)


def _rcl_word(letters: tuple[int, ...]) -> dict[tuple[int, ...], object]:
    """Right closure of a single word as a coefficient dict (cached).

    Sum over all splits w = u v of the shuffle of u with the signed
    normalized letter shuffle of v.
    """
    hit = _RCL_CACHE.get(letters)
    if hit is not None:
        return hit
    data: dict[tuple[int, ...], object] = {}
    for i in range(len(letters) + 1):
        u, v = letters[:i], letters[i:]
        coeff, anagrams = _h_expansion(v)
        for hw in anagrams:
            _shuffle_words_into(data, u, hw, coeff)
    _RCL_CACHE[letters] = data
    return data


def right_closure(x: TensorElement) -> TensorElement:
    """Projection whose pairing against sig(X) equals pairing the original
    against sig(X followed by its straight closing segment)."""
    data: dict[tuple[int, ...], object] = {}
    for t, c in x._terms.items():
        for w, v in _rcl_word(t).items():
            new = data.get(w, 0) + c * v
            if new:
                data[w] = new
            else:
                del data[w]
    return TensorElement._raw(x.d, data)


def left_closure(x: TensorElement) -> TensorElement:
    """Mirror image of :func:`right_closure` (closing segment prepended).

    Computed from the right closure of the reversed word: reversal is a
    shuffle automorphism and fixes the signed letter shuffles, so the
    split sum for one is the reversed split sum of the other.
    """
    data: dict[tuple[int, ...], object] = {}
    for t, c in x._terms.items():
        for w, v in _rcl_word(t[::-1]).items():
            rw = w[::-1]
            new = data.get(rw, 0) + c * v
            if new:
                data[rw] = new
            else:
                del data[rw]
    return TensorElement._raw(x.d, data)


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
                new = data.get(w, 0) + s
                if new:
                    data[w] = new
                else:
                    del data[w]
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

    Words serialize as digit strings (callers enforce d <= 9), terms in
    degree-then-lexicographic order.
    """
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
    d = int(payload["d"])
    data = {}
    for term in payload["terms"]:
        letters = tuple(int(c) for c in term["word"])
        data[letters] = Q(int(term["num"]), int(term["den"]))
    return TensorElement(d, data)
