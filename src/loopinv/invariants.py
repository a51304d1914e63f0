"""Construction of the invariant subspaces and their dimension tables.

Where the theory describes a space twice, one description builds it and
the other checks it by containment, pairing and dimension:

* conjugation invariants: the span of rotation sums over necklaces,
  checked against the letter-bracket constraints ``<[q, i], x> = 0`` and
  the number of necklaces;
* the zero-increment space V: the span of products of non-letter Lyndon
  bracketings (a PBW spanning set), checked against the letter shuffle
  ideal S, the coefficients of prod(1 - x_i) / (1 - sum x_i) and the
  generating-series coefficient of (1-q)^d / (1-dq);
* loop invariants: the kernel of (right closure - left closure),
  checked against [V, letters];
* letter-reduced conjugation invariants: the quotient dimension
  dim(conj + S) - dim S, and the rank of right-closed rotation sums;
* the area/conjugation algebra of ``evidence``: B_n = conj_n + areas ⧢
  B_{n-2}, once conj is checked to be a shuffle subalgebra.

Orbits and blocks.  Every row operator below keeps the letter content of
a word (its letter counts) and commutes with renaming letters.  So every
space is the direct sum of its blocks, one per content, on disjoint sets
of words, and the block of a content is the renamed block of any other
content in its orbit under letter permutations.  Each level is built on
the canonical content of each orbit only, the one whose letter counts do
not increase (:class:`BlockSpace`).  Every check runs on each canonical
block: the three two-description checks above, with the number of
necklaces and the coefficient of x^c as the closed forms of the block of
content c; the proof that the closures are the projections along S; the
closure image; the letter-reduced ranks; the closed loop span; the
decomposables inside the family; and conj inside loop.  A block whose
rows leave its content fails too.  A level's dimension sums orbit size
times block dimension, and the checks on whole levels (the series
coefficient, the dimension chains of :class:`InvariantReport`) use those
sums.  A renamed block is a basis of its content as it stands, which is
all the spanning rows one level up need ([V, letters], the
decomposables).  The canonical RREF of a whole level, which ``basis``,
``evidence`` and the fuzz read, is assembled on first use.

The n!-scaled right closure of every word of a canonical content is one
integer table per level, one ``tensor._rcl_row`` per word, in the anagram
order of ``words.anagrams`` that :meth:`_Orbits.words` also follows.
Both closures are the projections along S, and the pipeline proves it on
each block: the closure of every letter shuffle generator is zero, and
the closure of the unit vector of every free (non-pivot) column of the
stored basis of S differs from it by an element of S.  The closure image
is then spanned by the closures of those unit vectors.  Every closure
difference lies in S, where a vector is zero exactly when its entries at
the pivot columns of S are, so the closure-difference kernel is S plus
the kernel, among the free columns, of the closure-difference rows at
the pivot columns.

Every spanning set is a stream of integer rows ``{word index: int}``
made by four row operators (rotation sums, letter brackets, shuffles and
the closure table), so building a table forms no rational.
Rationals appear only where a basis leaves as a tensor element, in
:func:`verify_relations` and in the conjecture-evidence memberships.

A failed cross-check raises :class:`CrossCheckError`; budget overruns
raise :class:`~loopinv.linalg.BudgetExceeded` and leave the caches
untouched for the completed cells.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Container, Iterable, Sequence

from .linalg import (
    Budget,
    BudgetExceeded,
    Subspace,
    _reduces_to_zero,
    contains,
    index_word,
    intersect,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    kernel,
    member_tensor,
    orthogonal,
    orthogonal_complement,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    span,
    span_tensors,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    subspace_sum,
    word_index,
)
from .tensor import (
    TensorElement,
    concat,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    lyndon_bracketing,
    right_closure,
    rotation_sum,
    shuffle,
)
from .words import (
    Word,
    anagrams,
    content_necklace_count,
    lyndon_count,
    lyndon_words,
    min_rotation,
    multinomial,
    necklaces,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    rotations,
)
from . import tensor as _tensor

# letter counts (c_1, ..., c_d) of a word
Content = tuple[int, ...]


class CrossCheckError(RuntimeError):
    """A space disagreed with an independent description of it."""


# default level caps giving desk-scale exact runs
DEFAULT_LEVEL_CAPS = {2: 10, 3: 7, 4: 5, 5: 4, 6: 4}


def default_level_cap(d: int) -> int:
    return DEFAULT_LEVEL_CAPS.get(d, 3)


@dataclass(frozen=True)
class LieBasisElement:
    """A Lyndon word together with its bracketing expansion."""

    lyndon: Word
    expansion: TensorElement

    @classmethod
    def for_word(cls, word: Word) -> "LieBasisElement":
        return cls(word, lyndon_bracketing(word))

    def is_primitive(self) -> bool:
        """Friedrichs' criterion: under the coproduct dual to the shuffle
        (split each word over all position subsets) every term with two
        nonempty sides cancels.  This certifies the expansion as a Lie
        polynomial."""
        middle: dict = {}
        for word, c in self.expansion.items():
            letters = word.letters
            n = len(letters)
            for mask in range(1, (1 << n) - 1):
                left = tuple(letters[i] for i in range(n) if mask >> i & 1)
                right = tuple(letters[i] for i in range(n) if not mask >> i & 1)
                key = (left, right)
                middle[key] = middle.get(key, 0) + c
        return not any(middle.values())


@dataclass(frozen=True)
class InvariantReport:
    """One table row: every named dimension at a fixed (d, level)."""

    d: int
    level: int
    dims: dict[str, int]

    COLUMNS = (
        "conjugation", "logsignature", "V_n", "bracket_VR", "letter_reduced_conj",
        "letter_reduced_loop", "closure", "loop", "S_n", "min_generators",
    )

    def __post_init__(self):
        dims = self.dims
        size = self.d**self.level
        if dims["letter_reduced_loop"] != dims["V_n"] - dims["bracket_VR"]:
            raise CrossCheckError("letter-reduced loop dimension chain broken")
        if dims["closure"] != dims["V_n"]:
            raise CrossCheckError("closure dimension differs from dim V")
        if dims["S_n"] != size - dims["V_n"]:
            raise CrossCheckError("S dimension complement broken")


# ---------------------------------------------------------------------------
# letter contents, orbits and blocks
# ---------------------------------------------------------------------------


def _letters(content: Content) -> tuple[int, ...]:
    """The sorted word with the given letter counts."""
    return tuple(a + 1 for a, k in enumerate(content) for _ in range(k))


def _content(letters: Sequence[int], d: int) -> Content:
    counts = [0] * d
    for a in letters:
        counts[a - 1] += 1
    return tuple(counts)


def _without(content: Content, i: int) -> Content:
    """The content with one letter i + 1 fewer."""
    return content[:i] + (content[i] - 1,) + content[i + 1 :]


def _fits(inner: Content, outer: Content) -> bool:
    """Whether every letter count of ``inner`` is at most that of ``outer``."""
    return all(x <= y for x, y in zip(inner, outer))


def _canonical(content: Content) -> Content:
    return tuple(sorted(content, reverse=True))


def _sub_contents(content: Content, j: int) -> list[Content]:
    """The contents of length j that fit inside ``content``."""
    return [a for a in itertools.product(*(range(k + 1) for k in content)) if sum(a) == j]


class _Orbits:
    """The letter contents of one level, in orbits under letter permutations.

    ``canonical`` holds one content per orbit, with non-increasing letter
    counts, in decreasing order; ``sizes`` maps it to its orbit size.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        self.canonical: list[Content] = [
            c for c in itertools.combinations_with_replacement(range(n, -1, -1), d) if sum(c) == n
        ]
        self.sizes = {c: multinomial([c.count(k) for k in set(c)]) for c in self.canonical}
        self._words: dict[Content, list[int]] = {}

    def members(self, c: Content) -> tuple[Content, ...]:
        """Every content in the orbit of the canonical content c."""
        return anagrams(tuple(sorted(c)))

    def words(self, content: Content) -> list[int]:
        """Ascending indices of the words of a content of this level, in
        the order of :func:`~loopinv.words.anagrams`."""
        if content not in self._words:
            self._words[content] = [word_index(x, self.d) for x in anagrams(_letters(content))]
        return self._words[content]

    def renaming(self, content: Content) -> dict[int, int]:
        """Word index map from the canonical content of ``content`` onto
        ``content``: canonical letter a + 1 becomes the letter with the
        (a + 1)-th largest count in ``content``, ties in letter order."""
        d = self.d
        order = sorted(range(d), key=lambda b: -content[b])
        return {
            word_index(x, d): word_index([order[a - 1] + 1 for a in x], d)
            for x in anagrams(_letters(_canonical(content)))
        }


class BlockSpace(Subspace):
    """A space on one level, held as one block per canonical content.

    ``blocks[c]`` is the block of the canonical content c: a canonical
    RREF :class:`~loopinv.linalg.Subspace` of the level whose rows lie on
    the words of content c.  The block of any other content is the block
    of its canonical content with the letters renamed (:meth:`block`), so
    :attr:`dim` sums orbit size times block dimension.  ``pivots`` and
    ``rows`` are the canonical RREF of the whole level, assembled on first
    use: each renamed block is eliminated once more, because renaming
    reorders its columns, and all blocks, whose columns are disjoint, are
    merged by pivot.
    """

    __slots__ = ("orbits", "blocks", "_renamed", "_whole")

    def __init__(self, orbits: _Orbits, blocks: dict[Content, Subspace]):
        self.d, self.n = orbits.d, orbits.n
        self.orbits = orbits
        self.blocks = blocks
        self._renamed: dict[Content, tuple[dict[int, int], ...]] = {}
        self._whole: Subspace | None = None

    @property
    def dim(self) -> int:
        return sum(self.orbits.sizes[c] * b.dim for c, b in self.blocks.items())

    def _renamed_rows(self, content: Content) -> list[dict[int, int]]:
        index = self.orbits.renaming(content)
        rows = self.blocks[_canonical(content)].rows
        return [{index[k]: v for k, v in row.items()} for row in rows]

    def block(self, content: Content) -> tuple[dict[int, int], ...]:
        """The rows of a basis of the block of any content of the level."""
        if content in self.blocks:
            return self.blocks[content].rows
        if content not in self._renamed:
            self._renamed[content] = tuple(self._renamed_rows(content))
        return self._renamed[content]

    def whole(self) -> Subspace:
        """The canonical RREF of the whole level."""
        if self._whole is None:
            pairs: list[tuple[int, dict[int, int]]] = []
            for c, b in self.blocks.items():
                pairs += zip(b.pivots, b.rows)
                for member in self.orbits.members(c):
                    if member != c:
                        renamed = span(self.d, self.n, self._renamed_rows(member))
                        pairs += zip(renamed.pivots, renamed.rows)
            pairs.sort(key=lambda pair: pair[0])
            whole = Subspace(self.d, self.n, [p for p, _ in pairs], [r for _, r in pairs])
            assert whole.dim == self.dim
            self._whole = whole
        return self._whole

    pivots = property(lambda self: self.whole().pivots)
    rows = property(lambda self: self.whole().rows)


def _non_pivots(words: Iterable[int], block: Subspace) -> list[int]:
    pivots = set(block.pivots)
    return [f for f in words if f not in pivots]


def _check_level(n: int, least: int = 1) -> None:
    if n < least:
        raise ValueError("level must be at least %d, got %d" % (least, n))


def _memo(name: str):
    """Memoize a method in ``self._memo`` under ``(name, *arguments)``, with
    defaults bound.  A build that raises stores nothing; a BudgetExceeded is
    named after the innermost memoized build it interrupted."""

    def decorate(method):
        signature = inspect.signature(method)

        @functools.wraps(method)
        def memoized(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            key = (name, *bound.args[1:])
            if key not in self._memo:
                try:
                    self._memo[key] = method(self, *args, **kwargs)
                except BudgetExceeded as exc:
                    if exc.space is None:
                        exc.space = key
                        exc.args = ("%s in %r" % (exc, key),)
                    raise
            return self._memo[key]

        return memoized

    return decorate


class InvariantSpaces:
    """Memoized per-alphabet pipeline of all invariant subspaces.

    Every space of a level is a :class:`BlockSpace`.  Values are immutable
    once computed.  The memo is single-threaded.  An optional
    :class:`~loopinv.linalg.Budget` in :attr:`budget` bounds the heavy
    loops; a build it interrupts stores nothing.
    """

    # exported space name -> name of its builder, so a rebound method is the one called
    SPACES = {
        "conj": "conjugation_invariants",
        "loop": "loop_invariants",
        "closure": "closure_invariants",
        "V": "zero_increment_space",
        "S": "letter_shuffle_ideal",
    }

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        self.d = d
        self.budget: Budget | None = None
        self._memo: dict = {}
        self._orbit_tables: dict[int, _Orbits] = {}
        self._closure_tables: dict[int, dict[int, dict[int, int]]] = {}
        # letter shuffle generator rows per canonical content, left by the
        # build of S for the proof in closures_vanish_on_shuffle_ideal
        self._shuffle_generators: dict[int, dict[Content, list[dict[int, int]]]] = {}

    # -- plumbing -------------------------------------------------------

    def _check_budget(self) -> None:
        if self.budget is not None:
            self.budget.check()

    def _orbits(self, n: int) -> _Orbits:
        if n not in self._orbit_tables:
            self._orbit_tables[n] = _Orbits(self.d, n)
        return self._orbit_tables[n]

    def _blocks(self, n: int, build: Callable[[Content], Subspace]) -> BlockSpace:
        """Level n of a space whose block of canonical content c is build(c)."""
        orbits = self._orbits(n)
        return BlockSpace(orbits, {c: build(c) for c in orbits.canonical})

    def _block_span(self, n: int, c: Content, rows: Iterable[dict]) -> Subspace:
        """Span of rows that must lie on the words of content c."""
        block = span(self.d, n, rows, self.budget)
        words = set(self._orbits(n).words(c))
        if any(k not in words for row in block.rows for k in row):
            raise CrossCheckError(
                "a row of the block of content %s leaves its content at d=%d, n=%d"
                % (c, self.d, n)
            )
        return block

    # -- integer row operators (shuffle and closure check the budget) ------

    def _rotation_row(self, w: Word) -> dict[int, int]:
        """Rotation sum of a word, with multiplicity (see rotation_sum)."""
        row: dict[int, int] = {}
        for rot in rotations(w.letters):
            j = word_index(rot, self.d)
            row[j] = row.get(j, 0) + 1
        return row

    def _bracket_row(self, row: dict[int, int], n: int, i: int) -> dict[int, int]:
        """[row, letter i + 1] on level n + 1, for a row on level n."""
        d, dm = self.d, self.d**n
        out: dict[int, int] = {}
        for idx, c in row.items():
            out[idx * d + i] = out.get(idx * d + i, 0) + c
            out[i * dm + idx] = out.get(i * dm + idx, 0) - c
        return out

    def _shuffle_row(self, a: dict[int, int], na: int, b: dict[int, int], nb: int) -> dict[int, int]:
        """Shuffle product of rows a on level na and b on level nb."""
        self._check_budget()
        d = self.d
        data: dict[tuple[int, ...], int] = {}
        right = [(index_word(j, d, nb), cb) for j, cb in b.items()]
        for i, ca in a.items():
            u = index_word(i, d, na)
            for v, cb in right:
                _tensor._shuffle_words_into(data, u, v, ca * cb)
        return {word_index(w, d): c for w, c in data.items()}

    def _closure_row(self, row: dict[int, int], n: int) -> dict[int, int]:
        """n! times the right closure of a row on level n, whose words have
        canonical contents."""
        self._check_budget()
        table = self._closure_table(n)
        out: dict[int, int] = {}
        for i, c in row.items():
            for j, v in table[i].items():
                out[j] = out.get(j, 0) + c * v
        return {j: c for j, c in out.items() if c}

    def _closure_table(self, n: int) -> dict[int, dict[int, int]]:
        """Row k is n! times the right closure of the word of index k, for
        every word of a canonical content.

        The right closure keeps letter content, and blocks of the other
        contents are renamed, never built, so no other word needs a row.
        Rows and :meth:`_Orbits.words` list anagrams in one order.  The
        table is not a memoized space: a budget that interrupts it stores
        nothing and names the space that asked.
        """
        if n not in self._closure_tables:
            orbits = self._orbits(n)
            table: dict[int, dict[int, int]] = {}
            for c in orbits.canonical:
                index = orbits.words(c)
                for k, w in zip(index, anagrams(_letters(c))):
                    self._check_budget()
                    row = _tensor._rcl_row(w)
                    table[k] = {index[j]: v for j, v in enumerate(row) if v}
            self._closure_tables[n] = table
        return self._closure_tables[n]

    def _letter_bracket_rows(self, n: int, c: Content):
        """[q, i] for letters i and words q of content c - e_i."""
        lower = self._orbits(n - 1)
        return (
            self._bracket_row({q: 1}, n - 1, i)
            for i in range(self.d) if c[i] for q in lower.words(_without(c, i))
        )

    def _letter_shuffle_rows(self, n: int, c: Content):
        """i shuffled with u for letters i and words u of content c - e_i."""
        lower = self._orbits(n - 1)
        return (
            self._shuffle_row({i: 1}, 1, {u: 1}, n - 1)
            for i in range(self.d) if c[i] for u in lower.words(_without(c, i))
        )

    def _necklaces(self, c: Content) -> list[Word]:
        """The necklaces of content c, in lexicographic order: the anagrams
        of c that are their own smallest rotation."""
        self._check_budget()
        return [Word(x, self.d) for x in anagrams(_letters(c)) if x == min_rotation(x)]

    # -- spaces -----------------------------------------------------------

    def space(self, name: str, n: int) -> Subspace:
        """The space exported under ``name`` (a key of :attr:`SPACES`) at level n."""
        return getattr(self, self.SPACES[name])(n)

    @_memo("conj")
    def conjugation_invariants(self, n: int) -> BlockSpace:
        """Rotation-sum span R.  On each block c: dim R_c is the number of
        necklaces of content c and the number of words of content c minus
        the rank of the bracket rows, which pair to zero with R_c."""
        _check_level(n)
        d, orbits = self.d, self._orbits(n)

        def build(c: Content) -> Subspace:
            r = self._block_span(n, c, map(self._rotation_row, self._necklaces(c)))
            expected = content_necklace_count(c)
            if r.dim != expected:
                raise CrossCheckError(
                    "conjugation invariants disagree with the necklace count at "
                    "d=%d, n=%d, content %s: %d != %d" % (d, n, c, r.dim, expected)
                )
            brackets = list(self._letter_bracket_rows(n, c))
            rank = span(d, n, brackets, self.budget).dim
            if r.dim != len(orbits.words(c)) - rank or not orthogonal(r, brackets, self.budget):
                raise CrossCheckError(
                    "conjugation invariants disagree between rotation span and "
                    "bracket kernel at d=%d, n=%d, content %s" % (d, n, c)
                )
            return r

        return self._blocks(n, build)

    @_memo("S")
    def letter_shuffle_ideal(self, n: int) -> BlockSpace:
        """Degree-n part of the shuffle ideal generated by the letters.  The
        generator rows of each block are kept for the proof in
        :meth:`closures_vanish_on_shuffle_ideal` (span copies its input)."""
        _check_level(n)
        orbits = self._orbits(n)
        generators = {c: list(self._letter_shuffle_rows(n, c)) for c in orbits.canonical}
        s = BlockSpace(orbits, {c: self._block_span(n, c, rows) for c, rows in generators.items()})
        self._shuffle_generators[n] = generators
        return s

    @_memo("V")
    def zero_increment_space(self, n: int) -> BlockSpace:
        """The level-n span of zero-increment grouplike elements: the PBW span
        P.  On each block c, dim P_c is the coefficient of x^c in
        prod(1 - x_i) / (1 - sum x_i) and the number of words of content c
        minus dim S_c, and P_c pairs to zero with the rows of S_c; dim P
        must match the generating series."""
        _check_level(n, 0)
        if n == 0:
            return self._blocks(0, lambda c: kernel(self.d, 0, [], self.budget))
        d, s = self.d, self.letter_shuffle_ideal(n)
        factors = self._pbw_factors(n, s.orbits.canonical)

        def build(c: Content) -> Subspace:
            p = self._block_span(n, c, self._pbw_products(c, factors))
            expected = zero_increment_content_dim(c)
            if p.dim != expected:
                raise CrossCheckError(
                    "zero-increment space disagrees with the closed form "
                    "prod(1 - x_i) / (1 - sum x_i) at d=%d, n=%d, content %s: %d != %d"
                    % (d, n, c, p.dim, expected)
                )
            sc = s.blocks[c]
            if p.dim != len(s.orbits.words(c)) - sc.dim or not orthogonal(p, sc.rows, self.budget):
                raise CrossCheckError(
                    "zero-increment space disagrees between shuffle-ideal "
                    "complement and PBW span at d=%d, n=%d, content %s" % (d, n, c)
                )
            return p

        v = self._blocks(n, build)
        expected = zero_increment_series_dim(d, n)
        if v.dim != expected:
            raise CrossCheckError(
                "dim V mismatch with generating series at d=%d, n=%d: %d != %d"
                % (d, n, v.dim, expected)
            )
        return v

    def _pbw_factors(
        self, n: int, contents: Iterable[Content]
    ) -> list[tuple[Content, int, dict[int, int]]]:
        """The PBW factors of level n for blocks of the given contents: each
        non-letter Lyndon word of length at most n that fits inside one of
        them, in lexicographic order, as its content, d to the power of its
        length and the integer row of its Lyndon polynomial."""
        d, contents = self.d, list(contents)
        words = sorted(w.letters for k in range(2, n + 1) for w in lyndon_words(d, k))
        return [
            (wc, d ** len(w), {word_index(u, d): c for u, c in _tensor._lyndon_poly(w).items()})
            for w in words
            for wc in [_content(w, d)]
            if any(_fits(wc, c) for c in contents)
        ]

    def _pbw_products(
        self, content: Content, factors: Sequence[tuple[Content, int, dict[int, int]]]
    ) -> list[dict[int, int]]:
        """Integer rows of the concatenation products of non-letter Lyndon
        bracketings of one letter content.

        One product per weakly increasing (in the order of ``factors``,
        from :meth:`_pbw_factors`) tuple of factors whose contents sum to
        ``content``; a branch whose contents no longer fit is pruned.
        Concatenating words u and v of lengths |u| and |v| maps their
        indices to index(u) * d**|v| + index(v).
        """
        basis = [f for f in factors if _fits(f[0], content)]
        out: list[dict[int, int]] = []

        def extend(start: int, remaining: Content, acc: dict[int, int] | None):
            self._check_budget()
            if not any(remaining):
                out.append(acc)
                return
            for i in range(start, len(basis)):
                wc, shift, poly = basis[i]
                if not _fits(wc, remaining):
                    continue
                nxt = poly if acc is None else {
                    a * shift + b: ca * cb for a, ca in acc.items() for b, cb in poly.items()
                }
                extend(i, tuple(y - x for x, y in zip(wc, remaining)), nxt)

        extend(0, content, None)
        return out

    @_memo("bracketV")
    def bracket_zero_increment(self, n: int) -> BlockSpace:
        """[V at level n-1, letters], the loop-invariant constraint space.
        Block c spans [v, i] over the rows v of the blocks of V of the
        contents c - e_i, renamed where they are not canonical."""
        _check_level(n)
        v = self.zero_increment_space(n - 1)
        return self._blocks(n, lambda c: self._block_span(n, c, (
            self._bracket_row(row, n - 1, i)
            for i in range(self.d) if c[i] for row in v.block(_without(c, i))
        )))

    @_memo("Sclosed")
    def closures_vanish_on_shuffle_ideal(self, n: int) -> bool:
        """Prove that the right and left closures are the projections along
        S at level n, one canonical block at a time.

        First the closure row of every letter shuffle generator ``i ⧢ u``
        of the block, kept from the build of S, must be zero.  Then, for
        every free column f of the block of S, n! rcl(e_f) - n! e_f must
        reduce to zero against its stored rows.  So rcl vanishes on S and
        rcl(x) - x lies in S for every x of a canonical content, and, as
        both commute with renaming letters, for every x: rcl is the
        projection along S.  S is closed under reversal (the reverse of
        ``i ⧢ u`` is ``i ⧢ reverse(u)``) and the left closure is the right
        closure conjugated by reversal, so the same holds for it.
        """
        s = self.letter_shuffle_ideal(n)
        generators = self._shuffle_generators[n]
        table = self._closure_table(n)
        scale = factorial(n)
        for c, block in s.blocks.items():
            if any(self._closure_row(row, n) for row in generators[c]):
                raise CrossCheckError(
                    "the right closure does not vanish on the letter shuffle "
                    "ideal at d=%d, n=%d, content %s" % (self.d, n, c)
                )
            by_col = dict(zip(block.pivots, block.rows))
            for f in _non_pivots(s.orbits.words(c), block):
                self._check_budget()
                row = dict(table[f])
                row[f] = row.get(f, 0) - scale
                if not row[f]:
                    del row[f]
                if not _reduces_to_zero(row, by_col):
                    raise CrossCheckError(
                        "the right closure is not the identity modulo the letter "
                        "shuffle ideal at d=%d, n=%d, content %s" % (self.d, n, c)
                    )
        del self._shuffle_generators[n]
        return True

    def _free_columns(self, n: int, c: Content) -> list[int]:
        """Non-pivot columns of the block of S of canonical content c; their
        unit vectors span a complement of S in the block.  Proves first
        that the closures are the projections along S, which every use of
        the free columns rests on."""
        self.closures_vanish_on_shuffle_ideal(n)
        return _non_pivots(self._orbits(n).words(c), self.letter_shuffle_ideal(n).blocks[c])

    @_memo("loop")
    def loop_invariants(self, n: int) -> BlockSpace:
        """Kernel of (rcl - lcl), checked to be [V, letters]^perp on each block.

        Both closures are the projections along S, so the closure
        difference vanishes on S and maps every vector into S, where a
        vector is zero exactly when its entries at the pivot columns of S
        are.  The kernel on block c is therefore S_c plus the kernel K_c,
        among the free columns of S_c, of the closure-difference rows at its
        pivot columns.  [V, letters]_c lies in V_c = S_c^perp and pairs to
        zero with K_c, so S_c + K_c is its complement in the block once
        dim(S_c + K_c) = (words of content c) - dim [V, letters]_c.
        """
        _check_level(n)
        d = self.d

        def build(c: Content) -> Subspace:
            free = self._free_columns(n, c)
            s = self.letter_shuffle_ideal(n).blocks[c]
            rows = self._closure_difference_rows(n, c, free, set(s.pivots))
            on_free = kernel(d, n, rows, self.budget, free)
            loop = subspace_sum(on_free, s, self.budget)
            brackets = self.bracket_zero_increment(n).blocks[c]
            if loop.dim != len(self._orbits(n).words(c)) - brackets.dim or not (
                contains(self.zero_increment_space(n).blocks[c], brackets)
                and orthogonal(brackets, on_free.rows, self.budget)
            ):
                raise CrossCheckError(
                    "loop invariants disagree between bracket complement and "
                    "closure-difference kernel at d=%d, n=%d, content %s" % (d, n, c)
                )
            return loop

        return self._blocks(n, build)

    def _closure_difference_rows(
        self, n: int, c: Content, columns: Sequence[int], outputs: Container[int]
    ) -> list[dict[int, int]]:
        """Integer rows of the matrix of n! (right closure - left closure)
        on the words of the canonical content c, restricted to the given
        word-index columns and to the rows of the word indices in
        ``outputs``.

        The left closure is the right closure conjugated by reversal, which
        keeps the content, so n! lcl(e_k) is row rev(k) of the closure
        table with its indices reversed.
        """
        d = self.d
        table = self._closure_table(n)
        rev = {k: word_index(index_word(k, d, n)[::-1], d) for k in self._orbits(n).words(c)}
        by_output: dict[int, dict[int, int]] = {}
        for col in columns:
            self._check_budget()
            diff = dict(table[col])
            for j, v in table[rev[col]].items():
                diff[rev[j]] = diff.get(rev[j], 0) - v
            for j, v in diff.items():
                if v and j in outputs:
                    by_output.setdefault(j, {})[col] = v
        return list(by_output.values())

    @_memo("closure")
    def closure_invariants(self, n: int) -> BlockSpace:
        """Image of the right closure on level n.

        The closure vanishes on S, so the image of block c is spanned by
        the closures of the unit vectors of the free columns of S_c.  Its
        dimension must match dim V_c, and together with S_c it must fill
        the block (the closure is a projection along S).
        """
        _check_level(n)
        d = self.d

        def build(c: Content) -> Subspace:
            rows = (self._closure_row({f: 1}, n) for f in self._free_columns(n, c))
            image = self._block_span(n, c, rows)
            if image.dim != self.zero_increment_space(n).blocks[c].dim:
                raise CrossCheckError(
                    "closure-invariant dimension differs from dim V at d=%d, n=%d, "
                    "content %s" % (d, n, c)
                )
            s = self.letter_shuffle_ideal(n).blocks[c]
            if subspace_sum(image, s, self.budget).dim != len(self._orbits(n).words(c)):
                raise CrossCheckError(
                    "closure image and letter shuffle ideal do not complement "
                    "each other at d=%d, n=%d, content %s" % (d, n, c)
                )
            return image

        return self._blocks(n, build)

    @_memo("rclrot")
    def closed_rotation_span(self, n: int) -> BlockSpace:
        """Span of right-closed rotation sums over necklaces of length n."""
        _check_level(n)
        return self._blocks(n, lambda c: self._block_span(n, c, (
            self._closure_row(self._rotation_row(w), n) for w in self._necklaces(c)
        )))

    # -- dimensions -------------------------------------------------------

    def letter_reduced_loop_dim(self, n: int) -> int:
        _check_level(n)
        return self.zero_increment_space(n).dim - self.bracket_zero_increment(n).dim

    @_memo("lrconj")
    def letter_reduced_conj_dim(self, n: int) -> int:
        """dim of V modulo [T, letters], cross-checked as a closed-rotation
        rank on each block.

        The bracket rows span conj^perp and V = S^perp, so the meet of V
        with the brackets is (conj + S)^perp and the quotient has dimension
        dim(conj + S) - dim S.
        """
        s, conj = self.letter_shuffle_ideal(n), self.conjugation_invariants(n)
        via_quotient = {
            c: subspace_sum(conj.blocks[c], b, self.budget).dim - b.dim for c, b in s.blocks.items()
        }
        via_rank = self.closed_rotation_span(n)
        for c, dim in via_quotient.items():
            if dim != via_rank.blocks[c].dim:
                raise CrossCheckError(
                    "letter-reduced conjugation dimension disagrees between "
                    "quotient and rank routes at d=%d, n=%d, content %s" % (self.d, n, c)
                )
        return via_rank.dim

    @_memo("rclloop")
    def closed_loop_span(self, n: int) -> BlockSpace:
        """Right closure of the loop invariants (the loop-and-closure space)."""
        _check_level(n)

        def build(c: Content) -> Subspace:
            rows = (self._closure_row(r, n) for r in self.loop_invariants(n).blocks[c].rows)
            space = self._block_span(n, c, rows)
            expected = (
                self.zero_increment_space(n).blocks[c].dim
                - self.bracket_zero_increment(n).blocks[c].dim
            )
            if space.dim != expected:
                raise CrossCheckError(
                    "closed loop invariants do not match the letter-reduced "
                    "loop dimension at d=%d, n=%d, content %s" % (self.d, n, c)
                )
            return space

        return self._blocks(n, build)

    @_memo("gens")
    def minimal_generators(self, n: int, family: str = "conj") -> BlockSpace:
        """A complement G_n of the decomposables D_n in level n of a graded
        shuffle family A, "conj" or "loop_closure".

        D_n is the span of the products of two elements of positive level,
        the sum over j of A_j ⧢ A_{n-j}.  Products with a generator span it:
        D_n = Σ_{j=1}^{n-1} G_j ⧢ A_{n-j}, for any complements G_j of D_j
        in A_j.  By induction on j: A_j ⧢ A_{n-j} is G_j ⧢ A_{n-j} plus
        D_j ⧢ A_{n-j}, and D_j ⧢ A_{n-j} lies in Σ_{i<j} A_i ⧢ A_{n-i},
        because A_i ⧢ A_{j-i} ⧢ A_{n-j} lies in A_i ⧢ A_{n-i} when A is a
        shuffle subalgebra (the all-pairs span assumes that too).  Rows of
        contents a and b shuffle to content a + b, so block c spans the
        products of the rows of the (renamed) blocks of G_j at a and of
        A_{n-j} at c - a, over every j and every sub-content a of c.

        D_c must lie in A_c, checked by reducing its rows against A_c; the
        complement rests on it.  The pivots of a canonical RREF are the
        leading (smallest) columns of the nonzero vectors of its span, so
        the pivots of D_c are pivots of A_c, and the rows of A_c at the
        other pivots span a complement of D_c: no nonzero combination of
        them leads at a pivot of D_c.  Those rows are a canonical RREF as
        they stand, so G_c shares them with A_c.
        """
        if family == "conj":
            space_of = self.conjugation_invariants
        elif family == "loop_closure":
            space_of = self.closed_loop_span
        else:
            raise ValueError("unknown family %r" % family)
        d, total = self.d, space_of(n)
        lower = [(j, self.minimal_generators(j, family), space_of(n - j)) for j in range(1, n)]

        def products(c: Content):
            for j, gens, upper in lower:
                for a in _sub_contents(c, j):
                    left = gens.block(a)
                    if left:
                        right = upper.block(tuple(x - y for x, y in zip(c, a)))
                        for x, y in itertools.product(left, right):
                            yield self._shuffle_row(x, j, y, n - j)

        def build(c: Content) -> Subspace:
            block, decomposables = total.blocks[c], span(d, n, products(c), self.budget)
            if not contains(block, decomposables):
                raise CrossCheckError(
                    "decomposables escaped the family at d=%d, n=%d, content %s" % (d, n, c)
                )
            dropped = set(decomposables.pivots)
            pairs = [(p, row) for p, row in zip(block.pivots, block.rows) if p not in dropped]
            return Subspace(d, n, [p for p, _ in pairs], [row for _, row in pairs])

        return self._blocks(n, build)

    @_memo("mingen")
    def min_generator_count(self, n: int, family: str = "conj") -> int:
        """Dimension of level n of a graded shuffle family modulo products:
        the dimension of :meth:`minimal_generators`."""
        return self.minimal_generators(n, family).dim

    @_memo("areaconj")
    def area_conjugation_algebra(self, n: int) -> BlockSpace:
        """Level n of the shuffle algebra B generated by the areas [i, j] and
        the conjugation invariants: B_n = conj_n + Σ_{i<j} [i, j] ⧢ B_{n-2}.

        A product of generators with an area is that area shuffled with a
        product in B_{n-2}; one of conjugation invariants alone lies in
        conj_n, as conj is a shuffle subalgebra (:meth:`minimal_generators`
        checks it first, up to level n).  [i, j] has content e_i + e_j and
        renaming letters maps the areas to ± areas, so block c spans conj_c
        and [i, j] ⧢ the (renamed) block of B_{n-2} at c - e_i - e_j.
        """
        _check_level(n, 0)
        if n == 0:
            return self._blocks(0, lambda c: kernel(self.d, 0, [], self.budget))
        self.minimal_generators(n)
        conj, lower = self.conjugation_invariants(n), n > 1 and self.area_conjugation_algebra(n - 2)

        def rows(c: Content):
            yield from conj.blocks[c].rows
            for i, j in itertools.combinations(range(self.d), 2):
                if c[i] and c[j]:
                    for r in lower.block(_without(_without(c, i), j)):
                        yield self._shuffle_row(self._bracket_row({i: 1}, 1, j), 2, r, n - 2)

        return self._blocks(n, lambda c: self._block_span(n, c, rows(c)))

    # -- reports ----------------------------------------------------------

    @_memo("report")
    def report(self, n: int) -> InvariantReport:
        """All named dimensions at level n, with every cross-check run."""
        dims = {
            "conjugation": self.conjugation_invariants(n).dim,
            "logsignature": lyndon_count(self.d, n),
            "V_n": self.zero_increment_space(n).dim,
            "bracket_VR": self.bracket_zero_increment(n).dim,
            "letter_reduced_conj": self.letter_reduced_conj_dim(n),
            "letter_reduced_loop": self.letter_reduced_loop_dim(n),
            "closure": self.closure_invariants(n).dim,
            "loop": self.loop_invariants(n).dim,
            "S_n": self.letter_shuffle_ideal(n).dim,
            "min_generators": self.min_generator_count(n),
        }
        loop = self.loop_invariants(n)
        if not all(contains(loop.blocks[c], b) for c, b in self.conjugation_invariants(n).blocks.items()):
            raise CrossCheckError(
                "conjugation invariants escape the loop invariants at "
                "d=%d, n=%d" % (self.d, n)
            )
        if dims["letter_reduced_conj"] > dims["letter_reduced_loop"]:
            raise CrossCheckError(
                "letter-reduced conjugation invariants exceed the "
                "letter-reduced loop invariants at d=%d, n=%d" % (self.d, n)
            )
        return InvariantReport(self.d, n, dims)


# ---------------------------------------------------------------------------
# generating series and Euler transform
# ---------------------------------------------------------------------------


def zero_increment_series_dim(d: int, n: int) -> int:
    """Coefficient of q^n in (1-q)^d / (1-dq), by exact polynomial division."""
    if n < 0:
        raise ValueError("negative level")
    # numerator coefficients: binomial expansion of (1-q)^d
    num = [0] * (n + 1)
    b = 1
    for k in range(0, min(d, n) + 1):
        num[k] = b if k % 2 == 0 else -b
        b = b * (d - k) // (k + 1)
    # divide by (1 - d q): c_n = num_n + d * c_{n-1}
    coeff = 0
    for k in range(n + 1):
        coeff = num[k] + d * coeff
    return coeff


def zero_increment_content_dim(content: Sequence[int]) -> int:
    """Coefficient of x^c in prod(1 - x_i) / (1 - sum x_i), for c = content:
    the sum over sets T of letters of c of (-1)^|T| multinomial(c - e_T).

    The shuffle algebra is free on the Lyndon words, so the quotient by
    the letters, dual to V, is free on the non-letter Lyndon words, and
    its series is 1 / (1 - sum x_i) with the letter factors removed.
    """
    support = [i for i, k in enumerate(content) if k]
    total = 0
    for size in range(len(support) + 1):
        for letters in itertools.combinations(support, size):
            counts = list(content)
            for i in letters:
                counts[i] -= 1
            total += (-1) ** size * multinomial(counts)
    return total


def inverse_euler_transform(dims: Sequence[int]) -> list[int]:
    """Generator counts a free graded-commutative algebra would need.

    Given graded dimensions (indexed from level 1), returns level-by-level
    generator counts such that the free algebra on them reproduces the
    dimensions.  A mismatch with an actual minimal-generator count detects
    relations.
    """
    top = len(dims)
    series = [0] * (top + 1)
    series[0] = 1
    gens: list[int] = []
    for n in range(1, top + 1):
        a = dims[n - 1] - series[n]
        gens.append(a)
        if a:
            series = _multiply_free_factor(series, n, a, top)
    return gens


def _multiply_free_factor(series: list[int], degree: int, count: int, top: int) -> list[int]:
    """Multiply a coefficient list by (1 - q^degree)^(-count), truncated.
    The factor's coefficients are the binomials C(count + j - 1, j)."""
    factor = [0] * (top + 1)
    j = 0
    binom = 1
    while degree * j <= top:
        factor[degree * j] = binom
        binom = binom * (count + j) // (j + 1)
        j += 1
    out = [0] * (top + 1)
    for i, a in enumerate(series):
        if a:
            for j in range(0, top - i + 1):
                if factor[j]:
                    out[i + j] += a * factor[j]
    return out


# ---------------------------------------------------------------------------
# explicit relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    name: str
    holds: bool


_word = TensorElement.word


def _rot(d: int, text: str) -> TensorElement:
    return rotation_sum(Word.from_string(text, d))


def _area(d: int, i: int, j: int) -> TensorElement:
    return TensorElement.word(d, (i, j)) - TensorElement.word(d, (j, i))


def _shuffle_all(parts: Sequence[TensorElement]) -> TensorElement:
    return functools.reduce(shuffle, parts)


def signed_volume(d: int, a: int, b: int, c: int) -> TensorElement:
    """rot(abc) - rot(bac), the three-letter signed volume."""
    return rotation_sum(Word((a, b, c), d)) - rotation_sum(Word((b, a, c), d))


def _closed_rotation(d: int, text: str) -> TensorElement:
    return right_closure(_rot(d, text))


def verify_relations(d: int) -> list[RelationCheck]:
    """Evaluate the explicit shuffle identities available at alphabet size d.

    Every identity is an exact equality of tensor elements; each check
    reports a name and whether the identity holds.
    """
    checks: list[RelationCheck] = []

    def add(name: str, lhs: TensorElement, rhs: TensorElement) -> None:
        checks.append(RelationCheck(name, lhs == rhs))

    if d >= 2:
        area12 = _area(d, 1, 2)
        add(
            "area12^2 = 2 rcl rot(1212)",
            _shuffle_all([area12, area12]),
            2 * _closed_rotation(d, "1212"),
        )
        add(
            "area12^3 = 4 rcl rot(121212) + 16 rcl rot(121122)",
            _shuffle_all([area12, area12, area12]),
            4 * _closed_rotation(d, "121212") + 16 * _closed_rotation(d, "121122"),
        )
    if d >= 3:
        area12 = _area(d, 1, 2)
        area13 = _area(d, 1, 3)
        area23 = _area(d, 2, 3)
        add(
            "area12 area13 = 2 rcl rot(1213)",
            shuffle(area12, area13),
            2 * _closed_rotation(d, "1213"),
        )
        add(
            "area12^2 area13 = 4 rcl rot(121213) + 8 rcl rot(121123) + 8 rcl rot(212113)",
            _shuffle_all([area12, area12, area13]),
            4 * _closed_rotation(d, "121213")
            + 8 * _closed_rotation(d, "121123")
            + 8 * _closed_rotation(d, "212113"),
        )
        add(
            "area12 area13 area23 = -8 rcl rot(121323) - 16 rcl rot(212133) - 16 rcl rot(122133)",
            _shuffle_all([area12, area13, area23]),
            -8 * _closed_rotation(d, "121323")
            - 16 * _closed_rotation(d, "212133")
            - 16 * _closed_rotation(d, "122133"),
        )
        add(
            "vol3 = 1 (23-32) - 2 (13-31) + 3 (12-21)",
            signed_volume(d, 1, 2, 3),
            shuffle(_word(d, "1"), area23)
            - shuffle(_word(d, "2"), area13)
            + shuffle(_word(d, "3"), area12),
        )
    if d == 3:
        lhs = (
            2 * _shuffle_all([_word(d, "1"), _word(d, "1"), _rot(d, "2233")])
            + 2 * _shuffle_all([_word(d, "1"), _word(d, "2"), _rot(d, "1323")])
            - _shuffle_all([_word(d, "2"), _word(d, "2"), _rot(d, "1313")])
            - 4 * _shuffle_all([_word(d, "1"), _word(d, "3"), _rot(d, "1223")])
            - 4 * _shuffle_all([_word(d, "2"), _word(d, "3"), _rot(d, "1132")])
            + 2 * _shuffle_all([_word(d, "3"), _word(d, "3"), _rot(d, "1122")])
            + 2 * _shuffle_all([_rot(d, "132"), _rot(d, "132")])
            - 2 * _shuffle_all([_word(d, "1"), _word(d, "2"), _word(d, "3"), _rot(d, "132")])
            + _shuffle_all(
                [_word(d, c) for c in ("1", "1", "2", "2", "3", "3")]
            )
        )
        add("three-letter level-6 conjugation relation", lhs, TensorElement.zero(d))
    if d >= 4:
        lhs = (
            shuffle(_word(d, "1"), signed_volume(d, 2, 3, 4))
            - shuffle(_word(d, "2"), signed_volume(d, 1, 3, 4))
            + shuffle(_word(d, "3"), signed_volume(d, 1, 2, 4))
            - shuffle(_word(d, "4"), signed_volume(d, 1, 2, 3))
        )
        add("four-letter alternating volume relation", lhs, TensorElement.zero(d))
    return checks


# ---------------------------------------------------------------------------
# conjecture evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureEvidence:
    """Exact observations at one (d, level); reported, never asserted."""

    d: int
    level: int
    loop_dim: int
    s_plus_area_conj_dim: int
    loop_matches_s_plus_area_conj: bool
    closure_conj_intersection_dim: int
    area_product_membership: tuple[tuple[str, bool], ...] = field(default_factory=tuple)


def _area_products(d: int, n: int) -> list[tuple[str, TensorElement]]:
    if n % 2 or n < 4:
        return []
    areas = [
        ((i, j), _area(d, i, j)) for i in range(1, d + 1) for j in range(i + 1, d + 1)
    ]
    return [
        ("*".join("area%d%d" % pair for pair, _ in combo), _shuffle_all([elt for _, elt in combo]))
        for combo in itertools.combinations_with_replacement(areas, n // 2)
    ]


def conjecture_evidence(spaces: InvariantSpaces, n: int) -> ConjectureEvidence:
    """Dimension comparisons and membership observations at level n.  Sums
    are taken block by block, and dim(C ∩ R) = dim C + dim R - dim(C + R)."""
    d, budget, algebra = spaces.d, spaces.budget, spaces.area_conjugation_algebra(n)

    def sum_dim(a: BlockSpace, b: BlockSpace) -> int:
        return sum(k * subspace_sum(a.blocks[c], b.blocks[c], budget).dim for c, k in a.orbits.sizes.items())

    loop_dim = spaces.loop_invariants(n).dim
    s_plus = sum_dim(spaces.letter_shuffle_ideal(n), algebra)
    closure, conj = spaces.closure_invariants(n), spaces.conjugation_invariants(n)
    meet = closure.dim + conj.dim - sum_dim(closure, conj)
    membership = tuple(
        (label, member_tensor(element, spaces.closed_rotation_span(n)))
        for label, element in _area_products(d, n)
    )
    return ConjectureEvidence(
        d=d,
        level=n,
        loop_dim=loop_dim,
        s_plus_area_conj_dim=s_plus,
        loop_matches_s_plus_area_conj=loop_dim == s_plus,
        closure_conj_intersection_dim=meet,
        area_product_membership=membership,
    )


# ---------------------------------------------------------------------------
# module-level convenience API (one shared pipeline per alphabet size)
# ---------------------------------------------------------------------------

_PIPELINES: dict[int, InvariantSpaces] = {}


def spaces_for(d: int) -> InvariantSpaces:
    if d not in _PIPELINES:
        _PIPELINES[d] = InvariantSpaces(d)
    return _PIPELINES[d]


def invariant_report(d: int, n: int) -> InvariantReport:
    return spaces_for(d).report(n)
