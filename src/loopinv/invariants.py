"""Construction of the invariant subspaces and their dimension tables.

Where the theory describes a space twice, one description builds it and
the other checks it by containment, pairing and dimension:

* conjugation invariants: the span of rotation sums over necklaces,
  checked against the letter-bracket constraints ``<[q, i], x> = 0`` and
  the number of necklaces;
* the zero-increment space V: the span of products of non-letter Lyndon
  bracketings (a PBW spanning set), checked against prod(1 - x_i) /
  (1 - sum x_i), the series (1-q)^d / (1-dq) and the letter shuffle
  generators, proving that one per leading word spans their ideal S;
* loop invariants: the complement of [V, letters], whose rows pair to
  zero with those generators and are eliminated once, on the free columns
  of S; checked to be the kernel of (right closure - left closure) by
  pairing and by a rank lower bound modulo a prime;
* closure invariants: the image of the right closure, checked against
  dim V and S;
* letter-reduced conjugation invariants: the image of V in the cyclic
  words T/[T, letters], the rank of the rows of V summed over rotation
  classes, checked against the quotient dimension dim(conj + S) - dim S;
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
closure image; the letter-reduced ranks; the decomposables inside conj;
and conj inside loop.  A block whose rows leave its content fails too.
A level's dimension sums orbit size times block dimension, and the
checks on whole levels (the series coefficient, the dimension chains of
:class:`InvariantReport`) use those sums.  A renamed block is a basis of
its content as it stands, which is all the spanning rows one level up
need ([V, letters], the decomposables).  The canonical RREF of a whole
level, which ``basis``, ``evidence`` and the fuzz read, is assembled on
first use.

The n!-scaled right closure of one canonical content is a
:class:`_ClosureBlock`, made by one ``tensor._rcl_block`` pass over its
anagrams, in the order of ``words.anagrams`` that :meth:`_Orbits.words`
also follows: word indices and positions, one dense row per word (an
``array('q')``, or a list when an entry is past 63 bits), the position
of each word's reversal, the free (non-pivot) columns of the stored
basis of S_c, and the largest magnitude of an entry, which bounds the
slots of its packed proof, all read by position.  Both closures are the
projections along S, and each block is proven so before its reader gets
it: the closure of every generator that spans S is zero, and the closure
of the unit vector of every free column differs from it by a vector
orthogonal to V = S^perp, so by an element of S.  A block is built,
proven, read and dropped inside the build of one block of the space that
reads it, and the pipeline keeps none, so the loop build, the closure
image and the closed rotation span each build their own.  The report
reads the closure dimension off the loop build's proof as the number of
free columns (:meth:`InvariantSpaces.closure_dim`), and builds no closure
image.  Every closure difference lies in S too, so the closure-difference
kernel is S plus the kernel, among the free columns, of the
closure-difference rows at the pivot columns; the loop build checks that
this kernel is the one it built from [V, letters].  Its certificate makes
these rows from the block, dense on the free columns, each time it reads
them, and keeps none: it pairs them, takes their rank modulo a prime, and
reads them once more for the exact rank only where the prime falls short.

Every spanning set is a stream of integer rows ``{word index: int}``
made by four row operators (rotation sums, letter brackets, shuffles and
the closure blocks), so building a table forms no rational.
Rationals appear only where a basis leaves as a tensor element, in
:func:`verify_relations` and in the conjecture-evidence memberships.

A failed cross-check raises :class:`~loopinv.linalg.CrossCheckError`
(re-exported here); budget overruns
raise :class:`~loopinv.linalg.BudgetExceeded` and leave the caches
untouched for the completed cells.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from array import array
from bisect import bisect_left
from math import factorial
from operator import add, itemgetter, le, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._rat import integer
from .linalg import (
    Budget,
    BudgetExceeded,
    CrossCheckError,
    Subspace,
    _modular_rank,
    _packed_by_column,
    _pairs_to_zero,
    _reduces_to_zero,
    _signed_slots,
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


# default level caps giving desk-scale exact runs
DEFAULT_LEVEL_CAPS = {2: 10, 3: 7, 4: 5, 5: 4, 6: 4}


def default_level_cap(d: int) -> int:
    return DEFAULT_LEVEL_CAPS.get(d, 3)


class LieBasisElement(NamedTuple):
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


class _ReportRow(NamedTuple):
    d: int
    level: int
    dims: dict[str, int]


class InvariantReport(_ReportRow):
    """One table row: every named dimension at a fixed (d, level).

    On a row from :meth:`InvariantSpaces.report` the three checks below
    cannot fail: the sums hold by how its columns are computed and by the
    per-block checks of V.  They stay to reject rows built elsewhere."""

    __slots__ = ()

    COLUMNS = (
        "conjugation", "logsignature", "V_n", "bracket_VR", "letter_reduced_conj",
        "letter_reduced_loop", "closure", "loop", "S_n", "min_generators",
    )

    def __new__(cls, d: int, level: int, dims: dict[str, int]):
        if dims["letter_reduced_loop"] != dims["V_n"] - dims["bracket_VR"]:
            raise CrossCheckError("letter-reduced loop dimension chain broken")
        if dims["closure"] != dims["V_n"]:
            raise CrossCheckError("closure dimension differs from dim V")
        if dims["S_n"] != d**level - dims["V_n"]:
            raise CrossCheckError("S dimension complement broken")
        return super().__new__(cls, d, level, dims)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: keep the checks on that route too
        return cls(*fields)


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
    return all(map(le, inner, outer))


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
    of its canonical content with the letters renamed, on every call of
    :meth:`block`, so :attr:`dim` sums orbit size times block dimension.
    ``pivots`` and ``rows`` are the canonical RREF of the whole level,
    assembled on first use: each renamed block is eliminated once more,
    because renaming reorders its columns, and all blocks, whose columns
    are disjoint, are merged by pivot.
    """

    __slots__ = ("orbits", "blocks", "_whole")

    def __init__(self, orbits: _Orbits, blocks: dict[Content, Subspace]):
        self.d, self.n = orbits.d, orbits.n
        self.orbits = orbits
        self.blocks = blocks
        self._whole: Subspace | None = None

    @property
    def dim(self) -> int:
        return sum(self.orbits.sizes[c] * b.dim for c, b in self.blocks.items())

    def block(self, content: Content) -> tuple[dict[int, int], ...]:
        """The rows of a basis of the block of any content of the level."""
        if content in self.blocks:
            return self.blocks[content].rows
        index = self.orbits.renaming(content)
        return tuple(
            {index[k]: v for k, v in row.items()} for row in self.blocks[_canonical(content)].rows
        )

    def whole(self, budget: Budget | None = None) -> Subspace:
        """The canonical RREF of the whole level; the budget is checked once
        per row of each renamed block."""
        if self._whole is None:
            pairs: list[tuple[int, dict[int, int]]] = []
            for c, b in self.blocks.items():
                pairs += zip(b.pivots, b.rows)
                for member in self.orbits.members(c):
                    if member != c:
                        renamed = span(self.d, self.n, self.block(member), budget)
                        pairs += zip(renamed.pivots, renamed.rows)
            pairs.sort(key=lambda pair: pair[0])
            whole = Subspace(self.d, self.n, [p for p, _ in pairs], [r for _, r in pairs])
            if whole.dim != self.dim:
                raise CrossCheckError(
                    "the assembled level lost a row at d=%d, n=%d" % (self.d, self.n)
                )
            self._whole = whole
        return self._whole

    pivots = property(lambda self: self.whole().pivots)
    rows = property(lambda self: self.whole().rows)


class _ClosureBlock:
    """The proven n!-scaled right closure of the words of one canonical
    content c.

    ``words`` are the word indices of c in the order of
    :func:`~loopinv.words.anagrams`, ascending, and ``position`` maps each
    to its place there.  ``rows[p]`` is n! rcl(e_k) for k = words[p], dense
    on ``words``: an ``array('q')``, or the list that ``_rcl_block``
    yielded when an entry is past 63 bits; both index and iterate alike.
    ``reverse[p]`` is the position of the reversal of words[p], ``free``
    the free (non-pivot) columns of S_c, on which the proof ran, and
    ``largest`` the largest magnitude of an entry of ``rows``.  Made and
    proven by :meth:`InvariantSpaces._closure_block` for one reader, which
    drops it once read.
    """

    __slots__ = ("words", "position", "rows", "reverse", "free", "largest")

    def __init__(self, words: list[int], position: dict[int, int], rows: list[Sequence[int]],
                 reverse: list[int], free: list[int], largest: int):
        self.words, self.position, self.rows, self.reverse, self.free = words, position, rows, reverse, free
        self.largest = largest

    def image(self, row: dict[int, int]) -> dict[int, int]:
        """n! times the right closure of an integer row on the words of the
        block; a word outside it raises KeyError."""
        total = None
        for k, c in row.items():
            part = map(mul, self.rows[self.position[k]], itertools.repeat(c))
            total = list(part if total is None else map(add, total, part))
        return {k: x for k, x in zip(self.words, total or ()) if x}

    def kills(self, rows: Iterable[dict[int, int]]) -> bool:
        """True iff n! rcl vanishes on every given integer row on the words
        of the block; a word outside it raises KeyError.

        A :func:`~loopinv.linalg._pairs_to_zero` test whose P[k] is the
        closure row of the word k packed, so that slot j of sum_k g_k P[k]
        is entry j of n! rcl(g).  Slots are a multiple of 64 bits wide, so
        at 64 bits the ``array('q')`` rows are read from their bytes.  The
        slot width is bounded by ``largest``, noted as the rows were made.
        """

        def pack(need: int):
            bits = -(-need // 64) * 64 or 64
            return bits, dict(zip(self.words, (_signed_slots(r, bits) for r in self.rows)))

        return _pairs_to_zero(pack, self.largest, rows)

    def fixes_free_columns(self, family: Sequence[dict[int, int]], scale: int,
                           budget: Budget | None = None) -> bool:
        """True iff, for every free column f, rows[f] - scale e_f pairs to
        zero with every integer row of ``family``, which lies on the words
        of the block; the budget is checked once per free column.

        One :func:`~loopinv.linalg._pairs_to_zero` test on dense rows: the
        family is packed by block position, and each difference is a copy
        of the stored row of f with ``scale`` taken off at its place.
        """
        pack, largest = _packed_by_column(family, self.position)

        def differences():
            for f in self.free:
                if budget is not None:
                    budget.check()
                p = self.position[f]
                row = list(self.rows[p])
                row[p] -= scale
                yield row

        return _pairs_to_zero(pack, largest, differences())


def _one_per_leading_word(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """The first of the nonzero rows with each smallest word, in order."""
    chosen: dict[int, dict[int, int]] = {}
    for row in rows:
        chosen.setdefault(min(row), row)
    return list(chosen.values())


def _check_level(n: int, least: int = 1) -> None:
    if n < least:
        raise ValueError("level must be at least %d, got %d" % (least, n))


@contextlib.contextmanager
def _names_budget(key: tuple):
    """Name a BudgetExceeded raised inside after ``key``, unless a build
    nested deeper has named it already."""
    try:
        yield
    except BudgetExceeded as exc:
        if exc.space is None:
            exc.space = key
            exc.args = ("%s in %r" % (exc, key),)
        raise


def _memo(name: str):
    """Memoize a method of the level n in ``self._memo`` under ``(name, n)``.
    A build that raises stores nothing; a BudgetExceeded is named after the
    innermost memoized build it interrupted."""

    def decorate(method):
        @functools.wraps(method)
        def memoized(self, n):
            key = (name, n)
            if key not in self._memo:
                with _names_budget(key):
                    self._memo[key] = method(self, n)
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
        d = integer(d)
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        self.d = d
        self.budget: Budget | None = None
        self._memo: dict = {}
        self._orbit_tables: dict[int, _Orbits] = {}

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

    # -- integer row operators (shuffles and the closure blocks check the budget)

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
        return {word_index(w, d): c for w, c in data.items() if c}

    def _closure_block(self, n: int, c: Content) -> _ClosureBlock:
        """The n!-scaled right closure of the words of the canonical content
        c of level n, proven to be the projection along S there.

        The right closure keeps letter content, and the blocks of the other
        contents are renamed, never built, so no other word needs a row.
        One ``_tensor._rcl_block`` pass over the anagrams of c yields its
        rows, each packed into an ``array('q')`` unless an entry overflows
        it; the largest magnitude is noted from the yielded lists, before
        packing.

        The block is proven as soon as its rows are in, by two packed
        pairing tests (:func:`~loopinv.linalg._pairs_to_zero`).  The
        closure row of the generators ``i ⧢ u`` of content c, one per
        smallest word, which the build of V proves to span S_c, must be
        zero (:meth:`_ClosureBlock.kills`).  Then, for every free column f
        of the block of S, n! rcl(e_f) - n! e_f must pair to zero with the
        rows of V_c (:meth:`_ClosureBlock.fixes_free_columns`: the stored
        dense row of f, read as it is stored, against V_c packed by block
        position, so no row becomes a dict), which the build of V checks
        to be S_c^perp in the block, so it lies in S.  So rcl vanishes on
        S and rcl(x) - x lies in S for every x of a canonical content,
        and, as both commute with renaming letters, for every x: rcl is
        the projection along S.  S is closed under reversal
        (the reverse of ``i ⧢ u`` is ``i ⧢ reverse(u)``) and the left
        closure is the right closure conjugated by reversal, so the same
        holds for it.

        Only the caller, which drops it once read, holds the proven block:
        no attribute of the pipeline does.  It is not a memoized space: a
        budget that interrupts it names the space that asked.
        """
        s, v = self.letter_shuffle_ideal(n), self.zero_increment_space(n)
        words, letters = s.orbits.words(c), anagrams(_letters(c))
        generated, rows, largest = _tensor._rcl_block(_letters(c), letters), [], 0
        for _ in words:
            self._check_budget()
            row = next(generated)
            largest = max(largest, max(map(abs, row)))
            try:
                row = array("q", row)
            except OverflowError:
                pass
            rows.append(row)
        at = {x: p for p, x in enumerate(letters)}
        pivots = set(s.blocks[c].pivots)
        block = _ClosureBlock(
            words, {k: p for p, k in enumerate(words)}, rows,
            [at[x[::-1]] for x in letters], [f for f in words if f not in pivots], largest,
        )
        if not block.kills(_one_per_leading_word(self._letter_shuffle_rows(n, c))):
            raise CrossCheckError(
                "the right closure does not vanish on the letter shuffle "
                "ideal at d=%d, n=%d, content %s" % (self.d, n, c)
            )
        if not block.fixes_free_columns(v.blocks[c].rows, factorial(n), self.budget):
            raise CrossCheckError(
                "the right closure is not the identity modulo the letter "
                "shuffle ideal at d=%d, n=%d, content %s" % (self.d, n, c)
            )
        return block

    def _letter_bracket_rows(self, n: int, c: Content):
        """[q, i] for letters i and words q of content c - e_i."""
        lower = self._orbits(n - 1)
        return (
            self._bracket_row({q: 1}, n - 1, i)
            for i in range(self.d) if c[i] for q in lower.words(_without(c, i))
        )

    def _letter_shuffle_rows(self, n: int, c: Content):
        """i shuffled with u for letters i and words u of content c - e_i:
        the sum over t < n of the word that puts i before the last t
        letters of u, of index (hi d + i) d^t + lo for (hi, lo) =
        divmod(u, d^t).  The budget is checked once per row."""
        d, lower = self.d, self._orbits(n - 1)
        powers = [d**t for t in range(n)]
        for i in range(d):
            if c[i]:
                for u in lower.words(_without(c, i)):
                    self._check_budget()
                    row: dict[int, int] = {}
                    for q in powers:
                        hi, lo = divmod(u, q)
                        k = (hi * d + i) * q + lo
                        row[k] = row.get(k, 0) + 1
                    yield row

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
            if r.dim != len(orbits.words(c)) - rank or not orthogonal(d, n, r.rows, brackets, self.budget):
                raise CrossCheckError(
                    "conjugation invariants disagree between rotation span and "
                    "bracket kernel at d=%d, n=%d, content %s" % (d, n, c)
                )
            return r

        return self._blocks(n, build)

    @_memo("S")
    def letter_shuffle_ideal(self, n: int) -> BlockSpace:
        """Degree-n part of the shuffle ideal generated by the letters: the
        span of one generator ``i ⧢ u`` per smallest word, once V proves
        that they span it, so the elimination only substitutes back."""
        _check_level(n)
        self.zero_increment_space(n)
        return self._blocks(n, lambda c: self._block_span(
            n, c, _one_per_leading_word(self._letter_shuffle_rows(n, c))))

    @_memo("V")
    def zero_increment_space(self, n: int) -> BlockSpace:
        """The level-n span of zero-increment grouplike elements: the PBW span
        P.  On each block c, dim P_c is the coefficient of x^c in
        prod(1 - x_i) / (1 - sum x_i) and N_c - k, for k generators i ⧢ u
        with distinct smallest words, so independent, and P_c pairs to
        zero with every generator: so dim S_c <= k, those k span S_c and
        P_c = S_c^perp.  dim P must match the generating series."""
        _check_level(n, 0)
        if n == 0:
            return self._blocks(0, lambda c: kernel(self.d, 0, [], self.budget))
        d, orbits = self.d, self._orbits(n)
        factors = self._pbw_factors(n, orbits.canonical)

        def build(c: Content) -> Subspace:
            p = self._block_span(n, c, self._pbw_products(c, factors))
            expected = zero_increment_content_dim(c)
            if p.dim != expected:
                raise CrossCheckError(
                    "zero-increment space disagrees with the closed form "
                    "prod(1 - x_i) / (1 - sum x_i) at d=%d, n=%d, content %s: %d != %d"
                    % (d, n, c, p.dim, expected)
                )
            generators = list(self._letter_shuffle_rows(n, c))
            count = len(_one_per_leading_word(generators))
            if p.dim != len(orbits.words(c)) - count or not orthogonal(d, n, p.rows, generators, self.budget):
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

        One product per non-increasing (in the order of ``factors``, from
        :meth:`_pbw_factors`) tuple l_1 >= ... >= l_k of factors whose
        contents sum to ``content``, so its smallest word l_1 ... l_k is
        its own Lyndon factorisation and no two products share it.  A
        branch whose contents no longer fit is pruned.  Concatenating
        words u and v maps their indices to index(u) * d**|v| + index(v).
        """
        basis = [f for f in factors if _fits(f[0], content)]
        out: list[dict[int, int]] = []
        # remaining content -> the ascending positions in basis of the
        # factors that fit it, found among those that fit the content it
        # was first reached from
        fitting: dict[Content, list[int]] = {content: list(range(len(basis)))}

        def extend(stop: int, remaining: Content, acc: dict[int, int] | None):
            self._check_budget()
            if not any(remaining):
                out.append(acc)
                return
            fits = fitting[remaining]
            for i in fits[: bisect_left(fits, stop)]:
                wc, shift, poly = basis[i]
                nxt = poly if acc is None else {
                    a * shift + b: ca * cb for a, ca in acc.items() for b, cb in poly.items()
                }
                rest = tuple(y - x for x, y in zip(wc, remaining))
                if rest not in fitting:
                    fitting[rest] = [j for j in fits if _fits(basis[j][0], rest)]
                extend(i + 1, rest, nxt)

        extend(len(basis), content, None)
        return out

    def bracket_zero_increment(self, n: int) -> int:
        """dim [V at level n-1, letters], by rank-nullity on the restricted
        rows of :meth:`loop_invariants`: N_c - dim loop_c on each block,
        summed with orbit sizes, and the N_c sum to d^n."""
        return self.d**n - self.loop_invariants(n).dim

    @_memo("loop")
    def loop_invariants(self, n: int) -> BlockSpace:
        """[V, letters]^perp, checked to be the kernel of (rcl - lcl) on each
        block.

        The raw rows of block c, [v, i] over the rows v of the (renamed)
        blocks of V at level n - 1 of the contents c - e_i, must pair to
        zero with the generators of S_c, one per smallest word, so lie in
        V_c = S_c^perp (the build of V checks that they span S_c).  A
        vector of the block is an element of S_c plus one on the free
        columns of S_c, and restriction to them is injective on V_c: a
        vector of V_c that vanishes there pairs to zero with S_c and with
        those unit vectors, which span the block.  So the complement of
        [V, letters]_c is S_c plus the kernel K_A of the raw rows on the
        free columns, in one elimination (an entry off the content is kept,
        and the kernel refuses it).

        The check: both closures are the projections along S (proven on the
        closure block of c), so the closure difference vanishes on S and maps
        every vector into S, where a vector is zero exactly when its
        entries at the pivot columns of S are.  Let M be the
        closure-difference rows at those pivot columns, restricted to the
        free columns.  K_A lies on the free columns and pairs to zero with
        every row of M, so rcl = lcl on K_A, and the rank of M is at most
        (free columns) - dim K_A; the rank reaches that bound, so the
        kernel of M is no larger than K_A.  Together, S_c + K_A is the
        kernel of rcl - lcl on the block.  Both steps read the dense rows
        of M that :meth:`_closure_difference_rows` makes, one entry per free
        column: the pairing against K_A packed by free position, in slots
        that no dot product fills, and the rank modulo a prime on residues
        in 64-bit slots, to which a reduction step adds less than p^2 <
        2^30.  Where the prime falls short, the rows are made again and
        turned into dicts for the exact rank, which decides.
        """
        _check_level(n)
        d, s, v = self.d, self.letter_shuffle_ideal(n), self.zero_increment_space(n - 1)

        def build(c: Content) -> Subspace:
            sc, pivots, block = s.blocks[c], set(s.blocks[c].pivots), self._closure_block(n, c)
            free = block.free
            lower = [(row, n - 1, i) for i in range(d) if c[i] for row in v.block(_without(c, i))]
            generators = _one_per_leading_word(self._letter_shuffle_rows(n, c))
            if not orthogonal(d, n, generators, itertools.starmap(self._bracket_row, lower), self.budget):
                raise CrossCheckError("[V, letters] leaves V at d=%d, n=%d, content %s" % (d, n, c))
            k_a = kernel(d, n, (
                {k: x for k, x in row.items() if k not in pivots}
                for row in itertools.starmap(self._bracket_row, lower)
            ), self.budget, free)
            if not set().union(*k_a.rows) <= set(free):
                raise CrossCheckError(
                    "loop invariants disagree with the bracket complement at d=%d, n=%d, "
                    "content %s" % (d, n, c)
                )
            rows = functools.partial(self._closure_difference_rows, n, c, block)
            target = len(free) - k_a.dim
            pack, largest = _packed_by_column(k_a.rows, {f: j for j, f in enumerate(free)})
            if not _pairs_to_zero(pack, largest, rows()) or (
                _modular_rank(rows(), len(free), target, self.budget) < target
                and span(d, n, ({f: x for f, x in zip(free, row) if x} for row in rows()),
                         self.budget).dim < target
            ):
                raise CrossCheckError(
                    "loop invariants disagree between bracket complement and "
                    "closure-difference kernel at d=%d, n=%d, content %s" % (d, n, c)
                )
            return subspace_sum(k_a, sc, self.budget)

        return self._blocks(n, build)

    def _closure_difference_rows(self, n: int, c: Content, block: _ClosureBlock) -> Iterator[tuple[int, ...]]:
        """The nonzero rows of M, the matrix of n! (right closure - left
        closure) on the proven closure block of the canonical content c at
        the pivot columns of S_c, restricted to the free columns of S_c:
        dense, one entry per column of ``free`` of the block, in its order.

        The left closure is the right closure conjugated by reversal, which
        keeps the content, so n! lcl(e_k) is the closure row of the reversal
        of k with its positions permuted by reversal.  So column f of M is
        one gather of the stored row of f at the pivot positions minus one
        of the row of its reversal at their reversals, and a transpose
        turns the columns into rows.  The budget is checked once per column
        and once per row.
        """
        rows, position, reverse = block.rows, block.position, block.reverse
        at = [position[k] for k in self.letter_shuffle_ideal(n).blocks[c].pivots]
        if not at:
            return

        def gather(positions: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
            get = itemgetter(*positions)  # a lone position gets its entry bare
            return get if len(positions) > 1 else lambda row: (get(row),)

        right, left = gather(at), gather([reverse[p] for p in at])
        columns = []
        for f in block.free:
            self._check_budget()
            p = position[f]
            columns.append(map(sub, right(rows[p]), left(rows[reverse[p]])))
        for row in zip(*columns):
            self._check_budget()
            if any(row):
                yield row

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
            s, block = self.letter_shuffle_ideal(n).blocks[c], self._closure_block(n, c)
            image = self._block_span(n, c, (block.image({f: 1}) for f in block.free))
            if image.dim != self.zero_increment_space(n).blocks[c].dim:
                raise CrossCheckError(
                    "closure-invariant dimension differs from dim V at d=%d, n=%d, "
                    "content %s" % (d, n, c)
                )
            if subspace_sum(image, s, self.budget).dim != len(self._orbits(n).words(c)):
                raise CrossCheckError(
                    "closure image and letter shuffle ideal do not complement "
                    "each other at d=%d, n=%d, content %s" % (d, n, c)
                )
            return image

        return self._blocks(n, build)

    def closure_dim(self, n: int) -> int:
        """dim of the closure image on level n, read off the proof that the
        loop build runs on each closure block of the level, which it drops:
        orbit size times the free columns of S_c, summed, is d^n - dim S.

        The proof shows rcl(S) = 0 and rcl(e_f) - e_f in S for every free
        column f of S_c.  If a combination of the rcl(e_f) is zero, the
        same combination of the e_f lies in S, and as a vector of S is zero
        once its entries at the pivot columns of S are, it is zero.  So the
        rcl(e_f) are independent, and they span the image as rcl(S) = 0.
        """
        self.loop_invariants(n)
        return self.d**n - self.letter_shuffle_ideal(n).dim

    @_memo("rclrot")
    def closed_rotation_span(self, n: int) -> BlockSpace:
        """Span of the closed rotation sums n! rcl(rot(w)) over necklaces w of
        length n, for ``evidence``; rcl is the projection along S, so its
        dimension must be the letter-reduced one, dim conj - dim(conj ∩ S)."""
        _check_level(n)

        def build(c: Content) -> Subspace:
            block = self._closure_block(n, c)
            return self._block_span(n, c, (block.image(self._rotation_row(w)) for w in self._necklaces(c)))

        closed = self._blocks(n, build)
        if closed.dim != self.letter_reduced_conj_dim(n):
            raise CrossCheckError(
                "closed rotation span differs from letter-reduced conj at d=%d, n=%d" % (self.d, n)
            )
        return closed

    # -- dimensions -------------------------------------------------------

    def letter_reduced_loop_dim(self, n: int) -> int:
        _check_level(n)
        return self.zero_increment_space(n).dim - self.bracket_zero_increment(n)

    @_memo("lrconj")
    def letter_reduced_conj_dim(self, n: int) -> int:
        """dim of V modulo [T, letters]: the image of V in the cyclic words,
        checked against the quotient on each block.

        T/[T, letters] has one basis vector per rotation class of words, so
        on block c the column is the rank of the rows of V_c summed over
        rotation classes.  Each stored row of conj_c is the 0/1 indicator
        of one class, with its pivot at the necklace, which names the class
        of each of its words.  The bracket rows span conj^perp and V =
        S^perp, so V_c meets [T, letters] in (conj_c + S_c)^perp, and the
        rank must be the quotient dim(conj_c + S_c) - dim S_c, the rank of
        the rows of conj_c reduced against the stored S_c
        (:meth:`_quotient_dim`).
        """
        s, conj, v = self.letter_shuffle_ideal(n), self.conjugation_invariants(n), self.zero_increment_space(n)
        total = 0
        for c, size in s.orbits.sizes.items():
            necklace = {k: p for p, row in zip(conj.blocks[c].pivots, conj.blocks[c].rows) for k in row}
            sums: list[dict[int, int]] = [{} for _ in v.blocks[c].rows]
            for out, row in zip(sums, v.blocks[c].rows):
                for k, x in row.items():
                    out[necklace[k]] = out.get(necklace[k], 0) + x
            rank = span(self.d, n, sums, self.budget).dim
            quotient = self._quotient_dim(n, c)
            if rank != quotient:
                raise CrossCheckError(
                    "letter-reduced conjugation dimension disagrees between "
                    "quotient and rank routes at d=%d, n=%d, content %s" % (self.d, n, c)
                )
            total += size * quotient
        return total

    def _quotient_dim(self, n: int, c: Content) -> int:
        """dim(conj_c + S_c) - dim S_c on the block of the canonical content
        c: each row of conj_c is reduced against the stored canonical RREF
        of S_c, one pass over the pivot columns it hits, and the quotient is
        the exact rank of the remainders, which lie on the free columns of
        S_c.  The budget is checked once per row of conj_c."""
        s = self.letter_shuffle_ideal(n).blocks[c]
        by_col = dict(zip(s.pivots, s.rows))

        def remainder(row: dict[int, int]) -> dict[int, int]:
            self._check_budget()
            row = dict(row)
            _reduces_to_zero(row, by_col)
            return row

        conj = self.conjugation_invariants(n).blocks[c]
        return span(self.d, n, map(remainder, conj.rows), self.budget).dim

    @_memo("gens")
    def minimal_generators(self, n: int) -> BlockSpace:
        """A complement G_n of the decomposables D_n in level n of the
        conjugation invariants A = conj.

        D_n is the span of the products of two elements of positive level,
        the sum over j of A_j ⧢ A_{n-j}; the shuffle is commutative, so
        j <= n/2 suffices.  Products with a generator span it: D_n =
        Σ_{j=1}^{n/2} G_j ⧢ A_{n-j}, for any complements G_j of D_j in A_j.
        By induction on m, Σ_{j<=m} A_j ⧢ A_{n-j} = Σ_{j<=m} G_j ⧢ A_{n-j}:
        A_m ⧢ A_{n-m} is G_m ⧢ A_{n-m} plus D_m ⧢ A_{n-m}, and
        D_m ⧢ A_{n-m} lies in Σ_{i<m} A_i ⧢ A_{n-i}, because
        A_i ⧢ A_{m-i} ⧢ A_{n-m} lies in A_i ⧢ A_{n-i} when A is a shuffle
        subalgebra (the all-pairs span assumes that too).  At m = n/2 the
        left side is D_n.  Rows of contents a and b shuffle to content
        a + b, so block c spans the products of the rows of the (renamed)
        blocks of G_j at a and of A_{n-j} at c - a, over every j <= n/2
        and every sub-content a of c.

        D_c must lie in A_c, checked by reducing its rows against A_c; the
        complement rests on it.  The pivots of a canonical RREF are the
        leading (smallest) columns of the nonzero vectors of its span, so
        the pivots of D_c are pivots of A_c, and the rows of A_c at the
        other pivots span a complement of D_c: no nonzero combination of
        them leads at a pivot of D_c.  Those rows are a canonical RREF as
        they stand, so G_c shares them with A_c.
        """
        d, total = self.d, self.conjugation_invariants(n)
        lower = [
            (j, self.minimal_generators(j), self.conjugation_invariants(n - j)) for j in range(1, n // 2 + 1)
        ]

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

    def min_generator_count(self, n: int) -> int:
        """Dimension of level n of the conjugation invariants modulo
        products: the dimension of :meth:`minimal_generators`."""
        return self.minimal_generators(n).dim

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
            "bracket_VR": self.bracket_zero_increment(n),
            "letter_reduced_conj": self.letter_reduced_conj_dim(n),
            "letter_reduced_loop": self.letter_reduced_loop_dim(n),
            "closure": self.closure_dim(n),
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


class RelationCheck(NamedTuple):
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


class ConjectureEvidence(NamedTuple):
    """Exact observations at one (d, level); reported, never asserted."""

    d: int
    level: int
    loop_dim: int
    s_plus_area_conj_dim: int
    loop_matches_s_plus_area_conj: bool
    closure_conj_intersection_dim: int
    area_product_membership: tuple[tuple[str, bool], ...] = ()


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
    are taken block by block, and dim(C ∩ R) = dim C + dim R - dim(C + R).
    A budget spent outside the memoized spaces is named ("evidence", n)."""
    d, budget = spaces.d, spaces.budget

    def sum_dim(a: BlockSpace, b: BlockSpace) -> int:
        return sum(k * subspace_sum(a.blocks[c], b.blocks[c], budget).dim for c, k in a.orbits.sizes.items())

    with _names_budget(("evidence", n)):
        algebra = spaces.area_conjugation_algebra(n)
        loop_dim = spaces.loop_invariants(n).dim
        s_plus = sum_dim(spaces.letter_shuffle_ideal(n), algebra)
        closure, conj = spaces.closure_invariants(n), spaces.conjugation_invariants(n)
        meet = closure.dim + conj.dim - sum_dim(closure, conj)
        products = _area_products(d, n)
        if products:
            closed = spaces.closed_rotation_span(n).whole(budget)
        membership = tuple(
            (label, member_tensor(element, closed, budget)) for label, element in products
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
