"""Construction of the invariant subspaces and their dimension tables.

Where the theory describes a space twice, one description builds it and
the other checks it by containment, pairing and dimension:

* conjugation invariants: the span of rotation sums over necklaces,
  checked against the letter-bracket constraints ``<[q, i], x> = 0``;
* the zero-increment space V: the span of products of non-letter Lyndon
  bracketings (a PBW spanning set), checked against the letter shuffle
  ideal S and the generating-series coefficient of (1-q)^d / (1-dq);
* loop invariants: the kernel of (right closure - left closure),
  checked against [V, letters];
* letter-reduced conjugation invariants: the quotient dimension
  dim(conj + S) - dim S, and the rank of right-closed rotation sums.

The n!-scaled right closure of every word of a level is one integer
table, built once per orbit of letter contents under letter permutations
and relabelled to the rest of the orbit.  Both closures are the
projections along S, and the pipeline proves it at each level: the
closure of every letter shuffle generator is zero, and the closure of
the unit vector of every free (non-pivot) column of the stored basis of
S differs from it by an element of S.  The closure image is then spanned
by the closures of those unit vectors.  Every closure difference lies in
S, where a vector is zero exactly when its entries at the pivot columns
of S are, so the closure-difference kernel is S plus the kernel, among
the free columns, of the closure-difference rows at the pivot columns.

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
from typing import Container, Sequence

from .linalg import (
    Budget,
    BudgetExceeded,
    Subspace,
    _reduces_to_zero,
    contains,
    index_word,
    intersect,
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
from .words import Word, lyndon_count, lyndon_words, necklaces, rotations
from . import tensor as _tensor


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

    Values are immutable once computed.  The memo is single-threaded.  An
    optional :class:`~loopinv.linalg.Budget` in :attr:`budget` bounds the
    heavy loops; a build it interrupts stores nothing.
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
        self._closure_tables: dict[int, list[dict[int, int]]] = {}

    # -- plumbing -------------------------------------------------------

    def _check_budget(self) -> None:
        if self.budget is not None:
            self.budget.check()

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
        """n! times the right closure of a row on level n."""
        self._check_budget()
        table = self._closure_table(n)
        out: dict[int, int] = {}
        for i, c in row.items():
            for j, v in table[i].items():
                out[j] = out.get(j, 0) + c * v
        return {j: c for j, c in out.items() if c}

    def _closure_table(self, n: int) -> list[dict[int, int]]:
        """Row k is n! times the right closure of the word of index k.

        The right closure keeps letter content and commutes with renaming
        letters, so each orbit of contents under letter permutations is
        computed once, on its canonical content (letter counts
        non-increasing), and its rows are relabelled to the other contents
        of the orbit.  The table is not a memoized space: a budget that
        interrupts it stores nothing and names the space that asked.
        """
        if n not in self._closure_tables:
            d = self.d
            table: list[dict[int, int]] = [{}] * d**n
            classes: dict[tuple[int, ...], tuple[list, list]] = {}
            for content in itertools.combinations_with_replacement(range(1, d + 1), n):
                counts = [content.count(a) for a in range(1, d + 1)]
                # canonical letter a + 1 is renamed to order[a] + 1
                order = sorted(range(d), key=lambda b: -counts[b])
                canonical = tuple(a + 1 for a, b in enumerate(order) for _ in range(counts[b]))
                if canonical not in classes:
                    classes[canonical] = (
                        _tensor._h_expansion(canonical)[1], _tensor._rcl_class(canonical)
                    )
                anagrams, rows = classes[canonical]
                index = [word_index([order[a - 1] + 1 for a in x], d) for x in anagrams]
                for k, row in zip(index, rows):
                    self._check_budget()
                    table[k] = {index[j]: c for j, c in enumerate(row) if c}
            self._closure_tables[n] = table
        return self._closure_tables[n]

    def _letter_bracket_rows(self, n: int):
        """[q, i] for words q of length n-1 and letters i."""
        d = self.d
        return (self._bracket_row({q: 1}, n - 1, i) for i in range(d) for q in range(d ** (n - 1)))

    def _letter_shuffle_rows(self, n: int):
        """i shuffled with u for letters i and words u of length n-1."""
        d = self.d
        return (
            self._shuffle_row({i: 1}, 1, {u: 1}, n - 1) for i in range(d) for u in range(d ** (n - 1))
        )

    # -- spaces -----------------------------------------------------------

    def space(self, name: str, n: int) -> Subspace:
        """The space exported under ``name`` (a key of :attr:`SPACES`) at level n."""
        return getattr(self, self.SPACES[name])(n)

    @_memo("conj")
    def conjugation_invariants(self, n: int) -> Subspace:
        """Rotation-sum span R: bracket rows pair to zero with R, dim R = d^n - their rank."""
        d = self.d
        r = span(d, n, map(self._rotation_row, necklaces(d, n)), self.budget)
        rank = span(d, n, self._letter_bracket_rows(n), self.budget).dim
        if r.dim != d**n - rank or not orthogonal(r, self._letter_bracket_rows(n), self.budget):
            raise CrossCheckError(
                "conjugation invariants disagree between rotation span and "
                "bracket kernel at d=%d, n=%d" % (d, n)
            )
        return r

    @_memo("S")
    def letter_shuffle_ideal(self, n: int) -> Subspace:
        """Degree-n part of the shuffle ideal generated by the letters."""
        return span(self.d, n, self._letter_shuffle_rows(n), self.budget)

    @_memo("V")
    def zero_increment_space(self, n: int) -> Subspace:
        """The level-n span of zero-increment grouplike elements: the PBW span P,
        checked to be S^perp (P pairs to zero with the rows of S, dim P = d^n - dim S)
        and against the generating series."""
        if n == 0:
            return kernel(self.d, 0, [], self.budget)
        s = self.letter_shuffle_ideal(n)
        products = span(self.d, n, self._pbw_products(n), self.budget)
        if products.dim != self.d**n - s.dim or not orthogonal(products, s.rows, self.budget):
            raise CrossCheckError(
                "zero-increment space disagrees between shuffle-ideal "
                "complement and PBW span at d=%d, n=%d" % (self.d, n)
            )
        expected = zero_increment_series_dim(self.d, n)
        if products.dim != expected:
            raise CrossCheckError(
                "dim V mismatch with generating series at d=%d, n=%d: %d != %d"
                % (self.d, n, products.dim, expected)
            )
        return products

    def _pbw_products(self, n: int) -> list[dict[int, int]]:
        """Integer rows of the concatenation products of non-letter Lyndon
        bracketings.

        One product per weakly increasing (in lexicographic order) tuple of
        non-letter Lyndon words with lengths summing to n.  The factors are
        the integer Lyndon polynomials; concatenating words u and v of
        lengths |u| and |v| maps their indices to index(u) * d**|v| + index(v).
        """
        d = self.d
        basis = sorted(w.letters for k in range(2, n + 1) for w in lyndon_words(d, k))
        polys = {
            w: {word_index(u, d): c for u, c in _tensor._lyndon_poly(w).items()} for w in basis
        }
        out: list[dict[int, int]] = []

        def extend(start: int, remaining: int, acc: dict[int, int] | None):
            self._check_budget()
            if remaining == 0:
                out.append(acc)
                return
            for i in range(start, len(basis)):
                w = basis[i]
                if len(w) > remaining:
                    continue
                poly, shift = polys[w], d ** len(w)
                nxt = poly if acc is None else {
                    a * shift + b: ca * cb for a, ca in acc.items() for b, cb in poly.items()
                }
                extend(i, remaining - len(w), nxt)

        extend(0, n, None)
        return out

    def bracket_with_letters(self, s: Subspace) -> Subspace:
        """Span of [b, letter] over basis rows b; lives one level up."""
        rows = (self._bracket_row(row, s.n, i) for row in s.rows for i in range(self.d))
        return span(self.d, s.n + 1, rows, self.budget)

    @_memo("bracketV")
    def bracket_zero_increment(self, n: int) -> Subspace:
        """[V at level n-1, letters], the loop-invariant constraint space."""
        return self.bracket_with_letters(self.zero_increment_space(n - 1))

    @_memo("Sclosed")
    def closures_vanish_on_shuffle_ideal(self, n: int) -> bool:
        """Prove that the right and left closures are the projections along
        S at level n.

        First the closure row of every letter shuffle generator ``i ⧢ u``
        must be zero.  Then, for every free column f of S, n! rcl(e_f) -
        n! e_f must reduce to zero against the stored rows of S.  So rcl
        vanishes on S and rcl(x) - x lies in S for every x: rcl is the
        projection along S.  S is closed under reversal (the reverse of
        ``i ⧢ u`` is ``i ⧢ reverse(u)``) and the left closure is the right
        closure conjugated by reversal, so the same holds for it.
        """
        for row in self._letter_shuffle_rows(n):
            if self._closure_row(row, n):
                raise CrossCheckError(
                    "the right closure does not vanish on the letter shuffle "
                    "ideal at d=%d, n=%d" % (self.d, n)
                )
        s = self.letter_shuffle_ideal(n)
        by_col = dict(zip(s.pivots, s.rows))
        table = self._closure_table(n)
        scale = factorial(n)
        for f in _non_pivots(s):
            self._check_budget()
            row = dict(table[f])
            row[f] = row.get(f, 0) - scale
            if not row[f]:
                del row[f]
            if not _reduces_to_zero(row, by_col):
                raise CrossCheckError(
                    "the right closure is not the identity modulo the letter "
                    "shuffle ideal at d=%d, n=%d" % (self.d, n)
                )
        return True

    def _free_columns(self, n: int) -> list[int]:
        """Non-pivot columns of the stored basis of S; their unit vectors
        span a complement of S.  Proves first that the closures are the
        projections along S, which every use of the free columns rests on."""
        self.closures_vanish_on_shuffle_ideal(n)
        return _non_pivots(self.letter_shuffle_ideal(n))

    @_memo("loop")
    def loop_invariants(self, n: int) -> Subspace:
        """Kernel of (rcl - lcl), checked to be [V, letters]^perp.

        Both closures are the projections along S, so the closure
        difference vanishes on S and maps every vector into S, where a
        vector is zero exactly when its entries at the pivot columns of S
        are.  The kernel is therefore S plus the kernel K, among the free
        columns of S, of the closure-difference rows at its pivot columns.
        [V, letters] lies in V = S^perp and pairs to zero with K, so S + K
        is its complement once dim(S + K) = d^n - dim [V, letters].
        """
        free = self._free_columns(n)
        s = self.letter_shuffle_ideal(n)
        rows = self._closure_difference_rows(n, free, set(s.pivots))
        on_free = kernel(self.d, n, rows, self.budget, free)
        loop = subspace_sum(on_free, s, self.budget)
        brackets = self.bracket_zero_increment(n)
        if loop.dim != self.d**n - brackets.dim or not (
            contains(self.zero_increment_space(n), brackets)
            and orthogonal(brackets, on_free.rows, self.budget)
        ):
            raise CrossCheckError(
                "loop invariants disagree between bracket complement and "
                "closure-difference kernel at d=%d, n=%d" % (self.d, n)
            )
        return loop

    def _closure_difference_rows(
        self, n: int, columns: Sequence[int], outputs: Container[int] | None = None
    ) -> list[dict[int, int]]:
        """Integer rows of the matrix of n! (right closure - left closure)
        on level n, restricted to the given word-index columns and to the
        rows of the word indices in ``outputs`` (every row by default).

        The left closure is the right closure conjugated by reversal, so
        n! lcl(e_k) is row rev(k) of the closure table with its indices
        reversed.
        """
        d = self.d
        table = self._closure_table(n)
        rev = [word_index(index_word(k, d, n)[::-1], d) for k in range(d**n)]
        by_output: dict[int, dict[int, int]] = {}
        for col in columns:
            self._check_budget()
            diff = dict(table[col])
            for j, c in table[rev[col]].items():
                diff[rev[j]] = diff.get(rev[j], 0) - c
            for j, c in diff.items():
                if c and (outputs is None or j in outputs):
                    by_output.setdefault(j, {})[col] = c
        return list(by_output.values())

    @_memo("closure")
    def closure_invariants(self, n: int) -> Subspace:
        """Image of the right closure on level n.

        The closure vanishes on S, so the image is spanned by the closures
        of the unit vectors of the free columns of S.  The dimension must
        match dim V, and together with S the image must fill the level
        (the closure is a projection along S).
        """
        d = self.d
        rows = (self._closure_row({f: 1}, n) for f in self._free_columns(n))
        image = span(d, n, rows, self.budget)
        if image.dim != self.zero_increment_space(n).dim:
            raise CrossCheckError(
                "closure-invariant dimension differs from dim V at d=%d, n=%d"
                % (d, n)
            )
        direct_sum = subspace_sum(image, self.letter_shuffle_ideal(n), self.budget)
        if direct_sum.dim != d**n:
            raise CrossCheckError(
                "closure image and letter shuffle ideal do not complement "
                "each other at d=%d, n=%d" % (d, n)
            )
        return image

    @_memo("rclrot")
    def closed_rotation_span(self, n: int) -> Subspace:
        """Span of right-closed rotation sums over necklaces of length n."""
        d = self.d
        rows = (self._closure_row(self._rotation_row(w), n) for w in necklaces(d, n))
        return span(d, n, rows, self.budget)

    # -- dimensions -------------------------------------------------------

    def letter_reduced_loop_dim(self, n: int) -> int:
        return self.zero_increment_space(n).dim - self.bracket_zero_increment(n).dim

    @_memo("lrconj")
    def letter_reduced_conj_dim(self, n: int) -> int:
        """dim of V modulo [T, letters], cross-checked as a closed-rotation rank.

        The bracket rows span conj^perp and V = S^perp, so the meet of V
        with the brackets is (conj + S)^perp and the quotient has dimension
        dim(conj + S) - dim S.
        """
        s = self.letter_shuffle_ideal(n)
        via_quotient = subspace_sum(self.conjugation_invariants(n), s, self.budget).dim - s.dim
        via_rank = self.closed_rotation_span(n).dim
        if via_quotient != via_rank:
            raise CrossCheckError(
                "letter-reduced conjugation dimension disagrees between "
                "quotient and rank routes at d=%d, n=%d" % (self.d, n)
            )
        return via_rank

    @_memo("rclloop")
    def closed_loop_span(self, n: int) -> Subspace:
        """Right closure of the loop invariants (the loop-and-closure space)."""
        rows = (self._closure_row(r, n) for r in self.loop_invariants(n).rows)
        space = span(self.d, n, rows, self.budget)
        if space.dim != self.letter_reduced_loop_dim(n):
            raise CrossCheckError(
                "closed loop invariants do not match the letter-reduced "
                "loop dimension at d=%d, n=%d" % (self.d, n)
            )
        return space

    @_memo("mingen")
    def min_generator_count(self, n: int, family: str = "conj") -> int:
        """Dimension of level n of a graded shuffle family modulo products.

        The decomposable part is the span of all shuffle products of two
        lower-level basis rows (the families are shuffle subalgebras, so
        pairs span every longer product).  family is "conj" or
        "loop_closure".
        """
        if family == "conj":
            space_of = self.conjugation_invariants
        elif family == "loop_closure":
            space_of = self.closed_loop_span
        else:
            raise ValueError("unknown family %r" % family)

        def products():
            for j in range(1, n // 2 + 1):
                left, right = space_of(j).rows, space_of(n - j).rows
                if j < n - j:
                    pairs = itertools.product(left, right)
                else:
                    pairs = itertools.combinations_with_replacement(left, 2)
                for a, b in pairs:
                    yield self._shuffle_row(a, j, b, n - j)

        rank = span(self.d, n, products(), self.budget).dim
        total = space_of(n).dim
        if rank > total:
            raise CrossCheckError("decomposables escaped the family at d=%d, n=%d" % (self.d, n))
        return total - rank

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
        if not contains(self.loop_invariants(n), self.conjugation_invariants(n)):
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


def _non_pivots(s: Subspace) -> list[int]:
    pivots = set(s.pivots)
    return [f for f in range(s.d**s.n) if f not in pivots]


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


def area_conjugation_algebra(spaces: InvariantSpaces, n: int) -> Subspace:
    """Level-n part of the shuffle algebra generated by the two-letter
    areas together with all conjugation invariants."""
    d = spaces.d
    gens = {k: list(spaces.conjugation_invariants(k).rows) for k in range(1, n + 1)}
    if n >= 2:
        # the area ij - ji is the bracket [i, j] of two letters
        gens[2] += [spaces._bracket_row({i: 1}, 1, j) for i in range(d) for j in range(i + 1, d)]
    parts: dict[int, Subspace] = {}
    for k in range(1, n + 1):
        elements = list(gens[k])
        for j in range(1, k):
            for g in gens[j]:
                elements.extend(spaces._shuffle_row(g, j, b, k - j) for b in parts[k - j].rows)
        parts[k] = span(d, k, elements, spaces.budget)
    return parts[n]


def _area_products(d: int, n: int, cap: int = 64) -> list[tuple[str, TensorElement]]:
    if n % 2 or n < 4:
        return []
    areas = [
        ((i, j), _area(d, i, j)) for i in range(1, d + 1) for j in range(i + 1, d + 1)
    ]
    out = []
    for combo in itertools.combinations_with_replacement(areas, n // 2):
        label = "*".join("area%d%d" % pair for pair, _ in combo)
        out.append((label, _shuffle_all([elt for _, elt in combo])))
        if len(out) >= cap:
            break
    return out


def conjecture_evidence(spaces: InvariantSpaces, n: int) -> ConjectureEvidence:
    """Dimension comparisons and membership observations at level n."""
    d = spaces.d
    loop_dim = spaces.loop_invariants(n).dim
    s_plus = subspace_sum(
        spaces.letter_shuffle_ideal(n), area_conjugation_algebra(spaces, n), spaces.budget
    )
    meet = intersect(
        spaces.closure_invariants(n), spaces.conjugation_invariants(n), spaces.budget
    )
    membership = []
    if n >= 4 and n % 2 == 0:
        target = spaces.closed_rotation_span(n)
        for label, element in _area_products(d, n):
            membership.append((label, member_tensor(element, target)))
    return ConjectureEvidence(
        d=d,
        level=n,
        loop_dim=loop_dim,
        s_plus_area_conj_dim=s_plus.dim,
        loop_matches_s_plus_area_conj=loop_dim == s_plus.dim,
        closure_conj_intersection_dim=meet.dim,
        area_product_membership=tuple(membership),
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
