"""Construction of the invariant subspaces and their dimension tables.

Each space is computed by two independent routes whenever the theory
provides them, and the routes are asserted equal:

* conjugation invariants: span of rotation sums over necklaces, and the
  kernel of all letter-bracket constraints ``<[i, q], x> = 0``;
* the zero-increment space V: orthogonal complement of the letter
  shuffle ideal S, and the span of products of non-letter Lyndon
  bracketings (a PBW spanning set), with the dimension checked against
  the generating-series coefficient of (1-q)^d / (1-dq);
* loop invariants: orthogonal complement of [V, letters], and the kernel
  of (right closure - left closure);
* letter-reduced conjugation invariants: a quotient-dimension formula
  and the rank of right-closed rotation sums.

A failed cross-check raises :class:`CrossCheckError`; budget overruns
raise :class:`~loopinv.linalg.BudgetExceeded` and leave the caches
untouched for the completed cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ._rat import Q
from .linalg import (
    Budget,
    LevelVector,
    Subspace,
    contains,
    intersect,
    kernel,
    member_tensor,
    orthogonal_complement,
    span,
    span_tensors,
    subspace_sum,
    word_index,
)
from .tensor import (
    TensorElement,
    concat,
    lyndon_bracketing,
    right_closure,
    rotation_sum,
    shuffle,
)
from .words import Word, all_words, lyndon_count, lyndon_words, necklaces
from . import tensor as _tensor


class CrossCheckError(RuntimeError):
    """Two independent routes to the same space disagreed."""


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
        "conjugation",
        "logsignature",
        "V_n",
        "bracket_VR",
        "letter_reduced_conj",
        "letter_reduced_loop",
        "closure",
        "loop",
        "S_n",
        "min_generators",
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


class InvariantSpaces:
    """Memoized per-alphabet pipeline of all invariant subspaces.

    Values are immutable once computed.  The memo is single-threaded.  An
    optional :class:`~loopinv.linalg.Budget` in :attr:`budget` bounds the
    heavy loops; a build it interrupts stores nothing.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        self.d = d
        self.budget: Budget | None = None
        self._memo: dict = {}

    # -- plumbing -------------------------------------------------------

    def set_budget(self, budget: Budget | None) -> None:
        self.budget = budget

    def _check_budget(self) -> None:
        if self.budget is not None:
            self.budget.check()

    def _cached(self, key, fn: Callable):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def _full_space(self, n: int) -> Subspace:
        return kernel(self.d, n, [], self.budget)

    # -- constraint-row generators ---------------------------------------

    def _letter_bracket_rows(self, n: int) -> list[LevelVector]:
        """Coordinate vectors of [i, q] for letters i and words q of length n-1."""
        d = self.d
        rows = []
        dm = d ** (n - 1)
        for i in range(d):
            for q in range(dm):
                left = i * dm + q  # index of i q
                right = q * d + i  # index of q i
                if left != right:
                    rows.append(LevelVector(d, n, {left: Q(1), right: Q(-1)}))
        return rows

    def _letter_shuffle_rows(self, n: int) -> list[LevelVector]:
        """Coordinate vectors of i shuffled with u, |u| = n - 1."""
        d = self.d
        rows = []
        for i in range(1, d + 1):
            for u in all_words(d, n - 1):
                data: dict[tuple[int, ...], object] = {}
                _tensor._shuffle_words_into(data, (i,), u, Q(1))
                rows.append(
                    LevelVector(
                        d, n, {word_index(w, d): c for w, c in data.items()}
                    )
                )
        return rows

    # -- spaces -----------------------------------------------------------

    def conjugation_invariants(self, n: int) -> Subspace:
        """Span of rotation sums over necklaces == bracket-constraint kernel."""

        def build():
            via_rotations = span_tensors(
                self.d,
                n,
                (rotation_sum(w) for w in necklaces(self.d, n)),
                self.budget,
            )
            via_kernel = kernel(self.d, n, self._letter_bracket_rows(n), self.budget)
            if via_rotations != via_kernel:
                raise CrossCheckError(
                    "conjugation invariants disagree between rotation span and "
                    "bracket kernel at d=%d, n=%d" % (self.d, n)
                )
            return via_rotations

        return self._cached(("conj", n), build)

    def letter_shuffle_ideal(self, n: int) -> Subspace:
        """Degree-n part of the shuffle ideal generated by the letters."""

        def build():
            return span(self.d, n, self._letter_shuffle_rows(n), self.budget)

        return self._cached(("S", n), build)

    def zero_increment_space(self, n: int) -> Subspace:
        """The level-n span of zero-increment grouplike elements.

        Route A is the orthogonal complement of the letter shuffle ideal;
        route B spans products of non-letter Lyndon bracketings.  Both are
        computed, compared, and checked against the generating series.
        """

        def build():
            if n == 0:
                return self._full_space(0)
            complement = orthogonal_complement(self.letter_shuffle_ideal(n), self.budget)
            products = span_tensors(self.d, n, self._pbw_products(n), self.budget)
            if complement != products:
                raise CrossCheckError(
                    "zero-increment space disagrees between shuffle-ideal "
                    "complement and PBW span at d=%d, n=%d" % (self.d, n)
                )
            expected = zero_increment_series_dim(self.d, n)
            if complement.dim != expected:
                raise CrossCheckError(
                    "dim V mismatch with generating series at d=%d, n=%d: %d != %d"
                    % (self.d, n, complement.dim, expected)
                )
            return complement

        return self._cached(("V", n), build)

    def _pbw_products(self, n: int) -> list[TensorElement]:
        """Concatenation products of non-letter Lyndon bracketings.

        One product per weakly increasing (in lexicographic order) tuple of
        non-letter Lyndon words with lengths summing to n.
        """
        elements = [
            LieBasisElement.for_word(w)
            for k in range(2, n + 1)
            for w in lyndon_words(self.d, k)
        ]
        elements.sort(key=lambda e: e.lyndon.letters)
        basis = [e.lyndon.letters for e in elements]
        polys = {e.lyndon.letters: e.expansion for e in elements}
        out: list[TensorElement] = []

        def extend(start: int, remaining: int, acc: TensorElement | None):
            self._check_budget()
            if remaining == 0:
                out.append(acc)
                return
            for i in range(start, len(basis)):
                w = basis[i]
                if len(w) > remaining:
                    continue
                nxt = polys[w] if acc is None else concat(acc, polys[w])
                extend(i, remaining - len(w), nxt)

        extend(0, n, None)
        return out

    def bracket_with_letters(self, s: Subspace) -> Subspace:
        """Span of [b, letter] over basis rows b; lives one level up."""
        d = self.d
        n = s.n + 1
        dm = d**s.n
        rows = []
        for row in s.rows:
            for i in range(d):
                entries: dict[int, object] = {}
                for idx, c in row.items():
                    for j, sgn in ((idx * d + i, 1), (i * dm + idx, -1)):
                        new = entries.get(j, 0) + sgn * c
                        if new:
                            entries[j] = new
                        else:
                            del entries[j]
                rows.append(LevelVector(d, n, entries))
        return span(d, n, rows, self.budget)

    def bracket_zero_increment(self, n: int) -> Subspace:
        """[V at level n-1, letters], the loop-invariant constraint space."""

        def build():
            return self.bracket_with_letters(self.zero_increment_space(n - 1))

        return self._cached(("bracketV", n), build)

    def loop_invariants(self, n: int) -> Subspace:
        """Orthogonal complement of [V, letters] == kernel of (rcl - lcl)."""

        def build():
            via_bracket = orthogonal_complement(self.bracket_zero_increment(n), self.budget)
            via_closures = kernel(
                self.d, n, self._closure_difference_rows(n), self.budget
            )
            if via_bracket != via_closures:
                raise CrossCheckError(
                    "loop invariants disagree between bracket complement and "
                    "closure-difference kernel at d=%d, n=%d" % (self.d, n)
                )
            return via_bracket

        return self._cached(("loop", n), build)

    def _closure_difference_rows(self, n: int) -> list[LevelVector]:
        """Rows of the matrix of (right closure - left closure) on level n."""
        d = self.d
        by_output: dict[tuple[int, ...], dict[int, object]] = {}
        for w in all_words(d, n):
            self._check_budget()
            col = word_index(w, d)
            rcl_w = _tensor._rcl_word(w)
            lcl_rev = _tensor._rcl_word(w[::-1])
            diff: dict[tuple[int, ...], object] = dict(rcl_w)
            for out_w, c in lcl_rev.items():
                key = out_w[::-1]
                new = diff.get(key, 0) - c
                if new:
                    diff[key] = new
                else:
                    diff.pop(key, None)
            for out_w, c in diff.items():
                by_output.setdefault(out_w, {})[col] = c
        return [LevelVector(d, n, entries) for entries in by_output.values()]

    def closure_invariants(self, n: int) -> Subspace:
        """Image of the right closure on level n.

        The dimension must match dim V, and together with the letter
        shuffle ideal the image must fill the level (the closure is a
        projection along S).
        """

        def build():
            d = self.d
            vectors = []
            for w in all_words(d, n):
                self._check_budget()
                entries = {
                    word_index(out_w, d): c for out_w, c in _tensor._rcl_word(w).items()
                }
                if entries:
                    vectors.append(LevelVector(d, n, entries))
            image = span(d, n, vectors, self.budget)
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

        return self._cached(("closure", n), build)

    def closed_rotation_span(self, n: int) -> Subspace:
        """Span of right-closed rotation sums over necklaces of length n."""

        def build():
            return span_tensors(
                self.d,
                n,
                (right_closure(rotation_sum(w)) for w in necklaces(self.d, n)),
                self.budget,
            )

        return self._cached(("rclrot", n), build)

    # -- dimensions -------------------------------------------------------

    def letter_reduced_loop_dim(self, n: int) -> int:
        return (
            self.zero_increment_space(n).dim - self.bracket_zero_increment(n).dim
        )

    def letter_reduced_conj_dim(self, n: int) -> int:
        """dim of V modulo [T, letters], cross-checked as a closed-rotation rank."""

        def build():
            bracket_full = span(self.d, n, self._letter_bracket_rows(n), self.budget)
            meet = intersect(bracket_full, self.zero_increment_space(n), self.budget)
            via_quotient = self.zero_increment_space(n).dim - meet.dim
            via_rank = self.closed_rotation_span(n).dim
            if via_quotient != via_rank:
                raise CrossCheckError(
                    "letter-reduced conjugation dimension disagrees between "
                    "quotient and rank routes at d=%d, n=%d" % (self.d, n)
                )
            return via_rank

        return self._cached(("lrconj", n), build)

    def closed_loop_span(self, n: int) -> Subspace:
        """Right closure of the loop invariants (the loop-and-closure space)."""

        def build():
            space = span_tensors(
                self.d,
                n,
                (right_closure(b) for b in self.loop_invariants(n).basis_tensors()),
                self.budget,
            )
            if space.dim != self.letter_reduced_loop_dim(n):
                raise CrossCheckError(
                    "closed loop invariants do not match the letter-reduced "
                    "loop dimension at d=%d, n=%d" % (self.d, n)
                )
            return space

        return self._cached(("rclloop", n), build)

    def min_generator_count(self, n: int, family: str = "conj") -> int:
        """Dimension of level n of a graded shuffle family modulo products.

        The decomposable part is the span of all shuffle products of two
        lower-level basis elements (the families are shuffle subalgebras, so
        pairs span every longer product).  family is "conj" or
        "loop_closure".
        """

        def basis_of(k: int) -> list[TensorElement]:
            if family == "conj":
                return self.conjugation_invariants(k).basis_tensors()
            if family == "loop_closure":
                return self.closed_loop_span(k).basis_tensors()
            raise ValueError("unknown family %r" % family)

        def build():
            products: list[TensorElement] = []
            for j in range(1, n // 2 + 1):
                left = basis_of(j)
                right = basis_of(n - j)
                if j < n - j:
                    pairs = itertools.product(left, right)
                else:
                    pairs = itertools.combinations_with_replacement(left, 2)
                for a, b in pairs:
                    self._check_budget()
                    products.append(shuffle(a, b))
            rank = span_tensors(self.d, n, products, self.budget).dim
            total = len(basis_of(n))
            assert rank <= total, "decomposables escaped the family"
            return total - rank

        return self._cached(("mingen", family, n), build)

    # -- reports ----------------------------------------------------------

    def report(self, n: int) -> InvariantReport:
        """All named dimensions at level n, with every cross-check run."""

        def build():
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

        return self._cached(("report", n), build)


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
    """Multiply a coefficient list by (1 - q^degree)^(-count), truncated."""
    if count > 0:
        factor = [0] * (top + 1)
        j = 0
        binom = 1
        while degree * j <= top:
            factor[degree * j] = binom
            binom = binom * (count + j) // (j + 1)
            j += 1
    else:
        factor = [0] * (top + 1)
        j = 0
        binom = 1
        while degree * j <= top and j <= -count:
            factor[degree * j] = binom if j % 2 == 0 else -binom
            binom = binom * (-count - j) // (j + 1)
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


def _word(d: int, text: str) -> TensorElement:
    return TensorElement.word(d, text)


def _rot(d: int, text: str) -> TensorElement:
    return rotation_sum(Word.from_string(text, d))


def _area(d: int, i: int, j: int) -> TensorElement:
    return TensorElement.word(d, (i, j)) - TensorElement.word(d, (j, i))


def _shuffle_all(parts: Sequence[TensorElement]) -> TensorElement:
    out = parts[0]
    for p in parts[1:]:
        out = shuffle(out, p)
    return out


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
    areas = [_area(d, i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    gens: dict[int, list[TensorElement]] = {}
    for k in range(1, n + 1):
        gens[k] = spaces.conjugation_invariants(k).basis_tensors()
    if n >= 2:
        gens[2] = gens[2] + areas
    parts: dict[int, Subspace] = {}
    for k in range(1, n + 1):
        elements = list(gens[k])
        for j in range(1, k):
            lower = parts[k - j]
            for g in gens[j]:
                elements.extend(shuffle(g, b) for b in lower.basis_tensors())
        parts[k] = span_tensors(d, k, elements, spaces.budget)
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
