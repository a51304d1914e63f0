"""Exact sparse linear algebra over the word basis of one level.

Vectors are sparse maps from word indices (base-d encoding of the letter
sequence) to rationals.  Subspaces are kept in reduced row echelon form,
which is canonical: two subspaces are equal exactly when their stored
rows are identical, and re-reducing a basis reproduces it verbatim.

Elimination runs on content-stripped integer rows (cross-multiply then
divide by the gcd) so coefficient growth stays tame; rows are only
converted back to rationals when pivots are normalized to 1 at the end.
"""

from __future__ import annotations

import time
from math import gcd
from typing import Iterable, Sequence

from ._rat import Q, exact
from .tensor import TensorElement


class BudgetExceeded(Exception):
    """A wall-clock or coefficient-size budget was hit mid-computation."""


class Budget:
    """Optional guard threaded through the heavy loops.

    ``seconds`` bounds wall-clock time from construction, ``max_bits``
    bounds the bit size of any integer produced during elimination.
    """

    def __init__(self, seconds: float | None = None, max_bits: int | None = None):
        self.seconds = seconds
        self.max_bits = max_bits
        self._start = time.monotonic()

    def check(self, bits: int = 0) -> None:
        if self.max_bits is not None and bits > self.max_bits:
            raise BudgetExceeded("coefficient size %d bits exceeds budget" % bits)
        if self.seconds is not None and time.monotonic() - self._start > self.seconds:
            raise BudgetExceeded("time budget of %gs exceeded" % self.seconds)


def word_index(letters: Sequence[int], d: int) -> int:
    """Position of a word among all words of its length, lexicographically."""
    idx = 0
    for a in letters:
        idx = idx * d + (a - 1)
    return idx


def index_word(idx: int, d: int, n: int) -> tuple[int, ...]:
    letters = [0] * n
    for i in range(n - 1, -1, -1):
        idx, r = divmod(idx, d)
        letters[i] = r + 1
    return tuple(letters)


class LevelVector:
    """Sparse coordinate vector of a homogeneous tensor element."""

    __slots__ = ("d", "n", "entries")

    def __init__(self, d: int, n: int, entries):
        self.d = d
        self.n = n
        size = d**n
        data = {}
        for idx, value in entries.items() if hasattr(entries, "items") else entries:
            if not 0 <= idx < size:
                raise ValueError("word index %d outside level of size %d" % (idx, size))
            value = exact(value)
            if value:
                data[idx] = value
        self.entries = data

    @classmethod
    def from_tensor(cls, x: TensorElement, n: int | None = None) -> "LevelVector":
        if n is None:
            n = x.max_level
            if n < 0:
                raise ValueError("cannot infer the level of the zero element")
        if not x.is_homogeneous(n):
            raise ValueError("element is not homogeneous of level %d" % n)
        return cls(
            x.d, n, {word_index(w.letters, x.d): c for w, c in x.items()}
        )

    def to_tensor(self) -> TensorElement:
        return TensorElement(
            self.d, {index_word(i, self.d, self.n): c for i, c in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelVector)
            and (self.d, self.n) == (other.d, other.n)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return "LevelVector(d=%d, n=%d, %d nonzeros)" % (self.d, self.n, len(self.entries))


class Subspace:
    """A linear subspace of one level, stored as a canonical RREF basis."""

    __slots__ = ("d", "n", "pivots", "rows")

    def __init__(self, d: int, n: int, pivots: Sequence[int], rows: Sequence[dict]):
        self.d = d
        self.n = n
        self.pivots = tuple(pivots)
        self.rows = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> list[LevelVector]:
        return [LevelVector(self.d, self.n, dict(row)) for row in self.rows]

    def basis_tensors(self) -> list[TensorElement]:
        return [v.to_tensor() for v in self.basis_vectors()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.d, self.n) == (other.d, other.n)
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return "Subspace(d=%d, n=%d, dim=%d)" % (self.d, self.n, self.dim)


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _int_row(entries: dict[int, object]) -> dict[int, int]:
    """Clear denominators and strip the content of a rational sparse row."""
    lcm = 1
    for v in entries.values():
        den = v.denominator
        lcm = lcm // gcd(lcm, den) * den
    row = {k: int(v.numerator) * (lcm // int(v.denominator)) for k, v in entries.items()}
    _strip_content(row)
    return row


def _combine(r: dict[int, int], pivot_row: dict[int, int], col: int) -> None:
    """r := p * r - f * pivot_row with p = pivot_row[col], f = r[col].

    Cancels column col exactly; the result is content-stripped.
    """
    f = r.pop(col)
    p = pivot_row[col]
    if p != 1:
        for k in r:
            r[k] *= p
    for k, v in pivot_row.items():
        if k == col:
            continue
        new = r.get(k, 0) - f * v
        if new:
            r[k] = new
        else:
            r.pop(k, None)
    _strip_content(r)


def _eliminate(rows: list[dict[int, int]], budget: Budget | None = None):
    """Gauss-Jordan on integer rows; returns [(pivot_col, row), ...].

    Pivot choice per the module contract: globally smallest leading
    column first, then the candidate row whose leading entry has smallest
    magnitude, ties broken by insertion order.  A forward pass produces
    the echelon rows, a backward sweep clears pivot columns above, so the
    output is the canonical reduced form sorted by pivot column.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    echelon: list[tuple[int, dict[int, int]]] = []
    while buckets:
        col = min(buckets)
        group = buckets.pop(col)
        best = 0
        best_mag = abs(group[0][col])
        for i in range(1, len(group)):
            mag = abs(group[i][col])
            if mag < best_mag:
                best, best_mag = i, mag
        pivot_row = group.pop(best)
        if budget is not None:
            budget.check(best_mag.bit_length())
        for r in group:
            _combine(r, pivot_row, col)
            if r:
                buckets.setdefault(min(r), []).append(r)
        echelon.append((col, pivot_row))
    # Backward sweep.  Finished rows contain no pivot columns besides
    # their own, so eliminating the hits found up front is complete.
    pivot_cols = {col for col, _ in echelon}
    by_col = dict(echelon)
    for i in range(len(echelon) - 2, -1, -1):
        col_i, row_i = echelon[i]
        hits = [c for c in row_i if c != col_i and c in pivot_cols]
        for c in sorted(hits, reverse=True):
            _combine(row_i, by_col[c], c)
    return echelon


def _normalize(done) -> tuple[tuple[int, ...], tuple[dict, ...]]:
    pivots = tuple(col for col, _ in done)
    rows = tuple(
        {k: Q(v, row[col]) for k, v in row.items()} for col, row in done
    )
    return pivots, rows


def _int_rows(
    d: int, n: int, vectors: Iterable[LevelVector], budget: Budget | None, where: str
) -> list[dict[int, int]]:
    """Integer rows of the nonzero vectors; the budget is checked per vector,
    so lazily generated input is bounded too."""
    rows = []
    for v in vectors:
        if budget is not None:
            budget.check()
        if (v.d, v.n) != (d, n):
            raise ValueError(
                "vector of shape (%d, %d) in %s of (%d, %d)" % (v.d, v.n, where, d, n)
            )
        if v.entries:
            rows.append(_int_row(v.entries))
    return rows


def span(d: int, n: int, vectors: Iterable[LevelVector], budget: Budget | None = None) -> Subspace:
    """Canonical RREF basis of the span of the given vectors."""
    rows = _int_rows(d, n, vectors, budget, "span")
    pivots, out = _normalize(_eliminate(rows, budget))
    return Subspace(d, n, pivots, out)


def span_tensors(d: int, n: int, elements: Iterable[TensorElement], budget: Budget | None = None) -> Subspace:
    return span(d, n, (LevelVector.from_tensor(x, n) for x in elements), budget)


def kernel(
    d: int, n: int, constraint_rows: Iterable[LevelVector], budget: Budget | None = None
) -> Subspace:
    """Basis of the joint kernel {x : <row, x> = 0 for every row}."""
    rows = _int_rows(d, n, constraint_rows, budget, "kernel")
    reduced = _eliminate(rows, budget)
    size = d**n
    rank = len(reduced)
    pivot_set = {col for col, _ in reduced}
    free_cols = [c for c in range(size) if c not in pivot_set]
    assert rank + len(free_cols) == size, "rank-nullity violated"
    kernel_rows = []
    for f in free_cols:
        vec = {f: Q(1)}
        for col, row in reduced:
            v = row.get(f)
            if v is not None:
                vec[col] = Q(-v, row[col])
        kernel_rows.append(LevelVector(d, n, vec))
    out = span(d, n, kernel_rows, budget)
    assert out.dim == len(free_cols)
    return out


def orthogonal_complement(s: Subspace, budget: Budget | None = None) -> Subspace:
    """Complement with respect to the word-basis inner product."""
    out = kernel(s.d, s.n, s.basis_vectors(), budget)
    assert s.dim + out.dim == s.d**s.n
    return out


def subspace_sum(a: Subspace, b: Subspace, budget: Budget | None = None) -> Subspace:
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError("subspace shape mismatch")
    return span(a.d, a.n, list(a.basis_vectors()) + list(b.basis_vectors()), budget)


def intersect(a: Subspace, b: Subspace, budget: Budget | None = None) -> Subspace:
    """Intersection, computed via one primitive: (a^perp + b^perp)^perp."""
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError("subspace shape mismatch")
    out = orthogonal_complement(
        subspace_sum(orthogonal_complement(a, budget), orthogonal_complement(b, budget), budget),
        budget,
    )
    assert out.dim == a.dim + b.dim - subspace_sum(a, b, budget).dim
    return out


def reduce_vector(x: LevelVector, s: Subspace) -> LevelVector:
    """Remainder of x after elimination against the subspace rows."""
    if (x.d, x.n) != (s.d, s.n):
        raise ValueError("vector/subspace shape mismatch")
    entries = dict(x.entries)
    for pivot, row in zip(s.pivots, s.rows):
        f = entries.get(pivot)
        if not f:
            continue
        for k, v in row.items():
            new = entries.get(k, 0) - f * v
            if new:
                entries[k] = new
            else:
                entries.pop(k, None)
    return LevelVector(x.d, x.n, entries)


def member(x: LevelVector, s: Subspace) -> bool:
    """True iff x reduces to zero against the subspace rows."""
    return reduce_vector(x, s).is_zero()


def member_tensor(x: TensorElement, s: Subspace) -> bool:
    return member(LevelVector.from_tensor(x, s.n), s)


def contains(outer: Subspace, inner: Subspace) -> bool:
    return all(member(v, outer) for v in inner.basis_vectors())
