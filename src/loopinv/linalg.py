"""Exact sparse linear algebra over the word basis of one level.

Rows are sparse maps from word indices (base-d encoding of the letter
sequence) to coefficients.  Internally every row is a content-stripped
integer row ``{index: int}``: elimination cross-multiplies and divides by
the gcd, so no rational is formed.  Subspaces store their reduced row
echelon form scaled to coprime integer rows with positive pivots, which is
canonical: two subspaces are equal exactly when their stored rows are
identical.

Raw input rows ``{index: int or rational}`` are cleared of denominators
on entry.  :class:`~loopinv.tensor.TensorElement` is the one rational
boundary form: :func:`span_tensors` and :func:`member_tensor` take
homogeneous elements, and :meth:`Subspace.basis_tensors` exports each
stored row divided by its pivot.

A dimension identity that a result must satisfy (rank-nullity, the
dimension formula of an intersection) is checked on every call and
raises :class:`CrossCheckError` when it fails.

Ranks alone may be taken modulo a prime (:func:`_modular_rank`), which
reads its dense rows as they stream, keeps none of them and bounds the
rank over Q from below.  Where the prime falls short, the caller reads
the rows again for the exact rank (:func:`span`), so no answer depends
on the prime.

The dense steps pack a vector into one int, a slot of w bits per entry,
so one big-int operation does a row's work.  One pairing test,
:func:`_pairs_to_zero`, serves :func:`orthogonal`, the proof of the
closure table and the loop certificate, with slots wider than any dot
product it forms: a sparse row is read against the family packed by
column, a dense row against it packed by position
(:func:`_packed_by_column`).  :func:`_modular_rank` packs residues
modulo p into 64-bit slots.  The slot bytes are read and written here
only (:func:`_pack`, :func:`_signed_slots`).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from bisect import insort
from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd, isnan, lcm
from operator import mul
from typing import Iterable, Sequence

from ._rat import Q
from .tensor import TensorElement


class CrossCheckError(RuntimeError):
    """A space disagreed with an independent description of it."""


class BudgetExceeded(Exception):
    """A wall-clock or coefficient-size budget was hit mid-computation.

    ``space`` is the memo key of the innermost invariant space being built.
    """

    space = None


class Budget:
    """Optional guard threaded through the heavy loops.

    ``seconds`` bounds wall-clock time from construction, ``max_bits``
    bounds the bit size of any integer produced during elimination (every
    combined row is checked when a budget is set).  Either is None or an
    int or float: a bool or anything else raises TypeError, and a NaN,
    which compares false and so would bound nothing, raises ValueError.
    """

    def __init__(self, seconds: float | None = None, max_bits: int | None = None):
        for name, value in (("seconds", seconds), ("max_bits", max_bits)):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError("budget %s must be an int or a float, got %r" % (name, value))
            if isinstance(value, float) and isnan(value):
                raise ValueError("budget %s must be a number, not nan" % name)
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


class Subspace:
    """A linear subspace of one level, stored as a canonical RREF basis:
    ``rows[i]`` has coprime integer coefficients and a positive entry in
    column ``pivots[i]``, where no other row has a nonzero."""

    __slots__ = ("d", "n", "pivots", "rows")

    def __init__(self, d: int, n: int, pivots: Sequence[int], rows: Sequence[dict]):
        self.d = d
        self.n = n
        self.pivots = tuple(pivots)
        self.rows = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_tensors(self) -> list[TensorElement]:
        """The stored rows divided by their pivots (pivot entries 1)."""
        d, n = self.d, self.n
        return [
            TensorElement(d, {index_word(k, d, n): Q(v, row[p]) for k, v in row.items()})
            for p, row in zip(self.pivots, self.rows)
        ]

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
    """Clear denominators and strip the content of a nonzero sparse row.

    A row of ints (the internal form) is only stripped, in place.  A float
    or a bool raises TypeError: a bool would read as the int 0 or 1.
    """
    if all(type(v) is int for v in entries.values()):
        _strip_content(entries)
        return entries
    if any(isinstance(v, (float, bool)) for v in entries.values()):
        raise TypeError("exact coefficients expected, got a float or a bool")
    scale = lcm(*(int(v.denominator) for v in entries.values()))
    row = {k: int(v.numerator) * (scale // int(v.denominator)) for k, v in entries.items()}
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


def _check_bits(row: dict[int, int], budget: Budget) -> None:
    budget.check(max((abs(v).bit_length() for v in row.values()), default=0))


def _eliminate(rows: list[dict[int, int]], budget: Budget | None = None):
    """Gauss-Jordan on integer rows; returns [(pivot_col, row), ...].

    Pivot choice per the module contract: globally smallest leading
    column first, then the candidate row whose leading entry has smallest
    magnitude, ties broken by insertion order.  A forward pass produces
    the echelon rows, a backward sweep clears pivot columns above and
    makes each pivot positive, so the output is the canonical reduced form
    sorted by pivot column.  The input rows are consumed.

    The open leading columns are kept in a heap as well.  A row combined
    at col leads past it, as col cancels and the pivot row has no entry
    before it, so every key pushed is larger than every key popped.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = list(buckets)
    heapify(heap)
    echelon: list[tuple[int, dict[int, int]]] = []
    while heap:
        col = heappop(heap)
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
                if budget is not None:
                    _check_bits(r, budget)
                lead = min(r)
                if lead not in buckets:
                    heappush(heap, lead)
                buckets.setdefault(lead, []).append(r)
        echelon.append((col, pivot_row))
    # Backward sweep.  Finished rows contain no pivot columns besides
    # their own, so eliminating the hits found up front is complete.
    pivot_cols = {col for col, _ in echelon}
    by_col = dict(echelon)
    for i in range(len(echelon) - 1, -1, -1):
        col_i, row_i = echelon[i]
        hits = [c for c in row_i if c != col_i and c in pivot_cols]
        for c in sorted(hits, reverse=True):
            _combine(row_i, by_col[c], c)
            if budget is not None:
                _check_bits(row_i, budget)
        if row_i[col_i] < 0:
            for k in row_i:
                row_i[k] = -row_i[k]
    return echelon


def _subspace(d: int, n: int, echelon) -> Subspace:
    return Subspace(d, n, [col for col, _ in echelon], [row for _, row in echelon])


def _int_rows(d: int, n: int, rows: Iterable[dict], budget: Budget | None, where: str):
    """Yield the integer rows of the nonzero raw rows ``{index: int or
    rational}``, one at a time, indices range-checked and zeros dropped.
    The budget is checked per input, so lazily generated input is bounded."""
    size = d**n
    for v in rows:
        if budget is not None:
            budget.check()
        if v and (min(v) < 0 or max(v) >= size):
            raise ValueError("row index outside level of size %d in %s" % (size, where))
        entries = {k: c for k, c in v.items() if c or c is False}
        if entries:
            yield _int_row(entries)


def _tensor_row(x: TensorElement, d: int, n: int) -> dict[int, int]:
    """Integer row of an element of level n over d letters."""
    if x.d != d:
        raise ValueError("element over %d letters in a level over %d" % (x.d, d))
    if not x.is_homogeneous(n):
        raise ValueError("element is not homogeneous of level %d" % n)
    return _int_row({word_index(w.letters, d): c for w, c in x.items()})


def span(d: int, n: int, rows: Iterable[dict], budget: Budget | None = None) -> Subspace:
    """Canonical RREF basis of the span of the given raw rows."""
    return _subspace(d, n, _eliminate(list(_int_rows(d, n, rows, budget, "span")), budget))


def span_tensors(d: int, n: int, elements: Iterable[TensorElement], budget: Budget | None = None) -> Subspace:
    """Canonical RREF basis of the span of elements of level n."""
    return span(d, n, (_tensor_row(x, d, n) for x in elements), budget)


def _null_space(
    d: int, n: int, reduced, budget: Budget | None, columns: Sequence[int] | None = None
) -> Subspace:
    """Joint kernel of rows in reduced echelon form, among the vectors
    supported on ``columns`` (every word by default; the rows may have no
    entry outside them): one null vector per free column f, scaled by the
    lcm of the pivots of the rows hitting f."""
    reduced = list(reduced)
    pivot_set = {col for col, _ in reduced}
    hits_at: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for col, row in reduced:
        for k in row:
            if k != col:
                hits_at.setdefault(k, []).append((col, row))
    if columns is None:
        columns = range(d**n)
    elif not pivot_set.union(hits_at) <= set(columns):
        raise ValueError("kernel row with an entry outside the given columns")
    null_rows = []
    for f in columns:
        if f not in pivot_set:
            hits = hits_at.get(f, ())
            scale = lcm(*(row[col] for col, row in hits))
            vec = {col: -row[f] * (scale // row[col]) for col, row in hits}
            vec[f] = scale
            _strip_content(vec)
            null_rows.append(vec)
    free = len(null_rows)
    if len(reduced) + free != len(columns):
        raise CrossCheckError("kernel violates rank-nullity at d=%d, n=%d" % (d, n))
    out = _subspace(d, n, _eliminate(null_rows, budget))
    if out.dim != free:
        raise CrossCheckError("null vectors are dependent at d=%d, n=%d" % (d, n))
    return out


def kernel(
    d: int, n: int, constraint_rows: Iterable[dict], budget: Budget | None = None,
    columns: Sequence[int] | None = None,
) -> Subspace:
    """Basis of the joint kernel {x : <row, x> = 0 for every row}.

    With ``columns``, the kernel among vectors supported on those word
    indices; every row must then lie on them too.
    """
    rows = list(_int_rows(d, n, constraint_rows, budget, "kernel"))
    return _null_space(d, n, _eliminate(rows, budget), budget, columns)


# the prime of the modular ranks: below 2**15, so that a reduction step
# adds less than p**2 < 2**30 to a 64-bit slot
_PRIME = 32749


def _pack(values: array) -> int:
    """The entries of an 8-byte array, read unsigned, as the 64-bit slots
    of one int, the first lowest."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return int.from_bytes(values.tobytes(), "little")


def _signed_slots(row: Sequence[int], bits: int) -> int:
    """sum_j row[j] 2^(bits j) for a dense row whose entries fit signed
    slots of ``bits`` bits.  At 64 bits an ``array('q')`` row is read from
    its bytes, unsigned, and its signs restored at once: a slot u with its
    top bit set stands for u - 2^64, so the row is U - 2 (U & H), H the
    top bit of every slot."""
    if bits != 64 or isinstance(row, list):
        return functools.reduce(lambda acc, x: (acc << bits) + x, reversed(row), 0)
    u = _pack(row)
    return u - ((u & int.from_bytes((bytes(7) + b"\x80") * len(row), "little")) << 1)


def _modular_rank(
    rows: Iterable[Sequence[int]], width: int, stop: int | None, budget: Budget | None = None,
) -> int:
    """The rank modulo a prime of dense integer rows of ``width`` entries;
    a row of another length raises ValueError.

    The rows join an echelon form modulo the prime one at a time, and no
    row is read once the rank reaches ``stop`` (None: never), so none at
    all for 0.  No row is kept.  A minor that is nonzero modulo p is a
    nonzero integer, so the rank modulo p never exceeds the rank over Q.
    The budget is checked once per row read.

    A row modulo p is one int with a 64-bit slot per column.  An echelon
    row y, with a 1 at its pivot, is stored from the pivot on as p - y, in
    [1, p] per slot, so a reduction step is x += f * (p - y) with f the
    slot of x at the pivot modulo p: it adds less than p^2 < 2^30 to each
    slot, so a slot, read modulo p only to find a pivot, stays below
    p + rank * p^2, under 2^64 for fewer than 2^33 columns.
    """
    if stop == 0:
        return 0
    p = _PRIME
    # pivot position -> the packed echelon row, zero below its pivot
    echelon: dict[int, int] = {}
    pivots: list[int] = []
    for row in rows:
        if budget is not None:
            budget.check()
        if len(row) != width:
            raise ValueError("dense rank row of %d entries for %d columns" % (len(row), width))
        x = _pack(array("Q", map(p.__rmod__, row)))
        for lead in pivots:
            f = ((x >> 64 * lead) & 0xFFFFFFFFFFFFFFFF) % p
            if f:
                x += f * echelon[lead]
        slots = array("Q", x.to_bytes(8 * width, "little"))
        if sys.byteorder == "big":
            slots.byteswap()
        lead = next((i for i, v in enumerate(slots) if v % p), None)
        if lead is not None:
            inverse = pow(slots[lead], -1, p)
            tail = array("Q", [p - v * inverse % p for v in slots[lead:]])
            echelon[lead] = _pack(tail) << 64 * lead
            insort(pivots, lead)
            if len(pivots) == stop:
                break
    return len(pivots)


def orthogonal_complement(s: Subspace, budget: Budget | None = None) -> Subspace:
    """Complement with respect to the word-basis inner product."""
    return _null_space(s.d, s.n, zip(s.pivots, s.rows), budget)


def subspace_sum(a: Subspace, b: Subspace, budget: Budget | None = None) -> Subspace:
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError("subspace shape mismatch")
    return _subspace(a.d, a.n, _eliminate([dict(r) for r in a.rows + b.rows], budget))


def intersect(a: Subspace, b: Subspace, budget: Budget | None = None) -> Subspace:
    """Intersection, computed via one primitive: (a^perp + b^perp)^perp."""
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError("subspace shape mismatch")
    out = orthogonal_complement(
        subspace_sum(orthogonal_complement(a, budget), orthogonal_complement(b, budget), budget),
        budget,
    )
    if out.dim != a.dim + b.dim - subspace_sum(a, b, budget).dim:
        raise CrossCheckError(
            "intersection violates the dimension formula at d=%d, n=%d" % (a.d, a.n)
        )
    return out


def _reduces_to_zero(r: dict[int, int], by_col: dict[int, dict[int, int]]) -> bool:
    """Reduce the integer row r in place against reduced echelon rows keyed
    by pivot column; True iff nothing remains.

    Reducing against a reduced echelon form clears each pivot column the
    row hits once, and no step brings in another pivot column.
    """
    for c in [c for c in r if c in by_col]:
        _combine(r, by_col[c], c)
    return not r


def member_tensor(x: TensorElement, s: Subspace, budget: Budget | None = None) -> bool:
    """True iff the element x of level s.n lies in s; the budget is checked
    once, before the reduction."""
    if budget is not None:
        budget.check()
    return _reduces_to_zero(_tensor_row(x, s.d, s.n), dict(zip(s.pivots, s.rows)))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff every stored row of inner reduces to zero against outer."""
    if (outer.d, outer.n) != (inner.d, inner.n):
        raise ValueError("subspace shape mismatch")
    by_col = dict(zip(outer.pivots, outer.rows))
    return all(_reduces_to_zero(dict(row), by_col) for row in inner.rows)


def _pairs_to_zero(pack, largest: int, rows: Iterable) -> bool:
    """True iff every integer row c pairs to zero with every vector v_i of
    a family whose entries are at most ``largest`` in size.

    pack(b) returns a slot width B >= b and the family packed by column,
    P[k] = sum_i v_i[k] 2^(B i), so slot i of sum_k c_k P[k] is the dot
    product of c with v_i, at most largest * sum_k |c_k| in size.  For b
    the bit length of that bound every slot is below 2^B, so the sum is
    zero exactly when every slot is: the lowest nonzero slot leaves a
    nonzero remainder modulo the slot above it.  The family is packed
    again only when a row needs a wider slot.  A row is a dict {k: c_k}
    read against P keyed by column, or a dense sequence read against the
    list P position by position, which must have its length (else
    ValueError).  Each row is paired as it is drawn, and no row is drawn
    after one that pairs to a nonzero.
    """
    bits = -1
    for row in rows:
        dense = not isinstance(row, dict)
        need = (largest * sum(map(abs, row if dense else row.values()))).bit_length()
        if need > bits:
            bits, packed = pack(need)
        if dense:
            if len(row) != len(packed):
                raise ValueError("dense row of %d entries against %d columns" % (len(row), len(packed)))
            paired = sum(map(mul, row, packed))
        else:
            paired = sum(c * packed[k] for k, c in row.items())
        if paired:
            return False
    return True


def _packed_by_column(family: Sequence[dict[int, int]], position: dict[int, int] | None = None):
    """The pack function and the largest entry size that
    :func:`_pairs_to_zero` reads for the integer rows of ``family``: P[k]
    keyed by column k, a column the family misses zero, or, given the
    position of every column of the family, a list by position."""
    largest = max((max(map(abs, row.values())) for row in family), default=0)

    def pack(bits: int):
        columns = defaultdict(int) if position is None else [0] * len(position)
        for i, stored in enumerate(family):
            for k, v in stored.items():
                columns[k if position is None else position[k]] += v << bits * i
        return bits, columns

    return pack, largest


def orthogonal(d: int, n: int, family: Sequence[dict[int, int]], rows: Iterable[dict],
               budget: Budget | None = None) -> bool:
    """True iff every raw row of level n pairs to zero with every integer
    row of ``family`` (:func:`_pairs_to_zero` on the family packed by
    column); the budget is checked once per row."""
    pack, largest = _packed_by_column(family)
    return _pairs_to_zero(pack, largest, _int_rows(d, n, rows, budget, "orthogonal"))
