"""Test oracles for the pipeline, which builds each level once per orbit
of letter contents: every space of a level built from the rows of all
contents at once, and the block of any one content built directly on that
content, with no renaming.  The dense kernels of ``linalg`` and of the
closure blocks have their entry-by-entry routes here too, and so do the
routes the pipeline replaced: conj as the span of rotation sums, a
dimension of a sum as the dimension of the eliminated sum, and each area
product of the evidence as a rational tensor element tested in a whole
level.

The closure rows come from ``tensor._rcl_word`` for every word, not from
the pipeline's closure blocks of canonical contents.  The oracle's
``bracketV`` is the span of the full rows of [V, letters]; the pipeline
keeps only its dimension, so it has no entry in :data:`METHODS`.
"""

import itertools
from bisect import insort

from loopinv import invariants, linalg, tensor
from loopinv.linalg import index_word, kernel, span, word_index
from loopinv.words import lyndon_words, necklaces, rotations

# oracle space name -> InvariantSpaces method
METHODS = {
    "conj": "conjugation_invariants",
    "S": "letter_shuffle_ideal",
    "V": "zero_increment_space",
    "loop": "loop_invariants",
    "closure": "closure_invariants",
    "rclrot": "closed_rotation_span",
}


def orthogonal(d, n, family, rows):
    """linalg.orthogonal entry by entry: each row's dot product with every
    row of the family that shares a column with it."""
    by_col = {}
    for i, stored in enumerate(family):
        for k, v in stored.items():
            by_col.setdefault(k, []).append((i, v))
    for row in linalg._int_rows(d, n, rows, None, "orthogonal"):
        dots = {}
        for k, c in row.items():
            for i, v in by_col.get(k, ()):
                dots[i] = dots.get(i, 0) + c * v
        if any(dots.values()):
            return False
    return True


def modular_rank(rows, stop):
    """linalg._modular_rank on lists, modulo linalg._PRIME as it is at the
    call: each echelon row is kept from its pivot on with a 1 there."""
    if stop == 0:
        return 0
    p = linalg._PRIME
    echelon, pivots = {}, []
    for row in rows:
        dense = [x % p for x in row]
        for lead in pivots:
            f = dense[lead]
            if f:
                dense[lead:] = [(x - f * y) % p for x, y in zip(dense[lead:], echelon[lead])]
        lead = next((i for i, x in enumerate(dense) if x), None)
        if lead is not None:
            inverse = pow(dense[lead], -1, p)
            echelon[lead] = [x * inverse % p for x in dense[lead:]]
            insort(pivots, lead)
            if len(pivots) == stop:
                break
    return len(pivots)


def fixes_free_columns(d, n, block, family, scale):
    """_ClosureBlock.fixes_free_columns by the sparse route it replaced:
    each stored row of a free column f minus scale e_f as a dict over the
    block, paired with the family through linalg.orthogonal."""
    differences = (
        {k: x - scale if k == f else x for k, x in zip(block.words, block.rows[block.position[f]])}
        for f in block.free
    )
    return linalg.orthogonal(d, n, family, differences)


def closure_table(sp, n):
    """Every proven closure block of level n, by canonical content: the
    whole-level table that the pipeline, which builds each block for one
    reader and drops it, never holds."""
    return {c: sp._closure_block(n, c) for c in sp._orbits(n).canonical}


def pivot_difference_rows(sp, n, c, block):
    """The closure-difference rows of InvariantSpaces._closure_difference_rows
    by the route they replaced: per pivot column of S_c, its nonzero row of
    n! (rcl - lcl) on the free columns of the closure block, as a dict."""
    rows, position, reverse = block.rows, block.position, block.reverse
    free = [(col, rows[position[col]], rows[reverse[position[col]]]) for col in block.free]
    out = []
    for k in sp.letter_shuffle_ideal(n).blocks[c].pivots:
        p, q = position[k], reverse[position[k]]
        row = {col: v for col, right, left in free if (v := right[p] - left[q])}
        if row:
            out.append(row)
    return out


def rotation_row(d, w):
    """Rotation sum of a word as an integer row, with multiplicity (see
    tensor.rotation_sum): the row InvariantSpaces wrote per necklace before
    it wrote down the rotation classes."""
    row = {}
    for rot in rotations(w.letters):
        j = word_index(rot, d)
        row[j] = row.get(j, 0) + 1
    return row


def quotient_dim(base, rows):
    """dim(base + span(rows)) - dim base by the route
    InvariantSpaces._quotient_dim replaced: base and the span of the rows
    eliminated together by linalg.subspace_sum."""
    return linalg.subspace_sum(base, span(base.d, base.n, rows)).dim - base.dim


def closure_kills(block, rows):
    """_ClosureBlock.kills by dense images: no row has a nonzero image."""
    return not any(map(block.image, rows))


def closed_rotation_rank(sp, n, c):
    """The letter-reduced conjugation rank of the block of content c by the
    route the class sums replaced: the exact rank of the closed rotation
    sums n! rcl(rot(w)) over the necklaces w of content c."""
    d = sp.d
    own = [w for w in necklaces(d, n) if content_of(word_index(w.letters, d), d, n) == c]
    return span(d, n, (closure_row(rotation_row(d, w), d, n) for w in own)).dim


def content_of(k, d, n):
    counts = [0] * d
    for a in index_word(k, d, n):
        counts[a - 1] += 1
    return tuple(counts)


def contents(d, n):
    return [c for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n]


def words_of(content, d):
    n = sum(content)
    return [k for k in range(d**n) if content_of(k, d, n) == content]


def closure_row(row, d, n):
    """n! times the right closure of a row on level n."""
    out = {}
    for k, c in row.items():
        for x, v in tensor._rcl_word(index_word(k, d, n)).items():
            j = word_index(x, d)
            out[j] = out.get(j, 0) + c * v
    return {j: c for j, c in out.items() if c}


def closure_difference_rows(d, n, words, outputs=None):
    """Rows of n! (rcl - lcl) on the given words, one per output word index
    in ``outputs`` (default: every output)."""
    rev = {k: word_index(index_word(k, d, n)[::-1], d) for k in words}
    by_output = {}
    for col in words:
        diff = closure_row({col: 1}, d, n)
        for j, v in closure_row({rev[col]: 1}, d, n).items():
            diff[rev[j]] = diff.get(rev[j], 0) - v
        for j, v in diff.items():
            if v and (outputs is None or j in outputs):
                by_output.setdefault(j, {})[col] = v
    return list(by_output.values())


def as_dicts(rows, columns):
    """Dense rows, one entry per given column in its order, as integer rows
    {column: entry} without zeros."""
    return [{k: x for k, x in zip(columns, row) if x} for row in rows]


def free_columns(s, content):
    """The word indices of a content that are no pivot of the stored block
    of S, read off S itself."""
    pivots = set(s.blocks[content].pivots)
    return [k for k in words_of(content, s.d) if k not in pivots]


def letter_bracket_rows(sp, n):
    """[q, i] for every word q of length n-1 and every letter i."""
    d = sp.d
    return [sp._bracket_row({q: 1}, n - 1, i) for i in range(d) for q in range(d ** (n - 1))]


def letter_shuffle_rows(sp, n):
    """i shuffled with u for every letter i and word u of length n-1."""
    d = sp.d
    return [sp._shuffle_row({i: 1}, 1, {u: 1}, n - 1) for i in range(d) for u in range(d ** (n - 1))]


def pbw_products(d, n):
    """Concatenated integer Lyndon polynomials of every content, one row per
    non-increasing tuple of non-letter Lyndon words of total length n."""
    basis = sorted(w.letters for k in range(2, n + 1) for w in lyndon_words(d, k))
    polys = {w: {word_index(u, d): c for u, c in tensor._lyndon_poly(w).items()} for w in basis}
    out = []

    def extend(stop, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(stop):
            w = basis[i]
            if len(w) <= remaining:
                poly, shift = polys[w], d ** len(w)
                nxt = poly if acc is None else {
                    a * shift + b: ca * cb for a, ca in acc.items() for b, cb in poly.items()
                }
                extend(i + 1, remaining - len(w), nxt)

    extend(len(basis), n, None)
    return out


def letter_shuffle_block(sp, n, content):
    """The block of S of one content: the RREF of all its generators."""
    return span(sp.d, n, sp._letter_shuffle_rows(n, content))


def whole_level(sp, n, below=None):
    """Every space of level n from the rows of all contents at once.
    ``below`` is this function's result at level n - 1, for [V, letters]."""
    d, words = sp.d, range(sp.d**n)
    out = {
        "conj": span(d, n, (rotation_row(d, w) for w in necklaces(d, n))),
        "S": span(d, n, letter_shuffle_rows(sp, n)),
        "V": span(d, n, pbw_products(d, n)),
        "closure": span(d, n, (closure_row({k: 1}, d, n) for k in words)),
        "loop": kernel(d, n, closure_difference_rows(d, n, words)),
        "rclrot": span(d, n, (closure_row(rotation_row(d, w), d, n) for w in necklaces(d, n))),
    }
    out["bracketV"] = span(d, n, bracket_rows(sp, n, below["V"] if below else kernel(d, 0, [])))
    return out


def bracket_rows(sp, n, lower):
    """[v, i] for every stored row v of ``lower``, a space of level n - 1,
    and every letter i: the full rows of [V, letters] from a whole level."""
    return [sp._bracket_row(row, n - 1, i) for row in lower.rows for i in range(sp.d)]


def on_columns(rows, columns):
    """The rows restricted to the given word indices."""
    columns = set(columns)
    return [{k: v for k, v in row.items() if k in columns} for row in rows]


def min_generators(sp, n, wholes):
    """All-pairs decomposables of the whole levels ``wholes[j]["conj"]``."""
    products = []
    for j in range(1, n // 2 + 1):
        left, right = wholes[j]["conj"].rows, wholes[n - j]["conj"].rows
        pairs = itertools.product(left, right) if j < n - j else itertools.combinations_with_replacement(left, 2)
        products += [sp._shuffle_row(a, j, b, n - j) for a, b in pairs]
    return wholes[n]["conj"].dim - span(sp.d, n, products).dim


def block(sp, n, content, blocks_below=None):
    """Every space's block of one content of level n, built on that content
    directly.  ``blocks_below`` maps the contents of level n - 1 to this
    function's results there, for [V, letters]."""
    d = sp.d
    words = words_of(content, d)
    own = [w for w in necklaces(d, n) if content_of(word_index(w.letters, d), d, n) == content]
    out = {
        "conj": span(d, n, (rotation_row(d, w) for w in own)),
        "S": letter_shuffle_block(sp, n, content),
        "V": span(d, n, sp._pbw_products(content, sp._pbw_factors(n, [content]))),
        "closure": span(d, n, (closure_row({k: 1}, d, n) for k in words)),
        "loop": kernel(d, n, closure_difference_rows(d, n, words), None, words),
        "rclrot": span(d, n, (closure_row(rotation_row(d, w), d, n) for w in own)),
    }
    rows = []
    for i in range(d):
        if content[i]:
            lower = content[:i] + (content[i] - 1,) + content[i + 1 :]
            below = blocks_below[lower]["V"] if blocks_below else kernel(d, 0, [])
            rows += [sp._bracket_row(row, n - 1, i) for row in below.rows]
    out["bracketV"] = span(d, n, rows)
    return out


def area_conjugation_algebra(sp, top):
    """Levels 1..top of the shuffle algebra generated by the areas and the
    conjugation invariants, from whole levels: every generator of level j
    shuffled with every basis row of level k - j."""
    d = sp.d
    gens = {k: list(sp.conjugation_invariants(k).rows) for k in range(1, top + 1)}
    if top >= 2:
        # the area ij - ji is the bracket [i, j] of two letters
        gens[2] += [sp._bracket_row({i: 1}, 1, j) for i in range(d) for j in range(i + 1, d)]
    parts = {}
    for k in range(1, top + 1):
        elements = list(gens[k])
        for j in range(1, k):
            for g in gens[j]:
                elements.extend(sp._shuffle_row(g, j, b, k - j) for b in parts[k - j].rows)
        parts[k] = span(d, k, elements)
    return parts


def area_product_membership(sp, n):
    """conjecture_evidence's memberships by the route they replaced: each
    product of n/2 areas ij - ji, i < j, a Fraction tensor element shuffled
    by tensor.shuffle, tested by linalg.member_tensor in the whole level of
    the closed rotation span, assembled by BlockSpace.whole."""
    if n % 2 or n < 4:
        return ()
    d = sp.d
    areas = [((i, j), invariants._area(d, i, j)) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    closed = sp.closed_rotation_span(n).whole()
    return tuple(
        ("*".join("area%d%d" % pair for pair, _ in combo),
         linalg.member_tensor(invariants._shuffle_all([x for _, x in combo]), closed))
        for combo in itertools.combinations_with_replacement(areas, n // 2)
    )
