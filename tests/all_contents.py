"""Test oracles for the pipeline, which builds each level once per orbit
of letter contents: every space of a level built from the rows of all
contents at once, and the block of any one content built directly on that
content, with no renaming.

The closure rows come from ``tensor._rcl_word`` for every word, not from
the pipeline's table of canonical contents.
"""

import itertools

from loopinv import tensor
from loopinv.linalg import index_word, kernel, span, word_index
from loopinv.words import lyndon_words, necklaces

# oracle space name -> InvariantSpaces method
METHODS = {
    "conj": "conjugation_invariants",
    "S": "letter_shuffle_ideal",
    "V": "zero_increment_space",
    "bracketV": "bracket_zero_increment",
    "loop": "loop_invariants",
    "closure": "closure_invariants",
    "rclrot": "closed_rotation_span",
    "rclloop": "closed_loop_span",
}


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


def closure_difference_rows(d, n, words):
    """Rows of n! (rcl - lcl) on the given words, every output kept."""
    rev = {k: word_index(index_word(k, d, n)[::-1], d) for k in words}
    by_output = {}
    for col in words:
        diff = closure_row({col: 1}, d, n)
        for j, v in closure_row({rev[col]: 1}, d, n).items():
            diff[rev[j]] = diff.get(rev[j], 0) - v
        for j, v in diff.items():
            if v:
                by_output.setdefault(j, {})[col] = v
    return list(by_output.values())


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
    weakly increasing tuple of non-letter Lyndon words of total length n."""
    basis = sorted(w.letters for k in range(2, n + 1) for w in lyndon_words(d, k))
    polys = {w: {word_index(u, d): c for u, c in tensor._lyndon_poly(w).items()} for w in basis}
    out = []

    def extend(start, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start, len(basis)):
            w = basis[i]
            if len(w) <= remaining:
                poly, shift = polys[w], d ** len(w)
                nxt = poly if acc is None else {
                    a * shift + b: ca * cb for a, ca in acc.items() for b, cb in poly.items()
                }
                extend(i, remaining - len(w), nxt)

    extend(0, n, None)
    return out


def whole_level(sp, n, below=None):
    """Every space of level n from the rows of all contents at once.
    ``below`` is this function's result at level n - 1, for [V, letters]."""
    d, words = sp.d, range(sp.d**n)
    out = {
        "conj": span(d, n, map(sp._rotation_row, necklaces(d, n))),
        "S": span(d, n, letter_shuffle_rows(sp, n)),
        "V": span(d, n, pbw_products(d, n)),
        "closure": span(d, n, (closure_row({k: 1}, d, n) for k in words)),
        "loop": kernel(d, n, closure_difference_rows(d, n, words)),
        "rclrot": span(d, n, (closure_row(sp._rotation_row(w), d, n) for w in necklaces(d, n))),
    }
    lower = below["V"] if below else kernel(d, 0, [])
    out["bracketV"] = span(d, n, (
        sp._bracket_row(row, n - 1, i) for row in lower.rows for i in range(d)
    ))
    out["rclloop"] = span(d, n, (closure_row(r, d, n) for r in out["loop"].rows))
    return out


def min_generators(sp, n, wholes, family):
    """All-pairs decomposables of the whole levels ``wholes[j][family]``."""
    products = []
    for j in range(1, n // 2 + 1):
        left, right = wholes[j][family].rows, wholes[n - j][family].rows
        pairs = itertools.product(left, right) if j < n - j else itertools.combinations_with_replacement(left, 2)
        products += [sp._shuffle_row(a, j, b, n - j) for a, b in pairs]
    return wholes[n][family].dim - span(sp.d, n, products).dim


def block(sp, n, content, blocks_below=None):
    """Every space's block of one content of level n, built on that content
    directly.  ``blocks_below`` maps the contents of level n - 1 to this
    function's results there, for [V, letters]."""
    d = sp.d
    words = words_of(content, d)
    own = [w for w in necklaces(d, n) if content_of(word_index(w.letters, d), d, n) == content]
    out = {
        "conj": span(d, n, map(sp._rotation_row, own)),
        "S": span(d, n, sp._letter_shuffle_rows(n, content)),
        "V": span(d, n, sp._pbw_products(content, sp._pbw_factors(n, [content]))),
        "closure": span(d, n, (closure_row({k: 1}, d, n) for k in words)),
        "loop": kernel(d, n, closure_difference_rows(d, n, words), None, words),
        "rclrot": span(d, n, (closure_row(sp._rotation_row(w), d, n) for w in own)),
    }
    rows = []
    for i in range(d):
        if content[i]:
            lower = content[:i] + (content[i] - 1,) + content[i + 1 :]
            below = blocks_below[lower]["V"] if blocks_below else kernel(d, 0, [])
            rows += [sp._bracket_row(row, n - 1, i) for row in below.rows]
    out["bracketV"] = span(d, n, rows)
    out["rclloop"] = span(d, n, (closure_row(r, d, n) for r in out["loop"].rows))
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
