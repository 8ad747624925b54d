"""Reference arithmetic for checking benchmark results independently.

Nothing here imports diagcat.  Diagrams are plain triples
``(m, n, blocks)`` in the same canonical form the package uses (points
1..m upper, m+1..m+n lower, blocks sorted tuples ordered by their minimum),
so results read off program objects compare directly.

Scalars are residues modulo the prime P.  A rational maps to a residue by
a ring homomorphism, so an exact result over Q, or over Q(t) evaluated at
t = T_CHECK, has a residue that equals the reference residue; a wrong
result matches only by a coincidence of probability about deg/P.  Ranks
are taken over the residues too, which keeps elimination cheap where
Fraction entries would grow.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

P = (1 << 61) - 1

# Evaluation point for generic-t checks: a large residue is no root of the
# small polynomials whose zeros are the poles and rank drops of exact
# answers over Q(t).
T_CHECK = 1_234_567_891_234_567 % P


def mod(q):
    """The residue of a rational."""
    q = Fraction(q)
    return q.numerator % P * pow(q.denominator % P, P - 2, P) % P


def poly_at(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + mod(c)) % P
    return acc


def ratfunc_at(num, den, t):
    return poly_at(num, t) * pow(poly_at(den, t), P - 2, P) % P

CLASSES = (
    "all",
    "even-blocks",
    "even-many-odd-blocks",
    "blocks-size-2",
    "non-crossing-size-2",
)


def canon(m, n, blocks):
    return (m, n, tuple(sorted(tuple(sorted(b)) for b in blocks)))


def bell(k):
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def set_partitions(items):
    """All set partitions of ``items`` via restricted growth strings."""
    items = list(items)
    if not items:
        return [()]
    out = []

    def grow(i, labels, top):
        if i == len(items):
            groups = [[] for _ in range(top + 1)]
            for item, lab in zip(items, labels):
                groups[lab].append(item)
            out.append(tuple(tuple(g) for g in groups))
            return
        for lab in range(top + 2):
            labels.append(lab)
            grow(i + 1, labels, max(top, lab))
            labels.pop()

    labels = [0]
    grow(1, labels, 0)
    return out


def _noncrossing_pairs(m, n, blocks):
    # Walk the boundary (upper left to right, then lower right to left);
    # a perfect matching is planar iff it closes like balanced brackets.
    if any(len(b) != 2 for b in blocks):
        return False
    partner = {}
    for a, b in blocks:
        partner[a], partner[b] = b, a
    order = list(range(1, m + 1)) + list(range(m + n, m, -1))
    pos = {p: i for i, p in enumerate(order)}
    stack = []
    for p in order:
        if stack and stack[-1] == partner[p]:
            stack.pop()
        elif pos[partner[p]] > pos[p]:
            stack.append(p)
        else:
            return False
    return not stack


def in_class(cls, m, n, blocks):
    if cls == "all":
        return True
    if cls == "even-blocks":
        return all(len(b) % 2 == 0 for b in blocks)
    if cls == "even-many-odd-blocks":
        return sum(len(b) % 2 for b in blocks) % 2 == 0
    if cls == "blocks-size-2":
        return all(len(b) == 2 for b in blocks)
    if cls == "non-crossing-size-2":
        return _noncrossing_pairs(m, n, blocks)
    raise ValueError(f"unknown class {cls!r}")


_basis_memo: dict = {}


def basis(cls, m, n):
    """Sorted canonical diagrams of Hom([m], [n]) in a class."""
    key = (cls, m, n)
    if key not in _basis_memo:
        out = []
        for part in set_partitions(range(1, m + n + 1)):
            if in_class(cls, m, n, part):
                out.append(canon(m, n, part))
        _basis_memo[key] = sorted(out)
    return _basis_memo[key]


# ---- diagrams -------------------------------------------------------------


def compose(g, f):
    """g after f: ((m, n, blocks), loops), by union-find on labelled points."""
    m, k, fb = f
    k2, n, gb = g
    if k != k2:
        raise ValueError("shape mismatch")
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def f_label(p):
        return ("top", p) if p <= m else ("mid", p - m)

    def g_label(p):
        return ("mid", p) if p <= k else ("bot", p - k)

    for block in fb:
        for p in block:
            join(f_label(block[0]), f_label(p))
    for block in gb:
        for p in block:
            join(g_label(block[0]), g_label(p))
    groups = {}
    for i in range(1, m + 1):
        groups.setdefault(find(("top", i)), []).append(i)
    for j in range(1, k + 1):
        groups.setdefault(find(("mid", j)), [])
    for i in range(1, n + 1):
        groups.setdefault(find(("bot", i)), []).append(m + i)
    blocks = [pts for pts in groups.values() if pts]
    loops = sum(1 for pts in groups.values() if not pts)
    return canon(m, n, blocks), loops


def tensor(f, g):
    fm, fn, fb = f
    gm, gn, gb = g
    blocks = [[p if p <= fm else p + gm for p in b] for b in fb]
    blocks += [[p + fm if p <= gm else p + fm + fn for p in b] for b in gb]
    return canon(fm + gm, fn + gn, blocks)


def identity(j):
    return canon(j, j, [(i, j + i) for i in range(1, j + 1)])


# ---- linear combinations at a point: {diagram: residue} -------------------


def clean(terms):
    return {d: c % P for d, c in terms.items() if c % P}


def lin_compose(g, f, t):
    out = {}
    for df, cf in f.items():
        for dg, cg in g.items():
            d, loops = compose(dg, df)
            out[d] = (out.get(d, 0) + cf * cg * pow(t, loops, P)) % P
    return clean(out)


def lin_tensor(f, g):
    out = {}
    for df, cf in f.items():
        for dg, cg in g.items():
            d = tensor(df, dg)
            out[d] = (out.get(d, 0) + cf * cg) % P
    return clean(out)


def lin_add(a, b, scale=1):
    out = dict(a)
    for d, c in b.items():
        out[d] = (out.get(d, 0) + scale * c) % P
    return clean(out)


def merge(f, groups):
    m, n, blocks = f
    merged = [tuple(p for i in grp for p in blocks[i]) for grp in groups]
    return canon(m, n, merged)


def _mu(groups):
    out = 1
    for grp in groups:
        out *= (-1) ** (len(grp) - 1) * factorial(len(grp) - 1)
    return out


def moebius_x(f):
    """x(f) in closed form: sum over coarsenings of mu(f, f') f'."""
    out = {}
    for groups in set_partitions(range(len(f[2]))):
        d = merge(f, groups)
        out[d] = out.get(d, 0) + _mu(groups)
    return clean(out)


def moebius_x_prime(f):
    """x'(f): the same sum over merges of the active blocks only."""
    m, n, blocks = f
    if n > 0:
        active = [i for i, b in enumerate(blocks) if any(p > m for p in b)]
    else:
        active = [i for i, b in enumerate(blocks) if len(b) % 2 == 1]
    rest = [(i,) for i in range(len(blocks)) if i not in active]
    out = {}
    for groups in set_partitions(active):
        d = merge(f, list(groups) + rest)
        out[d] = out.get(d, 0) + _mu(groups)
    return clean(out)


def symmetrizer(j):
    c = mod(Fraction(1, factorial(j)))
    return {
        canon(j, j, [(i + 1, j + s[i] + 1) for i in range(j)]): c
        for s in permutations(range(j))
    }


def x_e(j):
    return lin_compose(moebius_x(identity(j)), symmetrizer(j), 1)


# ---- matrices of combinations (Karoubi morphisms) -------------------------


def mat_compose(b, a, t):
    """Matrix product b . a of combination matrices (lists of rows)."""
    out = []
    for i in range(len(b)):
        row = []
        for j in range(len(a[0]) if a else 0):
            acc = {}
            for k in range(len(a)):
                acc = lin_add(acc, lin_compose(b[i][k], a[k][j], t))
            row.append(acc)
        out.append(row)
    return out


def rank(rows):
    """Rank of a matrix of residues by Gaussian elimination mod P."""
    work = [[v % P for v in r] for r in rows]
    work = [r for r in work if any(r)]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], P - 2, P)
        wr = work[r]
        for i in range(r + 1, len(work)):
            fac = work[i][c] * inv % P
            if fac:
                wi = work[i]
                for j in range(c, ncols):
                    if wr[j]:
                        wi[j] = (wi[j] - fac * wr[j]) % P
        r += 1
    return r


def solvable(columns, rhs):
    """Whether rhs lies in the span of the given columns."""
    nrows = len(rhs)
    as_rows = [[col[i] for col in columns] for i in range(nrows)]
    with_rhs = [row + [rhs[i]] for i, row in enumerate(as_rows)]
    return rank(as_rows) == rank(with_rhs)


def coords(lin, shape_basis):
    index = {d: i for i, d in enumerate(shape_basis)}
    vec = [0] * len(shape_basis)
    for d, c in lin.items():
        vec[index[d]] = c
    return vec


def image_rank(mat, dom_words, cod_words, probe, cls, t):
    """Rank of h -> mat . h on Hom([probe], dom words), by diagram coordinates."""
    cod_bases = [basis(cls, probe, w) for w in cod_words]
    columns = []
    for j, w in enumerate(dom_words):
        for d in basis(cls, probe, w):
            h = [[{}] for _ in dom_words]
            h[j][0] = {d: 1}
            image = mat_compose(mat, h, t)
            col = []
            for i, row in enumerate(image):
                col.extend(coords(row[0], cod_bases[i]))
            columns.append(col)
    if not columns or not columns[0]:
        return 0
    return rank([list(r) for r in zip(*columns)])


def precompose_rank(f, a, b, c, cls, t):
    """Rank of h -> h . f from Hom([b], [c]) to Hom([a], [c])."""
    target = basis(cls, a, c)
    columns = [
        coords(lin_compose({h: 1}, f, t), target)
        for h in basis(cls, b, c)
    ]
    if not columns or not target:
        return 0
    return rank([list(r) for r in zip(*columns)])


# ---- cobordisms -----------------------------------------------------------


def glue_cob(g, f):
    """Glue f's lower circles to g's upper circles, genus by Euler count.

    A cobordism is ``(m, n, components)`` with components
    ``(circles, genus)``; returns the glued cobordism unreduced.
    """
    m, k, fc = f
    k2, n, gc = g
    if k != k2:
        raise ValueError("shape mismatch")
    nodes = [("f", c) for c in fc] + [("g", c) for c in gc]
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    owner = {}
    for idx, (_, (circles, _genus)) in enumerate(nodes[: len(fc)]):
        for p in circles:
            if p > m:
                owner[p - m] = idx
    for idx, (_, (circles, _genus)) in enumerate(nodes[len(fc):], len(fc)):
        for p in circles:
            if p <= k:
                a, b = find(owner[p]), find(idx)
                if a != b:
                    parent[a] = b
    groups = {}
    for idx in range(len(nodes)):
        groups.setdefault(find(idx), []).append(nodes[idx])
    comps = []
    for members in groups.values():
        chi, free = 0, []
        for side, (circles, genus) in members:
            chi += 2 - 2 * genus - len(circles)
            for p in circles:
                if side == "f" and p <= m:
                    free.append(p)
                if side == "g" and p > k:
                    free.append(m + p - k)
        genus = (2 - len(free) - chi) // 2
        comps.append((tuple(sorted(free)), genus))
    return (m, n, tuple(sorted(comps)))


def _alpha(datum, i, t):
    """Scalar of a closed genus-i component: t, or 1, 2, 3, 5, ... (Fibonacci)."""
    if datum == "st":
        return t
    a, b = 1, 2
    for _ in range(i):
        a, b = b, a + b
    return a


def _expand(datum, g):
    """x^g reduced mod u as [(genus, coefficient)]: u = x - 1 or x^2 - x - 1."""
    return [(0, 1)] if datum == "st" else _fib_expand(g)


def reduce_cob(c, datum, t):
    """Normal form {cobordism: residue} under the 'st' or 'fibonacci' datum."""
    m, n, comps = c
    out = [([], 1)]
    for circles, genus in comps:
        if not circles:
            out = [(cs, v * _alpha(datum, genus, t) % P) for cs, v in out]
            continue
        out = [
            (cs + [(circles, g2)], v * q % P)
            for cs, v in out
            for g2, q in _expand(datum, genus)
            if q
        ]
    terms = {}
    for cs, v in out:
        key = (m, n, tuple(sorted(cs)))
        terms[key] = terms.get(key, 0) + v
    return clean(terms)


def _fib_expand(g):
    # x^g mod x^2 - x - 1 = F(g) x + F(g-1) with F(0)=0, F(1)=1, F(-1)=1
    if g < 2:
        return [(g, 1)]
    a, b = 0, 1  # F(g-1), F(g) for g = 1
    for _ in range(g - 1):
        a, b = b, a + b
    return [(0, a), (1, b)]
