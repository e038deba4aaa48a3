"""Finite, dimension-bounded simplicial sets and their maps.

A simplicial set here stores *every* simplex up to ``dim_bound``,
degenerate ones included, as indexed tables of face and degeneracy
operators.  Each simplex record also carries its Eilenberg-Zilber
decomposition: the index of a nondegenerate base together with the
strictly decreasing degeneracy word that produces the simplex from it.
Nothing above ``dim_bound`` is stored; everything up there is degenerate
by construction, so the objects are honest ``dim_bound``-skeletal
simplicial sets.

Every constructor names its simplices by hashable keys and hands one
builder, ``_from_keys``, the keys of each level in index order together
with the keys of every simplex's faces and degeneracies; the builder
numbers the keys, maps each level's key rows to index rows in one run,
and derives the records, ``Simplex`` named tuples, a level at a time by
``derive_records``.  The keys are nondecreasing vertex tuples for
simplicial complexes (standard simplices, boundaries, horns), (base
dimension, base, degeneracy word) for explicit nondegenerate skeleta,
kept indices for subcomplexes, (part, index) for disjoint unions, (i, j)
pairs for pullbacks, and an old index or the degeneracy word of the new
cell for cell attachment.  Pushouts of simplicial categories (``words``)
key their homs by normal words.

Derived data (the accessors below, pi0 here, homology, component
categories) is computed once per instance through ``memo``; values are
treated as immutable after construction.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from .verdict import InputError, _Steps


def memo(fn):
    """``fn(x, *args)`` computed once per instance x and kept in
    ``x._cache`` under ``(fn, *args)``.  A call that raises stores nothing,
    so it raises again on the next call."""
    @functools.wraps(fn)
    def cached(x, *args):
        key = (fn, *args)
        try:
            return x._cache[key]
        except KeyError:
            pass
        out = x._cache[key] = fn(x, *args)
        return out
    return cached


def _check_natural(name: str, v, low: int = 0, high: float = float("inf")) -> None:
    """InputError naming the argument unless v is an int (a bool is not) in low..high."""
    if type(v) is not int or not low <= v <= high:
        raise InputError(f"{name} must be an int in {low}..{high}, got {v!r}")


# ---------------------------------------------------------------------------
# degeneracy-word algebra
#
# A word (j1, j2, ..., jr) with j1 > j2 > ... > jr denotes the operator
# s_{j1} s_{j2} ... s_{jr}, outermost first.  This is the unique normal
# form under s_i s_j = s_{j+1} s_i (i <= j).

def word_after_degeneracy(word: tuple, j: int) -> tuple:
    """Normal form of s_j composed after the normal word s_word."""
    out = []
    i = 0
    while i < len(word) and j <= word[i]:
        out.append(word[i] + 1)
        i += 1
    out.append(j)
    out.extend(word[i:])
    return tuple(out)


def compose_words(outer: tuple, inner: tuple) -> tuple:
    """Normal form of s_outer composed after s_inner."""
    w = tuple(inner)
    for j in reversed(outer):
        w = word_after_degeneracy(w, j)
    return w


def _face_of_degeneracy(word: tuple, i: int) -> tuple:
    """d_i s_word in normal form: (w, None) when d_i cancels one degeneracy
    and d_i s_word = s_w, else (w, i') with d_i s_word = s_w d_i'."""
    prefix = []
    for pos, j in enumerate(word):
        if i < j:
            prefix.append(j - 1)
        elif i <= j + 1:
            return compose_words(tuple(prefix), word[pos + 1:]), None
        else:
            prefix.append(j)
            i -= 1
    return tuple(prefix), i


def degeneracy_words(base_dim: int, length: int) -> list:
    """All normal degeneracy words of the given length over a base_dim simplex.

    Entry i (0-based, outermost first) must satisfy word[i] <= base_dim +
    (length - 1 - i); words are strictly decreasing.  So the words are the
    strictly decreasing length-tuples over 0..base_dim + length - 1, returned
    in lexicographic order.
    """
    return sorted(c[::-1] for c in itertools.combinations(range(base_dim + length), length))


class Simplex(NamedTuple):
    """One simplex record.

    ``faces[i]`` indexes dimension k-1, ``degens[j]`` dimension k+1 (only
    stored while k+1 <= dim_bound).  ``base``/``word`` give the EZ
    decomposition; a nondegenerate simplex has word () and base equal to
    its own index.  A record is a tuple: it equals, and hashes like, the
    plain tuple (faces, degens, base, word), so no code may compare a
    record with a bare tuple.
    """
    faces: tuple
    degens: tuple
    base: int
    word: tuple

    @property
    def nondeg(self) -> bool:
        return not self.word


class SimplicialSet:
    __slots__ = ("dim_bound", "dims", "_cache")

    def __init__(self, dim_bound: int, dims: list):
        _check_natural("dim_bound", dim_bound)
        if len(dims) != dim_bound + 1:
            raise InputError("dims must have dim_bound + 1 levels")
        self.dim_bound = dim_bound
        self.dims = tuple(map(tuple, dims))
        self._cache = {}

    # -- identity / hashing ------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, SimplicialSet)
                and self.dim_bound == other.dim_bound
                and self.dims == other.dims)

    def __hash__(self):
        return hash((self.dim_bound, self.dims))

    def __repr__(self):
        sizes = ",".join(str(len(level)) for level in self.dims)
        return f"SimplicialSet(dim_bound={self.dim_bound}, sizes=[{sizes}])"

    # -- basic accessors ----------------------------------------------------
    def size(self, k: int) -> int:
        return len(self.dims[k])

    def face(self, k: int, idx: int, i: int) -> int:
        return self.dims[k][idx].faces[i]

    def degeneracy(self, k: int, idx: int, j: int) -> int:
        return self.dims[k][idx].degens[j]

    @memo
    def nondeg_indices(self, k: int) -> tuple:
        return tuple(i for i, s in enumerate(self.dims[k]) if s.nondeg)

    def apply_word(self, dim: int, idx: int, word: tuple) -> int:
        """Index of s_word applied to the simplex (dim, idx)."""
        cur_dim, cur = dim, idx
        for j in reversed(word):
            cur = self.dims[cur_dim][cur].degens[j]
            cur_dim += 1
        return cur

    @memo
    def face_key_index(self, k: int) -> dict:
        """tuple(faces) -> list of simplex indices, for dimension k >= 1."""
        table = {}
        for i, s in enumerate(self.dims[k]):
            table.setdefault(s.faces, []).append(i)
        return table

    @memo
    def vertices_of(self, k: int, idx: int) -> frozenset:
        """All iterated 0-dimensional faces of the simplex."""
        if k == 0:
            return frozenset((idx,))
        return frozenset().union(*(self.vertices_of(k - 1, f) for f in self.dims[k][idx].faces))

    def is_empty(self) -> bool:
        return all(len(level) == 0 for level in self.dims)


# ---------------------------------------------------------------------------
# records from tables: the one place EZ decompositions are made

def derive_records(dim_bound: int, faces_tables: list, degens_tables: list) -> list:
    """Simplex records from face and degeneracy index tables.

    ``faces_tables[k][idx]`` is the tuple of faces of the k-simplex idx and
    ``degens_tables[k][idx]`` that of its degeneracies (read only for k <
    dim_bound); the records keep these tuples.  A k-simplex x is degenerate
    exactly when x = s_j y for some j; then y = d_j x, as d_j s_j = id, so
    x has the base of y and the word s_j after that of y, read from a
    (word, j) table kept for one call.  The scan takes the least such j;
    one pass over level k - 1 per j, k - 1 down to 0, would find the same
    j but costs more on the one-simplex levels most builds have.  Each
    level's records come from one map.  The EZ decomposition is unique, so
    no constructor makes records: each one hands its keyed tables to
    ``_from_keys``, which calls this.
    """
    dims, after = [], {}
    bases = words = ()
    record = functools.partial(tuple.__new__, Simplex)   # Simplex._make, in C
    for k, faces in enumerate(faces_tables):
        below_bases, below_words = bases, words
        bases, words = [*range(len(faces))], [()] * len(faces)
        below = degens_tables[k - 1] if k else ()
        for x, row in enumerate(faces):
            for j in range(k):
                y = row[j]
                if below[y][j] == x:
                    bases[x] = below_bases[y]
                    key = below_words[y], j
                    w = words[x] = after.get(key)
                    if w is None:
                        words[x] = after[key] = word_after_degeneracy(*key)
                    break
        degens = degens_tables[k] if k < dim_bound else itertools.repeat(())
        dims.append([*map(record, zip(faces, degens, bases, words))])
    return dims


def _from_keys(dim_bound: int, levels: list, faces: list, degens: list) -> tuple:
    """(the simplicial set whose k-simplices are the keys ``levels[k]``, in
    that order, index) with index[k] = {key: position}.

    ``faces[k]`` lists, for each key of levels[k] in order, the keys of its
    faces d_0, ..., d_k (k >= 1) and ``degens[k]`` those of its degeneracies
    s_0, ..., s_k (k < dim_bound), so every row of level k holds k + 1 keys.
    A key no level holds raises KeyError.
    """
    index = [dict(zip(level, range(len(level)))) for level in levels]
    # a level's rows are mapped through the index as one flat run and cut
    # back into rows by zip
    face_tables, degen_tables = [[()] * len(levels[0])], []
    for k in range(1, dim_bound + 1):
        face_tables.append([*zip(*[map(index[k - 1].__getitem__,
                                       itertools.chain.from_iterable(faces[k]))] * (k + 1))])
        degen_tables.append([*zip(*[map(index[k].__getitem__,
                                        itertools.chain.from_iterable(degens[k - 1]))] * k)])
    return SimplicialSet(dim_bound, derive_records(dim_bound, face_tables, degen_tables)), index


def _broken_face_identities(x: SimplicialSet, k: int, faces) -> list:
    """The pairs (i, j), i < j, at which the faces of a k-simplex, indices
    into level k - 1 of x, break d_i d_j = d_{j-1} d_i."""
    if k < 2:
        return []
    below = x.dims[k - 1]
    return [(i, j) for j in range(1, k + 1) for i in range(j)
            if below[faces[j]].faces[i] != below[faces[i]].faces[j - 1]]


# ---------------------------------------------------------------------------
# construction: generic materialization from a nondegenerate skeleton

def from_nondegenerate(dim_bound: int, face_data: list) -> SimplicialSet:
    """Build the full tables from nondegenerate simplices only.

    ``face_data[k]`` lists the nondegenerate k-simplices; each entry is a
    list of k+1 faces, a face being a tuple ``(base_index, word)`` with
    ``base_index`` into the nondegenerate list of dimension
    ``k - 1 - len(word)`` and ``word`` a normal degeneracy word over it.
    Dimension 0 entries are ``[]``.  Nondegenerate simplices above
    ``dim_bound``, a face count other than k + 1, a face that is not a pair
    of an int and a tuple of ints (a bool counting as no int), and a face
    that names no such base and word raise InputError.
    """
    _check_natural("dim_bound", dim_bound)
    if any(face_data[dim_bound + 1:]):
        raise InputError("from_nondegenerate: nondegenerate simplices above dim_bound")
    face_data = list(face_data) + [[] for _ in range(dim_bound + 1 - len(face_data))]
    if any(len(cell) != (k + 1 if k else 0)
           or any(type(f) is not tuple or len(f) != 2 or type(f[1]) is not tuple
                  or any(type(j) is not int for j in (f[0], *f[1])) for f in cell)
           for k in range(dim_bound + 1) for cell in face_data[k]):
        raise InputError("from_nondegenerate: a k-simplex needs k + 1 faces (a vertex none),"
                         " each a pair of an int base and a tuple word of ints")
    # keys (base_dim, base_idx, word): the nondegenerate simplices, then
    # the degeneracies of each lower base
    levels = [[(k, i, ()) for i in range(len(face_data[k]))]
              + [(bd, bi, w) for bd in range(k) for bi in range(len(face_data[bd]))
                 for w in degeneracy_words(bd, k - bd)] for k in range(dim_bound + 1)]

    def face_key(bd: int, bi: int, word: tuple, i: int) -> tuple:
        """d_i applied to s_word(base) as a (base_dim, base_idx, word) key."""
        w2, i2 = _face_of_degeneracy(word, i)
        if i2 is None:
            return (bd, bi, w2)
        fb, fw = face_data[bd][bi][i2]
        return (bd - 1 - len(fw), fb, compose_words(w2, fw))

    faces = [[]] + [[[face_key(*key, i) for i in range(k + 1)] for key in levels[k]]
                    for k in range(1, dim_bound + 1)]
    degens = [[[(bd, bi, word_after_degeneracy(w, j)) for j in range(k + 1)]
               for (bd, bi, w) in levels[k]] for k in range(dim_bound)]
    try:
        x, _ = _from_keys(dim_bound, levels, faces, degens)
    except KeyError:
        raise InputError("from_nondegenerate: a face names no base with a normal word") from None
    for k in range(2, dim_bound + 1):
        for n in range(len(face_data[k])):
            if _broken_face_identities(x, k, x.dims[k][n].faces):
                raise InputError(f"the faces of a new {k}-simplex break d_i d_j = d_(j-1) d_i")
    return x


# ---------------------------------------------------------------------------
# construction: vertex-tuple complexes

def from_simplex_tuples(dim_bound: int, simplices) -> SimplicialSet:
    """Simplicial set of a simplicial complex whose ``simplices`` are
    nonempty strictly increasing vertex tuples, closed under subsets, of at
    most dim_bound + 1 entries; a dim_bound that is not an int >= 0, or a
    longer, empty or unsorted tuple, or one missing a subset raises InputError.

    Its k-simplices are the nondecreasing (k+1)-tuples whose vertex set is
    a simplex, in lexicographic order, keyed by themselves.  By
    Eilenberg-Zilber each degenerate one is s_j t = t[:j+1] + t[j:] of a
    tuple t one level down, so level k is the complex's own (k+1)-tuples
    and the degeneracies of level k-1.  The builder's tuple index is kept
    in the cache, for inclusions.
    """
    _check_natural("dim_bound", dim_bound)
    simplices, own = list(simplices), {}
    for t in simplices:
        own.setdefault(len(t), []).append(t)
    # checked a column at a time; a failure names the first bad tuple in input order
    if not own.keys() <= set(range(1, dim_bound + 2)) or not all(
            all(map(operator.lt, a, b)) for level in own.values()
            for a, b in itertools.pairwise(zip(*level))):
        for t in simplices:
            if not 1 <= len(t) <= dim_bound + 1:
                raise InputError(f"from_simplex_tuples: {t} needs 1 to {dim_bound + 1} vertices")
            if not all(map(operator.lt, t, t[1:])):
                raise InputError(f"from_simplex_tuples: {t} is not strictly increasing")
    # zip cuts flat key lists into rows; combinations(t, k) lists d_k t, ...,
    # d_0 t, so a level's faces read backwards are its rows from the last up
    levels, degens = [sorted(set(own.get(1, ())))], []
    for k in range(1, dim_bound + 1):
        flat = [t[:j + 1] + t[j:] for t in levels[-1] for j in range(k)]
        degens.append([*zip(*[iter(flat)] * k)])
        levels.append(sorted({*own.get(k + 1, ()), *flat}))
    faces = [()] + [[*zip(*[reversed([*itertools.chain.from_iterable(
        map(itertools.combinations, levels[k], itertools.repeat(k)))])] * (k + 1))][::-1]
        for k in range(1, dim_bound + 1)]
    try:
        x, index = _from_keys(dim_bound, levels, faces, degens)
    except KeyError:
        raise InputError("from_simplex_tuples: simplices not closed under subsets") from None
    x._cache["tuples"] = index
    return x


def _simplex_faces(n: int, missing=()) -> list:
    """The nonempty faces of Delta[n] as vertex tuples, less ``missing``."""
    return [t for r in range(1, n + 2) for t in itertools.combinations(range(n + 1), r)
            if t not in missing]


def standard_simplex(n: int, dim_bound: int = 4) -> SimplicialSet:
    _check_natural("dim_bound", dim_bound)
    _check_natural("n", n, 0, dim_bound)
    return from_simplex_tuples(dim_bound, _simplex_faces(n))


def boundary(n: int, dim_bound: int = 4) -> SimplicialSet:
    _check_natural("dim_bound", dim_bound)
    _check_natural("n", n, 0, dim_bound)
    return from_simplex_tuples(dim_bound, _simplex_faces(n, {tuple(range(n + 1))}))


def horn(n: int, k: int, dim_bound: int = 4) -> SimplicialSet:
    _check_natural("dim_bound", dim_bound)
    _check_natural("n", n, 1, dim_bound)
    _check_natural("k", k, 0, n)
    full = tuple(range(n + 1))
    return from_simplex_tuples(dim_bound, _simplex_faces(n, {full, full[:k] + full[k + 1:]}))


def point(dim_bound: int = 4) -> SimplicialSet:
    return standard_simplex(0, dim_bound)


def empty_sset(dim_bound: int = 4) -> SimplicialSet:
    _check_natural("dim_bound", dim_bound)
    return SimplicialSet(dim_bound, [[] for _ in range(dim_bound + 1)])


def from_simplicial_complex(facets: list, dim_bound: int = 4) -> SimplicialSet:
    """Simplicial set of an abstract simplicial complex given by facets
    (iterables of hashable, comparable vertex labels).  A facet of
    dimension above ``dim_bound`` and labels that do not sort raise
    InputError."""
    _check_natural("dim_bound", dim_bound)
    facets = [set(f) for f in facets]
    try:
        rank = {v: i for i, v in enumerate(sorted(set().union(*facets)))}
    except TypeError:
        raise InputError("from_simplicial_complex: vertex labels must be comparable") from None
    faces = set()
    for f in facets:
        if len(f) > dim_bound + 1:
            raise InputError(f"from_simplicial_complex: facet {tuple(sorted(f))} above dim_bound")
        f = sorted(rank[v] for v in f)
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, r))
    return from_simplex_tuples(dim_bound, faces)


# ---------------------------------------------------------------------------
# validation

def validate_sset(x: SimplicialSet) -> list:
    """All violated structural invariants, as readable strings."""
    bad = []
    bound, dims = x.dim_bound, x.dims

    def fail(k, idx, what):
        bad.append(f"dim {k} simplex {idx}: {what}")

    for k in range(bound + 1):
        n_below = len(dims[k - 1]) if k > 0 else 0
        n_above = len(dims[k + 1]) if k + 1 <= bound else 0
        for idx, (faces, degens, _, _) in enumerate(dims[k]):
            if k == 0:
                if faces:
                    fail(k, idx, "0-simplex with faces")
            elif len(faces) != k + 1:
                fail(k, idx, f"expected {k + 1} faces")
            if any(not (0 <= f < n_below) for f in faces):
                fail(k, idx, "face index out of range")
                continue
            if k + 1 <= bound:
                if len(degens) != k + 1:
                    fail(k, idx, f"expected {k + 1} degeneracies")
                    continue
                if any(not (0 <= d < n_above) for d in degens):
                    fail(k, idx, "degeneracy index out of range")
                    continue
            elif degens:
                fail(k, idx, "degeneracies stored above dim_bound")
    if bad:
        return bad  # no point checking identities on broken tables

    for k in range(bound + 1):
        below = dims[k - 1] if k else ()
        up = dims[k + 1] if k < bound else ()
        for idx, (faces, degens, base, word) in enumerate(dims[k]):
            if k >= 2:
                bad.extend(f"dim {k} simplex {idx}: d_{i} d_{j} != d_{j-1} d_{i}"
                           for i, j in _broken_face_identities(x, k, faces))
            # s_i s_j = s_{j+1} s_i for i <= j
            if k + 2 <= bound:
                for j in range(k + 1):
                    for i in range(j + 1):
                        if up[degens[j]].degens[i] != up[degens[i]].degens[j + 1]:
                            fail(k, idx, f"s_{i} s_{j} != s_{j+1} s_{i}")
            # d_i s_j relations (at k = 0 only d_0 s_0 and d_1 s_0, both = id)
            if k + 1 <= bound:
                for j, sj in enumerate(degens):
                    got = up[sj].faces
                    for i in range(k + 2):
                        if i == j or i == j + 1:
                            want = idx
                        elif i < j:
                            want = below[faces[i]].degens[j - 1]
                        else:
                            want = below[faces[i - 1]].degens[j]
                        if got[i] != want:
                            fail(k, idx, f"d_{i} s_{j} identity fails")
            # EZ decomposition consistency
            bdim = k - len(word)
            if bdim < 0 or not (0 <= base < len(dims[bdim])):
                fail(k, idx, "decomposition out of range")
                continue
            if dims[bdim][base].word:
                fail(k, idx, "decomposition base is degenerate")
                continue
            if not all(map(operator.gt, word, word[1:])):
                fail(k, idx, "degeneracy word not strictly decreasing")
                continue
            if x.apply_word(bdim, base, word) != idx:
                fail(k, idx, "decomposition does not reproduce the simplex")
            if not word and k >= 1:
                for j in range(k):
                    if below[faces[j]].degens[j] == idx:
                        fail(k, idx, f"flagged nondegenerate but equals s_{j} d_{j}")
                        break
    return bad


# ---------------------------------------------------------------------------
# pi0

class _UnionFind:
    """Disjoint classes of 0, 1, ...; a union keeps the smaller representative."""

    def __init__(self, n):
        self.parent = list(range(n))

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, a):
        p = a
        while self.parent[p] != p:
            p = self.parent[p]
        while self.parent[a] != p:
            self.parent[a], a = p, self.parent[a]
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@memo
def pi0(x: SimplicialSet) -> list:
    """Partition of the 0-simplices into path components.

    Components are sorted lists of vertex indices, ordered by least member.
    """
    n = x.size(0)
    uf = _UnionFind(n)
    if x.dim_bound >= 1:
        for idx in x.nondeg_indices(1):
            s = x.dims[1][idx]
            uf.union(s.faces[0], s.faces[1])
    groups = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    return [sorted(g) for _, g in sorted(groups.items())]


@memo
def pi0_class_of(x: SimplicialSet) -> list:
    """vertex index -> component index (components as ordered by pi0)."""
    cls = [0] * x.size(0)
    for ci, comp in enumerate(pi0(x)):
        for v in comp:
            cls[v] = ci
    return cls


def pi0_map(f: SSetMap) -> list:
    """The component map of f: component i of the source (as ordered by
    pi0) goes to component pi0_map(f)[i] of the target."""
    tgt_class = pi0_class_of(f.target)
    return [tgt_class[f.assign[0][comp[0]]] for comp in pi0(f.source)]


# ---------------------------------------------------------------------------
# maps

class SSetMap:
    __slots__ = ("source", "target", "assign")

    def __init__(self, source: SimplicialSet, target: SimplicialSet, assign):
        if source.dim_bound != target.dim_bound:
            raise InputError("source and target must share one dim_bound")
        self.source = source
        self.target = target
        self.assign = tuple(map(tuple, assign))
        if len(self.assign) != source.dim_bound + 1:
            raise InputError("assignment must cover every tracked dimension")

    def __eq__(self, other):
        return (isinstance(other, SSetMap) and self.source == other.source
                and self.target == other.target and self.assign == other.assign)

    def __hash__(self):
        return hash((self.source, self.target, self.assign))

    def __repr__(self):
        return f"SSetMap({self.source!r} -> {self.target!r})"


def validate_sset_map(f: SSetMap) -> list:
    bad = []
    x, y = f.source, f.target
    for k in range(x.dim_bound + 1):
        if len(f.assign[k]) != x.size(k):
            bad.append(f"dim {k}: assignment not total")
            return bad
        for idx, img in enumerate(f.assign[k]):
            if not (0 <= img < y.size(k)):
                bad.append(f"dim {k} simplex {idx}: image out of range")
                return bad
    for k in range(1, x.dim_bound + 1):
        for idx, s in enumerate(x.dims[k]):
            img = f.assign[k][idx]
            for i in range(k + 1):
                if y.face(k, img, i) != f.assign[k - 1][s.faces[i]]:
                    bad.append(f"dim {k} simplex {idx}: does not commute with d_{i}")
    for k in range(x.dim_bound):
        for idx, s in enumerate(x.dims[k]):
            img = f.assign[k][idx]
            for j in range(k + 1):
                if y.degeneracy(k, img, j) != f.assign[k + 1][s.degens[j]]:
                    bad.append(f"dim {k} simplex {idx}: does not commute with s_{j}")
    return bad


def identity_map(x: SimplicialSet) -> SSetMap:
    return SSetMap(x, x, [list(range(x.size(k))) for k in range(x.dim_bound + 1)])


def compose_maps(g: SSetMap, f: SSetMap) -> SSetMap:
    """g after f."""
    if f.target != g.source:
        raise InputError("maps not composable")
    return SSetMap(f.source, g.target,
                   [[g.assign[k][f.assign[k][i]] for i in range(f.source.size(k))]
                    for k in range(f.source.dim_bound + 1)])


def is_iso_map(f: SSetMap) -> SSetMap | None:
    """Inverse of f if f is a levelwise bijection, else None."""
    inverse = []
    for k in range(f.source.dim_bound + 1):
        n, m = f.source.size(k), f.target.size(k)
        if n != m or len(set(f.assign[k])) != n:
            return None
        inv = [0] * n
        for i, img in enumerate(f.assign[k]):
            inv[img] = i
        inverse.append(inv)
    return SSetMap(f.target, f.source, inverse)


def sub_complex(x: SimplicialSet, keep: list) -> tuple:
    """Subcomplex on the kept simplices; returns (sub, inclusion, idx_maps)
    with idx_maps[k] = {old index: new index}.

    ``keep[k]`` is an iterable of indices into dimension k, which must be
    closed under faces and degeneracies (checked); the kept indices, in
    order, are the subcomplex's keys.  A nonempty level above dim_bound
    and an index that is not an int (a bool included) raise InputError.
    """
    if any(keep[x.dim_bound + 1:]):
        raise InputError("subcomplex levels above dim_bound")
    keep = [list(keep[k]) if k < len(keep) else [] for k in range(x.dim_bound + 1)]
    if any(type(i) is not int for level in keep for i in level):
        raise InputError("subcomplex indices must be ints")
    keep = [sorted(set(level)) for level in keep]
    for k, level in enumerate(keep):
        if level and not (0 <= level[0] and level[-1] < x.size(k)):
            raise InputError(f"subcomplex index out of range at dim {k}")
    recs = [[x.dims[k][i] for i in level] for k, level in enumerate(keep)]
    try:
        sub, index = _from_keys(x.dim_bound, keep, [[s.faces for s in level] for level in recs],
                                [[s.degens for s in level] for level in recs])
    except KeyError:
        raise InputError("subcomplex not closed under faces and degeneracies") from None
    return sub, SSetMap(sub, x, keep), index


def disjoint_union(x: SimplicialSet, y: SimplicialSet) -> tuple:
    """(x ⊔ y, inclusion of x, inclusion of y), keyed by (part, index)."""
    if x.dim_bound != y.dim_bound:
        raise InputError("dim_bound mismatch")
    bound, parts = x.dim_bound, (x, y)
    recs = [[(p, s) for p, part in enumerate(parts) for s in part.dims[k]]
            for k in range(bound + 1)]
    z, index = _from_keys(
        bound, [[(p, i) for p, part in enumerate(parts) for i in range(part.size(k))]
                for k in range(bound + 1)],
        [[[(p, f) for f in s.faces] for p, s in level] for level in recs],
        [[[(p, d) for d in s.degens] for p, s in level] for level in recs])
    inc_x, inc_y = (SSetMap(part, z, [[index[k][(p, i)] for i in range(part.size(k))]
                                      for k in range(bound + 1)])
                    for p, part in enumerate(parts))
    return z, inc_x, inc_y


# ---------------------------------------------------------------------------
# pullbacks

def pullback_ssets(f: SSetMap, g: SSetMap) -> tuple:
    """Levelwise pullback X x_Z Y of f: X -> Z, g: Y -> Z.

    Returns (P, pr_x, pr_y, index) where P's simplices are the (i, j)
    pairs with f(i) = g(j), in lexicographic order, and index[k] maps them
    to P's simplex indices.
    """
    if f.target != g.target:
        raise InputError("pullback needs a common target")
    x, y = f.source, g.source
    bound = x.dim_bound
    pairs = [[(i, j) for i in range(x.size(k)) for j in range(y.size(k))
              if f.assign[k][i] == g.assign[k][j]] for k in range(bound + 1)]
    recs = [[(x.dims[k][i], y.dims[k][j]) for i, j in level] for k, level in enumerate(pairs)]
    p, index = _from_keys(bound, pairs,
                          [[list(zip(s.faces, t.faces)) for s, t in level] for level in recs],
                          [[list(zip(s.degens, t.degens)) for s, t in level] for level in recs])
    pr_x = SSetMap(p, x, [[i for (i, j) in pairs[k]] for k in range(bound + 1)])
    pr_y = SSetMap(p, y, [[j for (i, j) in pairs[k]] for k in range(bound + 1)])
    return p, pr_x, pr_y, index


# ---------------------------------------------------------------------------
# attaching a nondegenerate simplex (cell attachment)

def attach_nondeg(x: SimplicialSet, k: int, faces: list) -> tuple:
    """Attach one nondegenerate k-simplex with the given faces.

    Existing indices are stable; the new simplex and its degeneracies are
    appended.  Returns (x', new_index_at_k).  A dimension or face index
    that is not an int in range (a bool included), and faces that break
    the face identities, raise InputError.
    """
    _check_natural("k", k, 0, x.dim_bound)
    if k >= 1 and len(faces) != k + 1:
        raise InputError("need k+1 faces")
    if k == 0 and faces:
        raise InputError("0-simplices have no faces")
    if any(type(c) is not int or not 0 <= c < x.size(k - 1) for c in faces):
        raise InputError("face index not an int in range")
    if _broken_face_identities(x, k, faces):
        raise InputError(f"the faces of a new {k}-simplex break d_i d_j = d_(j-1) d_i")
    bound = x.dim_bound
    # keys: the old simplices by index, then s_w(new cell) by its word w
    new = [degeneracy_words(k, d - k) if d >= k else [] for d in range(bound + 1)]

    def face_of_new(word, i):
        """d_i of s_word(new cell) as a key: its word, or an old index."""
        w2, i2 = _face_of_degeneracy(word, i)
        return w2 if i2 is None else x.apply_word(k - 1, faces[i2], w2)

    z, index = _from_keys(
        bound, [[*range(x.size(d)), *new[d]] for d in range(bound + 1)],
        [[]] + [[s.faces for s in x.dims[d]]
                + [[face_of_new(w, i) for i in range(d + 1)] for w in new[d]]
                for d in range(1, bound + 1)],
        [[s.degens for s in x.dims[d]]
         + [[word_after_degeneracy(w, j) for j in range(d + 1)] for w in new[d]]
         for d in range(bound)])
    return z, index[k][()]


# ---------------------------------------------------------------------------
# boundary and horn inclusions

def _tuple_inclusion(small: SimplicialSet, big: SimplicialSet) -> SSetMap:
    """The inclusion of one vertex-tuple set in another: each tuple of
    ``small`` looked up in the tuple index of ``big``."""
    return SSetMap(small, big, [[highs[t] for t in lows] for lows, highs
                                in zip(small._cache["tuples"], big._cache["tuples"])])


def boundary_inclusion(n: int, dim_bound: int = 4) -> SSetMap:
    """The inclusion of the boundary into the n-simplex."""
    return _tuple_inclusion(boundary(n, dim_bound), standard_simplex(n, dim_bound))


def horn_inclusion(n: int, k: int, dim_bound: int = 4) -> SSetMap:
    """The inclusion of the (n, k)-horn into the n-simplex."""
    return _tuple_inclusion(horn(n, k, dim_bound), standard_simplex(n, dim_bound))


# ---------------------------------------------------------------------------
# one search for maps under i and over p
#
# Every lifting question asks for maps g: B -> C with g . i = top (under
# i) and p . g = bottom (over p).  For simplicial functors the question is
# the simplicial-set one on every hom pair at once, so one backtracker
# serves both: it assigns the nondegenerate simplices of a list of
# (source, target) hom pairs.

def _slot_order(sources: list) -> list:
    """The nondegenerate simplices of the sources as (dim, pair, index)
    slots, by dimension, then pair, then index: the search order, which
    is part of the contract (witnesses must be reproducible)."""
    bound = sources[0].dim_bound
    return [(k, p, idx) for k in range(bound + 1)
            for p, x in enumerate(sources) for idx in x.nondeg_indices(k)]


def _pins_under(parts) -> dict | None:
    """The images that g . i = top forces on nondegenerate simplices of B.

    ``parts`` lists (pair, i, top) with i: A -> B and top: A -> C on one
    hom pair.  When i(a) = s_w(b), the equation s_w(g(b)) = top(a) pins
    g(b) to the unique c with s_w(c) = top(a).  Returns {(dim, pair, idx):
    image}, or None when no map satisfies the equation.
    """
    pins = {}
    for pair, i, top in parts:
        b, c = i.target, top.target
        for k in range(i.source.dim_bound + 1):
            for idx in i.source.nondeg_indices(k):
                rec = b.dims[k][i.assign[k][idx]]
                want = cur = top.assign[k][idx]
                dim = k
                for j in rec.word:
                    cur = c.face(dim, cur, j)
                    dim -= 1
                if c.apply_word(dim, cur, rec.word) != want:
                    return None
                if pins.setdefault((dim, pair, rec.base), cur) != cur:
                    return None
    return pins


class _SlotSearch:
    """Backtracking assignment of the nondegenerate simplices of a list of
    source complexes (one per hom pair) into target complexes.

    A slot's candidates are the target simplices whose faces are the
    images already assigned (every vertex in dimension 0), narrowed by
    pins and by the over-tables; degenerate simplices follow through
    ``apply_word``.  Its slot order is the one definition of the search
    order; ``ssetcheck`` names counterexample squares with it.  Every
    candidate tried is one step of a ``_Steps(max_nodes)`` counter shared
    by every ``run`` of one search, so ``max_nodes`` bounds one top-level
    call and BudgetExceeded is raised past it.
    """

    def __init__(self, sources: list, max_nodes=None):
        self.sources = sources
        self.slots = _slot_order(sources)
        self.steps = _Steps(max_nodes)

    def run(self, targets: list, pins: dict, over=None, check=None):
        """Image tables [pair][dim][index] of every complete assignment, in
        search order, made one at a time as they are asked for.
        ``over[pair]`` = (p, bottom) assignment tables keep a candidate c
        for (k, idx) only if p[k][c] == bottom[k][idx]; ``check(pos,
        image)`` may veto the assignment of slot ``pos``.
        """
        sources, slots = self.sources, self.slots
        assign = [[[None] * x.size(k) for k in range(x.dim_bound + 1)]
                  for x in sources]

        def image(k, p, idx):
            rec = sources[p].dims[k][idx]
            if rec.nondeg:
                return assign[p][k][idx]
            bdim = k - len(rec.word)
            return targets[p].apply_word(bdim, assign[p][bdim][rec.base], rec.word)

        def candidates(k, p, idx):
            y = targets[p]
            if k == 0:
                cands = range(y.size(0))
            else:
                faces = sources[p].dims[k][idx].faces
                cands = y.face_key_index(k).get(
                    tuple(image(k - 1, p, f) for f in faces), ())
            want = pins.get((k, p, idx))
            if want is not None:
                cands = [want] if want in cands else []
            if over is not None:
                down, bottom = over[p]
                cands = [c for c in cands if down[k][c] == bottom[k][idx]]
            return cands

        def rec(pos):
            if pos == len(slots):
                yield [[[image(k, p, i) for i in range(x.size(k))]
                        for k in range(x.dim_bound + 1)]
                       for p, x in enumerate(sources)]
                return
            k, p, idx = slots[pos]
            for c in candidates(k, p, idx):
                self.steps.charge()
                assign[p][k][idx] = c
                if check is None or check(pos, image):
                    yield from rec(pos + 1)

        return rec(0)


def _sset_maps(x: SimplicialSet, y: SimplicialSet, under=None, over=None,
               max_nodes=None, keep=None):
    """The maps of ``enumerate_sset_maps``, in its order, made one at a
    time as they are asked for.  ``keep(image)``, with image(k, idx) the
    image of the simplex (k, idx), is asked at the last slot and vetoes a
    map before it is built."""
    if x.dim_bound != y.dim_bound:
        raise InputError("dim_bound mismatch")
    pins = _pins_under([(0, *under)]) if under is not None else {}
    if pins is None:
        return
    if over is not None:
        over = [(over[0].assign, over[1].assign)]
    search = _SlotSearch([x], max_nodes)
    check = None
    if keep is not None:
        last = len(search.slots) - 1

        def check(pos, image):
            return pos < last or keep(lambda k, idx: image(k, 0, idx))

    for tables in search.run([y], pins, over, check):
        yield SSetMap(x, y, tables[0])


def enumerate_sset_maps(x: SimplicialSet, y: SimplicialSet, *, under=None,
                        over=None, first_only=False, max_nodes=None):
    """All simplicial maps g: x -> y, by exhaustive assignment on the
    nondegenerate simplices of x, dimension by dimension, in index order.

    ``under=(i, top)``, maps i: A -> x and top: A -> y, keeps the g with
    g . i = top; ``over=(p, bottom)``, maps p: y -> D and bottom: x -> D,
    keeps the g with p . g = bottom.  Images of degenerate simplices are
    determined by their decompositions.  Raises BudgetExceeded when more
    than ``max_nodes`` assignments are explored.
    """
    found = _sset_maps(x, y, under, over, max_nodes)
    return list(itertools.islice(found, 1) if first_only else found)
