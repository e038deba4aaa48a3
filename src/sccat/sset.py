"""Finite, dimension-bounded simplicial sets and their maps.

A simplicial set here stores *every* simplex up to ``dim_bound``,
degenerate ones included, as indexed tables of face and degeneracy
operators.  Each simplex record also carries its Eilenberg-Zilber
decomposition: the index of a nondegenerate base together with the
strictly decreasing degeneracy word that produces the simplex from it.
Nothing above ``dim_bound`` is stored; everything up there is degenerate
by construction, so the objects are honest ``dim_bound``-skeletal
simplicial sets.

Face and degeneracy index tables are built in two ways:

* vertex-tuple complexes (standard simplices, boundaries, horns,
  simplicial complexes), where simplices are nondecreasing vertex tuples,
  built from the complex's simplices: each level is those of its own
  dimension plus the degeneracies t[:j+1] + t[j:] of the level below;
* explicit nondegenerate skeleta (``from_nondegenerate``), where each
  nondegenerate simplex lists its faces as (base, degeneracy word) pairs,
  and the full tables are materialized from the simplicial identities.

The operations on finished sets (subcomplexes, disjoint unions,
pullbacks, cell attachment) build their tables from those of their
inputs.  Records are derived once, from the tables, by ``derive_records``.

Derived data (pi0 here, homology, component categories) is computed
once per instance through ``memo``, except the class's own accessors
(nondegenerate indices, face-key indexes, vertex sets), which the slot
search reads in its inner loop; values are treated as immutable after
construction.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Simplex:
    """One simplex record.

    ``faces[i]`` indexes dimension k-1, ``degens[j]`` dimension k+1 (only
    stored while k+1 <= dim_bound).  ``base``/``word`` give the EZ
    decomposition; a nondegenerate simplex has word () and base equal to
    its own index.
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
        if dim_bound < 0:
            raise InputError("dim_bound must be non-negative")
        if len(dims) != dim_bound + 1:
            raise InputError("dims must have dim_bound + 1 levels")
        self.dim_bound = dim_bound
        self.dims = tuple(tuple(level) for level in dims)
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

    def nondeg_indices(self, k: int) -> tuple:
        key = ("nondeg", k)
        if key not in self._cache:
            self._cache[key] = tuple(i for i, s in enumerate(self.dims[k]) if s.nondeg)
        return self._cache[key]

    def apply_word(self, dim: int, idx: int, word: tuple) -> int:
        """Index of s_word applied to the simplex (dim, idx)."""
        cur_dim, cur = dim, idx
        for j in reversed(word):
            cur = self.dims[cur_dim][cur].degens[j]
            cur_dim += 1
        return cur

    def face_key_index(self, k: int) -> dict:
        """tuple(faces) -> list of simplex indices, for dimension k >= 1."""
        key = ("facekey", k)
        if key not in self._cache:
            table = {}
            for i, s in enumerate(self.dims[k]):
                table.setdefault(s.faces, []).append(i)
            self._cache[key] = table
        return self._cache[key]

    def vertices_of(self, k: int, idx: int) -> frozenset:
        """All iterated 0-dimensional faces of the simplex."""
        key = ("verts", k, idx)
        if key not in self._cache:
            if k == 0:
                out = frozenset((idx,))
            else:
                out = frozenset().union(
                    *(self.vertices_of(k - 1, f) for f in self.dims[k][idx].faces))
            self._cache[key] = out
        return self._cache[key]

    def is_empty(self) -> bool:
        return all(len(level) == 0 for level in self.dims)


# ---------------------------------------------------------------------------
# records from tables: the one place EZ decompositions are made

def derive_records(dim_bound: int, faces_tables: list, degens_tables: list) -> list:
    """Simplex records from face and degeneracy index tables.

    ``faces_tables[k][idx]`` lists the faces of the k-simplex idx and
    ``degens_tables[k][idx]`` its degeneracies (read only for k <
    dim_bound).  A simplex x is degenerate exactly when s_j d_j x = x for
    some j; then its base is that of d_j x, read off the record already
    built one level down, and its word is s_j after the word of d_j x.
    The EZ decomposition is unique, so every constructor builds only its
    tables and derives its records here.
    """
    dims = []
    for k in range(dim_bound + 1):
        level = []
        below = dims[k - 1] if k else ()
        degens_below = degens_tables[k - 1] if k else ()
        for idx, faces in enumerate(faces_tables[k]):
            faces = tuple(faces)
            degens = tuple(degens_tables[k][idx]) if k < dim_bound else ()
            for j in range(k):
                if degens_below[faces[j]][j] == idx:
                    rec = below[faces[j]]
                    level.append(Simplex(faces, degens, rec.base,
                                         word_after_degeneracy(rec.word, j)))
                    break
            else:
                level.append(Simplex(faces, degens, idx, ()))
        dims.append(level)
    return dims


def _require_face_identities(face, k: int, faces) -> None:
    """InputError unless the faces of a new k-simplex satisfy d_i d_j =
    d_{j-1} d_i for i < j; ``face(c, i)`` is d_i of the (k-1)-simplex c."""
    if any(face(faces[j], i) != face(faces[i], j - 1)
           for j in range(1, k + 1 if k >= 2 else 0) for i in range(j)):
        raise InputError(f"the faces of a new {k}-simplex break d_i d_j = d_(j-1) d_i")


# ---------------------------------------------------------------------------
# construction: generic materialization from a nondegenerate skeleton

def from_nondegenerate(dim_bound: int, face_data: list) -> SimplicialSet:
    """Build the full tables from nondegenerate simplices only.

    ``face_data[k]`` lists the nondegenerate k-simplices; each entry is a
    list of k+1 faces, a face being ``(base_index, word)`` with
    ``base_index`` into the nondegenerate list of dimension
    ``k - 1 - len(word)`` and ``word`` a normal degeneracy word over it.
    Dimension 0 entries are ``[]``.  Nondegenerate simplices above
    ``dim_bound``, a face count other than k + 1 and a face that names no
    such base and word raise InputError.
    """
    if any(face_data[dim_bound + 1:]):
        raise InputError("from_nondegenerate: nondegenerate simplices above dim_bound")
    if len(face_data) < dim_bound + 1:
        face_data = list(face_data) + [[] for _ in range(dim_bound + 1 - len(face_data))]
    order = []  # per dim: list of (base_dim, base_idx, word)
    index = []  # per dim: map pair -> idx
    for k in range(dim_bound + 1):
        level = [(k, i, ()) for i in range(len(face_data[k]))]
        for bd in range(k):
            for bi in range(len(face_data[bd])):
                for w in degeneracy_words(bd, k - bd):
                    level.append((bd, bi, w))
        order.append(level)
        index.append({p: i for i, p in enumerate(level)})

    def face_pair(bd: int, bi: int, word: tuple, i: int) -> tuple:
        """d_i applied to s_word(base) as a (base_dim, base_idx, word) pair."""
        w2, i2 = _face_of_degeneracy(word, i)
        if i2 is None:
            return (bd, bi, w2)
        fb, fw = face_data[bd][bi][i2]
        return (bd - 1 - len(fw), fb, compose_words(w2, fw))

    faces, degens = [], []
    for k in range(dim_bound + 1):
        for cell in face_data[k]:
            if len(cell) != (k + 1 if k else 0) or any(
                    (k - 1 - len(w), b, tuple(w)) not in index[k - 1] for b, w in cell):
                raise InputError(f"from_nondegenerate: a {k}-simplex needs {k + 1 if k else 0}"
                                 " faces, each a base with a normal word over it")
        faces.append([tuple(index[k - 1][face_pair(bd, bi, w, i)] for i in range(k + 1))
                      if k else () for (bd, bi, w) in order[k]])
        for cell in faces[k][:len(face_data[k])]:
            _require_face_identities(lambda c, i: faces[k - 1][c][i], k, cell)
        if k < dim_bound:
            degens.append([tuple(index[k + 1][(bd, bi, word_after_degeneracy(w, j))]
                                 for j in range(k + 1)) for (bd, bi, w) in order[k]])
    return SimplicialSet(dim_bound, derive_records(dim_bound, faces, degens))


# ---------------------------------------------------------------------------
# construction: vertex-tuple complexes

def from_simplex_tuples(dim_bound: int, simplices) -> SimplicialSet:
    """Simplicial set of a simplicial complex whose ``simplices`` are
    nonempty sorted vertex tuples, closed under subsets, of at most
    dim_bound + 1 entries.

    Its k-simplices are the nondecreasing (k+1)-tuples whose vertex set is
    a simplex, in lexicographic order.  By Eilenberg-Zilber each
    degenerate one is s_j t = t[:j+1] + t[j:] of a tuple t one level
    down, so level k is built from level k-1 and the complex's own
    (k+1)-tuples, and the degeneracies of level k-1 are read off the same
    tuples.  The sorted tuple levels are kept in the cache, for inclusions.
    """
    own = [[] for _ in range(dim_bound + 1)]
    for t in simplices:
        own[len(t) - 1].append(t)
    levels, faces, degens, index = [], [], [], {}
    for k in range(dim_bound + 1):
        up = [[t[:j + 1] + t[j:] for j in range(k)] for t in levels[-1]] if k else []
        level = sorted({*own[k], *itertools.chain.from_iterable(up)})
        below, index = index, {t: i for i, t in enumerate(level)}
        # combinations(t, k) drops the entries of t from the last one down
        faces.append([tuple(map(below.__getitem__, itertools.combinations(t, k)))[::-1]
                      if k else () for t in level])
        if k:
            degens.append([tuple(map(index.__getitem__, row)) for row in up])
        levels.append(level)
    x = SimplicialSet(dim_bound, derive_records(dim_bound, faces, degens))
    x._cache["tuples"] = levels
    return x


def _simplex_faces(n: int, missing=()) -> list:
    """The nonempty faces of Delta[n] as vertex tuples, less ``missing``."""
    return [t for r in range(1, n + 2) for t in itertools.combinations(range(n + 1), r)
            if t not in missing]


def standard_simplex(n: int, dim_bound: int = 4) -> SimplicialSet:
    if n < 0 or n > dim_bound:
        raise InputError(f"standard_simplex: need 0 <= n <= dim_bound, got n={n}")
    return from_simplex_tuples(dim_bound, _simplex_faces(n))


def boundary(n: int, dim_bound: int = 4) -> SimplicialSet:
    if n < 0 or n > dim_bound:
        raise InputError(f"boundary: need 0 <= n <= dim_bound, got n={n}")
    return from_simplex_tuples(dim_bound, _simplex_faces(n, {tuple(range(n + 1))}))


def horn(n: int, k: int, dim_bound: int = 4) -> SimplicialSet:
    if n < 1 or n > dim_bound:
        raise InputError(f"horn: need 1 <= n <= dim_bound, got n={n}")
    if k < 0 or k > n:
        raise InputError(f"horn: need 0 <= k <= n, got k={k}")
    full = tuple(range(n + 1))
    return from_simplex_tuples(dim_bound, _simplex_faces(n, {full, full[:k] + full[k + 1:]}))


def point(dim_bound: int = 4) -> SimplicialSet:
    return standard_simplex(0, dim_bound)


def empty_sset(dim_bound: int = 4) -> SimplicialSet:
    return SimplicialSet(dim_bound, [[] for _ in range(dim_bound + 1)])


def from_simplicial_complex(facets: list, dim_bound: int = 4) -> SimplicialSet:
    """Simplicial set of an abstract simplicial complex given by facets
    (iterables of hashable, comparable vertex labels).  A facet of
    dimension above ``dim_bound`` and labels that do not sort raise
    InputError."""
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
    bound = x.dim_bound
    for k in range(bound + 1):
        n_here = x.size(k)
        n_below = x.size(k - 1) if k > 0 else 0
        n_above = x.size(k + 1) if k + 1 <= bound else 0
        for idx, s in enumerate(x.dims[k]):
            tag = f"dim {k} simplex {idx}"
            if k == 0:
                if s.faces:
                    bad.append(f"{tag}: 0-simplex with faces")
            elif len(s.faces) != k + 1:
                bad.append(f"{tag}: expected {k + 1} faces")
            if any(not (0 <= f < n_below) for f in s.faces):
                bad.append(f"{tag}: face index out of range")
                continue
            if k + 1 <= bound:
                if len(s.degens) != k + 1:
                    bad.append(f"{tag}: expected {k + 1} degeneracies")
                    continue
                if any(not (0 <= d < n_above) for d in s.degens):
                    bad.append(f"{tag}: degeneracy index out of range")
                    continue
            elif s.degens:
                bad.append(f"{tag}: degeneracies stored above dim_bound")
    if bad:
        return bad  # no point checking identities on broken tables

    for k in range(bound + 1):
        for idx, s in enumerate(x.dims[k]):
            tag = f"dim {k} simplex {idx}"
            # d_i d_j = d_{j-1} d_i for i < j
            if k >= 2:
                for j in range(1, k + 1):
                    for i in range(j):
                        lhs = x.face(k - 1, s.faces[j], i)
                        rhs = x.face(k - 1, s.faces[i], j - 1)
                        if lhs != rhs:
                            bad.append(f"{tag}: d_{i} d_{j} != d_{j-1} d_{i}")
            # s_i s_j = s_{j+1} s_i for i <= j
            if k + 2 <= bound:
                for j in range(k + 1):
                    for i in range(j + 1):
                        lhs = x.degeneracy(k + 1, s.degens[j], i)
                        rhs = x.degeneracy(k + 1, s.degens[i], j + 1)
                        if lhs != rhs:
                            bad.append(f"{tag}: s_{i} s_{j} != s_{j+1} s_{i}")
            # d_i s_j relations
            if k + 1 <= bound:
                for j in range(k + 1):
                    sj = s.degens[j]
                    for i in range(k + 2):
                        got = x.face(k + 1, sj, i)
                        if i == j or i == j + 1:
                            want = idx
                        elif i < j:
                            want = x.degeneracy(k - 1, s.faces[i], j - 1) if k >= 1 else None
                        else:
                            want = x.degeneracy(k - 1, s.faces[i - 1], j) if k >= 1 else None
                        if want is not None and got != want:
                            bad.append(f"{tag}: d_{i} s_{j} identity fails")
            # EZ decomposition consistency
            bdim = k - len(s.word)
            if bdim < 0 or not (0 <= s.base < x.size(bdim)):
                bad.append(f"{tag}: decomposition out of range")
                continue
            base_rec = x.dims[bdim][s.base]
            if base_rec.word:
                bad.append(f"{tag}: decomposition base is degenerate")
                continue
            if list(s.word) != sorted(s.word, reverse=True) or len(set(s.word)) != len(s.word):
                bad.append(f"{tag}: degeneracy word not strictly decreasing")
                continue
            if x.apply_word(bdim, s.base, s.word) != idx:
                bad.append(f"{tag}: decomposition does not reproduce the simplex")
            if not s.word and k >= 1:
                for j in range(k):
                    if x.degeneracy(k - 1, s.faces[j], j) == idx:
                        bad.append(f"{tag}: flagged nondegenerate but equals s_{j} d_{j}")
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
        self.assign = tuple(tuple(level) for level in assign)
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
    """Subcomplex on the kept simplices; returns (sub, inclusion, idx_maps).

    ``keep[k]`` is an iterable of indices into dimension k, which must be
    closed under faces and degeneracies (checked).
    """
    keep = [sorted(set(keep[k])) if k < len(keep) else [] for k in range(x.dim_bound + 1)]
    for k, level in enumerate(keep):
        if level and not (0 <= level[0] and level[-1] < x.size(k)):
            raise InputError(f"subcomplex index out of range at dim {k}")
    pos = [{idx: i for i, idx in enumerate(level)} for level in keep]
    faces, degens = [], []
    for k in range(x.dim_bound + 1):
        faces.append([])
        degens.append([])
        for idx in keep[k]:
            s = x.dims[k][idx]
            if k >= 1 and any(f not in pos[k - 1] for f in s.faces):
                raise InputError(f"subcomplex not closed under faces at dim {k}")
            if k + 1 <= x.dim_bound and any(d not in pos[k + 1] for d in s.degens):
                raise InputError(f"subcomplex not closed under degeneracies at dim {k}")
            faces[k].append(tuple(pos[k - 1][f] for f in s.faces))
            degens[k].append(tuple(pos[k + 1][d] for d in s.degens))
    sub = SimplicialSet(x.dim_bound, derive_records(x.dim_bound, faces, degens))
    incl = SSetMap(sub, x, [list(level) for level in keep])
    return sub, incl, pos


def disjoint_union(x: SimplicialSet, y: SimplicialSet) -> tuple:
    """(x ⊔ y, inclusion of x, inclusion of y)."""
    if x.dim_bound != y.dim_bound:
        raise InputError("dim_bound mismatch")
    bound = x.dim_bound
    faces, degens = [], []
    for k in range(bound + 1):
        off_below = x.size(k - 1) if k > 0 else 0
        off_above = x.size(k + 1) if k + 1 <= bound else 0
        faces.append([s.faces for s in x.dims[k]]
                     + [tuple(f + off_below for f in s.faces) for s in y.dims[k]])
        degens.append([s.degens for s in x.dims[k]]
                      + [tuple(d + off_above for d in s.degens) for s in y.dims[k]])
    z = SimplicialSet(bound, derive_records(bound, faces, degens))
    inc_x = SSetMap(x, z, [list(range(x.size(k))) for k in range(bound + 1)])
    inc_y = SSetMap(y, z, [[i + x.size(k) for i in range(y.size(k))]
                           for k in range(bound + 1)])
    return z, inc_x, inc_y


# ---------------------------------------------------------------------------
# pullbacks

def pullback_ssets(f: SSetMap, g: SSetMap) -> tuple:
    """Levelwise pullback X x_Z Y of f: X -> Z, g: Y -> Z.

    Returns (P, pr_x, pr_y, index) where index[k] maps (i, j) pairs to P's
    simplex indices.
    """
    if f.target != g.target:
        raise InputError("pullback needs a common target")
    x, y = f.source, g.source
    bound = x.dim_bound
    pairs = []
    index = []
    for k in range(bound + 1):
        level = [(i, j) for i in range(x.size(k)) for j in range(y.size(k))
                 if f.assign[k][i] == g.assign[k][j]]
        pairs.append(level)
        index.append({p: n for n, p in enumerate(level)})
    faces_tables = []
    degens_tables = []
    for k in range(bound + 1):
        faces_tables.append([
            [index[k - 1][(x.face(k, i, a), y.face(k, j, a))] for a in range(k + 1)]
            if k >= 1 else [] for (i, j) in pairs[k]])
        if k + 1 <= bound:
            degens_tables.append([
                [index[k + 1][(x.degeneracy(k, i, a), y.degeneracy(k, j, a))]
                 for a in range(k + 1)] for (i, j) in pairs[k]])
        else:
            degens_tables.append([[] for _ in pairs[k]])
    p = SimplicialSet(bound, derive_records(bound, faces_tables, degens_tables))
    pr_x = SSetMap(p, x, [[i for (i, j) in pairs[k]] for k in range(bound + 1)])
    pr_y = SSetMap(p, y, [[j for (i, j) in pairs[k]] for k in range(bound + 1)])
    return p, pr_x, pr_y, index


# ---------------------------------------------------------------------------
# attaching a nondegenerate simplex (cell attachment)

def attach_nondeg(x: SimplicialSet, k: int, faces: list) -> tuple:
    """Attach one nondegenerate k-simplex with the given faces.

    Existing indices are stable; the new simplex and its degeneracies are
    appended.  Returns (x', new_index_at_k).
    """
    if k < 0 or k > x.dim_bound:
        raise InputError("attachment dimension out of range")
    if k >= 1 and len(faces) != k + 1:
        raise InputError("need k+1 faces")
    if k == 0 and faces:
        raise InputError("0-simplices have no faces")
    if any(not 0 <= c < x.size(k - 1) for c in faces):
        raise InputError("face index out of range")
    _require_face_identities(lambda c, i: x.face(k - 1, c, i), k, faces)
    bound = x.dim_bound
    new_index = {}  # (dim, word) -> index of s_word(new cell)
    for d in range(k, bound + 1):
        for n, w in enumerate(degeneracy_words(k, d - k)):
            new_index[(d, w)] = x.size(d) + n

    def face_of_new(d, word, i):
        """d_i of s_word(new cell) as an index in dimension d-1 (old or new)."""
        w2, i2 = _face_of_degeneracy(word, i)
        if i2 is None:
            return new_index[(d - 1, w2)]
        return x.apply_word(k - 1, faces[i2], w2)  # s_w2 of an old face

    face_tables = [[s.faces for s in level] for level in x.dims]
    degen_tables = [[s.degens for s in level] for level in x.dims]
    for (d, w) in new_index:
        face_tables[d].append(tuple(face_of_new(d, w, i) for i in range(d + 1)) if d else ())
        degen_tables[d].append(tuple(new_index[(d + 1, word_after_degeneracy(w, j))]
                                     for j in range(d + 1)) if d < bound else ())
    return (SimplicialSet(bound, derive_records(bound, face_tables, degen_tables)),
            new_index[(k, ())])


# ---------------------------------------------------------------------------
# boundary and horn inclusions

def _tuple_inclusion(small: SimplicialSet, big: SimplicialSet) -> SSetMap:
    """The inclusion of one vertex-tuple set in another: each sorted level
    of ``small`` is a sublist of that of ``big``, matched in one walk."""
    assign = []
    for lows, highs in zip(small._cache["tuples"], big._cache["tuples"]):
        walk = iter(enumerate(highs))
        assign.append([next(i for i, t in walk if t == s) for s in lows])
    return SSetMap(small, big, assign)


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
