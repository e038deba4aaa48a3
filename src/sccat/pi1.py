"""Edge-path presentations of fundamental groups and a triviality check.

The presentation of pi_1 uses the classical edge-path group of the
2-skeleton: generators are the nondegenerate edges of the base component
that miss a breadth-first spanning tree, relators come from the boundaries
of nondegenerate 2-simplices, with tree edges and degenerate edges read as
the identity.

Triviality is decided with cheap sound obstructions first (the invariant
factors of the abelianized relator matrix give a definite "no"), then a bounded
Todd-Coxeter coset enumeration over the trivial subgroup, one HLT pass with
deferred coincidences: if it completes, the group order is the number of
surviving cosets, which settles the question either way; if the coset table
overflows its budget the verdict is unknown.  The table has one column per
letter, 2g for generator g and 2g + 1 for its inverse, so ``c ^ 1`` is the
inverse column.  Every read resolves through a union-find of the cosets,
only relator scans merge, and a merge keeps complete rows complete and
closed relator cycles closed.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .sset import SimplicialSet, _UnionFind, _check_natural
from .verdict import Budget, BudgetExceeded, UNDECIDED_GROUP, Verdict, _Steps, _budget

# A word is a tuple of nonzero ints: +g means generator g-1, -g its inverse.
Word = tuple


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        n = len(self.generators)
        for rel in self.relators:
            for letter in rel:          # 0 is no letter
                _check_natural("relator letter", letter or None, -n, n,
                               f"relator letter {letter!r} out of range")

    @property
    def n_generators(self) -> int:
        return len(self.generators)


def free_reduce(word: Word) -> Word:
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def abelianization_invariants(p: GroupPresentation) -> tuple:
    """(betti, torsion list) of the abelianized group, read off the
    reduction of one sparse exponent-sum column per relator."""
    columns = []
    for rel in p.relators:
        col = {}
        for letter in rel:
            g = abs(letter) - 1
            col[g] = col.get(g, 0) + (1 if letter > 0 else -1)
        columns.append({g: col[g] for g in sorted(col) if col[g]})
    facs = intmat.Reduction(columns).invariant_factors()
    return (p.n_generators - len(facs), sorted(d for d in facs if d != 1))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the trivial subgroup (HLT style)

def coset_enumeration(p: GroupPresentation, max_cosets: int) -> int | None:
    """Order of the presented group if enumeration completes within
    ``max_cosets`` cosets, else None.

    Each relator is read once as its list of columns (2g for generator g,
    2g + 1 for its inverse).  Entries may point at dead cosets; every read
    resolves through the union-find ``cosets``.  Only relator scans merge:
    ``link`` fills only undefined entries of class representatives (a fresh
    coset's, or the two that end a deduction), so it never meets a
    coincidence.  A merge keeps the smaller coset and combines the two
    rows, cascading further merges; it only identifies cosets, so it keeps
    complete rows complete and closed relator cycles closed.  Each defined
    coset is one step of a ``_Steps`` that allows the ``max_cosets - 1``
    cosets after coset 0.

    One pass over the cosets in order: scan every relator at a live coset,
    then define its missing entries.  A coset live at the end was processed
    whole, and merges keep its row complete and its cycles closed, so the
    finished table needs no second look.
    """
    _check_natural("max_cosets", max_cosets)
    n_cols = 2 * p.n_generators
    relators = [[2 * abs(x) - 2 + (x < 0) for x in r]
                for r in map(free_reduce, p.relators) if r]
    table = [[None] * n_cols]
    cosets = _UnionFind(1)
    find = cosets.find
    steps = _Steps(max_cosets - 1)

    def entry(a, c):
        v = table[find(a)][c]
        return None if v is None else find(v)

    def link(a, c, b):
        table[a][c] = b
        table[b][c ^ 1] = a

    def define(a, c):
        steps.charge()
        table.append([None] * n_cols)
        link(a, c, cosets.add())

    def merge(a, b):
        stack = [(a, b)]
        while stack:
            x, y = sorted(map(find, stack.pop()))
            if x == y:
                continue
            cosets.union(x, y)
            rx = table[x]
            for c, v in enumerate(table[y]):
                if v is not None:
                    if rx[c] is None:
                        rx[c] = v
                    else:
                        stack.append((rx[c], v))

    def scan(start, cols):
        """Trace a relator from a live coset, deducing or defining until it closes."""
        while True:
            f = b = start
            i, j = 0, len(cols) - 1
            while i <= j and (nxt := entry(f, cols[i])) is not None:
                f, i = nxt, i + 1
            while j >= i and (prv := entry(b, cols[j] ^ 1)) is not None:
                b, j = prv, j - 1
            if j < i:
                return merge(f, b)
            if j == i:
                return link(f, cols[i], b)
            define(f, cols[i])

    try:
        for a, _ in enumerate(table):       # rows defined in the pass join it
            for cols in relators:
                if find(a) != a:
                    break
                scan(a, cols)
            if find(a) == a:
                for c in range(n_cols):
                    if entry(a, c) is None:
                        define(a, c)
    except BudgetExceeded:
        return None
    return sum(find(a) == a for a in range(len(table)))


def is_trivial_group(p: GroupPresentation, budget: Budget | None = None) -> Verdict:
    return _is_trivial_group(p, budget, None)


def _is_trivial_group(p: GroupPresentation, budget: Budget | None, ab) -> Verdict:
    """With the abelianization ``ab`` if it is known (H_1, by Hurewicz), else None."""
    budget = _budget(budget)
    if p.n_generators == 0:
        return Verdict.yes(witness={"reason": "no generators"})
    ab = ab or abelianization_invariants(p)
    if ab != (0, []):
        return Verdict.no(witness={"abelianization": ab})
    max_cosets = max(2, min(budget.max_steps, 20000))
    order = coset_enumeration(p, max_cosets)
    if order is None:
        return Verdict.unknown(UNDECIDED_GROUP,
                               witness={"abelianization": ab,
                                        "coset_budget": max_cosets})
    if order == 1:
        return Verdict.yes(witness={"coset_count": 1})
    return Verdict.no(witness={"order": order})


# ---------------------------------------------------------------------------
# edge-path presentation

@dataclass(frozen=True)
class EdgePathData:
    presentation: GroupPresentation
    component: tuple            # vertices of the base component
    tree_edges: tuple           # nondegenerate edge indices in the tree
    generator_of_edge: dict     # edge index -> generator number (1-based)


def edge_path_data(x: SimplicialSet, base: int) -> EdgePathData:
    _check_natural("base", base, 0, x.size(0) - 1, "base vertex out of range")
    edges = [(idx, f[1], f[0]) for idx, f in zip(x.nondeg_indices(1), x.nondeg_faces(1))
             ] if x.dim_bound >= 1 else []
    adj = {}
    for idx, tail, head in edges:
        adj.setdefault(tail, []).append((idx, head))
        adj.setdefault(head, []).append((idx, tail))

    # breadth-first spanning tree from the base, edges in index order, read
    # off one queue as it grows; the vertices it reaches are the base's path
    # component
    tree = set()
    seen = {base}
    queue = [base]
    for v in queue:
        for idx, w in sorted(adj.get(v, [])):
            if w not in seen:
                seen.add(w)
                tree.add(idx)
                queue.append(w)

    off_tree = [idx for idx, tail, _ in edges if tail in seen and idx not in tree]
    gen_of_edge = {idx: g for g, idx in enumerate(off_tree, 1)}

    # the boundary d2 d0 d1^-1 of each 2-simplex, off-tree edges only
    relators = []
    for faces in x.nondeg_faces(2) if x.dim_bound >= 2 else ():
        word = free_reduce(tuple(sign * gen_of_edge[e] for e, sign in
                                 ((faces[2], 1), (faces[0], 1), (faces[1], -1))
                                 if e in gen_of_edge))
        if word:
            relators.append(word)
    pres = GroupPresentation(generators=tuple(f"e{idx}" for idx in off_tree),
                             relators=tuple(relators))
    return EdgePathData(presentation=pres, component=tuple(sorted(seen)),
                        tree_edges=tuple(sorted(tree)),
                        generator_of_edge=gen_of_edge)


def edge_path_presentation(x: SimplicialSet, base: int) -> GroupPresentation:
    return edge_path_data(x, base).presentation


def fundamental_group_trivial(x: SimplicialSet, base: int,
                              budget: Budget | None = None) -> Verdict:
    budget = _budget(budget)
    return is_trivial_group(edge_path_presentation(x, base), budget)
