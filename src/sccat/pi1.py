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
overflows its budget the verdict is unknown.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .sset import SimplicialSet, _UnionFind, _check_natural
from .verdict import Budget, BudgetExceeded, InputError, UNDECIDED_GROUP, Verdict

# A word is a tuple of nonzero ints: +g means generator g-1, -g its inverse.
Word = tuple


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        n = len(self.generators)
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > n:
                    raise InputError(f"relator letter {letter} out of range")

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
    betti = p.n_generators - len(facs)
    torsion = sorted(d for d in facs if d != 1)
    return (betti, torsion)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the trivial subgroup (HLT style)

class _CosetTable:
    """Coset table over the trivial subgroup with lazy coincidence merging.

    Entries may point at dead cosets; every read resolves through the
    union-find ``cosets``.  Merging two cosets keeps the smaller one and
    combines their rows, cascading further merges.

    Only relator scans merge.  ``set_entry`` fills only undefined entries
    of class representatives (a fresh coset's, or the two that end a
    deduction), so it never meets a coincidence.  A merge only
    identifies cosets, so it keeps complete rows complete and closed
    relator cycles closed.
    """

    def __init__(self, n_gens: int, max_cosets: int):
        self.n_cols = 2 * n_gens
        self.max_cosets = max_cosets
        self.table = [[None] * self.n_cols]
        self.cosets = _UnionFind(1)

    def col(self, letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(self, c: int) -> int:
        return c ^ 1

    def entry(self, a: int, c: int):
        v = self.table[self.cosets.find(a)][c]
        return None if v is None else self.cosets.find(v)

    def define(self, a: int, c: int):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded("coset table full")
        self.table.append([None] * self.n_cols)
        self.set_entry(a, c, self.cosets.add())

    def set_entry(self, a: int, c: int, b: int):
        self.table[a][c] = b
        self.table[b][self.inv_col(c)] = a

    def merge(self, a: int, b: int):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = self.cosets.find(x), self.cosets.find(y)
            if x == y:
                continue
            self.cosets.union(x, y)
            if y < x:
                x, y = y, x
            rx, ry = self.table[x], self.table[y]
            for c in range(self.n_cols):
                v = ry[c]
                if v is None:
                    continue
                if rx[c] is None:
                    rx[c] = v
                else:
                    stack.append((rx[c], v))
                ry[c] = None

    def scan(self, start: int, word: Word):
        """Trace a relator from a live coset, deducing or defining until it closes."""
        while True:
            f = b = start
            i, j = 0, len(word) - 1
            while i <= j:
                nxt = self.entry(f, self.col(word[i]))
                if nxt is None:
                    break
                f = nxt
                i += 1
            while j >= i:
                prv = self.entry(b, self.inv_col(self.col(word[j])))
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                self.merge(f, b)
                return
            if j == i:
                self.set_entry(f, self.col(word[i]), b)
                return
            self.define(f, self.col(word[i]))


def coset_enumeration(p: GroupPresentation, max_cosets: int) -> int | None:
    """Order of the presented group if enumeration completes, else None.

    One pass over the cosets in order: scan every relator at a live coset,
    then define its missing entries.  A coset live at the end was processed
    whole, and merges keep its row complete and its cycles closed, so the
    finished table needs no second look.
    """
    relators = [r for r in (free_reduce(r) for r in p.relators) if r]
    tbl = _CosetTable(p.n_generators, max_cosets)
    try:
        a = 0
        while a < len(tbl.table):
            for rel in relators:
                if tbl.cosets.find(a) != a:
                    break
                tbl.scan(a, rel)
            if tbl.cosets.find(a) == a:
                for c in range(tbl.n_cols):
                    if tbl.entry(a, c) is None:
                        tbl.define(a, c)
            a += 1
    except BudgetExceeded:
        return None
    return sum(tbl.cosets.find(a) == a for a in range(len(tbl.table)))


def is_trivial_group(p: GroupPresentation, budget: Budget | None = None) -> Verdict:
    return _is_trivial_group(p, budget, None)


def _is_trivial_group(p: GroupPresentation, budget: Budget | None, ab) -> Verdict:
    """With the abelianization ``ab`` if it is known (H_1, by Hurewicz), else None."""
    budget = budget or Budget()
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
    edges = []
    if x.dim_bound >= 1:
        edges = [(idx, x.dims[1][idx].faces[1], x.dims[1][idx].faces[0])
                 for idx in x.nondeg_indices(1)]
    adj = {}
    for idx, tail, head in edges:
        adj.setdefault(tail, []).append((idx, head))
        adj.setdefault(head, []).append((idx, tail))

    # breadth-first spanning tree from the base, edges in index order; the
    # vertices it reaches are the base's path component
    tree = set()
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for idx, w in sorted(adj.get(v, [])):
                if w not in seen:
                    seen.add(w)
                    tree.add(idx)
                    nxt.append(w)
        frontier = nxt

    gen_of_edge = {}
    names = []
    for idx, tail, head in edges:
        if tail in seen and idx not in tree:
            gen_of_edge[idx] = len(names) + 1
            names.append(f"e{idx}")

    relators = []
    if x.dim_bound >= 2:
        for idx in x.nondeg_indices(2):
            rec = x.dims[2][idx]
            word = []
            for edge_idx, sign in ((rec.faces[2], 1), (rec.faces[0], 1),
                                   (rec.faces[1], -1)):
                g = gen_of_edge.get(edge_idx)
                if g is not None:
                    word.append(sign * g)
            word = free_reduce(tuple(word))
            if word:
                relators.append(word)
    pres = GroupPresentation(generators=tuple(names), relators=tuple(relators))
    return EdgePathData(presentation=pres, component=tuple(sorted(seen)),
                        tree_edges=tuple(sorted(tree)),
                        generator_of_edge=gen_of_edge)


def edge_path_presentation(x: SimplicialSet, base: int) -> GroupPresentation:
    return edge_path_data(x, base).presentation


def fundamental_group_trivial(x: SimplicialSet, base: int,
                              budget: Budget | None = None) -> Verdict:
    return is_trivial_group(edge_path_presentation(x, base), budget)
