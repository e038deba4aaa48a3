"""Edge-path presentations of fundamental groups and a triviality check.

The presentation of pi_1 uses the classical edge-path group of the
2-skeleton: generators are the nondegenerate edges of the base component
that miss a breadth-first spanning tree, relators come from the boundaries
of nondegenerate 2-simplices, with tree edges and degenerate edges read as
the identity.

Triviality is decided with cheap sound obstructions first (the invariant
factors of the abelianized relator matrix give a definite "no"), then a bounded
Todd-Coxeter coset enumeration over the trivial subgroup: if it completes,
the group order is the number of surviving cosets, which settles the
question either way; if the coset table overflows its budget the verdict
is unknown.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .sset import SimplicialSet, pi0, pi0_class_of
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


def abelianized_matrix(p: GroupPresentation):
    """Exponent-sum matrix, generators as rows, relators as columns."""
    mat = intmat.zeros(p.n_generators, len(p.relators))
    for j, rel in enumerate(p.relators):
        for letter in rel:
            mat[abs(letter) - 1][j] += 1 if letter > 0 else -1
    return mat


def abelianization_invariants(p: GroupPresentation) -> tuple:
    """(betti, torsion list) of the abelianized group."""
    facs = intmat.invariant_factors(abelianized_matrix(p))
    betti = p.n_generators - len(facs)
    torsion = sorted(d for d in facs if d != 1)
    return (betti, torsion)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the trivial subgroup (HLT style)

class _CosetTable:
    """Coset table over the trivial subgroup with lazy coincidence merging.

    Entries may point at dead cosets; every read resolves through rep().
    Merging two cosets combines their rows, cascading further merges.
    """

    def __init__(self, n_gens: int, max_cosets: int):
        self.n_cols = 2 * n_gens
        self.max_cosets = max_cosets
        self.table = [[None] * self.n_cols]
        self.parent = [0]
        self.merged_flag = False

    def col(self, letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(self, c: int) -> int:
        return c ^ 1

    def rep(self, a: int) -> int:
        p = a
        while self.parent[p] != p:
            p = self.parent[p]
        while self.parent[a] != p:
            self.parent[a], a = p, self.parent[a]
        return p

    def entry(self, a: int, c: int):
        v = self.table[self.rep(a)][c]
        return None if v is None else self.rep(v)

    def define(self, a: int, c: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded("coset table full")
        b = len(self.table)
        self.table.append([None] * self.n_cols)
        self.parent.append(b)
        self.set_entry(a, c, b)
        return b

    def set_entry(self, a: int, c: int, b: int):
        a, b = self.rep(a), self.rep(b)
        ic = self.inv_col(c)
        cur = self.table[a][c]
        if cur is not None:
            self.merge(cur, b)
            return
        self.table[a][c] = b
        back = self.table[b][ic]
        if back is None:
            self.table[b][ic] = a
        elif self.rep(back) != a:
            self.merge(back, a)

    def merge(self, a: int, b: int):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = self.rep(x), self.rep(y)
            if x == y:
                continue
            self.merged_flag = True
            if y < x:
                x, y = y, x
            self.parent[y] = x
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

    def scan(self, start: int, word: Word, fill: bool):
        """Trace a relator from a coset; deduce/define when ``fill``."""
        while True:
            a = self.rep(start)
            f, b = a, a
            i, j = 0, len(word) - 1
            while i <= j:
                nxt = self.entry(f, self.col(word[i]))
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if self.rep(f) != self.rep(b):
                    self.merge(f, b)
                return
            while j >= i:
                prv = self.entry(b, self.inv_col(self.col(word[j])))
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                if self.rep(f) != self.rep(b):
                    self.merge(f, b)
                return
            if j == i:
                self.set_entry(f, self.col(word[i]), b)
                return
            if not fill:
                return
            self.define(self.rep(f), self.col(word[i]))

    def live(self) -> list:
        return [a for a in range(len(self.table)) if self.rep(a) == a]


def coset_enumeration(p: GroupPresentation, max_cosets: int) -> int | None:
    """Order of the presented group if enumeration completes, else None."""
    relators = [r for r in (free_reduce(r) for r in p.relators) if r]
    tbl = _CosetTable(p.n_generators, max_cosets)
    try:
        while True:
            a = 0
            while a < len(tbl.table):
                if tbl.rep(a) != a:
                    a += 1
                    continue
                for rel in relators:
                    if tbl.rep(a) != a:
                        break
                    tbl.scan(a, rel, fill=True)
                if tbl.rep(a) == a:
                    for c in range(tbl.n_cols):
                        if tbl.rep(a) != a:
                            break
                        if tbl.entry(a, c) is None:
                            tbl.define(a, c)
                a += 1
            # verification pass: with a complete table, every trace must
            # close without new coincidences, else run the main loop again
            tbl.merged_flag = False
            for a in tbl.live():
                for rel in relators:
                    tbl.scan(a, rel, fill=False)
            if not tbl.merged_flag:
                break
    except BudgetExceeded:
        return None
    return len(tbl.live())


def is_trivial_group(p: GroupPresentation, budget: Budget | None = None) -> Verdict:
    budget = budget or Budget()
    if p.n_generators == 0:
        return Verdict.yes(witness={"reason": "no generators"})
    ab = abelianization_invariants(p)
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
    if not (0 <= base < x.size(0)):
        raise InputError("base vertex out of range")
    comp_id = pi0_class_of(x)[base]
    component = tuple(pi0(x)[comp_id])
    in_comp = set(component)

    edges = []
    if x.dim_bound >= 1:
        edges = [(idx, x.dims[1][idx].faces[1], x.dims[1][idx].faces[0])
                 for idx in x.nondeg_indices(1)]
    adj = {}
    for idx, tail, head in edges:
        adj.setdefault(tail, []).append((idx, head))
        adj.setdefault(head, []).append((idx, tail))

    # breadth-first spanning tree from the base, edges in index order
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
        if tail in in_comp and idx not in tree:
            gen_of_edge[idx] = len(names) + 1
            names.append(f"e{idx}")

    relators = []
    if x.dim_bound >= 2:
        for idx in x.nondeg_indices(2):
            rec = x.dims[2][idx]
            verts = x.vertices_of(2, idx)
            if not verts & in_comp:
                continue
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
    return EdgePathData(presentation=pres, component=component,
                        tree_edges=tuple(sorted(tree)),
                        generator_of_edge=gen_of_edge)


def edge_path_presentation(x: SimplicialSet, base: int) -> GroupPresentation:
    return edge_path_data(x, base).presentation


def fundamental_group_trivial(x: SimplicialSet, base: int,
                              budget: Budget | None = None) -> Verdict:
    return is_trivial_group(edge_path_presentation(x, base), budget)
