"""Weak-contractibility, weak-equivalence and lifting checks for
simplicial sets.

Weak contractibility is certified through pi_0, the edge-path group and
integer homology; for skeletal finite complexes this combination is
complete on simply connected inputs (simple connectivity plus vanishing
reduced homology forces contractibility), so the only honest escape hatch
is an undecided fundamental group.

The weak-equivalence checker is deliberately partial: definite answers
are sound, isomorphisms and simply connected comparisons are decided, and
everything else returns unknown.

Kan and acyclic-fibration checks are decided on Yoneda data, with no map
built.  A map Delta[n] -> Y is an n-simplex of Y, and a map from the horn
(n, k) or the boundary of Delta[n] to X is a tuple of compatible
(n-1)-simplices, so the lifting property of p against a horn or boundary
is a join: compatible face tuples of X, the n-simplices of Y over them,
and a lookup of a filler among the n-simplices of X keyed by faces and
image.  Horns and boundaries are checked up to the budgeted dimension,
which the verdict qualifier records, under one step count for the whole
check.  The first one that fails names its counterexample square: the
join says which bottoms and face tuples have no filler, and the slot
search of ``sset``, the one definition of the search order, walks the
maps until the first of them.  So the square is the one the exhaustive
search ``has_rlp_sset`` finds, which stays the join's independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import homology as hml
from .pi1 import fundamental_group_trivial
from .sset import (SimplicialSet, SSetMap, _sset_maps, boundary_inclusion,
                   compose_maps, enumerate_sset_maps, horn_inclusion, is_iso_map,
                   pi0, pi0_map, standard_simplex)
from .verdict import (BUDGET, Budget, BudgetExceeded, UNDECIDED_GROUP, Verdict,
                      _Steps, aggregate)


def is_weakly_contractible(x: SimplicialSet, budget: Budget | None = None) -> Verdict:
    ok, fail = hml.reduced_homology_vanishes(x)
    if not ok:
        k, h = fail
        if k == 0:
            return Verdict.no(witness={"pi0_classes": h})
        return Verdict.no(witness={"nonvanishing_homology": {"degree": k, "value": h}})
    pi1_verdict = fundamental_group_trivial(x, pi0(x)[0][0], budget)
    if pi1_verdict.is_no:
        return Verdict.no(witness={"pi1": pi1_verdict.witness})
    if not pi1_verdict.is_definite:
        return Verdict.unknown(UNDECIDED_GROUP, witness=pi1_verdict.witness)
    return Verdict.yes(witness={"pi0_classes": 1, "pi1": "trivial",
                                "reduced_homology": "vanishes"})


def pi0_bijective(f: SSetMap) -> bool:
    m = pi0_map(f)
    return len(set(m)) == len(m) == len(pi0(f.target))


def _all_components_simply_connected(x: SimplicialSet, budget: Budget) -> Verdict:
    return aggregate([fundamental_group_trivial(x, comp[0], budget) for comp in pi0(x)])


def is_weak_equivalence_sset(f: SSetMap, budget: Budget | None = None) -> Verdict:
    """Sound, partial weak-equivalence check.

    Definite routes: isomorphisms; both sides certified weakly
    contractible; pi0 bijection + simply connected components on both
    sides + homology isomorphism through the induced chain map.  A failed
    pi0 or homology comparison is a definite no.
    """
    budget = budget or Budget()
    inv = is_iso_map(f)
    if inv is not None:
        return Verdict.yes(witness={"isomorphism": True}, route="isomorphism")
    if not pi0_bijective(f):
        return Verdict.no(witness={
            "pi0_source": len(pi0(f.source)), "pi0_target": len(pi0(f.target)),
            "pi0_map": pi0_map(f)})
    ok, fail = hml.homology_iso_all_degrees(f)
    if not ok:
        return Verdict.no(witness={"homology_failure_degree": fail,
                                   "source": hml.homology(f.source, fail),
                                   "target": hml.homology(f.target, fail)})
    # with pi0 and homology matched, both sides are weakly contractible
    # iff both are simply connected and the source is acyclic
    sc_x = _all_components_simply_connected(f.source, budget)
    sc_y = _all_components_simply_connected(f.target, budget)
    if sc_x.is_yes and sc_y.is_yes:
        if hml.reduced_homology_vanishes(f.source)[0]:
            return Verdict.yes(witness={"both_weakly_contractible": True},
                               route="contractible")
        return Verdict.yes(witness={"pi0": "bijective", "pi1": "trivial",
                                    "homology": "isomorphism"},
                           route="simply-connected")
    # a definitely nontrivial pi1 on either side leaves the comparison
    # undecided (homology cannot see it), not refuted
    return Verdict.unknown(UNDECIDED_GROUP,
                           witness={"pi1_source": sc_x.kind,
                                    "pi1_target": sc_y.kind})


# ---------------------------------------------------------------------------
# lifting of simplicial sets

@dataclass(frozen=True)
class SSetSquare:
    """Commutative square: bottom . i = p . top (i left, p right)."""
    i: SSetMap
    p: SSetMap
    top: SSetMap
    bottom: SSetMap

    def commutes(self) -> bool:
        return compose_maps(self.p, self.top) == compose_maps(self.bottom, self.i)


def check_square_lift(square: SSetSquare, diagonal: SSetMap) -> bool:
    """Independent witness verifier: both triangles commute."""
    return (compose_maps(diagonal, square.i) == square.top
            and compose_maps(square.p, diagonal) == square.bottom)


def naive_diagonal_exists(square: SSetSquare) -> bool:
    """Slow independent re-search used to re-validate DefiniteNo squares:
    plain enumeration of all maps B -> C with no pruning beyond validity."""
    b, c = square.i.target, square.p.source
    for g in enumerate_sset_maps(b, c):
        if check_square_lift(square, g):
            return True
    return False


def _squares(i: SSetMap, p: SSetMap, max_nodes=None):
    """The squares of ``enumerate_squares``, in its order: the bottoms are
    listed at once, the tops of each bottom made one at a time as they are
    asked for."""
    for bottom in enumerate_sset_maps(i.target, p.target, max_nodes=max_nodes):
        for top in _sset_maps(i.source, p.source, over=(p, compose_maps(bottom, i)),
                              max_nodes=max_nodes):
            yield SSetSquare(i=i, p=p, top=top, bottom=bottom)


def enumerate_squares(i: SSetMap, p: SSetMap, max_nodes=None):
    """All commutative squares with i on the left and p on the right.

    Bottom maps are enumerated first, then the tops over p (p . top =
    bottom . i), in deterministic search order.
    """
    return list(_squares(i, p, max_nodes))


def has_rlp_sset(p: SSetMap, i: SSetMap, budget: Budget | None = None) -> Verdict:
    """Right lifting property of p against i, by exhaustive search: each
    square's diagonal is the first map B -> C under i and over p.  Stops
    at the first square with no diagonal."""
    budget = budget or Budget()
    try:
        witnesses = []
        for sq in _squares(i, p, max_nodes=budget.max_steps):
            diag = enumerate_sset_maps(i.target, p.source, under=(i, sq.top),
                                       over=(p, sq.bottom), first_only=True,
                                       max_nodes=budget.max_steps)
            if not diag:
                return Verdict.no(witness={"square": sq})
            witnesses.append((sq, diag[0]))
    except BudgetExceeded:
        return Verdict.unknown(BUDGET)
    return Verdict.yes(witness={"lifts": witnesses})


def _unfilled(p: SSetMap, n: int, k: int | None, steps: _Steps) -> dict:
    """The squares of p: X -> Y against the horn (n, k), or the boundary of
    Delta[n] when k is None, that have no filler: {bottom y: face tuples
    over y}.  A map from the horn (boundary) to X is a tuple (x_i), i != k,
    of (n-1)-simplices with d_i x_j = d_{j-1} x_i for i < j; a map Delta[n]
    -> Y is an n-simplex y; the square commutes iff d_i y = p(x_i) for i !=
    k, and a lift is an x in X_n with d_i x = x_i and p(x) = y.  One step
    per tuple extension and per bottom y."""
    x, y, pa = p.source, p.target, p.assign
    pos = [i for i in range(n + 1) if i != k] if n else []
    # candidates for x_{pos[m]}, keyed by the faces the earlier x_i fix
    joins = []
    for m in range(len(pos)):
        known, table = pos[:m] if n >= 2 else [], {}
        for c, rec in enumerate(x.dims[n - 1]):
            table.setdefault(tuple(rec.faces[i] for i in known), []).append(c)
        joins.append(table)
    bottoms = {}
    for b, rec in enumerate(y.dims[n]):
        bottoms.setdefault(tuple(rec.faces[i] for i in pos), []).append(b)
    fillers = {(tuple(rec.faces[i] for i in pos), pa[n][c])
               for c, rec in enumerate(x.dims[n])}
    out, xs = {}, []

    def extend(m):
        if m == len(pos):
            t = tuple(xs)
            for b in bottoms.get(tuple(pa[n - 1][c] for c in xs), ()):
                steps.charge()
                if (t, b) not in fillers:
                    out.setdefault(b, []).append(t)
            return
        key = tuple(x.face(n - 1, c, pos[m] - 1) for c in xs) if n >= 2 else ()
        for c in joins[m].get(key, ()):
            steps.charge()
            xs.append(c)
            extend(m + 1)
            xs.pop()

    extend(0)
    return out


def _first_map(x: SimplicialSet, y: SimplicialSet, over, keep) -> SSetMap:
    """The first map x -> y in search order, over ``over`` = (p, bottom)
    when given, whose images ``image(k, idx)`` pass ``keep(image)``."""
    for g in _sset_maps(x, y, over=over, keep=keep):
        return g
    raise AssertionError("the face-tuple join and the slot search disagree")


def _first_square(ps: list, unfilled: list, i: SSetMap, n: int, k: int | None) -> tuple:
    """The first square with no filler among ``unfilled``, the
    ``_unfilled`` of the maps ps into one Y against i, the inclusion of the
    horn (n, k) or of the boundary (k None) into Delta[n], as (index into
    ps, top, bottom), in the order of the slot search, which is the one
    definition of it: the first bottom Delta[n] -> Y that some ps[q]
    misses, the least such q, then the first top over it whose face tuple
    ps[q] misses.  The walks have no cap and charge nothing."""
    delta = i.target
    top = delta.nondeg_indices(n)[0]
    bad = {b for miss in unfilled for b in miss}
    bottom = _first_map(delta, ps[0].target, None, lambda image: image(n, top) in bad)
    b = bottom.assign[n][top]
    q = next(q for q, miss in enumerate(unfilled) if b in miss)
    faces = [i.assign[n - 1].index(delta.face(n, top, j))
             for j in range(n + 1) if j != k] if n else []
    tuples = set(unfilled[q][b])
    up = _first_map(i.source, ps[q].source, (ps[q], compose_maps(bottom, i)),
                    lambda image: tuple(image(n - 1, c) for c in faces) in tuples)
    return q, up, bottom


def _rlp_against_cells(p: SSetMap, cells: list, bound: int, tag: str,
                       yes_witness: dict, steps: _Steps) -> Verdict:
    """RLP of p against the horn (n, k) of each cell in order, or the
    boundary of Delta[n] when k is None, charging every walk to ``steps``;
    the first cell that fails names its square by ``_first_square``."""
    d = p.source.dim_bound
    try:
        for n, k in cells:
            unfilled = _unfilled(p, n, k, steps)
            if not unfilled:
                continue
            i = boundary_inclusion(n, d) if k is None else horn_inclusion(n, k, d)
            _, top, bottom = _first_square([p], [unfilled], i, n, k)
            return Verdict.no(witness={tag: n if k is None else (n, k),
                                       "square": SSetSquare(i=i, p=p, top=top,
                                                            bottom=bottom)},
                              checked_max_dim=bound)
    except BudgetExceeded:
        return Verdict.unknown(BUDGET, checked_max_dim=bound)
    return Verdict.yes(witness=yes_witness, checked_max_dim=bound)


def _kan_fibration(p: SSetMap, budget: Budget, steps: _Steps) -> Verdict:
    """``is_kan_fibration`` with its joins charged to ``steps``, which a
    caller may share between several maps."""
    bound = min(budget.max_dim, p.source.dim_bound)
    horns = [(n, k) for n in range(1, bound + 1) for k in range(n + 1)]
    return _rlp_against_cells(p, horns, bound, "horn", {"all_horns_filled": True},
                              steps)


def is_kan_fibration(p: SSetMap, budget: Budget | None = None) -> Verdict:
    budget = budget or Budget()
    return _kan_fibration(p, budget, _Steps(budget.max_steps))


def is_acyclic_fibration_sset(p: SSetMap, budget: Budget | None = None) -> Verdict:
    budget = budget or Budget()
    bound = min(budget.max_dim, p.source.dim_bound)
    return _rlp_against_cells(p, [(n, None) for n in range(bound + 1)], bound,
                              "boundary", {"all_boundaries_lift": True},
                              _Steps(budget.max_steps))


def unique_map_to_point(x: SimplicialSet) -> SSetMap:
    pt = standard_simplex(0, x.dim_bound)
    return SSetMap(x, pt, [[0] * x.size(k) for k in range(x.dim_bound + 1)])
