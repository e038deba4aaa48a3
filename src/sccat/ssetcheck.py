"""Weak-contractibility, weak-equivalence and lifting checks for
simplicial sets.

Weak contractibility is certified through pi_0, the edge-path group and
integer homology; for skeletal finite complexes this combination is
complete on simply connected inputs (simple connectivity plus vanishing
reduced homology forces contractibility), so the only honest escape hatch
is an undecided fundamental group.  On a connected set the abelianized
edge-path group is H_1 (Hurewicz), already computed: no relator is reduced.
``_all_components_simply_connected`` is the one place that reads it so.

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
Every lifting check here and in ``model`` joins and names squares through
one function, ``_first_miss``.  A cell on whose two levels p is a bijection
is decided without a join: the inverse of p fills every square.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import homology as hml
from .pi1 import _is_trivial_group, edge_path_presentation
from .sset import (SimplicialSet, SSetMap, _simplex, _slot_order, _sset_maps,
                   boundary_inclusion, compose_maps, enumerate_sset_maps, horn_inclusion,
                   is_iso_map, pi0, pi0_bijective, pi0_map)
from .verdict import (BUDGET, Budget, BudgetExceeded, UNDECIDED_GROUP, Verdict,
                      _Steps, _budget, aggregate)


def is_weakly_contractible(x: SimplicialSet, budget: Budget | None = None) -> Verdict:
    budget = _budget(budget)
    ok, fail = hml.reduced_homology_vanishes(x)
    if not ok:
        k, h = fail
        if k == 0:
            return Verdict.no(witness={"pi0_classes": h})
        return Verdict.no(witness={"nonvanishing_homology": {"degree": k, "value": h}})
    # x is connected and H_1 = 0
    pi1_verdict = _all_components_simply_connected(x, budget)
    if pi1_verdict.is_no:
        return Verdict.no(witness={"pi1": pi1_verdict.witness})
    if not pi1_verdict.is_definite:
        return Verdict.unknown(UNDECIDED_GROUP, witness=pi1_verdict.witness)
    return Verdict.yes(witness={"pi0_classes": 1, "pi1": "trivial",
                                "reduced_homology": "vanishes"})


def _all_components_simply_connected(x: SimplicialSet, budget: Budget | None) -> Verdict:
    ab = hml.homology(x, 1) if x.dim_bound and len(pi0(x)) == 1 else None
    return aggregate([_is_trivial_group(edge_path_presentation(x, comp[0]), budget, ab)
                      for comp in pi0(x)])


def is_weak_equivalence_sset(f: SSetMap, budget: Budget | None = None) -> Verdict:
    """Sound, partial weak-equivalence check.

    Definite routes: isomorphisms; both sides certified weakly
    contractible; pi0 bijection + simply connected components on both
    sides + homology isomorphism through the induced chain map.  A failed
    pi0 or homology comparison is a definite no.
    """
    budget = _budget(budget)
    if is_iso_map(f) is not None:
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
    return any(check_square_lift(square, g)
               for g in enumerate_sset_maps(square.i.target, square.p.source))


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
    budget = _budget(budget)
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
    k, and a lift is an x in X_n with d_i x = x_i and p(x) = y.  Tuples
    grow a position at a time, in depth-first order.  One step per tuple
    extension and per bottom y; each level is charged before it is built,
    so a call that would pass its cap raises before its list outgrows it.
    A level with no tuple ends the call: every later count is 0."""
    x, y, image, out = p.source, p.target, p.assign[n - 1], {}
    pos = [i for i in range(n + 1) if i != k] if n else []
    faces, level = [rec.faces for rec in x.dims[n - 1]], [()]
    for m, i in enumerate(pos):
        known = pos[:m] if n >= 2 else []
        if not known:
            cands = [range(len(faces))] * len(level)
        else:
            # candidates for x_i, keyed by d_j x_i = d_{i-1} x_j for the earlier j
            table, col = {}, [f[i - 1] for f in faces]
            for c, f in enumerate(faces):
                table.setdefault(tuple(map(f.__getitem__, known)), []).append(c)
            cands = [table.get(tuple(map(col.__getitem__, t)), ()) for t in level]
        steps.charge(sum(map(len, cands)))
        level = [t + (c,) for t, cs in zip(level, cands) for c in cs]
        if not level:
            return out
    bottoms = {}
    for b, rec in enumerate(y.dims[n]):
        bottoms.setdefault(tuple(map(rec.faces.__getitem__, pos)), []).append(b)
    fillers = {(tuple(map(rec.faces.__getitem__, pos)), img)
               for rec, img in zip(x.dims[n], p.assign[n])}
    overs = [bottoms.get(tuple(map(image.__getitem__, t)), ()) for t in level]
    steps.charge(sum(map(len, overs)))
    for t, over in zip(level, overs):
        for b in over:
            if (t, b) not in fillers:
                out.setdefault(b, []).append(t)
    return out


def _first_map(x: SimplicialSet, y: SimplicialSet, over, keep) -> SSetMap:
    """The first map x -> y in search order, over ``over`` = (p, bottom)
    when given, whose partial maps all pass ``keep(pos, image)`` (see
    ``_sset_maps``)."""
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
    ps[q] misses.  The walks have no cap and charge nothing.

    A map Delta[n] -> Y is its image b of the top simplex, and sends each
    simplex to the matching iterated face of b.  So the bottom walk vetoes
    a partial map as soon as a simplex gets an image that is no failing
    bottom's matching face: no map that extends it sends the top simplex to
    a failing bottom, and the first one that does is met as before.  The
    top walk asks only at its last slot, which costs a comparison a slot."""
    delta, y = i.target, ps[0].target
    slots = _slot_order([delta])
    top = slots[-1][2]
    bad = {b for miss in unfilled for b in miss}
    # the matching faces of the failing bottoms, per simplex of Delta[n]
    allowed = {(n, top): bad}
    for m in range(n, 0, -1):
        for s in delta.nondeg_indices(m):
            for j, f in enumerate(delta.dims[m][s].faces):
                if (m - 1, f) not in allowed:
                    allowed[m - 1, f] = {y.face(m, b, j) for b in allowed[m, s]}
    allowed = [allowed[m, s] for m, _, s in slots]
    bottom = _first_map(delta, y, None,
                        lambda pos, image: image(*slots[pos]) in allowed[pos])
    b = bottom.assign[n][top]
    q = next(q for q, miss in enumerate(unfilled) if b in miss)
    faces = [i.assign[n - 1].index(delta.face(n, top, j))
             for j in range(n + 1) if j != k] if n else []
    tuples = set(unfilled[q][b])
    last = sum(len(i.source.nondeg_indices(m)) for m in range(delta.dim_bound + 1)) - 1
    up = _first_map(i.source, ps[q].source, (ps[q], compose_maps(bottom, i)),
                    lambda pos, image: pos < last
                    or tuple(image(n - 1, 0, c) for c in faces) in tuples)
    return q, up, bottom


def _bijective(p: SSetMap, n: int, steps: _Steps) -> bool:
    """Whether p is a bijection on levels n - 1 and n (only 0 when n = 0), charged as
    ``Budget`` says.  Then p^-1(y) fills every square against the horn (n, k) or the
    boundary of Delta[n]: p(d_i x) = d_i y = p(x_i), and p is injective on X_{n-1}."""
    levels = p.assign[max(n - 1, 0):n + 1]
    ok = all(len(a) == p.target.size(m) == len(set(a))
             for m, a in enumerate(levels, max(n - 1, 0)))
    steps.charge(sum(map(len, levels)) if ok else 0)
    return ok


def _first_miss(ps: list, n: int, k: int | None, inclusion, steps: _Steps):
    """Join the maps ps into one Y against the horn (n, k), or the boundary
    of Delta[n] when k is None: None if every square has a filler, else (q,
    ``_first_square``'s square of ps[q]), its inclusion made by
    ``inclusion()`` on a miss only.  A map that is ``_bijective`` there
    misses nothing and is not joined."""
    unfilled = [{} if _bijective(p, n, steps) else _unfilled(p, n, k, steps) for p in ps]
    if not any(unfilled):
        return None
    i = inclusion()
    q, top, bottom = _first_square(ps, unfilled, i, n, k)
    return q, SSetSquare(i=i, p=ps[q], top=top, bottom=bottom)


def _cells(n_max: int, horns: bool) -> list:
    """The horns (n, k), 1 <= n <= n_max, if ``horns``, else (n, None), n <= n_max."""
    return ([(n, k) for n in range(1, n_max + 1) for k in range(n + 1)] if horns
            else [(n, None) for n in range(n_max + 1)])


def _rlp_against_cells(p: SSetMap, horns: bool, budget: Budget, steps: _Steps) -> Verdict:
    """RLP of p against the ``_cells`` up to min(budget.max_dim, dim_bound),
    in order, every join charged to ``steps``, which a caller may share
    between maps; the first cell that fails names its square."""
    d = p.source.dim_bound
    bound = min(budget.max_dim, d)
    try:
        for n, k in _cells(bound, horns):
            miss = _first_miss([p], n, k, lambda: boundary_inclusion(n, d) if k is None
                               else horn_inclusion(n, k, d), steps)
            if miss is not None:
                tag, cell = ("horn", (n, k)) if horns else ("boundary", n)
                return Verdict.no(witness={tag: cell, "square": miss[1]}, checked_max_dim=bound)
    except BudgetExceeded:
        return Verdict.unknown(BUDGET, checked_max_dim=bound)
    return Verdict.yes(witness={"all_horns_filled": True} if horns
                       else {"all_boundaries_lift": True}, checked_max_dim=bound)


def is_kan_fibration(p: SSetMap, budget: Budget | None = None) -> Verdict:
    budget = _budget(budget)
    return _rlp_against_cells(p, True, budget, _Steps(budget.max_steps))


def is_acyclic_fibration_sset(p: SSetMap, budget: Budget | None = None) -> Verdict:
    budget = _budget(budget)
    return _rlp_against_cells(p, False, budget, _Steps(budget.max_steps))


def unique_map_to_point(x: SimplicialSet) -> SSetMap:
    pt = _simplex(0, x.dim_bound)
    return SSetMap(x, pt, [[0] * x.size(k) for k in range(x.dim_bound + 1)])
