"""Fixtures, item lists and the hand-written expected answers.

An item is one operation of a workload.  ``run`` builds the item's inputs
fresh from the public constructors and makes one top-level call; run.py
times exactly that.  ``check`` runs outside the timed region and
compares the result with the expected answer written below from the
mathematics of each input (never by running the package), re-checking
every definite witness with the package's independent verifiers.

Why these workloads (each isolates a different layer):

* ``kan-lifting``: exhaustive lifting of simplicial sets.  Time goes to
  map enumeration (``sset``) and square search (``ssetcheck``); the Smith
  normal form (``intmat``) is never called.
* ``weak-equivalence``: homology and edge-path groups.  Time goes to
  ``intmat`` through ``homology``; no simplicial map is enumerated.
* ``factorization``: the write side.  New categories are built by
  pushouts (``words``) between rounds of functor-level lifting
  (``search``, ``scat``, ``model``).

Each list holds the items the workload is about, plus a few cheap ones
of the same kind so that the item count is 15, 17 or 25: with whole
passes, the pooled median and 90th percentile then fall inside one item's
block of samples instead of on the edge between two items, where a small
shift would swap which item they report.

The seed fixes the item order of each pass and a fresh relabelling, per
pass, of the vertices of the complexes that are used only through
identities, maps to a point or subcomplex inclusions.  Those maps stay
simplicial under a common relabelling and the known answers are homotopy
invariants, so the answer is unchanged while simplex, search and pivot
order all change.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

WORKLOADS = ("kan-lifting", "weak-equivalence", "factorization")

# outcome of a check
OK = "ok"
WRONG = "wrong"          # a definite answer or witness contradicts the math
RAISED = "raised"        # no answer: the call raised
DISHONEST = "dishonest"  # an answer that hides a truncation or a budget


@dataclass
class Item:
    name: str
    budget: str                       # human-readable, recorded with results
    run: Callable[[dict], tuple]      # relabellings -> (inputs for check, result)
    check: Callable[[Any, Any], tuple]  # -> (outcome, detail)
    probe: bool = False               # a contract probe (ROADMAP aim 3)
    roadmap_ms: float | None = None   # hand-timed ROADMAP baseline, if any


# ---------------------------------------------------------------------------
# complexes given by facets (vertex labels are small ints)

def torus_facets() -> list:
    """The 3x3 grid with opposite sides identified: 9 vertices, 18 triangles."""
    out = []
    for i in range(3):
        for j in range(3):
            a, b = 3 * i + j, 3 * ((i + 1) % 3) + j
            c, d = 3 * ((i + 1) % 3) + (j + 1) % 3, 3 * i + (j + 1) % 3
            out += [(a, b, c), (a, d, c)]
    return out


def grid_disk_facets(n: int) -> list:
    """An n x n grid of vertices, each square cut along a diagonal."""
    out = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            out += [(a, a + 1, a + n + 1), (a, a + n, a + n + 1)]
    return out


def annulus_facets() -> list:
    """A 6-cycle (vertices 0..5) times an interval (inner cycle 6..11)."""
    out = []
    for i in range(6):
        o0, o1, n0, n1 = i, (i + 1) % 6, 6 + i, 6 + (i + 1) % 6
        out += [(o0, o1, n0), (o1, n0, n1)]
    return out


# the outer boundary circle of the annulus, as faces of the complex
CYCLE_FACES = [(i,) for i in range(6)] + [(i, (i + 1) % 6) for i in range(6)]

# the boundary of Delta[3] as a complex, so that it exists at dim_bound 2
TETRAHEDRON_BOUNDARY_FACETS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
# a 2-sphere: equator 0,1,2 with apexes 3 and 4
BIPYRAMID_FACETS = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]
# collapses the lower cone onto the face {0,1,2} of the boundary of Delta[3]
BIPYRAMID_TO_BOUNDARY = (0, 1, 2, 3, 2)


def relabel(facets: list, perm: list) -> list:
    return [tuple(perm[v] for v in f) for f in facets]


def relabellings(seed: int, pass_no: int) -> dict:
    """The relabelled complexes of one pass, drawn from the seed.

    A fresh relabelling per pass lets one run average over many vertex
    orders instead of resting on one."""
    def perm(fixture, n):
        out = list(range(n))
        random.Random(f"{seed}:{pass_no}:{fixture}").shuffle(out)
        return out
    annulus = perm("annulus", 12)
    return {"torus": relabel(torus_facets(), perm("torus", 9)),
            **{f"disk{n}": relabel(grid_disk_facets(n), perm(f"disk{n}", n * n))
               for n in (3, 4, 5)},
            "annulus": relabel(annulus_facets(), annulus),
            "cycle": relabel(CYCLE_FACES, annulus)}


# ---------------------------------------------------------------------------
# inputs that take more than a single public constructor

def vertex_sequence(x, k: int, idx: int) -> tuple:
    """Vertices (as 0-simplex indices) of a k-simplex, in order."""
    out = []
    for i in range(k + 1):
        cur, d = idx, k
        for _ in range(k - i):
            cur, d = x.face(d, cur, d), d - 1
        for _ in range(i):
            cur, d = x.face(d, cur, 0), d - 1
        out.append(cur)
    return tuple(out)


def vertex_map(S, src, tgt, vmap: tuple):
    """The simplicial map between ordered complexes given on vertices."""
    assign = []
    for k in range(src.dim_bound + 1):
        table = {vertex_sequence(tgt, k, j): j for j in range(tgt.size(k))}
        assign.append([table[tuple(vmap[v] for v in vertex_sequence(src, k, i))]
                       for i in range(src.size(k))])
    return S.sset.SSetMap(src, tgt, assign)


def subcomplex_inclusion(S, x, labels: list, faces: list):
    """Inclusion of the subcomplex of x spanned by the given label faces."""
    wanted = {frozenset(f) for f in faces}
    keep = [[i for i in range(x.size(k))
             if frozenset(labels[v] for v in x.vertices_of(k, i)) in wanted]
            for k in range(x.dim_bound + 1)]
    return S.sset.sub_complex(x, keep)[1]


def projective_plane(S, dim_bound: int):
    """One vertex, one loop e, one 2-cell with faces e, s_0 v, e."""
    return S.sset.from_nondegenerate(dim_bound, [
        [[]], [[(0, ()), (0, ())]], [[(0, ()), (0, (0,)), (0, ())]]])


def empty_to(S, cat):
    return S.scat.SFunctor(source=S.scat.empty_cat(cat.dim_bound), target=cat,
                           ob_map=(), hom_maps={})


def all_nonidentity_marking(S, h):
    """Every simplex that is not an identity, closed under degeneracies."""
    marked = {}
    for (a, b) in h.object_pairs():
        entries = {(k, i) for k in range(h.dim_bound + 1)
                   for i in range(h.hom[(a, b)].size(k))
                   if not (a == b and i == h.identity_tower(a, k))}
        if entries:
            marked[(a, b)] = entries
    return S.model.GeneratorMarking.close_under_degeneracies(h, marked)


# ---------------------------------------------------------------------------
# checks (outside the timed region)

def expect_verdict(S, kind: str, reason: str | None = None, route: str | None = None,
                   square: bool = False):
    """A verdict of the given kind; with ``square``, a `no` must carry a
    counterexample square that the independent verifiers confirm."""
    def check(inputs, v):
        if not isinstance(v, S.verdict.Verdict):
            return (WRONG, f"not a Verdict: {type(v).__name__}")
        if v.kind != kind or v.reason != reason:
            return (WRONG, f"got {v.kind}({v.reason}), expected {kind}({reason})")
        if route is not None and v.qualifier.get("route") != route:
            return (WRONG, f"route {v.qualifier.get('route')!r}, expected {route!r}")
        if square:
            if not isinstance(v.witness, dict) or "square" not in v.witness:
                return (WRONG, "no counterexample square in the witness")
            return recheck_square(S, v.witness["square"])
        return OK, ""
    return check


def recheck_square(S, sq):
    if isinstance(sq, S.ssetcheck.SSetSquare):
        if not sq.commutes():
            return (WRONG, "counterexample square does not commute")
        if S.ssetcheck.naive_diagonal_exists(sq):
            return (WRONG, "naive search lifts the counterexample square")
        return OK, ""
    if not sq.commutes():
        return (WRONG, "counterexample lifting problem does not commute")
    for d in S.search.enumerate_sfunctors(sq.left.target, sq.right.source):
        if S.model.verify_lift(sq, S.model.LiftWitness(diagonal=d)):
            return (WRONG, "unconstrained search lifts the counterexample")
    return OK, ""


def expect_value(value):
    def check(inputs, got):
        return (OK, "") if got == value else (WRONG, f"got {got!r}, expected {value!r}")
    return check


def expect_value_head(value):
    """The first entry of a (answer, report) pair."""
    def check(inputs, got):
        ok = isinstance(got, tuple) and got and got[0] == value
        return (OK, "") if ok else (WRONG, f"got {got!r}, expected ({value!r}, ...)")
    return check


def expect_factorization(S, cells: int, at_least: bool = False, complete: bool = True):
    def check(f, res):
        if not isinstance(res, S.model.FactorResult):
            return (WRONG, f"not a FactorResult: {type(res).__name__}")
        if S.scat.compose_sfunctors(res.right, res.left) != f:
            return (WRONG, "right . left != f")
        if res.complete != complete:
            return (WRONG, f"complete={res.complete}, expected {complete}")
        n = len(res.cells)
        if complete and (n < cells if at_least else n != cells):
            return (WRONG, f"{n} cells, expected {'>=' if at_least else ''}{cells}")
        return OK, ""
    return check


def expect_pushout(S):
    """Stabilized, valid, and Hom(x, y) is B glued to B along A: per
    dimension 2|B| - |A| simplices (pushout of a mono along a mono)."""
    def check(inc, res):
        if not res.stabilized:
            return (WRONG, "pushout did not stabilize")
        cat = res.category
        bad = (S.scat.validate_scat(cat) + S.scat.validate_sfunctor(res.inc_base)
               + S.scat.validate_sfunctor(res.inc_attached))
        if bad:
            return (WRONG, bad[0])
        a, b = inc.source, inc.target
        sizes = [cat.hom[(0, 1)].size(k) for k in range(b.dim_bound + 1)]
        want = [2 * b.size(k) - a.size(k) for k in range(b.dim_bound + 1)]
        if sizes != want or not cat.hom[(1, 0)].is_empty():
            return (WRONG, f"Hom(x, y) sizes {sizes}, expected {want}")
        return OK, ""
    return check


def expect_built(S, sizes: list):
    def check(inputs, result):
        x, bad = result
        if bad:
            return (WRONG, bad[0])
        got = [x.size(k) for k in range(x.dim_bound + 1)]
        return (OK, "") if got == sizes else (WRONG, f"sizes {got}, expected {sizes}")
    return check


def probe_returns(S):
    """Contract: a step cap ends the free-map check with an answer (the
    current (bool, report) tuple or a Verdict); a raise fails the probe."""
    def check(inputs, res):
        if isinstance(res, S.verdict.Verdict) or (isinstance(res, tuple) and len(res) == 2):
            return OK, ""
        return (WRONG, f"unexpected return {type(res).__name__}")
    return check


def probe_dimension_visible(S, checked: int):
    """Contract: a yes checked only up to a dimension says so."""
    def check(inputs, v):
        if v.is_no:
            return (WRONG, "identity reported as not a fibration")
        if v.is_yes and v.qualifier.get("checked_max_dim") == checked:
            return OK, ""
        if v.kind == "unknown" and v.reason == "dimension-bound":
            return OK, ""
        return (DISHONEST, f"{v.kind}({v.reason}) with qualifier {v.qualifier}")
    return check


# ---------------------------------------------------------------------------
# item lists

def _budget(S, **kw):
    return S.verdict.Budget(**kw), ", ".join(f"{k}={v}" for k, v in kw.items())


def kan_lifting(S) -> list:
    sset, chk, scat, model = S.sset, S.ssetcheck, S.scat, S.model
    b2, b2s = _budget(S, max_dim=2)
    b3, b3s = _budget(S, max_dim=3)
    b50, b50s = _budget(S, max_dim=3, max_steps=50)
    bd1, bd1s = _budget(S, max_dim=1)
    yes, no = expect_verdict(S, "yes"), expect_verdict(S, "no", square=True)

    def built(x):
        return None, (x, sset.validate_sset(x))

    return [
        Item("kan id torus D3", b3s, lambda L: (None, chk.is_kan_fibration(
            sset.identity_map(sset.from_simplicial_complex(L["torus"], 3)), b3)), yes,
            roadmap_ms=597),
        Item("kan id torus D2", b2s, lambda L: (None, chk.is_kan_fibration(
            sset.identity_map(sset.from_simplicial_complex(L["torus"], 2)), b2)), yes),
        Item("kan torus->pt D2", b2s, lambda L: (None, chk.is_kan_fibration(
            chk.unique_map_to_point(sset.from_simplicial_complex(L["torus"], 2)), b2)), no),
        Item("kan id Delta[3] D3", b3s, lambda L: (None, chk.is_kan_fibration(
            sset.identity_map(sset.standard_simplex(3, 3)), b3)), yes),
        Item("kan horn[2,1]->pt D2", b2s, lambda L: (None, chk.is_kan_fibration(
            chk.unique_map_to_point(sset.horn(2, 1, 2)), b2)), no),
        Item("acyclic-fib id bd[2] D2", b2s, lambda L: (None, chk.is_acyclic_fibration_sset(
            sset.identity_map(sset.boundary(2, 2)), b2)), yes),
        Item("acyclic-fib bd[2]->pt D2", b2s, lambda L: (None, chk.is_acyclic_fibration_sset(
            chk.unique_map_to_point(sset.boundary(2, 2)), b2)), no),
        Item("fibration U(id torus) D2", b2s, lambda L: (None, model.is_fibration(
            scat.functor_U_map(sset.identity_map(sset.from_simplicial_complex(L["torus"], 2))),
            b2)), yes),
        Item("kan id Delta[3] D3 max_steps=50", b50s, lambda L: (None, chk.is_kan_fibration(
            sset.identity_map(sset.standard_simplex(3, 3)), b50)),
            expect_verdict(S, "unknown", "budget-exhausted")),
        Item("build+validate Delta[4] D4", "-", lambda L: built(sset.standard_simplex(4, 4)),
             expect_built(S, [comb(5 + k, k + 1) for k in range(5)]), roadmap_ms=7),
        Item("acyclic-fib id torus D2", b2s, lambda L: (None, chk.is_acyclic_fibration_sset(
            sset.identity_map(sset.from_simplicial_complex(L["torus"], 2)), b2)), yes),
        Item("kan id annulus D2", b2s, lambda L: (None, chk.is_kan_fibration(
            sset.identity_map(sset.from_simplicial_complex(L["annulus"], 2)), b2)), yes),
        Item("kan Delta[1]->pt D2", b2s, lambda L: (None, chk.is_kan_fibration(
            chk.unique_map_to_point(sset.standard_simplex(1, 2)), b2)), no),
        Item("acyclic-fib Delta[2]->pt D2", b2s, lambda L: (None, chk.is_acyclic_fibration_sset(
            chk.unique_map_to_point(sset.standard_simplex(2, 2)), b2)), no),
        Item("probe fibration U(id horn[2,1]) D3 max_dim=1", bd1s, lambda L: (
            None, model.is_fibration(
                scat.functor_U_map(sset.identity_map(sset.horn(2, 1, 3))), bd1)),
            probe_dimension_visible(S, 1), probe=True),
    ]


def weak_equivalence(S) -> list:
    sset, chk, scat, model, hml = S.sset, S.ssetcheck, S.scat, S.model, S.homology
    cb = S.constructions_basic
    b, bs = _budget(S, max_dim=2, max_words=16, max_steps=500_000)
    yes, no = expect_verdict(S, "yes"), expect_verdict(S, "no")
    contractible = expect_verdict(S, "yes", route="contractible")

    def weq(f):
        return None, chk.is_weak_equivalence_sset(f, b)

    def disk_item(n):
        return Item(f"weq disk{n}x{n}->pt D2", bs, lambda L: weq(chk.unique_map_to_point(
            sset.from_simplicial_complex(L[f"disk{n}"], 2))), contractible)

    def bipyramid_item(d):
        return Item(f"weq bipyramid->bd[3] D{d}", bs, lambda L: weq(vertex_map(
            S, sset.from_simplicial_complex(BIPYRAMID_FACETS, d),
            sset.from_simplicial_complex(TETRAHEDRON_BOUNDARY_FACETS, d),
            BIPYRAMID_TO_BOUNDARY)), expect_verdict(S, "yes", route="simply-connected"))

    def annulus_inclusion(L):
        x = sset.from_simplicial_complex(L["annulus"], 2)
        return subcomplex_inclusion(S, x, sorted({v for f in L["annulus"] for v in f}),
                                    L["cycle"])

    return [
        disk_item(3), disk_item(4), disk_item(5),
        bipyramid_item(2), bipyramid_item(3),
        Item("weq horn[3,1]->Delta[3] D3", bs, lambda L: weq(sset.horn_inclusion(3, 1, 3)),
             contractible),
        Item("weq horn[4,2]->Delta[4] D4", bs, lambda L: weq(sset.horn_inclusion(4, 2, 4)),
             contractible),
        Item("weq bd[3]->Delta[3] D3", bs, lambda L: weq(sset.boundary_inclusion(3, 3)), no),
        Item("weq torus->pt D2", bs, lambda L: weq(chk.unique_map_to_point(
            sset.from_simplicial_complex(L["torus"], 2))), no),
        Item("weq 6-cycle->annulus D2", bs, lambda L: weq(annulus_inclusion(L)),
             expect_verdict(S, "unknown", "undecided-group")),
        Item("weq horn[2,1]->Delta[2] D2", bs, lambda L: weq(sset.horn_inclusion(2, 1, 2)),
             contractible),
        Item("weq bd[2]->Delta[2] D2", bs, lambda L: weq(sset.boundary_inclusion(2, 2)), no),
        Item("weq annulus->pt D2", bs, lambda L: weq(chk.unique_map_to_point(
            sset.from_simplicial_complex(L["annulus"], 2))), no),
        Item("contractible horn[3,1] D3", bs, lambda L: (None, chk.is_weakly_contractible(
            sset.horn(3, 1, 3), b)), yes),
        Item("contractible bd[3] D3", bs, lambda L: (None, chk.is_weakly_contractible(
            sset.boundary(3, 3), b)), no),
        Item("contractible Delta[4] D4", bs, lambda L: (None, chk.is_weakly_contractible(
            sset.standard_simplex(4, 4), b)), yes),
        Item("contractible disk5x5 D2", bs, lambda L: (None, chk.is_weakly_contractible(
            sset.from_simplicial_complex(L["disk5"], 2), b)), yes),
        Item("contractible torus D2", bs, lambda L: (None, chk.is_weakly_contractible(
            sset.from_simplicial_complex(L["torus"], 2), b)), no),
        Item("contractible RP2 D2", bs, lambda L: (None, chk.is_weakly_contractible(
            projective_plane(S, 2), b)), no),
        Item("dk U(horn[2,1]->Delta[2]) D2", bs, lambda L: (None, model.is_dk_equivalence(
            scat.functor_U_map(sset.horn_inclusion(2, 1, 2)), b)), yes),
        Item("dk U(bd[2]->Delta[2]) D2", bs, lambda L: (None, model.is_dk_equivalence(
            scat.functor_U_map(sset.boundary_inclusion(2, 2)), b)), no),
        Item("dk id codiscrete(3) D2", bs, lambda L: (None, model.is_dk_equivalence(
            scat.identity_sfunctor(cb.codiscrete_groupoid(3, 2)), b)), yes),
        Item("H1 torus D3", "-", lambda L: (None, hml.homology(
            sset.from_simplicial_complex(L["torus"], 3), 1)), expect_value((2, [])),
             roadmap_ms=5),
        Item("homology iso id torus D3", "-", lambda L: (None, hml.homology_iso_all_degrees(
            sset.identity_map(sset.from_simplicial_complex(L["torus"], 3)))),
             expect_value((True, None)), roadmap_ms=118),
        Item("homology iso id disk4x4 D2", "-", lambda L: (None, hml.homology_iso_all_degrees(
            sset.identity_map(sset.from_simplicial_complex(L["disk4"], 2)))),
             expect_value((True, None))),
    ]


def factorization(S) -> list:
    sset, scat, model, words = S.sset, S.scat, S.model, S.words
    cb = S.constructions_basic
    b2, b2s = _budget(S, max_dim=2, max_words=16, max_steps=500_000)
    b3, b3s = _budget(S, max_dim=3, max_words=16, max_steps=500_000)
    b5, b5s = _budget(S, max_dim=2, max_words=16, max_steps=5)
    yes = expect_verdict(S, "yes")

    def factor(f, gens, budget):
        return f, model.factor_bounded(f, gens, budget)

    def pushout(inc, d):
        base = scat.functor_U(inc.target)
        att = words.Attachment.from_sset_mono(inc)
        budget = S.verdict.Budget(max_dim=d, max_words=16, max_steps=500_000)
        return inc, words.pushout_generating(
            base, att, words.glue_for_u(att, base, 0, 1, inc), budget)

    def pushout_item(label, make, d):
        return Item(f"pushout {label} into U(Delta[{d}]) D{d}",
                    f"max_dim={d}, max_words=16, max_steps=500000",
                    lambda L: pushout(make(d), d), expect_pushout(S))

    def free_map(steps):
        h = scat.functor_U(sset.boundary(1, 2))
        return None, model.is_free_map(model.coproduct_inclusion_functor(h),
                                       all_nonidentity_marking(S, h), max_steps=steps)

    def codiscrete3_identity():
        return scat.identity_sfunctor(cb.codiscrete_groupoid(3, 2))

    def non_surjective():
        cat = cb.codiscrete_groupoid(2, 2)
        return cb.inclusion_of_object(cat, 0, scat.singleton_cat(2))

    return [
        Item("factor U(horn[2,1]->Delta[2]) A1(n<=2) D2", b2s, lambda L: factor(
            scat.functor_U_map(sset.horn_inclusion(2, 1, 2)),
            model.generating_acyclic_a1(2, 2), b2),
            expect_factorization(S, 1, at_least=True), roadmap_ms=123),
        Item("factor U(horn[3,1]->Delta[3]) A1(n<=3) D3", b3s, lambda L: factor(
            scat.functor_U_map(sset.horn_inclusion(3, 1, 3)),
            model.generating_acyclic_a1(3, 3), b3), expect_factorization(S, 1)),
        Item("factor empty->walking arrow C1(n<=1)+C2 D2", b2s, lambda L: factor(
            empty_to(S, cb.walking_arrow(2)), model.generating_cofibrations(1, 2), b2),
            expect_factorization(S, 3)),
        Item("factor U(pt->Delta[1]) A1(n<=2) D2", b2s, lambda L: factor(
            scat.functor_U_map(sset.horn_inclusion(1, 0, 2)),
            model.generating_acyclic_a1(2, 2), b2), expect_factorization(S, 1)),
        Item("factor empty->{x} C2 D2", b2s, lambda L: factor(
            empty_to(S, scat.singleton_cat(2)), [model.c2_generator(2)], b2),
            expect_factorization(S, 1)),
        pushout_item("horn[2,1]", lambda d: sset.horn_inclusion(2, 1, d), 2),
        pushout_item("horn[3,1]", lambda d: sset.horn_inclusion(3, 1, d), 3),
        pushout_item("horn[4,2]", lambda d: sset.horn_inclusion(4, 2, d), 4),
        pushout_item("bd[2]", lambda d: sset.boundary_inclusion(2, d), 2),
        pushout_item("bd[3]", lambda d: sset.boundary_inclusion(3, d), 3),
        Item("route (a) id codiscrete(3) D2", b2s, lambda L: (
            None, model.is_acyclic_fibration(codiscrete3_identity(), b2)), yes),
        Item("route (b) id codiscrete(3) D2", b2s, lambda L: (
            None, model.is_acyclic_fibration_by_rlp(codiscrete3_identity(), b2)), yes,
            roadmap_ms=37),
        Item("route (b) {x}->codiscrete(2) D2", b2s, lambda L: (
            None, model.is_acyclic_fibration_by_rlp(non_surjective(), b2)),
            expect_verdict(S, "no", square=True)),
        Item("free map {x}+{y}->U(bd[1]) D2", "max_steps=1000000",
             lambda L: free_map(10**6), expect_value_head(True)),
        Item("probe factor U(horn[2,1]->Delta[2]) max_steps=5", b5s, lambda L: factor(
            scat.functor_U_map(sset.horn_inclusion(2, 1, 2)),
            model.generating_acyclic_a1(2, 2), b5),
            expect_factorization(S, 0, complete=False), probe=True),
        Item("probe factor empty->codiscrete(2) C1(n<=1)+C2", b2s, lambda L: factor(
            empty_to(S, cb.codiscrete_groupoid(2, 2)),
            model.generating_cofibrations(1, 2), b2),
            expect_factorization(S, 0, complete=False), probe=True),
        Item("probe free map max_steps=3", "max_steps=3", lambda L: free_map(3),
             probe_returns(S), probe=True),
    ]


ITEM_LISTS = {"kan-lifting": kan_lifting, "weak-equivalence": weak_equivalence,
            "factorization": factorization}


def build_items(workload: str, S) -> list:
    return ITEM_LISTS[workload](S)
