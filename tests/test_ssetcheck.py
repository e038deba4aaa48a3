import itertools
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sccat import sset
from sccat.homology import homology_iso_all_degrees
from sccat.ssetcheck import (
    SSetSquare, _bijective, _first_miss, _first_square, _unfilled, check_square_lift,
    enumerate_squares, has_rlp_sset, is_acyclic_fibration_sset, is_kan_fibration,
    is_weak_equivalence_sset, is_weakly_contractible, naive_diagonal_exists,
    unique_map_to_point,
)
from sccat.sset import (
    Simplex, SimplicialSet, SSetMap, _SlotSearch, _sset_maps, _tuple_inclusion, boundary,
    boundary_inclusion, compose_maps, disjoint_union, empty_sset, enumerate_sset_maps,
    from_nondegenerate, from_simplicial_complex, horn, horn_inclusion, identity_map,
    is_iso_map, point, standard_simplex, validate_sset, validate_sset_map,
)
from sccat.verdict import (BUDGET, UNDECIDED_GROUP, Budget, BudgetExceeded, Verdict,
                           _Steps, aggregate)
from tests.test_homology import annulus_facets, cycle, torus_facets
from tests.test_sset import projective_plane

B = Budget(max_dim=3)


# -- records made only when read -----------------------------------------------

@pytest.fixture
def record_builds(monkeypatch):
    """One entry per record build from now on (calls of sset._derive_records)."""
    calls, real = [], sset._derive_records

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(sset, "_derive_records", counted)
    return calls


def _torus_identity():
    return identity_map(from_simplicial_complex(torus_facets(), 3))


@pytest.mark.parametrize("check, want", [
    (lambda: is_weak_equivalence_sset(horn_inclusion(4, 2, 4)).kind, "yes"),
    (lambda: is_weakly_contractible(standard_simplex(4, 4)).kind, "yes"),
    (lambda: homology_iso_all_degrees(_torus_identity()), (True, None)),
    (lambda: is_kan_fibration(_torus_identity()).kind, "yes"),
], ids=["weq horn(4,2)", "contractible Delta[4]", "homology iso id torus", "kan id torus"])
def test_the_checks_on_tuple_sets_make_no_records(check, want, record_builds):
    assert check() == want
    assert record_builds == []


def test_the_records_of_a_tuple_set_are_made_once_on_the_first_read(record_builds):
    x = standard_simplex(4, 4)
    assert record_builds == []
    dims = x.dims
    assert record_builds == [4] and type(x) is SimplicialSet
    assert x.dims is dims and record_builds == [4]


# -- weak contractibility ----------------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_simplices_weakly_contractible(n):
    assert is_weakly_contractible(standard_simplex(n, dim_bound=4)).is_yes


@pytest.mark.parametrize("n", range(1, 5))
def test_boundaries_not_weakly_contractible(n):
    v = is_weakly_contractible(boundary(n, dim_bound=4))
    assert v.is_no


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 4) for k in range(n + 1)])
def test_horns_weakly_contractible(n, k):
    assert is_weakly_contractible(horn(n, k, dim_bound=3)).is_yes


def test_boundary_1_fails_on_pi0():
    v = is_weakly_contractible(boundary(1, dim_bound=2))
    assert v.is_no and v.witness["pi0_classes"] == 2


def test_projective_plane_fails_on_homology():
    v = is_weakly_contractible(projective_plane(dim_bound=3))
    assert v.is_no and "nonvanishing_homology" in v.witness


def test_empty_not_weakly_contractible():
    from sccat.sset import empty_sset
    assert is_weakly_contractible(empty_sset(2)).is_no


# -- weak equivalence --------------------------------------------------------

def test_identity_is_weq():
    for x in [boundary(2, 2), standard_simplex(2, 2), projective_plane(2)]:
        assert is_weak_equivalence_sset(identity_map(x)).is_yes


def test_horn_inclusion_is_weq():
    v = is_weak_equivalence_sset(horn_inclusion(2, 1, dim_bound=2))
    assert v.is_yes


def test_boundary_inclusion_not_weq():
    v = is_weak_equivalence_sset(boundary_inclusion(2, dim_bound=2))
    assert v.is_no
    assert v.witness["homology_failure_degree"] == 1


def test_point_into_two_points_not_weq():
    two = boundary(1, dim_bound=2)
    pt = point(2)
    maps = enumerate_sset_maps(pt, two)
    v = is_weak_equivalence_sset(maps[0])
    assert v.is_no  # pi0 not bijective


def test_weq_unknown_on_non_simply_connected():
    # identity would be an iso; use the double cover-ish self-map instead:
    # any self-map of the projective plane that is not an isomorphism
    x = projective_plane(dim_bound=2)
    candidates = [f for f in enumerate_sset_maps(x, x)
                  if f != identity_map(x)]
    # the collapse onto the vertex: pi0 bijective, homology NOT iso -> no
    seen_kinds = {is_weak_equivalence_sset(f).kind for f in candidates}
    assert "yes" not in seen_kinds


def with_whisker(facets, d):
    """The inclusion of the complex into itself plus a new edge (0, v)."""
    v = 1 + max(max(f) for f in facets)
    return _tuple_inclusion(from_simplicial_complex(facets, d),
                            from_simplicial_complex(facets + [(0, v)], d))


@pytest.mark.parametrize("d", [2, 3])
def test_weq_decided_on_simply_connected_sides(d):
    # the boundary of Delta[3] is simply connected but not contractible
    f = with_whisker([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], d)
    v = is_weak_equivalence_sset(f)
    assert v.is_yes and v.qualifier == {"route": "simply-connected"}
    assert v.witness == {"pi0": "bijective", "pi1": "trivial",
                         "homology": "isomorphism"}


@pytest.mark.parametrize("d", [2, 3])
def test_weq_undecided_when_pi1_is_nontrivial(d):
    # a 3-cycle: pi0 and homology match, pi1 = Z on both sides
    v = is_weak_equivalence_sset(with_whisker([(0, 1), (1, 2), (0, 2)], d))
    assert v.kind == "unknown" and v.reason == UNDECIDED_GROUP
    assert v.witness == {"pi1_source": "no", "pi1_target": "no"}


def test_weq_reflexive_and_composition_closed():
    cases = [horn_inclusion(2, 1, 2), horn_inclusion(2, 0, 2)]
    for f in cases:
        assert is_weak_equivalence_sset(f).is_yes
    # compose a chain of definite weqs: horn -> simplex -> point? the
    # collapse simplex -> point is a weq too, and the composite must be
    d2 = standard_simplex(2, dim_bound=2)
    collapse = unique_map_to_point(d2)
    assert is_weak_equivalence_sset(collapse).is_yes
    comp = compose_maps(collapse, horn_inclusion(2, 1, 2))
    assert is_weak_equivalence_sset(comp).is_yes


# -- lifting -----------------------------------------------------------------

def test_rlp_point_identity():
    pt = point(2)
    p = identity_map(pt)
    i = horn_inclusion(2, 1, dim_bound=2)
    assert has_rlp_sset(p, i, B).is_yes


def test_rlp_counterexample_boundary_vs_horn():
    # the boundary of the triangle has an unfillable horn
    p = unique_map_to_point(boundary(2, dim_bound=2))
    i = horn_inclusion(2, 1, dim_bound=2)
    v = has_rlp_sset(p, i, B)
    assert v.is_no
    sq = v.witness["square"]
    # re-validate the counterexample with the independent naive search
    assert not naive_diagonal_exists(sq)


def test_lift_witnesses_revalidate():
    p = unique_map_to_point(standard_simplex(2, dim_bound=2))
    i = horn_inclusion(2, 1, dim_bound=2)
    v = has_rlp_sset(p, i, B)
    assert v.is_yes
    for sq, diag in v.witness["lifts"]:
        assert check_square_lift(sq, diag)


def test_delta2_fills_inner_horn_but_not_outer():
    # nerves of posets fill inner horns only: the outer horn V[2,0] has a
    # square with no filler, computed by the exhaustive search itself
    p = unique_map_to_point(standard_simplex(2, dim_bound=2))
    assert has_rlp_sset(p, horn_inclusion(2, 1, 2), B).is_yes
    v0 = has_rlp_sset(p, horn_inclusion(2, 0, 2), B)
    assert v0.is_no
    assert not naive_diagonal_exists(v0.witness["square"])


def test_kan_point_and_sphere():
    assert is_kan_fibration(unique_map_to_point(point(2)), B).is_yes
    v = is_kan_fibration(unique_map_to_point(boundary(2, dim_bound=2)), B)
    assert v.is_no


def test_kan_delta2_is_not_kan():
    v = is_kan_fibration(unique_map_to_point(standard_simplex(2, 2)), B)
    assert v.is_no  # outer horns fail on nerves of non-groupoids


def test_kan_verdict_carries_dimension_qualifier():
    v = is_kan_fibration(unique_map_to_point(point(2)), Budget(max_dim=2))
    assert v.qualifier["checked_max_dim"] == 2


def test_acyclic_fibration_point_cases():
    assert is_acyclic_fibration_sset(identity_map(point(2)), B).is_yes
    # Delta[1] -> point fails against the boundary of Delta[1]: the square
    # sending the two boundary points to 1, 0 has no lift (no edge 1 -> 0)
    p = unique_map_to_point(standard_simplex(1, dim_bound=2))
    v = is_acyclic_fibration_sset(p, B)
    assert v.is_no
    assert not naive_diagonal_exists(v.witness["square"])


def test_acyclic_fibration_identity_on_sphere():
    assert is_acyclic_fibration_sset(identity_map(boundary(2, 2)), B).is_yes


def test_square_search_stops_at_the_first_square_without_a_lift(monkeypatch):
    # Delta[2] -> point against the outer horn (2, 0): the 4th of 14
    # squares has no filler, and no square after it is made
    from sccat import ssetcheck
    i = horn_inclusion(2, 0, dim_bound=2)
    p = unique_map_to_point(standard_simplex(2, dim_bound=2))
    squares = enumerate_squares(i, p)
    made = []
    monkeypatch.setattr(ssetcheck, "SSetSquare",
                        lambda **kw: made.append(1) or SSetSquare(**kw))
    v = has_rlp_sset(p, i, B)
    assert v.is_no
    assert len(made) == squares.index(v.witness["square"]) + 1 == 4
    assert len(squares) == 14


def test_enumerate_squares_commute():
    i = horn_inclusion(2, 1, dim_bound=2)
    p = unique_map_to_point(standard_simplex(2, dim_bound=2))
    for sq in enumerate_squares(i, p):
        assert sq.commutes()


# -- the face-tuple decision against the exhaustive search -------------------

def _rlp_by_faces(p, n, k, steps):
    """Whether p has the RLP against the horn (n, k), or against the
    boundary of Delta[n] when k is None: whether the join misses no square."""
    return not _unfilled(p, n, k, steps)


def kan_by_search(p, budget):
    """The Kan check as one exhaustive square search per horn."""
    bound = min(budget.max_dim, p.source.dim_bound)
    sub = []
    for n in range(1, bound + 1):
        for k in range(n + 1):
            v = has_rlp_sset(p, horn_inclusion(n, k, p.source.dim_bound), budget)
            if v.is_no:
                return Verdict.no(witness={"horn": (n, k), **v.witness},
                                  checked_max_dim=bound)
            sub.append(v)
    return aggregate(sub, witness_on_yes={"all_horns_filled": True},
                     checked_max_dim=bound)


def acyclic_fibration_by_search(p, budget):
    """The acyclic-fibration check as one exhaustive square search per
    boundary."""
    bound = min(budget.max_dim, p.source.dim_bound)
    sub = []
    for n in range(bound + 1):
        v = has_rlp_sset(p, boundary_inclusion(n, p.source.dim_bound), budget)
        if v.is_no:
            return Verdict.no(witness={"boundary": n, **v.witness},
                              checked_max_dim=bound)
        sub.append(v)
    return aggregate(sub, witness_on_yes={"all_boundaries_lift": True},
                     checked_max_dim=bound)


def _lifting_complexes(dim_bound):
    out = [point(dim_bound), boundary(1, dim_bound), standard_simplex(1, dim_bound),
           standard_simplex(2, dim_bound), boundary(2, dim_bound),
           horn(2, 0, dim_bound), horn(2, 1, dim_bound), cycle(3, dim_bound)]
    if dim_bound >= 3:
        out += [standard_simplex(3, dim_bound), horn(3, 1, dim_bound)]
    return out


LIFTING_COMPLEXES = {d: _lifting_complexes(d) for d in (2, 3)}


@lru_cache(maxsize=None)
def lifting_maps(dim_bound, i, j):
    spaces = LIFTING_COMPLEXES[dim_bound]
    return enumerate_sset_maps(spaces[i], spaces[j])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_face_tuple_decision_equals_square_search(data):
    dim_bound = data.draw(st.sampled_from([2, 3]))
    last = len(LIFTING_COMPLEXES[dim_bound]) - 1
    i, j = data.draw(st.integers(0, last)), data.draw(st.integers(0, last))
    maps = lifting_maps(dim_bound, i, j)
    if not maps:
        return
    p = data.draw(st.sampled_from(maps))
    for fast, slow in [(is_kan_fibration, kan_by_search),
                       (is_acyclic_fibration_sset, acyclic_fibration_by_search)]:
        v = fast(p, Budget())
        assert v == slow(p, Budget())
        if v.is_no:
            square = v.witness["square"]
            assert square.commutes()
            assert not naive_diagonal_exists(square)


# -- one step budget per top-level call --------------------------------------

def test_kan_budget_exhausted_keeps_checked_dimension():
    v = is_kan_fibration(identity_map(standard_simplex(3, 3)),
                         Budget(max_dim=3, max_steps=50))
    assert v.kind == "unknown" and v.reason == BUDGET
    assert v.qualifier["checked_max_dim"] == 3


@pytest.mark.parametrize("fields", [
    {"max_dim": 1.5}, {"max_words": 2.0}, {"max_steps": True}, {"max_dim": "3"},
    {"max_steps": 0}, {"max_words": -1},
])
def test_budget_fields_must_be_positive_ints(fields):
    with pytest.raises(ValueError):
        Budget(**fields)


def _steps_used(p, n, k):
    steps = _Steps(10**9)
    assert _rlp_by_faces(p, n, k, steps)
    return 10**9 - steps.left


def fold_map(x):
    """The fold map X + X -> X, a trivial double cover: a Kan fibration
    that is not an isomorphism, so each of its cells is joined."""
    z, *incs = disjoint_union(x, x)
    assign = [[None] * z.size(k) for k in range(x.dim_bound + 1)]
    for inc in incs:
        for k, level in enumerate(inc.assign):
            for i, j in enumerate(level):
                assign[k][j] = i
    return SSetMap(z, x, assign)


def codiscrete_nerve():
    """The nerve of the codiscrete groupoid on two objects through dimension
    2: its map to a point is an acyclic fibration there, and no level of it
    is a bijection."""
    return from_nondegenerate(2, [[[], []], [[(1, ()), (0, ())], [(0, ()), (1, ())]],
                                  [[(1, ()), (0, (0,)), (0, ())], [(0, ()), (1, (0,)), (1, ())]]])


def test_max_steps_bounds_all_horns_together():
    # every horn fits under the cap on its own, the whole check does not
    p = fold_map(standard_simplex(2, 2))
    per_horn = [_steps_used(p, n, k) for n in (1, 2) for k in range(n + 1)]
    cap = max(per_horn)
    assert sum(per_horn) > cap
    v = is_kan_fibration(p, Budget(max_steps=cap))
    assert v.kind == "unknown" and v.reason == BUDGET
    assert is_kan_fibration(p, Budget(max_steps=sum(per_horn))).is_yes
    assert is_kan_fibration(p, Budget(max_steps=sum(per_horn) - 1)).kind == "unknown"


def test_max_steps_bounds_all_boundaries_together():
    p = unique_map_to_point(codiscrete_nerve())
    total = sum(_steps_used(p, n, None) for n in range(3))
    assert is_acyclic_fibration_sset(p, Budget(max_steps=total)).is_yes
    v = is_acyclic_fibration_sset(p, Budget(max_steps=total - 1))
    assert v.kind == "unknown" and v.reason == BUDGET


def test_naming_the_square_of_a_no_charges_no_step():
    # the boundary of Delta[2] -> point: the horns (1, 0), (1, 1) lift and
    # (2, 0) does not, so the joins' total is exactly enough for the no
    p = unique_map_to_point(boundary(2, 2))
    steps = _Steps(10**9)
    assert _rlp_by_faces(p, 1, 0, steps) and _rlp_by_faces(p, 1, 1, steps)
    assert not _rlp_by_faces(p, 2, 0, steps)
    total = 10**9 - steps.left
    v = is_kan_fibration(p, Budget(max_steps=total))
    assert v.is_no and v.witness["horn"] == (2, 0)
    assert not naive_diagonal_exists(v.witness["square"])
    v = is_kan_fibration(p, Budget(max_steps=total - 1))
    assert v.kind == "unknown" and v.reason == BUDGET


def test_no_names_its_square_from_the_join():
    # two points onto the ends of Delta[1] next to eight more points: the
    # join of the horn (1, 0) takes five steps and names its square, where
    # the square search first enumerates every map Delta[1] -> Y over ten
    # vertices and runs out of twenty steps
    y, inc, _ = disjoint_union(standard_simplex(1, 2),
                               from_simplicial_complex([(v,) for v in range(8)], 2))
    p = compose_maps(inc, boundary_inclusion(1, 2))
    assert not _rlp_by_faces(p, 1, 0, _Steps(5))
    assert has_rlp_sset(p, horn_inclusion(1, 0, 2), Budget(max_steps=20)).kind == "unknown"
    v = is_kan_fibration(p, Budget(max_steps=20))
    assert v == kan_by_search(p, Budget())
    assert v.is_no and v.witness["horn"] == (1, 0)
    assert not naive_diagonal_exists(v.witness["square"])


# -- the level-at-a-time join against the depth-first one --------------------

def _unfilled_by_recursion(p, n, k, steps):
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


def _surface_maps(dim_bound):
    out = []
    for facets in (torus_facets(), annulus_facets()):
        x = from_simplicial_complex(facets, dim_bound)
        out += [identity_map(x), unique_map_to_point(x)]
    return out


SURFACE_MAPS = {d: _surface_maps(d) for d in (2, 3)}


def _join_result(join, p, n, k, cap):
    """(items of the join's dict in order, steps used), or None if it raised."""
    steps = _Steps(cap)
    try:
        out = join(p, n, k, steps)
    except BudgetExceeded:
        return None
    return list(out.items()), cap - steps.left


def assert_join_matches_recursion(p):
    """On every horn and boundary through p's dim_bound: the same dict, in
    key and list order, the same step total, and the same raise-or-not at
    caps 0, 1, total // 3, total - 1 and total."""
    d = p.source.dim_bound
    for n, k in [(n, k) for n in range(d + 1) for k in ([*range(n + 1), None] if n else [None])]:
        slow = _join_result(_unfilled_by_recursion, p, n, k, 10**9)
        assert _join_result(_unfilled, p, n, k, 10**9) == slow
        total = slow[1]
        for cap in {0, 1, total // 3, max(total - 1, 0), total}:
            assert ((_join_result(_unfilled, p, n, k, cap) is None)
                    == (_join_result(_unfilled_by_recursion, p, n, k, cap) is None)
                    == (cap < total))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_join_equals_the_depth_first_join(data):
    dim_bound = data.draw(st.sampled_from([2, 3]))
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from(SURFACE_MAPS[dim_bound]))
    else:
        last = len(LIFTING_COMPLEXES[dim_bound]) - 1
        maps = lifting_maps(dim_bound, data.draw(st.integers(0, last)),
                            data.draw(st.integers(0, last)))
        if not maps:
            return
        p = data.draw(st.sampled_from(maps))
    assert_join_matches_recursion(p)


@pytest.mark.parametrize("d, q", [(d, q) for d in (2, 3) for q in range(4)])
def test_join_equals_the_depth_first_join_on_surfaces(d, q):
    assert_join_matches_recursion(SURFACE_MAPS[d][q])


# -- the step counter --------------------------------------------------------

def test_charge_of_nothing_never_raises():
    for cap in (0, 3, None):
        steps = _Steps(cap)
        steps.charge(0)
        if cap:
            steps.charge(cap)
        steps.charge(0)


@pytest.mark.parametrize("cap", [0, 1, 5, 12])
def test_a_count_raises_exactly_when_the_total_passes_the_cap(cap):
    for counts in ([cap + 1], [1] * (cap + 1), [cap // 2, cap - cap // 2, 1], [0, cap, 0, 2]):
        steps, total = _Steps(cap), 0
        for c in counts:
            total += c
            if total > cap:
                with pytest.raises(BudgetExceeded):
                    steps.charge(c)
                break
            steps.charge(c)
        else:
            raise AssertionError("no count passed the cap")


def test_one_counter_across_cells_stops_at_one_total():
    # the horns of the torus's map to a point share one count: a cap of the
    # total lets every join finish, one step less stops at the last horn
    p = SURFACE_MAPS[2][1]
    cells = [(n, k) for n in (1, 2) for k in range(n + 1)]
    total = sum(_join_result(_unfilled, p, n, k, 10**9)[1] for n, k in cells)
    for cap, raised_at in [(total, None), (total - 1, cells[-1])]:
        steps, stopped = _Steps(cap), None
        for n, k in cells:
            try:
                _unfilled(p, n, k, steps)
            except BudgetExceeded:
                stopped = (n, k)
                break
        assert stopped == raised_at


# -- the pruned bottom walk against the walk that asks only at the last slot -----

def _first_map_at_last_slot(x, y, over, keep):
    """The first map x -> y in search order, over ``over`` when given, whose
    images pass ``keep(image)``, asked only when every slot is assigned."""
    search = _SlotSearch([x])
    last = len(search.slots) - 1
    tables = None if over is None else [(over[0].assign, over[1].assign)]

    def check(pos, image):
        return pos < last or keep(lambda k, idx: image(k, 0, idx))

    for found in search.run([y], {}, tables, check):
        return SSetMap(x, y, found[0])
    raise AssertionError("the face-tuple join and the slot search disagree")


def first_square_at_last_slot(ps, unfilled, i, n, k):
    """``_first_square`` as it was before its bottom walk was pruned: both
    walks ask ``keep`` at the last slot only."""
    delta = i.target
    top = delta.nondeg_indices(n)[0]
    bad = {b for miss in unfilled for b in miss}
    bottom = _first_map_at_last_slot(delta, ps[0].target, None,
                                     lambda image: image(n, top) in bad)
    b = bottom.assign[n][top]
    q = next(q for q, miss in enumerate(unfilled) if b in miss)
    faces = [i.assign[n - 1].index(delta.face(n, top, j))
             for j in range(n + 1) if j != k] if n else []
    tuples = set(unfilled[q][b])
    up = _first_map_at_last_slot(i.source, ps[q].source, (ps[q], compose_maps(bottom, i)),
                                 lambda image: tuple(image(n - 1, c) for c in faces) in tuples)
    return q, up, bottom


def cells_through(d):
    """Every horn (n, k) and boundary (n, None) through dimension d."""
    return [(n, k) for n in range(d + 1) for k in ([*range(n + 1), None] if n else [None])]


def assert_first_squares_match(p):
    """On every cell p misses: the same (q, top, bottom) as the old walk."""
    d = p.source.dim_bound
    for n, k in cells_through(d):
        unfilled = _unfilled(p, n, k, _Steps(None))
        if unfilled:
            i = boundary_inclusion(n, d) if k is None else horn_inclusion(n, k, d)
            assert (_first_square([p], [unfilled], i, n, k)
                    == first_square_at_last_slot([p], [unfilled], i, n, k))


@pytest.mark.parametrize("d, per_pair", [(2, None), (3, 6)])
def test_pruned_walk_names_the_old_squares_on_the_fixture_maps(d, per_pair):
    # every map at D2 (352), the first six of each pair of spaces at D3
    last = len(LIFTING_COMPLEXES[d]) - 1
    maps = [p for i in range(last + 1) for j in range(last + 1)
            for p in lifting_maps(d, i, j)[:per_pair]] + SURFACE_MAPS[d]
    for p in maps:
        assert_first_squares_match(p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_pruned_walk_names_the_old_squares_on_vertex_tuple_complexes(data):
    # two complexes on at most five vertices, and one of the first maps
    # between them
    d = data.draw(st.sampled_from([2, 3]))
    spaces = []
    for _ in range(2):
        n = data.draw(st.integers(1, 5))
        facets = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=d + 1,
                                             unique=True), min_size=1, max_size=4))
        spaces.append(from_simplicial_complex(facets, d))
    maps = list(itertools.islice(_sset_maps(*spaces), 12))
    if maps:
        assert_first_squares_match(data.draw(st.sampled_from(maps)))


# -- a join whose tuples run out ends at once ----------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_join_of_an_empty_source_equals_the_depth_first_join(d):
    # the hom Hom(y, x) of U(X) is empty: its joins are the ones whose
    # tuples run out, and they end at the first level
    for y in LIFTING_COMPLEXES[d]:
        assert_join_matches_recursion(SSetMap(empty_sset(d), y, [[] for _ in range(d + 1)]))


# -- a bijective cell is decided without a join ----------------------------------

def relabelled(x):
    """The isomorphism from x onto a copy of x that lists the simplices of
    every level in reverse order."""
    pos = [[len(level) - 1 - i for i in range(len(level))] for level in x.dims]
    dims = [[Simplex(tuple(pos[k - 1][f] for f in s.faces),
                     tuple(pos[k + 1][j] for j in s.degens),
                     pos[k - len(s.word)][s.base], s.word) for s in reversed(level)]
            for k, level in enumerate(x.dims)]
    return SSetMap(x, SimplicialSet(x.dim_bound, dims), pos)


def relabellings(d):
    """The relabelling of each fixture complex and surface."""
    return [relabelled(x) for x in LIFTING_COMPLEXES[d] + [p.source for p in SURFACE_MAPS[d][::2]]]


def isomorphisms(d):
    """The identity and the relabelling of each fixture complex and surface."""
    return [f for r in relabellings(d) for f in (identity_map(r.source), r)]


@pytest.mark.parametrize("d", [2, 3])
def test_relabellings_are_isomorphisms_and_move_every_level_of_two_simplices(d):
    for f in relabellings(d):
        assert validate_sset(f.target) == validate_sset_map(f) == []
        assert is_iso_map(f) is not None
        assert all(level != list(range(len(level))) for level in f.assign if len(level) > 1)


@pytest.mark.parametrize("d", [2, 3])
def test_checks_equal_the_square_search_on_every_fixture_map(d):
    # every map between the fixture complexes (their identities among
    # them), the surface maps (the surfaces' identities among them), and
    # the relabelling of each complex and surface
    last = len(LIFTING_COMPLEXES[d]) - 1
    maps = [p for i in range(last + 1) for j in range(last + 1) for p in lifting_maps(d, i, j)]
    for p in maps + SURFACE_MAPS[d] + relabellings(d):
        for fast, slow in [(is_kan_fibration, kan_by_search),
                           (is_acyclic_fibration_sset, acyclic_fibration_by_search)]:
            assert fast(p, Budget()) == slow(p, Budget())


def _commuting_squares(p, n, k):
    """Every commuting square of p against the horn (n, k), or the boundary
    when k is None, that ``_unfilled`` walks, as {bottom: face tuples}: with
    the n-simplices of X hidden no square has a filler, so it lists them all."""
    hidden = SimpleNamespace(source=SimpleNamespace(dims=p.source.dims[:n] + ((),)),
                             target=p.target, assign=p.assign)
    return _unfilled(hidden, n, k, _Steps(None))


@pytest.mark.parametrize("d", [2, 3])
def test_the_inverse_fills_every_square_of_a_bijective_cell(d):
    for p in isomorphisms(d):
        inverse = is_iso_map(p)
        for n, k in cells_through(d):
            assert _bijective(p, n, _Steps(None))
            pos = [i for i in range(n + 1) if i != k] if n else []
            squares = _commuting_squares(p, n, k)
            assert len(squares) == p.target.size(n)
            for b, tuples in squares.items():
                x = inverse.assign[n][b]
                assert p.assign[n][x] == b
                assert all(tuple(p.source.face(n, x, i) for i in pos) == t for t in tuples)


def _charged(p, n, k):
    """The steps ``_first_miss`` charges for p alone on one cell."""
    d, steps = p.source.dim_bound, _Steps(10**9)
    _first_miss([p], n, k, lambda: boundary_inclusion(n, d) if k is None
                else horn_inclusion(n, k, d), steps)
    return 10**9 - steps.left


def test_a_bijective_cell_charges_a_step_per_simplex_read_and_no_more_than_its_join():
    for p in (identity_map(standard_simplex(3, 3)), relabelled(SURFACE_MAPS[3][0].source)):
        x = p.source
        for n, k in cells_through(3):
            read = x.size(n) + (x.size(n - 1) if n else 0)
            assert _charged(p, n, k) == read
            assert _join_result(_unfilled, p, n, k, 10**9)[1] >= read


def test_a_cell_that_is_no_bijection_charges_its_join():
    # the non-injective self-maps of the D2 fixtures, whose level sizes
    # agree, and the fold map, whose sizes differ: the old join totals
    maps = [p for i in range(len(LIFTING_COMPLEXES[2])) for p in lifting_maps(2, i, i)
            if is_iso_map(p) is None] + [fold_map(standard_simplex(2, 2))]
    assert len(maps) > 1
    for p in maps:
        for n, k in cells_through(2):
            assert _charged(p, n, k) == _join_result(_unfilled, p, n, k, 10**9)[1]
