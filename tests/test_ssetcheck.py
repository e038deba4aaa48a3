from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sccat.ssetcheck import (
    SSetSquare, _unfilled, check_square_lift, enumerate_squares,
    has_rlp_sset, is_acyclic_fibration_sset, is_kan_fibration,
    is_weak_equivalence_sset, is_weakly_contractible, naive_diagonal_exists,
    unique_map_to_point,
)
from sccat.sset import (
    _tuple_inclusion, boundary, boundary_inclusion, compose_maps,
    disjoint_union, enumerate_sset_maps, from_simplicial_complex, horn,
    horn_inclusion, identity_map, point, standard_simplex,
)
from sccat.verdict import (BUDGET, UNDECIDED_GROUP, Budget, Verdict, _Steps,
                           aggregate)
from tests.test_homology import cycle
from tests.test_sset import projective_plane

B = Budget(max_dim=3)


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


def _steps_used(p, n, k):
    steps = _Steps(10**9)
    assert _rlp_by_faces(p, n, k, steps)
    return 10**9 - steps.left


def test_max_steps_bounds_all_horns_together():
    # every horn fits under the cap on its own, the whole check does not
    p = identity_map(standard_simplex(2, 2))
    per_horn = [_steps_used(p, n, k) for n in (1, 2) for k in range(n + 1)]
    cap = max(per_horn)
    assert sum(per_horn) > cap
    v = is_kan_fibration(p, Budget(max_steps=cap))
    assert v.kind == "unknown" and v.reason == BUDGET
    assert is_kan_fibration(p, Budget(max_steps=sum(per_horn))).is_yes
    assert is_kan_fibration(p, Budget(max_steps=sum(per_horn) - 1)).kind == "unknown"


def test_max_steps_bounds_all_boundaries_together():
    p = identity_map(standard_simplex(2, 2))
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
