import pytest

from sccat.pi1 import (
    GroupPresentation, abelianization_invariants, coset_enumeration,
    edge_path_data, edge_path_presentation, free_reduce,
    fundamental_group_trivial, is_trivial_group,
)
from sccat.sset import (boundary, disjoint_union, horn, point,
                        standard_simplex)
from sccat.verdict import Budget
from tests.test_sset import projective_plane


def P(gens, rels):
    return GroupPresentation(generators=tuple(gens), relators=tuple(rels))


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -1)) == (1, 2, -1)


def test_abelianization():
    assert abelianization_invariants(P(["a"], [])) == (1, [])
    assert abelianization_invariants(P(["a"], [(1, 1, 1)])) == (0, [3])
    assert abelianization_invariants(P(["a", "b"], [(1,), (2,)])) == (0, [])


@pytest.mark.parametrize("pres,order", [
    (P(["a"], [(1,)]), 1),
    (P(["a"], [(1, 1, 1)]), 3),
    (P(["a", "b"], [(1, 1), (2, 2), (1, 2, 1, 2)]), 4),  # Klein four group
    (P(["a", "b"], [(1, -2), (1, 1, 1), (2, 2, 2, 2)]), 1),  # a=b, a^3=a^4=1
    (P([], []), 1),
])
def test_coset_enumeration_orders(pres, order):
    assert coset_enumeration(pres, 2000) == order


def test_coset_enumeration_budget():
    # Z is infinite: never completes
    assert coset_enumeration(P(["a"], []), 50) is None


def test_is_trivial_group_examples():
    assert is_trivial_group(P([], [])).is_yes
    assert is_trivial_group(P(["a"], [])).is_no          # abelianization Z
    assert is_trivial_group(P(["a"], [(1, 1, 1)])).is_no  # Z/3 via SNF
    assert is_trivial_group(P(["a"], [(1,)])).is_yes
    v = is_trivial_group(P(["a"], [(1, 1, 1)]))
    assert v.witness["abelianization"] == (0, [3])
    # A5 is perfect: the abelianization is trivial, the enumeration says no
    v = is_trivial_group(P(["a", "b"], [(1, 1), (2, 2, 2), (1, 2) * 5]))
    assert v.is_no and v.witness == {"order": 60}


def test_is_trivial_group_unknown_on_tiny_budget():
    # trivial abelianization, so only enumeration can decide; with no room
    # to enumerate the verdict must stay unknown
    pres = P(["a", "b"], [(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)])
    v = is_trivial_group(pres, Budget(max_steps=3))
    assert v.kind == "unknown"
    # with room it is the classic presentation of the trivial group
    assert is_trivial_group(pres, Budget(max_steps=10000)).is_yes


def test_edge_path_presentation_delta2_trivial():
    x = standard_simplex(2, dim_bound=2)
    pres = edge_path_presentation(x, 0)
    # one generator (edge 12 off the tree), one relator killing it
    assert pres.n_generators == 1
    assert is_trivial_group(pres).is_yes


def test_edge_path_presentation_circle_is_Z():
    x = boundary(2, dim_bound=2)
    pres = edge_path_presentation(x, 0)
    assert pres.n_generators == 1
    assert pres.relators == ()
    assert abelianization_invariants(pres) == (1, [])


def test_edge_path_presentation_point_empty():
    pres = edge_path_presentation(point(2), 0)
    assert pres.n_generators == 0
    assert is_trivial_group(pres).is_yes


def test_edge_path_projective_plane_z2():
    x = projective_plane(dim_bound=2)
    pres = edge_path_presentation(x, 0)
    assert pres.n_generators == 1
    assert abelianization_invariants(pres) == (0, [2])
    assert is_trivial_group(pres).is_no


def test_edge_path_tree_is_deterministic_bfs():
    x = boundary(2, dim_bound=2)
    data = edge_path_data(x, 0)
    # nondegenerate edges sit at indices 1=(01), 2=(02), 4=(12) in the lex
    # tuple order; BFS from vertex 0 takes the first two into the tree
    assert data.tree_edges == (1, 2)
    assert list(data.generator_of_edge) == [4]


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 2)])
def test_horns_simply_connected(n, k):
    assert fundamental_group_trivial(horn(n, k, dim_bound=3), 0).is_yes


def test_sphere_2_simply_connected():
    assert fundamental_group_trivial(boundary(3, dim_bound=3), 0).is_yes


def test_edge_path_skips_two_simplices_of_other_components():
    # a hollow and a filled triangle: the filled one's 2-simplex gives a
    # relator only at a base in its own component
    x = disjoint_union(boundary(2, 2), standard_simplex(2, 2))[0]
    hollow, filled = edge_path_data(x, 0), edge_path_data(x, 3)
    assert hollow.presentation == P(["e4"], [])
    assert hollow.component == (0, 1, 2)
    assert filled.presentation == P(["e10"], [(1,)])
    assert filled.component == (3, 4, 5)
