from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sccat import homology as hml, intmat
from sccat.homology import (
    DimensionBoundError, betti, boundary_matrix, chain_map_matrix, homology,
    homology_iso_all_degrees, homology_map_is_iso, reduced_homology_vanishes,
)
from sccat.sset import (
    SimplicialSet, SSetMap, boundary, boundary_inclusion, derive_records,
    disjoint_union, enumerate_sset_maps, from_nondegenerate, from_simplicial_complex, horn,
    horn_inclusion, identity_map, pi0, point, standard_simplex,
)
from sccat.ssetcheck import is_weakly_contractible
from sccat.verdict import StructureError
from tests.test_sset import IDENTIFIED_FACES, projective_plane


def test_boundary_matrix_of_triangle_hand_checked():
    # oracle: hand row-reduction of the vertex/edge incidence of d Delta[2];
    # edges in lexicographic order (01), (02), (12)
    x = boundary(2, dim_bound=2)
    m = boundary_matrix(x, 1)
    assert m == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    # rank 2 by hand: row reduce -> two pivots
    assert homology(x, 1) == (1, [])
    assert homology(x, 0) == (1, [])


@pytest.mark.parametrize("k,expected", [(0, (1, [])), (1, (0, [])),
                                        (2, (0, [])), (3, (0, []))])
def test_homology_of_delta3(k, expected):
    assert homology(standard_simplex(3, dim_bound=3), k) == expected


def test_homology_of_sphere_2():
    x = boundary(3, dim_bound=3)
    assert homology(x, 0) == (1, [])
    assert homology(x, 1) == (0, [])
    assert homology(x, 2) == (1, [])


def test_homology_of_sphere_3_top_degree_exact():
    # the top tracked degree is computable because the object is skeletal
    x = boundary(4, dim_bound=4)
    assert homology(x, 3) == (1, [])
    assert homology(x, 2) == (0, [])


def test_homology_degree_out_of_range():
    x = standard_simplex(2, dim_bound=2)
    with pytest.raises(DimensionBoundError):
        homology(x, 3)
    with pytest.raises(DimensionBoundError):
        homology(x, -1)


def test_chain_complex_checked_once_per_complex(monkeypatch):
    # d_k d_{k+1} for k = 1, 2, 3, multiplied out once for all degrees
    products = []
    mul_columns = intmat.mul_columns
    monkeypatch.setattr(intmat, "mul_columns",
                        lambda a, b: products.append(1) or mul_columns(a, b))
    x = standard_simplex(3, dim_bound=3)
    for k in range(4):
        homology(x, k)
    assert len(products) == 3


def triangle_on_one_edge():
    """A triangle whose three faces are one edge e (d_0 e = 1, d_1 e = 0),
    built from its tables: the constructors reject such faces."""
    faces = [[(), ()],
             [(1, 0), (0, 0), (1, 1)],                         # e, s_0 0, s_0 1
             [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 1), (2, 0, 0)]]
    degens = [[(1,), (2,)], [(3, 4), (1, 1), (2, 2)], [()] * 5]
    return SimplicialSet(2, derive_records(2, faces, degens))


def test_nonzero_boundary_squared_raises_on_every_call():
    # a triangle whose three faces are one edge: d d sigma = d e != 0
    x = triangle_on_one_edge()
    for _ in range(2):
        for k in range(3):
            with pytest.raises(StructureError):
                homology(x, k)


def test_homology_torsion_projective_plane():
    x = projective_plane(dim_bound=3)
    assert homology(x, 0) == (1, [])
    assert homology(x, 1) == (0, [2])
    assert homology(x, 2) == (0, [])


def test_betti_0_equals_pi0_everywhere():
    cases = [standard_simplex(2, 3), boundary(3, 3), horn(3, 1, 3),
             disjoint_union(point(3), boundary(2, 3))[0],
             projective_plane(3)]
    for x in cases:
        assert betti(x, 0) == len(pi0(x))


def test_reduced_homology_vanishes():
    ok, _ = reduced_homology_vanishes(standard_simplex(2, dim_bound=2))
    assert ok
    bad, (k, _) = reduced_homology_vanishes(boundary(2, dim_bound=2))
    assert not bad and k == 1


def test_identity_induces_homology_iso():
    x = boundary(2, dim_bound=2)
    ok, _ = homology_iso_all_degrees(identity_map(x))
    assert ok


def test_boundary_inclusion_not_homology_iso():
    inc = boundary_inclusion(2, dim_bound=2)
    assert not homology_map_is_iso(inc, 1)


def test_horn_inclusion_is_homology_iso():
    inc = horn_inclusion(2, 1, dim_bound=2)
    ok, _ = homology_iso_all_degrees(inc)
    assert ok


def test_collapse_to_point_iso_iff_contractible():
    pt = point(2)
    f = enumerate_sset_maps(standard_simplex(2, dim_bound=2), pt)[0]
    ok, _ = homology_iso_all_degrees(f)
    assert ok
    g = enumerate_sset_maps(boundary(2, dim_bound=2), pt)[0]
    assert not homology_map_is_iso(g, 1)


def test_chain_map_kills_degenerate_images():
    # collapse of Delta[1] onto a point sends the edge to a degeneracy
    d1 = standard_simplex(1, dim_bound=1)
    f = enumerate_sset_maps(d1, point(1))[0]
    m = chain_map_matrix(f, 1)
    assert m == [[0]] or m == []


def cycle(n, dim_bound):
    """n vertices and n edges, edge i running from vertex i to vertex i+1."""
    return from_nondegenerate(dim_bound, [
        [[] for _ in range(n)],
        [[((i + 1) % n, ()), (i, ())] for i in range(n)]])


def test_double_wrap_of_circle_is_not_homology_iso():
    # H_1 is Z on both sides, but the double wrap multiplies it by 2
    c6, c3 = cycle(6, 2), cycle(3, 2)
    wrap = next(f for f in enumerate_sset_maps(c6, c3)
                if f.assign[0] == (0, 1, 2, 0, 1, 2))
    assert homology(c6, 1) == homology(c3, 1) == (1, [])
    assert homology_map_is_iso(wrap, 0)
    assert not homology_map_is_iso(wrap, 1)
    assert homology_iso_all_degrees(wrap) == (False, 1)


def test_cycle_mapped_to_a_non_cycle_raises():
    # not a simplicial map: every edge of the 3-cycle goes to edge 0, so
    # the fundamental cycle goes to 3 * edge 0, which has a boundary
    c3 = cycle(3, 2)
    assign = [list(level) for level in identity_map(c3).assign]
    assign[1][:3] = [0, 0, 0]
    with pytest.raises(StructureError):
        homology_map_is_iso(SSetMap(c3, c3, assign), 1)


# ---------------------------------------------------------------------------
# oracle: f is a homology isomorphism iff its mapping cone is acyclic

def _rank_of_chains(x, k):
    return len(x.nondeg_indices(k)) if 0 <= k <= x.dim_bound else 0


def cone_boundary(f, n):
    """d_n of the mapping cone, C_n = C_{n-1} X + C_n Y and
    d(a, b) = (-d a, f a + d b), built from the boundary and chain maps."""
    x, y = f.source, f.target
    rx, ry = _rank_of_chains(x, n - 2), _rank_of_chains(y, n - 1)
    cx, cy = _rank_of_chains(x, n - 1), _rank_of_chains(y, n)
    blocks = []
    if 1 <= n - 1 <= x.dim_bound:
        blocks.append((boundary_matrix(x, n - 1), 0, 0, -1))
    if 0 <= n - 1 <= x.dim_bound:
        blocks.append((chain_map_matrix(f, n - 1), rx, 0, 1))
    if 1 <= n <= y.dim_bound:
        blocks.append((boundary_matrix(y, n), rx, cx, 1))
    mat = intmat.zeros(rx + ry, cx + cy)
    for block, r0, c0, sign in blocks:
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                mat[r0 + i][c0 + j] += sign * v
    return mat


def cone_is_acyclic_in(f, n):
    incoming = intmat.smith_normal_form(cone_boundary(f, n + 1))
    chains = _rank_of_chains(f.source, n - 1) + _rank_of_chains(f.target, n)
    return (intmat.rank_rational(cone_boundary(f, n)) + incoming.rank() == chains
            and all(d == 1 for d in incoming.invariant_factors()))


def _oracle_complexes(dim_bound):
    return [cycle(3, dim_bound), cycle(6, dim_bound), boundary(2, dim_bound),
            horn(2, 1, dim_bound), standard_simplex(2, dim_bound),
            projective_plane(dim_bound),
            disjoint_union(point(dim_bound), boundary(2, dim_bound))[0]]


ORACLE_COMPLEXES = {d: _oracle_complexes(d) for d in (2, 3)}


@lru_cache(maxsize=None)
def oracle_maps(dim_bound, i, j):
    spaces = ORACLE_COMPLEXES[dim_bound]
    return enumerate_sset_maps(spaces[i], spaces[j])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_homology_iso_iff_mapping_cone_acyclic(data):
    dim_bound = data.draw(st.sampled_from([2, 3]))
    last = len(ORACLE_COMPLEXES[dim_bound]) - 1
    i, j = data.draw(st.integers(0, last)), data.draw(st.integers(0, last))
    maps = oracle_maps(dim_bound, i, j)
    if not maps:
        return
    f = data.draw(st.sampled_from(maps))
    ok, degree = homology_iso_all_degrees(f)
    bad = [n for n in range(dim_bound + 2) if not cone_is_acyclic_in(f, n)]
    assert ok == (not bad)
    if not ok:
        # H_degree(f) fails to be onto (cone degree) or one-to-one (degree + 1)
        assert bad[0] in (degree, degree + 1)


# ---------------------------------------------------------------------------
# oracle: homology from the dense Smith normal form of the dense boundaries

@st.composite
def homology_oracle_inputs(draw):
    """A vertex-tuple complex on up to 6 vertices, or a set whose faces are
    identified, at D2-D4.  The complex keeps each vertex set of at most
    dim_bound + 1 vertices by one coin flip, which draws cycles and
    spheres far more often than a short list of facets does."""
    dim_bound = draw(st.integers(2, 4))
    if draw(st.booleans()):
        return IDENTIFIED_FACES[draw(st.sampled_from(sorted(IDENTIFIED_FACES)))](dim_bound)
    n = draw(st.integers(1, 6))
    sets = [s for size in range(1, dim_bound + 2) for s in combinations(range(n), size)]
    keep = draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
    return from_simplicial_complex([s for s, k in zip(sets, keep) if k] or [(0,)], dim_bound)


def dense_homology(x, k):
    """(betti, torsion) of H_k from the Smith normal forms of the dense d_k
    and d_{k+1}, each rank cross-checked by rational elimination."""
    ranks, above = [], []
    for j in (k, k + 1):
        mat = boundary_matrix(x, j)
        snf = intmat.smith_normal_form(mat)
        assert snf.rank() == intmat.rank_rational(mat)
        ranks.append(snf.rank())
        above = snf.invariant_factors()
    return len(x.nondeg_indices(k)) - sum(ranks), sorted(d for d in above if d != 1)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(homology_oracle_inputs())
def test_homology_matches_the_dense_smith_normal_form(x):
    for k in range(x.dim_bound + 1):
        assert homology(x, k) == dense_homology(x, k)


@pytest.mark.parametrize("name", sorted(IDENTIFIED_FACES))
def test_identified_faces_have_their_known_homology(name):
    # the oracle's fixed inputs, so each is sure to run
    x = IDENTIFIED_FACES[name](3)
    expected = {"dunce hat": [(1, []), (0, []), (0, [])], "sphere": [(1, []), (0, []), (1, [])],
                "torus": [(1, []), (2, []), (1, [])], "klein bottle": [(1, []), (1, [2]), (0, [])],
                "projective plane": [(1, []), (0, [2]), (0, [])]}[name]
    assert [homology(x, k) for k in range(3)] == expected
    assert [dense_homology(x, k) for k in range(3)] == expected


def test_decisions_build_no_dense_matrix(monkeypatch):
    # fresh complexes, so no memoized result hides a dense call
    calls = []
    for mod, name in [(intmat, "matmul"), (hml, "boundary_matrix"), (hml, "chain_map_matrix")]:
        monkeypatch.setattr(mod, name, lambda *args, name=name: calls.append(name))
    spaces = _oracle_complexes(3)
    for x in spaces:
        assert homology_iso_all_degrees(identity_map(x)) == (True, None)
        for y in spaces[:3]:
            for f in enumerate_sset_maps(x, y)[:4]:
                homology_iso_all_degrees(f)
    assert calls == []


# ---------------------------------------------------------------------------
# unit pivots are eliminated sparsely; only what is left is factored densely

def torus_facets():
    """The 3x3 grid with opposite sides identified: 9 vertices, 18 triangles."""
    out = []
    for i in range(3):
        for j in range(3):
            a, b = 3 * i + j, 3 * ((i + 1) % 3) + j
            c, d = 3 * ((i + 1) % 3) + (j + 1) % 3, 3 * i + (j + 1) % 3
            out += [(a, b, c), (a, d, c)]
    return out


def grid_disk_facets(n):
    """An n x n grid of vertices, each square cut along a diagonal."""
    out = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            out += [(a, a + 1, a + n + 1), (a, a + n, a + n + 1)]
    return out


def test_unit_pivots_leave_no_dense_snf(monkeypatch):
    dense = []
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda a: dense.append(a) or snf(a))
    torus = from_simplicial_complex(torus_facets(), 3)
    assert homology_iso_all_degrees(identity_map(torus)) == (True, None)
    assert dense == []
    assert is_weakly_contractible(from_simplicial_complex(grid_disk_facets(4), 2)).is_yes
    assert dense == []
    # RP^2: d_1 = [[0]] has no pivot to factor, d_2 = [[2]] has no unit
    assert homology(projective_plane(2), 1) == (0, [2])
    assert dense == [[[2]]]
