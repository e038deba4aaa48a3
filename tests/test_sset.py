import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sccat import homology as hml, scat, search, sset, words
from sccat.constructions_basic import codiscrete_groupoid
from sccat.pi1 import edge_path_presentation
from sccat.sset import (
    SimplicialSet, Simplex, SSetMap, _broken_face_identities, _sset, attach_nondeg, boundary,
    boundary_inclusion, compose_maps, compose_words, degeneracy_words, disjoint_union,
    empty_sset, enumerate_sset_maps, from_nondegenerate,
    from_simplicial_complex, horn, horn_inclusion, identity_map, is_iso_map,
    pi0, point, pullback_ssets, standard_simplex, sub_complex, validate_sset,
    validate_sset_map, word_after_degeneracy,
)
from sccat.verdict import InputError


# -- degeneracy word algebra -------------------------------------------------

def test_word_normal_forms():
    assert word_after_degeneracy((), 0) == (0,)
    # s_0 s_0 = s_1 s_0
    assert word_after_degeneracy((0,), 0) == (1, 0)
    assert word_after_degeneracy((2, 0), 1) == (3, 1, 0)
    assert compose_words((1, 0), (0,)) == (2, 1, 0)


def test_degeneracy_words_counts():
    # over a 0-simplex there is exactly one word of each length
    for r in range(4):
        assert degeneracy_words(0, r) == [tuple(range(r - 1, -1, -1))]
    assert degeneracy_words(1, 1) == [(0,), (1,)]
    assert set(degeneracy_words(1, 2)) == {(1, 0), (2, 0), (2, 1)}
    # a normal word is a choice of its r entries among 0..b+r-1
    for b in range(5):
        for r in range(5):
            assert len(degeneracy_words(b, r)) == comb(b + r, r)


# -- constructors ------------------------------------------------------------

def test_standard_simplex_0():
    x = standard_simplex(0, dim_bound=4)
    assert [x.size(k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert x.nondeg_indices(0) == (0,)
    for k in range(1, 5):
        assert x.nondeg_indices(k) == ()
    assert validate_sset(x) == []


def test_boundary_1_is_two_points():
    x = boundary(1, dim_bound=3)
    assert x.size(0) == 2
    for k in range(1, 4):
        assert x.nondeg_indices(k) == ()
    assert validate_sset(x) == []


def test_horn_2_1_simplices():
    x = horn(2, 1, dim_bound=3)
    assert len(x.nondeg_indices(0)) == 3
    # edges {01, 12}; edge 02 missing
    assert len(x.nondeg_indices(1)) == 2
    assert x.nondeg_indices(2) == ()
    assert validate_sset(x) == []


@pytest.mark.parametrize("n", range(5))
def test_validate_accepts_standard_simplex(n):
    assert validate_sset(standard_simplex(n, dim_bound=4)) == []


@pytest.mark.parametrize("n", range(1, 5))
def test_validate_accepts_boundary(n):
    assert validate_sset(boundary(n, dim_bound=4)) == []


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(n + 1)])
def test_validate_accepts_horn(n, k):
    assert validate_sset(horn(n, k, dim_bound=4)) == []


def test_simplex_counts_delta2():
    x = standard_simplex(2, dim_bound=2)
    assert [x.size(k) for k in range(3)] == [3, 6, 10]
    assert len(x.nondeg_indices(1)) == 3
    assert len(x.nondeg_indices(2)) == 1


def test_validate_catches_broken_identity():
    x = standard_simplex(2, dim_bound=2)
    dims = [list(level) for level in x.dims]
    # corrupt one face of the nondegenerate 2-simplex
    top = x.nondeg_indices(2)[0]
    rec = dims[2][top]
    bad_faces = list(rec.faces)
    bad_faces[0] = (bad_faces[0] + 1) % x.size(1)
    dims[2][top] = Simplex(faces=tuple(bad_faces), degens=rec.degens,
                           base=rec.base, word=rec.word)
    broken = _sset(2, tuple(map(tuple, dims)))
    assert validate_sset(broken) != []
    with pytest.raises(InputError, match="not a simplicial set: dim 2 simplex"):
        SimplicialSet(2, dims)


# Delta[1] at dim_bound 3.  Dimension 0: vertices 0, 1.  Dimension 1: s_0 of
# vertex 0, the edge 1 with faces (1, 0), s_0 of vertex 1.  Dimension 2:
# simplex 3 is s_1 s_0 of vertex 1.  Dimension 3: the top level.
@pytest.mark.parametrize("k, idx, fields, message", [
    (0, 0, {"faces": (0,)}, "dim 0 simplex 0: 0-simplex with faces"),
    (1, 1, {"faces": (1,)}, "dim 1 simplex 1: expected 2 faces"),
    (1, 1, {"faces": (1, 5)}, "dim 1 simplex 1: face index out of range"),
    (1, 1, {"degens": (1,)}, "dim 1 simplex 1: expected 2 degeneracies"),
    (1, 1, {"degens": (1, 9)}, "dim 1 simplex 1: degeneracy index out of range"),
    (3, 1, {"degens": (0, 0, 0, 0)}, "dim 3 simplex 1: degeneracies stored above dim_bound"),
    (1, 1, {"degens": (2, 1)}, "dim 1 simplex 1: s_0 s_0 != s_1 s_0"),
    (0, 0, {"degens": (2,)}, "dim 0 simplex 0: d_0 s_0 identity fails"),
    (1, 1, {"base": 7}, "dim 1 simplex 1: decomposition out of range"),
    (2, 3, {"base": 2, "word": (0,)}, "dim 2 simplex 3: decomposition base is degenerate"),
    (2, 3, {"word": (0, 1)}, "dim 2 simplex 3: degeneracy word not strictly decreasing"),
    (1, 0, {"base": 1}, "dim 1 simplex 0: decomposition does not reproduce the simplex"),
    (1, 0, {"word": ()}, "dim 1 simplex 0: flagged nondegenerate but equals s_0 d_0"),
    (1, 0, {"word": (3,)}, "dim 1 simplex 0: degeneracy word entry out of range"),
    # fields of the wrong type; the first record is Simplex((None, 0), (), 0, (0,))
    (1, 0, {"faces": (None, 0), "degens": ()}, "dim 1 simplex 0: faces not a tuple of ints"),
    (1, 1, {"base": None}, "dim 1 simplex 1: decomposition base not an int"),
    (1, 1, {"word": 3}, "dim 1 simplex 1: degeneracy word not a tuple of ints"),
    (1, 1, {"faces": None}, "dim 1 simplex 1: faces not a tuple of ints"),
])
def test_validate_sset_names_each_broken_record(k, idx, fields, message):
    x = standard_simplex(1, dim_bound=3)
    assert validate_sset(x) == []
    dims = [list(level) for level in x.dims]
    dims[k][idx] = dims[k][idx]._replace(**fields)
    assert message in validate_sset(_sset(3, tuple(map(tuple, dims))))
    with pytest.raises(InputError, match="not a simplicial set"):
        SimplicialSet(3, dims)


# -- the projective-plane test complex (degenerate face of a nondeg cell) ----

def projective_plane(dim_bound=3):
    """One vertex v, one edge e (a loop), one 2-cell with boundary e, s_0 v, e.

    Its boundary in normalized chains is 2e, so H_1 = Z/2.
    """
    return from_nondegenerate(dim_bound, [
        [[]],                                # v
        [[(0, ()), (0, ())]],                # e: both faces v
        [[(0, ()), (0, (0,)), (0, ())]],     # faces: d0=e, d1=s_0 v, d2=e
    ])


def loops_and_triangles(dim_bound, triangles):
    """One vertex, three loops a, b, c and triangles given by the loop
    indices of their faces d_0, d_1, d_2."""
    return from_nondegenerate(dim_bound, [
        [[]], [[(0, ()), (0, ())]] * 3,
        [[(i, ()) for i in t] for t in triangles]])


IDENTIFIED_FACES = {
    "dunce hat": lambda d: from_nondegenerate(d, [
        [[]], [[(0, ()), (0, ())]], [[(0, ()), (0, ()), (0, ())]]]),
    "sphere": lambda d: from_nondegenerate(d, [[[]], [], [[(0, (0,))] * 3]]),
    "torus": lambda d: loops_and_triangles(d, [(0, 2, 1), (1, 2, 0)]),
    "klein bottle": lambda d: loops_and_triangles(d, [(0, 2, 1), (0, 1, 2)]),
    "projective plane": projective_plane,
}


def test_projective_plane_validates():
    x = projective_plane()
    # faces of the 2-cell: e, s_0 v, e
    assert validate_sset(x) == []
    assert len(x.nondeg_indices(0)) == 1
    assert len(x.nondeg_indices(1)) == 1
    assert len(x.nondeg_indices(2)) == 1


def test_from_simplicial_complex_circle():
    circle = from_simplicial_complex([(0, 1), (1, 2), (0, 2)], dim_bound=2)
    assert len(circle.nondeg_indices(0)) == 3
    assert len(circle.nondeg_indices(1)) == 3
    assert circle.nondeg_indices(2) == ()
    assert validate_sset(circle) == []


# -- pi0 ---------------------------------------------------------------------

def test_pi0_boundary_1():
    assert len(pi0(boundary(1, dim_bound=2))) == 2


def test_pi0_boundary_2():
    assert len(pi0(boundary(2, dim_bound=2))) == 1


def test_pi0_disjoint_union():
    # oracle: brute-force reachability over the edge table
    x, _, _ = disjoint_union(point(2), standard_simplex(1, dim_bound=2))
    edges = [(x.dims[1][i].faces[1], x.dims[1][i].faces[0])
             for i in x.nondeg_indices(1)]
    reach = {v: {v} for v in range(x.size(0))}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            union = reach[a] | reach[b]
            if union != reach[a] or union != reach[b]:
                for v in union:
                    if reach[v] != union:
                        reach[v] = union
                        changed = True
    classes = {frozenset(s) for s in reach.values()}
    assert len(pi0(x)) == len(classes) == 2


# -- maps --------------------------------------------------------------------

def test_identity_and_compose():
    x = boundary(2, dim_bound=2)
    ident = identity_map(x)
    assert validate_sset_map(ident) == []
    assert compose_maps(ident, ident) == ident
    assert is_iso_map(ident) is not None


@pytest.mark.parametrize("k, level, message", [
    (1, (0, 1), "dim 1: assignment not total"),
    (0, (0, 5), "dim 0 simplex 1: image out of range"),
    (0, (1, 0), "dim 1 simplex 1: does not commute with d_0"),
    (1, (0, 1, 0), "dim 0 simplex 1: does not commute with s_0"),
])
def test_validate_sset_map_names_each_broken_level(k, level, message):
    # the identity of Delta[1] with the images in dimension k replaced
    x = standard_simplex(1, dim_bound=2)
    assign = list(identity_map(x).assign)
    assign[k] = level
    assert message in validate_sset_map(SSetMap(x, x, assign))


def test_boundary_and_horn_inclusions_validate():
    for n in range(1, 4):
        inc = boundary_inclusion(n, dim_bound=3)
        assert validate_sset_map(inc) == []
        for k in range(n + 1):
            inc2 = horn_inclusion(n, k, dim_bound=3)
            assert validate_sset_map(inc2) == []


def test_enumerate_maps_delta1_to_delta1():
    d1 = standard_simplex(1, dim_bound=2)
    maps = enumerate_sset_maps(d1, d1)
    # vertex images (0,0), (0,1), (1,1) plus (1,0) is impossible for the edge
    assert len(maps) == 3
    for f in maps:
        assert validate_sset_map(f) == []


def test_enumerate_maps_to_point_unique():
    for x in [standard_simplex(2, 2), boundary(2, 2), horn(2, 1, 2)]:
        maps = enumerate_sset_maps(x, point(2))
        assert len(maps) == 1


def test_sub_complex_boundary_inside_simplex():
    big = standard_simplex(2, dim_bound=2)
    keep = [list(range(big.size(0))), list(range(big.size(1))), []]
    # all 2-simplices except the nondegenerate top cell are degeneracies of
    # edges; keep those to stay closed under degeneracies
    keep[2] = [i for i in range(big.size(2)) if not big.dims[2][i].nondeg]
    sub, incl, _ = sub_complex(big, keep)
    assert validate_sset(sub) == []
    assert validate_sset_map(incl) == []
    assert sub == boundary(2, dim_bound=2)


def test_attach_fills_horn_to_simplex():
    h = horn(2, 1, dim_bound=2)
    # attach the missing edge 02, then the triangle
    v0, v1, v2 = 0, 1, 2
    x1, e02 = attach_nondeg(h, 1, [v2, v0])
    assert validate_sset(x1) == []
    # edges of the triangle: d0 = edge 12, d1 = new edge 02, d2 = edge 01
    idx_01, idx_12 = h.nondeg_indices(1)
    x2, top = attach_nondeg(x1, 2, [idx_12, e02, idx_01])
    assert validate_sset(x2) == []
    assert len(x2.nondeg_indices(2)) == 1
    assert len(pi0(x2)) == 1


def test_pullback_of_identity_is_isomorphic_copy():
    x = boundary(2, dim_bound=2)
    f = identity_map(x)
    p, pr1, pr2, _ = pullback_ssets(f, f)
    assert validate_sset(p) == []
    assert validate_sset_map(pr1) == []
    assert is_iso_map(pr1) is not None


def test_pullback_over_point_is_product():
    d1 = standard_simplex(1, dim_bound=2)
    pt = point(2)
    to_pt = enumerate_sset_maps(d1, pt)[0]
    p, pr1, pr2, _ = pullback_ssets(to_pt, to_pt)
    assert validate_sset(p) == []
    assert p.size(0) == 4  # product of vertex sets
    # the square has four vertices and one connected component
    assert len(pi0(p)) == 1


def test_empty_sset():
    e = empty_sset(2)
    assert validate_sset(e) == []
    assert pi0(e) == []


# -- input checks --------------------------------------------------------------

def test_sub_complex_rejects_indices_out_of_range():
    x = standard_simplex(1, dim_bound=1)
    # -1 would name the degenerate edge a second time
    with pytest.raises(InputError):
        sub_complex(x, [[0, 1], [0, 2, -1]])
    with pytest.raises(InputError):
        sub_complex(x, [[0, 1, 2], [0]])
    # a level above dim_bound is out of range unless it is empty
    with pytest.raises(InputError):
        sub_complex(x, [[0, 1], [0, 1, 2], [0]])
    assert sub_complex(x, [[0, 1], [0, 1, 2], []])[0] == x


def test_sub_complex_rejects_keep_sets_that_are_not_closed():
    x = standard_simplex(1, dim_bound=1)
    # the edge (0, 1) without its vertex 1; both vertices without their
    # degenerate edges
    for keep in ([[0], [1]], [[0, 1], [1]]):
        with pytest.raises(InputError):
            sub_complex(x, keep)


@pytest.mark.parametrize("dim_bound, simplices", [
    (1, [(0, 1)]),                                                # no vertices
    (1, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),   # a triangle at D1
    (1, [(0,), ()]),                                              # an empty tuple
])
def test_from_simplex_tuples_rejects_tuples_it_cannot_place(dim_bound, simplices):
    with pytest.raises(InputError):
        sset.from_simplex_tuples(dim_bound, simplices)


@pytest.mark.parametrize("simplices", [
    [(0,), (1,), (0, 1), (1, 0)],   # the edge 0 1 a second time, backwards
    [(0,), (0, 0)],                 # a degenerate edge given as a simplex
])
def test_from_simplex_tuples_rejects_tuples_that_do_not_strictly_increase(simplices):
    with pytest.raises(InputError):
        sset.from_simplex_tuples(2, simplices)


@pytest.mark.parametrize("simplices, bad, message", [
    ([(0,), (1, 0), (0, 1, 2)], "(1, 0)", "is not strictly increasing"),
    ([(0,), (0, 1, 2), (1, 0)], "(0, 1, 2)", "needs 1 to 2 vertices"),
    ([(0,), (), (1, 0)], "()", "needs 1 to 2 vertices"),
    ([(1,), (0,), (0, 1), (1, 1)], "(1, 1)", "is not strictly increasing"),
    # entries with no len, no hash or no order with the others
    ([0], "0", "is not a tuple"),
    ([[0], [1], [0, 1]], "[0]", "is not a tuple"),
    ([(0,), ("a",)], "('a',)", "has a vertex that does not hash or compare with those before it"),
    # no bad entry but a missing subset, which names no entry; a bad entry
    # is named before a missing subset
    ([(0, 1)], "simplices", "not closed under subsets"),
    ([(0, 1), (1, 0)], "(1, 0)", "is not strictly increasing"),
])
def test_from_simplex_tuples_names_the_first_bad_tuple_in_input_order(simplices, bad, message):
    # the tuples are checked a column at a time; the message still names the
    # first tuple, in input order, that fails either check
    with pytest.raises(InputError) as err:
        sset.from_simplex_tuples(1, simplices)
    assert str(err.value) == f"from_simplex_tuples: {bad} {message}"


@pytest.mark.parametrize("keep", [
    [[0, 1.0], [1]],                # a float index
    [[0, True], [0, 1, 2]],         # True would stand for vertex 1
])
def test_sub_complex_rejects_indices_that_are_not_ints(keep):
    with pytest.raises(InputError):
        sub_complex(standard_simplex(1, dim_bound=1), keep)


def test_from_nondegenerate_rejects_cells_above_dim_bound():
    with pytest.raises(InputError):
        from_nondegenerate(1, [[[]], [[(0, ()), (0, ())]],
                               [[(0, ()), (0, (0,)), (0, ())]]])
    # empty levels above dim_bound drop nothing
    assert from_nondegenerate(1, [[[]], [], []]) == point(1)


def test_attach_nondeg_rejects_faces_breaking_the_face_identities():
    # three copies of the edge 0 -> 1: d_0 d_2 = 1 but d_1 d_0 = 0
    with pytest.raises(InputError):
        attach_nondeg(standard_simplex(1, 2), 2, [1, 1, 1])
    # the boundary of Delta[2] takes its triangle back: d_i is the edge
    # without vertex i, and the edges (0, 1), (0, 2), (1, 2) come in order
    bd = boundary(2, 2)
    edges = bd.nondeg_indices(1)
    x, _ = attach_nondeg(bd, 2, [edges[2], edges[1], edges[0]])
    assert validate_sset(x) == []


def test_from_nondegenerate_rejects_faces_breaking_the_face_identities():
    # a triangle whose three faces are one edge 1 -> 0
    with pytest.raises(InputError):
        from_nondegenerate(2, [[[], []], [[(1, ()), (0, ())]],
                               [[(0, ()), (0, ()), (0, ())]]])
    # the edge twice and a loop l at 0 fit as the triangle (0, 0, 1)
    x = from_nondegenerate(2, [[[], []], [[(1, ()), (0, ())], [(0, ()), (0, ())]],
                               [[(0, ()), (0, ()), (1, ())]]])
    assert validate_sset(x) == []


def test_attach_nondeg_rejects_face_indices_out_of_range():
    # -1 would name vertex 1 through negative indexing, 7 no vertex at all
    for faces in ([-1, 0], [7, 0], [0, 2]):
        with pytest.raises(InputError):
            attach_nondeg(standard_simplex(1, 2), 1, faces)


@pytest.mark.parametrize("cells", [
    [[[]], [[(5, ()), (0, ())]]],                   # no vertex 5
    [[[]], [[(-1, ()), (0, ())]]],                  # a negative base
    [[[]], [[(0, ()), (0, ()), (0, ())]]],          # three faces for an edge
    [[[]], [[(0, ())]]],                            # one face for an edge
    [[[(0, ())]]],                                  # a vertex with a face
    [[[]], [[(0, ()), (0, ())]], [[(0, (3,)), (0, (0,)), (0, ())]]],  # s_3 of a vertex
    [[[]], [[(0, ()), (0, ())]], [[(0, (1,)), (0, (0,)), (0, ())]]],  # s_1 of a vertex
    [[[]], [[(0, ()), (0, ())]], [[(0, (0, 0)), (0, (0,)), (0, ())]]],  # an edge's word twice as long
])
def test_from_nondegenerate_rejects_faces_that_name_no_simplex(cells):
    with pytest.raises(InputError):
        from_nondegenerate(2, cells)


@pytest.mark.parametrize("k, faces", [
    (1, [1.0, 0]),                  # a float face
    (1, [True, 0]),                 # True would stand for vertex 1
    (1.0, [1, 0]),                  # a float dimension
    (True, [1, 0]),                 # True would stand for dimension 1
], ids=["float-face", "bool-face", "float-dimension", "bool-dimension"])
def test_attach_nondeg_rejects_dimensions_and_faces_that_are_not_ints(k, faces):
    with pytest.raises(InputError):
        attach_nondeg(standard_simplex(1, 2), k, faces)


@pytest.mark.parametrize("dim_bound, cells", [
    (1, [[[], []], [[(0, ()), (1.0, ())]]]),    # a float base: an edge 1 -> 0
    (1, [[[], []], [[(0, ()), (True, ())]]]),   # True would stand for vertex 1
    (2, [[[]], [[(0, ()), (0, ())]], [[(0, ()), (0, (0.0,)), (0, ())]]]),   # a float in a word
    (2, [[[]], [[(0, ()), (0, ())]], [[(0, ()), (0, (False,)), (0, ())]]]),  # a bool in a word
    (1, [[[]], [[5, (0, ())]]]),                # a face that is no pair
    (1, [[[]], [[(0, ()), (0,)]]]),             # a face with no word
    (1, [[[]], [[(0, (), ()), (0, ())]]]),      # a face with three entries
    (1, [[[]], [[[0, ()], (0, ())]]]),          # a face that is a list
    (1, [[[]], [[(0, ()), (0, 5)]]]),           # a word that is an int
    (2, [[[]], [[(0, ()), (0, ())]], [[(0, ()), (0, [0]), (0, ())]]]),    # a word that is a list
    (2.0, [[[]]]),                              # a float dim_bound
    (None, [[[]]]),                             # no dim_bound
], ids=["float-base", "bool-base", "float-in-word", "bool-in-word", "int-face", "one-entry-face",
        "three-entry-face", "list-face", "int-word", "list-word", "float-bound", "none-bound"])
def test_from_nondegenerate_rejects_bases_and_words_that_are_not_ints(dim_bound, cells):
    with pytest.raises(InputError):
        from_nondegenerate(dim_bound, cells)


@pytest.mark.parametrize("build", [
    lambda: standard_simplex(1.0, 2), lambda: standard_simplex(True, 2),
    lambda: boundary(2.0, 2), lambda: boundary(True, 2),
    lambda: horn(2, 1.0, 2), lambda: horn(2.0, 1, 2), lambda: horn(True, 0, 2),
    lambda: horn(2, True, 2),
    # dim_bound
    lambda: standard_simplex(1, 2.0), lambda: point(True), lambda: boundary(1, 2.0),
    lambda: horn(2, 1, 3.0), lambda: from_simplicial_complex([(0, 1)], 2.0),
    lambda: SimplicialSet(1.0, [[], []]), lambda: SimplicialSet(True, [[], []]),
    lambda: empty_sset(2.0), lambda: boundary(1, None), lambda: horn(2, 1, "a"),
    lambda: point(None), lambda: from_simplicial_complex([(0, 1)], None),
], ids=["simplex-float", "simplex-bool", "boundary-float", "boundary-bool", "horn-float-k",
        "horn-float-n", "horn-bool-n", "horn-bool-k", "simplex-float-bound", "point-bool-bound",
        "boundary-float-bound", "horn-float-bound", "complex-float-bound", "init-float-bound",
        "init-bool-bound", "empty-float-bound", "boundary-none-bound", "horn-str-bound",
        "point-none-bound", "complex-none-bound"])
def test_simplex_constructors_reject_dimensions_that_are_not_ints(build):
    with pytest.raises(InputError):
        build()


def test_from_simplicial_complex_rejects_facets_above_dim_bound():
    with pytest.raises(InputError):
        from_simplicial_complex([(0, 1, 2)], dim_bound=1)
    assert (from_simplicial_complex([(0, 1, 2)], dim_bound=2)
            == standard_simplex(2, dim_bound=2))


def test_from_simplicial_complex_rejects_incomparable_labels():
    # within one facet, and across facets (only the vertex order compares them)
    for facets in ([(0, "a")], [(0,), ("a",)]):
        with pytest.raises(InputError):
            from_simplicial_complex(facets, 2)


@pytest.mark.parametrize("n,d", [(n, d) for d in range(5) for n in range(d + 1)])
def test_inclusion_sources_are_the_constructors(n, d):
    assert boundary_inclusion(n, d).source == boundary(n, d)
    for k in range(n + 1) if n >= 1 else ():
        assert horn_inclusion(n, k, d).source == horn(n, k, d)


# -- derived records on random inputs ------------------------------------------
#
# Every constructor derives its records from its tables; validate_sset checks
# each record's decomposition against the tables, so it is the oracle here.

def complexes(d):
    """Face-closed complexes on four vertices, and a loop and the projective
    plane, whose nondegenerate simplices have coinciding vertices."""
    faces = [f for r in range(1, d + 2) for f in itertools.combinations(range(4), r)]
    loops = [from_nondegenerate(d, [[[]], [[(0, ()), (0, ())]]]),
             projective_plane(d)]
    return st.one_of(
        st.lists(st.sampled_from(faces), min_size=1, max_size=3).map(
            lambda facets: from_simplicial_complex(facets, d)),
        st.sampled_from(loops))


def closed_keep(x, picks):
    """The simplices whose nondegenerate base is an iterated face of a pick."""
    bases, stack = set(), list(picks)
    while stack:
        k, idx = stack.pop()
        rec = x.dims[k][idx]
        b = (k - len(rec.word), rec.base)
        if b not in bases:
            bases.add(b)
            stack.extend((b[0] - 1, f) for f in x.dims[b[0]][b[1]].faces)
    return [[i for i, s in enumerate(x.dims[k]) if (k - len(s.word), s.base) in bases]
            for k in range(x.dim_bound + 1)]


def draw_simplex(data, x):
    k = data.draw(st.sampled_from([k for k in range(x.dim_bound + 1) if x.size(k)]))
    return k, data.draw(st.integers(0, x.size(k) - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_derived_records_validate(data):
    d = data.draw(st.sampled_from([2, 3]))
    x, y = data.draw(complexes(d)), data.draw(complexes(d))
    levels = range(d + 1)
    picks = [draw_simplex(data, x) for _ in range(data.draw(st.integers(0, 3)))]
    keep = closed_keep(x, picks)
    sub, incl, idx_maps = sub_complex(x, keep)
    assert validate_sset(sub) == [] and validate_sset_map(incl) == []
    assert_records_match_the_scan(sub)
    # the kept simplices in order, and idx_maps the inverse of the inclusion
    assert incl.assign == tuple(tuple(sorted(level)) for level in keep)
    assert idx_maps == [{old: n for n, old in enumerate(level)} for level in incl.assign]
    z, inc_x, inc_y = disjoint_union(x, y)
    assert validate_sset(z) == []
    assert_records_match_the_scan(z)
    assert validate_sset_map(inc_x) == [] and validate_sset_map(inc_y) == []
    # x first, then y past it
    assert inc_x.assign == tuple(tuple(range(x.size(k))) for k in levels)
    assert inc_y.assign == tuple(tuple(range(x.size(k), z.size(k))) for k in levels)
    # the pullback of the inclusion against another one, or the product of
    # the two subcomplexes over a point
    picks = [draw_simplex(data, x) for _ in range(data.draw(st.integers(0, 2)))]
    sub2, incl2, _ = sub_complex(x, closed_keep(x, picks))
    f, g = incl, incl2
    if data.draw(st.booleans()):
        f, g = (SSetMap(s, point(d), [[0] * s.size(k) for k in levels]) for s in (sub, sub2))
    p, pr_x, pr_y, index = pullback_ssets(f, g)
    assert validate_sset(p) == []
    assert_records_match_the_scan(p)
    assert validate_sset_map(pr_x) == [] and validate_sset_map(pr_y) == []
    assert compose_maps(f, pr_x) == compose_maps(g, pr_y)
    for k in levels:
        pairs = list(zip(pr_x.assign[k], pr_y.assign[k]))
        assert pairs == [(i, j) for i in range(sub.size(k)) for j in range(sub2.size(k))
                         if f.assign[k][i] == g.assign[k][j]]
        assert index[k] == {pair: n for n, pair in enumerate(pairs)}
    # attach cells one after another, each along the faces of a simplex that
    # is there (old or new, degenerate or not); the old records stay, the
    # new cell and its degeneracies come after them
    for _ in range(data.draw(st.integers(1, 3))):
        k, idx = draw_simplex(data, z)
        z2, new = attach_nondeg(z, k, list(z.dims[k][idx].faces))
        assert validate_sset(z2) == []
        assert_records_match_the_scan(z2)
        assert z2.dims[k][new].nondeg and new == z.size(k)
        assert all(z2.dims[e][:z.size(e)] == z.dims[e] for e in levels)
        z = z2


# -- vertex-tuple sets against the slow reference ------------------------------
#
# The constructors build each level from the one below; the reference filters
# every nondecreasing tuple over the vertices, slices out faces and
# degeneracies, and reads the EZ decomposition off the repeated entries:
# t = s_j1 ... s_jr u, where u drops the repeats and j1 > ... > jr are the
# positions i with t[i] == t[i + 1].

def reference_tuples(simplices, dim_bound):
    """(sorted tuple levels, records as (faces, degens, base, word))."""
    simplices = set(simplices)
    verts = sorted({v for t in simplices for v in t})
    levels = [sorted(t for t in itertools.combinations_with_replacement(verts, k + 1)
                     if tuple(sorted(set(t))) in simplices) for k in range(dim_bound + 1)]
    index = [{t: i for i, t in enumerate(level)} for level in levels]
    records = []
    for k, level in enumerate(levels):
        records.append([])
        for t in level:
            u = tuple(sorted(set(t)))
            records[k].append((
                tuple(index[k - 1][t[:i] + t[i + 1:]] for i in range(k + 1)) if k else (),
                tuple(index[k + 1][t[:j + 1] + t[j:]] for j in range(k + 1))
                if k < dim_bound else (),
                index[len(u) - 1][u],
                tuple(i for i in reversed(range(k)) if t[i] == t[i + 1])))
    return levels, records


def records_of(x):
    return [[(s.faces, s.degens, s.base, s.word) for s in level] for level in x.dims]


def closure(facets):
    return {c for f in facets for r in range(1, len(f) + 1)
            for c in itertools.combinations(sorted(f), r)}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_tuple_sets_match_the_reference(data):
    d = data.draw(st.integers(0, 4))
    labels = data.draw(st.sampled_from([[3, -1, 7, 0, 12, 5], ["b", "ab", "a", "ba", "c", "bb"]]))
    facets = data.draw(st.lists(st.lists(st.sampled_from(labels), min_size=1,
                                         max_size=d + 1, unique=True), max_size=4))
    _, want = reference_tuples(closure(facets), d)
    assert records_of(from_simplicial_complex(facets, d)) == want
    assert records_of(sset.from_simplex_tuples(d, sorted(closure(facets)))) == want


@pytest.mark.parametrize("n,d", [(n, d) for d in range(5) for n in range(d + 1)])
def test_simplex_boundary_horn_and_inclusions_match_the_reference(n, d):
    full = tuple(range(n + 1))
    faces = closure([full])
    big, want = reference_tuples(faces, d)
    assert records_of(standard_simplex(n, d)) == want
    sides = [(boundary_inclusion(n, d), faces - {full})]
    sides += [(horn_inclusion(n, k, d), faces - {full, full[:k] + full[k + 1:]})
              for k in range(n + 1) if n >= 1]
    for inc, small_faces in sides:
        small, want = reference_tuples(small_faces, d)
        assert records_of(inc.source) == want
        assert inc.assign == tuple(tuple(big[k].index(t) for t in small[k])
                                   for k in range(d + 1))


# -- the record builder and the validator against their old forms --------------
#
# derive_records and validate_sset as they were when a record was a frozen
# dataclass, kept unchanged as oracles: one constructor call per record and
# one word computed per degenerate simplex, and a message prefix built for
# every record.

def derive_records_by_scan(dim_bound: int, faces_tables: list, degens_tables: list) -> list:
    """Simplex records from face and degeneracy index tables.

    ``faces_tables[k][idx]`` is the tuple of faces of the k-simplex idx and
    ``degens_tables[k][idx]`` that of its degeneracies (read only for k <
    dim_bound); the records keep these tuples.  A simplex x is degenerate
    exactly when s_j d_j x = x for some j; then its base is that of d_j x,
    read off the record already built one level down, and its word is s_j
    after the word of d_j x.  The EZ decomposition is unique, so no
    constructor makes records: each one hands its keyed tables to
    ``_from_keys``, which calls this.
    """
    dims = []
    for k in range(dim_bound + 1):
        level = []
        below = dims[k - 1] if k else ()
        degens_below = degens_tables[k - 1] if k else ()
        for idx, faces in enumerate(faces_tables[k]):
            degens = degens_tables[k][idx] if k < dim_bound else ()
            for j in range(k):
                if degens_below[faces[j]][j] == idx:
                    rec = below[faces[j]]
                    level.append(Simplex(faces, degens, rec.base,
                                         word_after_degeneracy(rec.word, j)))
                    break
            else:
                level.append(Simplex(faces, degens, idx, ()))
        dims.append(level)
    return dims


def validate_sset_by_record(x: SimplicialSet) -> list:
    """All violated structural invariants, as readable strings."""
    bad = []
    bound = x.dim_bound
    for k in range(bound + 1):
        n_here = x.size(k)
        n_below = x.size(k - 1) if k > 0 else 0
        n_above = x.size(k + 1) if k + 1 <= bound else 0
        for idx, s in enumerate(x.dims[k]):
            tag = f"dim {k} simplex {idx}"
            if k == 0:
                if s.faces:
                    bad.append(f"{tag}: 0-simplex with faces")
            elif len(s.faces) != k + 1:
                bad.append(f"{tag}: expected {k + 1} faces")
            if any(not (0 <= f < n_below) for f in s.faces):
                bad.append(f"{tag}: face index out of range")
                continue
            if k + 1 <= bound:
                if len(s.degens) != k + 1:
                    bad.append(f"{tag}: expected {k + 1} degeneracies")
                    continue
                if any(not (0 <= d < n_above) for d in s.degens):
                    bad.append(f"{tag}: degeneracy index out of range")
                    continue
            elif s.degens:
                bad.append(f"{tag}: degeneracies stored above dim_bound")
    if bad:
        return bad  # no point checking identities on broken tables

    for k in range(bound + 1):
        for idx, s in enumerate(x.dims[k]):
            tag = f"dim {k} simplex {idx}"
            if k >= 2:
                bad.extend(f"{tag}: d_{i} d_{j} != d_{j-1} d_{i}"
                           for i, j in _broken_face_identities(x, k, s.faces))
            # s_i s_j = s_{j+1} s_i for i <= j
            if k + 2 <= bound:
                for j in range(k + 1):
                    for i in range(j + 1):
                        lhs = x.degeneracy(k + 1, s.degens[j], i)
                        rhs = x.degeneracy(k + 1, s.degens[i], j + 1)
                        if lhs != rhs:
                            bad.append(f"{tag}: s_{i} s_{j} != s_{j+1} s_{i}")
            # d_i s_j relations
            if k + 1 <= bound:
                for j in range(k + 1):
                    sj = s.degens[j]
                    for i in range(k + 2):
                        got = x.face(k + 1, sj, i)
                        if i == j or i == j + 1:
                            want = idx
                        elif i < j:
                            want = x.degeneracy(k - 1, s.faces[i], j - 1) if k >= 1 else None
                        else:
                            want = x.degeneracy(k - 1, s.faces[i - 1], j) if k >= 1 else None
                        if want is not None and got != want:
                            bad.append(f"{tag}: d_{i} s_{j} identity fails")
            # EZ decomposition consistency
            bdim = k - len(s.word)
            if bdim < 0 or not (0 <= s.base < x.size(bdim)):
                bad.append(f"{tag}: decomposition out of range")
                continue
            base_rec = x.dims[bdim][s.base]
            if base_rec.word:
                bad.append(f"{tag}: decomposition base is degenerate")
                continue
            if list(s.word) != sorted(s.word, reverse=True) or len(set(s.word)) != len(s.word):
                bad.append(f"{tag}: degeneracy word not strictly decreasing")
                continue
            if x.apply_word(bdim, s.base, s.word) != idx:
                bad.append(f"{tag}: decomposition does not reproduce the simplex")
            if not s.word and k >= 1:
                for j in range(k):
                    if x.degeneracy(k - 1, s.faces[j], j) == idx:
                        bad.append(f"{tag}: flagged nondegenerate but equals s_{j} d_{j}")
                        break
    return bad


def assert_records_match_the_scan(x):
    """x's records, and derive_records on x's tables, equal the scan's, and
    each record hashes like the plain tuple of its fields."""
    faces = [[s.faces for s in level] for level in x.dims]
    degens = [[s.degens for s in level] for level in x.dims]
    want = [records_of_level(level) for level in
            derive_records_by_scan(x.dim_bound, faces, degens)]
    assert [records_of_level(level) for level in x.dims] == want
    assert [records_of_level(level)
            for level in sset.derive_records(x.dim_bound, faces, degens)] == want
    for level in x.dims:
        for rec in level:
            assert type(rec) is Simplex
            assert hash(rec) == hash((rec.faces, rec.degens, rec.base, rec.word))


def records_of_level(level):
    return [(s.faces, s.degens, s.base, s.word) for s in level]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_tuple_complex_records_match_the_scan(data):
    # each vertex set of at most dim_bound + 1 of n vertices is kept by a
    # coin flip; its faces are added, so the tuples are closed under subsets
    d = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 6))
    sets = [s for size in range(1, d + 2) for s in itertools.combinations(range(n), size)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
    x = sset.from_simplex_tuples(d, closure([s for s, k in zip(sets, keep) if k] or [(0,)]))
    assert_records_match_the_scan(x)


def nondegenerate_reads(x):
    """The sizes and nondegenerate data of x, and what homology, pi0 and
    the edge-path group make of them."""
    levels = range(x.dim_bound + 1)
    return ([x.size(k) for k in levels], [x.nondeg_indices(k) for k in levels],
            [x.nondeg_faces(k) for k in levels], [hml.homology(x, k) for k in levels],
            pi0(x), [edge_path_presentation(x, v) for v in range(x.size(0))])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_a_tuple_set_reads_its_nondegenerate_data_before_its_records(data):
    # the draw of test_tuple_complex_records_match_the_scan
    d = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 6))
    sets = [s for size in range(1, d + 2) for s in itertools.combinations(range(n), size)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
    x = sset.from_simplex_tuples(d, closure([s for s, k in zip(sets, keep) if k] or [(0,)]))

    def degeneracies(y):
        return [[y.degeneracy(k, i, j) for i in range(y.size(k)) for j in range(k + 1)]
                for k in range(d)]
    got, degens = nondegenerate_reads(x), degeneracies(x)
    assert type(x) is sset._TupleSet        # no record made yet
    assert got == nondegenerate_reads(SimplicialSet(x.dim_bound, x.dims))
    assert type(x) is SimplicialSet
    assert degens == degeneracies(x)        # now read off the records
    # what was read before the records is kept after them
    assert all(x.nondeg_indices(k) is got[1][k] and x.nondeg_faces(k) is got[2][k]
               for k in range(d + 1))


@pytest.mark.parametrize("name", sorted(IDENTIFIED_FACES))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_identified_face_records_match_the_scan(name, d):
    assert_records_match_the_scan(IDENTIFIED_FACES[name](d))


@pytest.mark.parametrize("inc", [
    *(horn_inclusion(n, k, 3) for n in (1, 2, 3) for k in range(n + 1)),
    *(boundary_inclusion(n, 3) for n in (1, 2, 3))])
def test_u_pushout_hom_records_match_the_scan(inc):
    base = scat.functor_U(inc.target)
    att = words.Attachment.from_sset_mono(inc)
    res = words.pushout_generating(base, att, words.glue_for_u(att, base, 0, 1, inc))
    for hom in res.category.hom.values():
        assert_records_match_the_scan(hom)


CORRUPTED = [standard_simplex(n, 4) for n in (2, 3, 4)] + [
    horn(2, 1, 3), horn(3, 0, 3), horn(4, 2, 4), boundary(2, 3), boundary(3, 4)]


def outcome(validate, x):
    """validate(x), or the type of what it raised."""
    try:
        return validate(x)
    except Exception as err:
        return type(err)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_validate_sset_lists_the_old_messages_on_corrupted_records(data):
    x = data.draw(st.sampled_from(CORRUPTED))
    k, idx = draw_simplex(data, x)
    rec = x.dims[k][idx]
    field = data.draw(st.sampled_from(["faces", "degens", "base", "word"]))
    if field in ("faces", "degens"):
        row = list(getattr(rec, field))
        size = x.size(k - 1 if field == "faces" else min(k + 1, x.dim_bound))
        how = data.draw(st.sampled_from(["set", "drop", "add"] if row else ["add"]))
        if how == "set":
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.integers(-1, size))
        elif how == "drop":
            del row[data.draw(st.integers(0, len(row) - 1))]
        else:
            row.append(data.draw(st.integers(0, size)))
        value = tuple(row)
    elif field == "base":
        value = data.draw(st.integers(-1, x.size(k)))
    else:
        value = tuple(data.draw(st.lists(st.integers(0, k), max_size=k + 1)))
    dims = [list(level) for level in x.dims]
    dims[k][idx] = rec._replace(**{field: value})
    bad = _sset(x.dim_bound, tuple(map(tuple, dims)))
    got, want = outcome(validate_sset, bad), outcome(validate_sset_by_record, bad)
    if want is IndexError:      # the old validator applied the word past its base
        assert f"dim {k} simplex {idx}: degeneracy word entry out of range" in got
    else:
        assert got == want
    # the public constructor refuses exactly what the validator faults
    if got == []:
        SimplicialSet(x.dim_bound, dims)
    else:
        with pytest.raises(InputError, match="not a simplicial set"):
            SimplicialSet(x.dim_bound, dims)


@pytest.mark.parametrize("x", CORRUPTED)
def test_validate_sset_accepts_what_the_old_validator_accepts(x):
    assert validate_sset(x) == validate_sset_by_record(x) == []


# -- memoized derived data -----------------------------------------------------

MEMOIZED = [
    (sset.pi0, boundary(1, 2), ()),
    (sset.pi0_class_of, boundary(1, 2), ()),
    (hml._nondeg_pos, boundary(2, 2), (1,)),
    (hml._boundary_columns, boundary(2, 2), (1,)),
    (hml._boundary_reduction, boundary(2, 2), (1,)),
    (hml.homology, boundary(2, 2), (1,)),
    (scat.pi0_data, codiscrete_groupoid(2, 2), ()),
    (search._comp_instances, codiscrete_groupoid(2, 2), ()),
    (SimplicialSet.nondeg_indices, boundary(2, 2), (1,)),
    (SimplicialSet.face_key_index, boundary(2, 2), (1,)),
    (SimplicialSet.vertices_of, boundary(2, 2), (2, 3)),
    (scat.SimplicialCategory.identity_towers, codiscrete_groupoid(2, 2), ()),
    (scat.functor_U, boundary(1, 2), ()),
]


@pytest.mark.parametrize("fn, x, args", MEMOIZED,
                         ids=[fn.__name__ for fn, _, _ in MEMOIZED])
def test_memoized_results_are_shared(fn, x, args):
    assert fn(x, *args) is fn(x, *args)


# -- input errors ------------------------------------------------------------------

INPUT_ERRORS = {
    "levels": (lambda: SimplicialSet(2, [[]]), "dims must have dim_bound + 1 levels"),
    "map-dim_bound": (lambda: SSetMap(point(2), point(3), [[0]] * 3),
                      "source and target must share one dim_bound"),
    "map-levels": (lambda: SSetMap(point(2), point(2), [[0]]),
                   "assignment must cover every tracked dimension"),
    "compose": (lambda: compose_maps(identity_map(point(2)), identity_map(boundary(1, 2))),
                "maps not composable"),
    "union": (lambda: disjoint_union(point(2), point(3)), "dim_bound mismatch"),
    "pullback": (lambda: pullback_ssets(identity_map(point(2)),
                                        identity_map(boundary(1, 2))),
                 "pullback needs a common target"),
    "attach-faces": (lambda: attach_nondeg(point(2), 1, [0]), "need k+1 faces"),
    "attach-vertex": (lambda: attach_nondeg(point(2), 0, [0]), "0-simplices have no faces"),
    "maps-dim_bound": (lambda: enumerate_sset_maps(point(2), point(3)), "dim_bound mismatch"),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_malformed_inputs_raise_input_error_with_their_message(case):
    call, message = INPUT_ERRORS[case]
    with pytest.raises(InputError) as err:
        call()
    assert type(err.value) is InputError and str(err.value) == message
