import dataclasses
import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sccat import homology as hml, scat, search, sset
from sccat.constructions_basic import codiscrete_groupoid
from sccat.sset import (
    SimplicialSet, Simplex, SSetMap, attach_nondeg, boundary, boundary_inclusion,
    compose_maps, compose_words, degeneracy_words, disjoint_union,
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
    broken = SimplicialSet(2, dims)
    assert validate_sset(broken) != []


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
])
def test_validate_sset_names_each_broken_record(k, idx, fields, message):
    x = standard_simplex(1, dim_bound=3)
    assert validate_sset(x) == []
    dims = [list(level) for level in x.dims]
    dims[k][idx] = dataclasses.replace(dims[k][idx], **fields)
    assert message in validate_sset(SimplicialSet(3, dims))


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
    picks = [draw_simplex(data, x) for _ in range(data.draw(st.integers(0, 3)))]
    sub, incl, _ = sub_complex(x, closed_keep(x, picks))
    assert validate_sset(sub) == [] and validate_sset_map(incl) == []
    z, inc_x, inc_y = disjoint_union(x, y)
    assert validate_sset(z) == []
    assert validate_sset_map(inc_x) == [] and validate_sset_map(inc_y) == []
    # attach cells one after another, each along the faces of a simplex that
    # is there (old or new, degenerate or not)
    for _ in range(data.draw(st.integers(1, 3))):
        k, idx = draw_simplex(data, z)
        z, new = attach_nondeg(z, k, list(z.dims[k][idx].faces))
        assert validate_sset(z) == []
        assert z.dims[k][new].nondeg


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


# -- memoized derived data -----------------------------------------------------

MEMOIZED = [
    (sset.pi0, boundary(1, 2), ()),
    (sset.pi0_class_of, boundary(1, 2), ()),
    (hml._nondeg_pos, boundary(2, 2), (1,)),
    (hml.boundary_matrix, boundary(2, 2), (1,)),
    (hml._boundary_reduction, boundary(2, 2), (1,)),
    (hml._cycle_basis, boundary(2, 2), (1,)),
    (hml.homology, boundary(2, 2), (1,)),
    (scat.pi0_data, codiscrete_groupoid(2, 2), ()),
    (search._comp_instances, codiscrete_groupoid(2, 2), ()),
]


@pytest.mark.parametrize("fn, x, args", MEMOIZED,
                         ids=[fn.__name__ for fn, _, _ in MEMOIZED])
def test_memoized_results_are_shared(fn, x, args):
    # assert_chain_complex returns None: the matmul count in test_homology
    # shows that it is stored
    assert fn(x, *args) is fn(x, *args)
