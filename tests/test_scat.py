import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sccat import scat
from sccat.cat import is_equivalence, is_isomorphism, validate_functor
from sccat.constructions_basic import (codiscrete_groupoid,
                                       inclusion_of_object, walking_arrow)
from sccat.scat import (
    SFunctor, SimplicialCategory, build_compose, compose_sfunctors, coproduct,
    double_object, empty_cat, full_subcategory, functor_U, functor_U_map,
    identity_sfunctor, is_homotopy_equivalence, pi0_category, pi0_data,
    pi0_functor, pullback_mediating, pullback_scat, singleton_cat,
    validate_scat, validate_sfunctor,
)
from sccat.sset import (SSetMap, boundary, boundary_inclusion, compose_maps,
                        from_nondegenerate, from_simplicial_complex,
                        horn_inclusion, identity_map, point, standard_simplex,
                        validate_sset, validate_sset_map)
from sccat.verdict import Budget, StructureError
from sccat.words import Attachment, glue_for_u, pushout_generating
from tests.test_model import z2_category

D = 2  # dim bound for most tests


# -- validation of the basic builders ----------------------------------------

def test_functor_U_validates():
    assert validate_scat(functor_U(standard_simplex(1, D))) == []
    assert validate_scat(functor_U(boundary(1, D))) == []
    assert validate_scat(walking_arrow(D)) == []


def test_singleton_empty_codiscrete_validate():
    assert validate_scat(singleton_cat(D)) == []
    assert validate_scat(empty_cat(D)) == []
    assert validate_scat(codiscrete_groupoid(2, D)) == []
    assert validate_scat(codiscrete_groupoid(3, D)) == []


def test_codiscrete_1_is_singleton():
    assert codiscrete_groupoid(1, D) == singleton_cat(D)


def test_broken_composition_is_caught():
    cat = functor_U(standard_simplex(1, D))
    compose = dict(cat.compose)
    # corrupt one entry of the (0,0,1) table in dimension 1
    lvl = [list(r) for r in compose[(0, 0, 1)][1]]
    lvl[0][0] = (lvl[0][0] + 1) % cat.hom[(0, 1)].size(1)
    tables = list(compose[(0, 0, 1)])
    tables[1] = tuple(tuple(r) for r in lvl)
    compose[(0, 0, 1)] = tuple(tables)
    broken = SimplicialCategory(cat.objects, cat.hom, compose, cat.identities,
                                cat.dim_bound)
    assert validate_scat(broken) != []


@pytest.mark.parametrize("identities, message", [
    ((0,), "identities must mark one 0-simplex per object"),
    ((0, 1), "identity of object 1 out of range"),
])
def test_validate_scat_names_broken_identities(identities, message):
    cat = functor_U(standard_simplex(1, D))
    broken = SimplicialCategory(cat.objects, cat.hom, cat.compose, identities,
                                cat.dim_bound)
    assert validate_scat(broken) == [message]


def max_monoid(d):
    """One object whose endomorphisms are Delta[1] under the vertexwise max,
    unit vertex 0.  Simplex i of each dimension has i ones, so max acts on
    indices."""
    x = standard_simplex(1, d)
    return SimplicialCategory(("x",), {(0, 0): x},
                              build_compose(1, {(0, 0): x}, d,
                                            lambda k, a, b, c, g, f: max(g, f)),
                              identities=(0,))


L, A = 0, 2  # the loop l and s_0 a in dimension 1 of loop_monoid()


def loop_monoid(l_squared=L):
    """One object, dim_bound 1: the vertices 1 < a and the edges
    s_0 1 < s_0 a < l, with l a loop at a, composed by max in that order,
    except that l l = l_squared.  s_0 a and l have the same faces, so
    only a degeneracy tells them apart."""
    x = from_nondegenerate(1, [[[], []], [[(1, ()), (1, ())]]])
    order = [[0, 1], [1, A, L]]  # per dimension, simplex indices in increasing order

    def rule(k, a, b, c, g, f):
        if k == 1 and g == f == L:
            return l_squared
        return order[k][max(order[k].index(g), order[k].index(f))]

    return SimplicialCategory(("x",), {(0, 0): x},
                              build_compose(1, {(0, 0): x}, 1, rule), identities=(0,))


def with_entries(cat, entries, identities=None):
    """cat with compose[t][k][g][f] = v for each ((t, k, g, f), v)."""
    compose = {t: [[list(row) for row in lvl] for lvl in levels]
               for t, levels in cat.compose.items()}
    for (t, k, g, f), v in entries:
        compose[t][k][g][f] = v
    return SimplicialCategory(cat.objects, cat.hom, compose,
                              identities or cat.identities, cat.dim_bound)


@pytest.mark.parametrize("cat, entries, prefix", [
    # dimension 1 stays a monoid (01 01 = 11 is truncated addition), but
    # d_1(11) = 1 is not d_1(01) d_1(01) = 0
    (max_monoid(1), [(((0, 0, 0), 1, 1, 1), 2)], "d_1 at dim 1:"),
    # s_0 a s_0 a = l has the faces of s_0(a a), but is not s_0(a a)
    (loop_monoid(), [(((0, 0, 0), 1, A, A), L)], "s_0 at dim 0:"),
    # l l = s_0 a and s_0 a l = s_0 a: every face and degeneracy commutes,
    # but (l s_0 a) l = s_0 a is not l (s_0 a l) = l
    (loop_monoid(), [(((0, 0, 0), 1, L, L), A), (((0, 0, 0), 1, A, L), A)],
     "dim 1: associativity"),
])
def test_each_law_is_checked_in_its_own_dimension(cat, entries, prefix):
    assert validate_scat(cat) == []
    broken = with_entries(cat, entries)
    bad = validate_scat(broken)
    assert bad and all(v.startswith(prefix) for v in bad)
    assert reference_validate_scat(broken) != []


# -- functors -----------------------------------------------------------------

def test_identity_sfunctor_validates():
    for cat in [functor_U(boundary(1, D)), codiscrete_groupoid(2, D)]:
        assert validate_sfunctor(identity_sfunctor(cat)) == []


def test_functor_U_on_maps_validates_and_composes():
    inc = horn_inclusion(2, 1, D)
    F = functor_U_map(inc)
    assert validate_sfunctor(F) == []
    # U(g . f) = U(g) . U(f) on a composable pair
    from sccat.sset import enumerate_sset_maps
    g = enumerate_sset_maps(inc.target, point(D))[0]
    lhs = functor_U_map(compose_maps(g, inc))
    rhs = compose_sfunctors(functor_U_map(g), functor_U_map(inc))
    assert lhs == rhs


def test_inclusion_of_object_validates():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    assert validate_sfunctor(inc) == []


def test_functor_from_the_empty_category_validates_at_any_bound():
    for bound in (D - 1, D, D + 1):
        assert validate_sfunctor(SFunctor(empty_cat(bound), singleton_cat(D), (), {})) == []


U_BOUNDARY_INCLUSION = functor_U_map(boundary_inclusion(1, D))


@pytest.mark.parametrize("fields, message", [
    ({"ob_map": (0,)}, "object map not a total map into the target objects"),
    ({"ob_map": (0, 2)}, "object map not a total map into the target objects"),
    ({"hom_maps": {p: m for p, m in U_BOUNDARY_INCLUSION.hom_maps.items() if p != (0, 1)}},
     "missing hom map at (0, 1)"),
    ({"hom_maps": {**U_BOUNDARY_INCLUSION.hom_maps,
                   (0, 1): identity_map(standard_simplex(1, D))}},
     "hom map at (0, 1) has wrong source or target"),
])
def test_validate_sfunctor_names_each_broken_field(fields, message):
    F = U_BOUNDARY_INCLUSION
    assert validate_sfunctor(F) == []
    assert message in validate_sfunctor(dataclasses.replace(F, **fields))


def test_sfunctor_breaking_composition_is_caught():
    # the identity of the hom complex, from l l = s_0 a to l l = l: a
    # simplicial map that preserves composition in dimension 0 only
    src, tgt = loop_monoid(l_squared=A), loop_monoid()
    assert validate_scat(src) == []
    F = SFunctor(src, tgt, (0,), {(0, 0): identity_map(src.hom[(0, 0)])})
    assert validate_sfunctor(F) == ["dim 1: composition not preserved at (0, 0, 0)"]
    assert reference_validate_sfunctor(F) != []


def test_sfunctor_sending_an_identity_elsewhere_is_caught():
    # the point goes to t in Z/2, whose vertex t is t in every dimension
    z2, pt = z2_category(D), singleton_cat(D)
    F = SFunctor(pt, z2, (0,), {(0, 0): SSetMap(pt.hom[(0, 0)], z2.hom[(0, 0)],
                                                [[1]] * (D + 1))})
    bad = validate_sfunctor(F)
    assert "dim 0: identity of object 0 not preserved" in bad
    assert all(v.startswith(("dim 0:", "dim 1:", "dim 2:")) for v in bad)
    assert reference_validate_sfunctor(F) != []


# -- subcategories and doubling ------------------------------------------------

def test_full_subcategory_all_objects_is_identity():
    cat = codiscrete_groupoid(2, D)
    sub, inc = full_subcategory(cat, [0, 1])
    assert sub == cat
    assert validate_sfunctor(inc) == []


def test_full_subcategory_of_walking_arrow():
    sub, inc = full_subcategory(walking_arrow(D), [0])
    assert sub == singleton_cat(D, label="x")
    assert validate_sfunctor(inc) == []


def test_full_subcategory_codiscrete():
    sub, _ = full_subcategory(codiscrete_groupoid(3, D), [0, 1])
    assert validate_scat(sub) == []
    assert sub.hom == codiscrete_groupoid(2, D).hom


def test_double_object_validates_and_collapses():
    for cat, a in [(singleton_cat(D), 0), (functor_U(boundary(1, D)), 0),
                   (codiscrete_groupoid(2, D), 1)]:
        e, collapse = double_object(cat, a)
        assert validate_scat(e) == []
        assert validate_sfunctor(collapse) == []
        assert e.n_objects() == 2


def test_double_object_of_singleton_is_codiscrete():
    e, _ = double_object(singleton_cat(D), 0)
    assert e.hom == codiscrete_groupoid(2, D).hom


# -- coproducts -----------------------------------------------------------------

def test_coproduct_of_singletons():
    cop, incs = coproduct([singleton_cat(D, "x"), singleton_cat(D, "y")])
    assert validate_scat(cop) == []
    assert cop.n_objects() == 2
    assert cop.hom[(0, 1)].is_empty() and cop.hom[(1, 0)].is_empty()
    for inc in incs:
        assert validate_sfunctor(inc) == []


def test_coproduct_of_a_category_with_itself_keeps_two_copies():
    cat = walking_arrow(D)
    cop, (inc0, inc1) = coproduct([cat, cat])
    assert validate_scat(cop) == []
    assert cop.objects == ("x", "y", "x#1", "y#1")
    assert cop.hom[(2, 3)] == cat.hom[(0, 1)]
    assert cop.hom[(0, 3)].is_empty() and cop.hom[(2, 1)].is_empty()
    assert (inc0.ob_map, inc1.ob_map) == ((0, 1), (2, 3))
    assert validate_sfunctor(inc0) == [] and validate_sfunctor(inc1) == []


def test_missing_homs_share_one_empty_set(monkeypatch):
    calls = []
    empty_sset = scat.empty_sset
    monkeypatch.setattr(scat, "empty_sset",
                        lambda d: calls.append(d) or empty_sset(d))
    codiscrete_groupoid(3, D)           # every hom given
    assert calls == []
    cod = codiscrete_groupoid(3, D)
    coproduct([cod, cod])               # one empty set, made by the builder
    assert calls == [D]
    pt = point(D)
    cat = SimplicialCategory(objects=("x", "y"), hom={(0, 0): pt, (1, 1): pt},
                             compose={}, identities=(0, 0), dim_bound=D)
    assert calls == [D, D]
    assert cat.hom[(0, 1)] is cat.hom[(1, 0)] and cat.hom[(0, 1)].is_empty()


def test_coproduct_with_empty_is_same():
    cat = functor_U(standard_simplex(1, D))
    cop, _ = coproduct([cat, empty_cat(D)])
    assert cop.n_objects() == cat.n_objects()
    assert cop.hom == cat.hom


# -- pullbacks -------------------------------------------------------------------

def test_pullback_along_identity_is_isomorphic_copy():
    cat = functor_U(boundary(1, D))
    ident = identity_sfunctor(cat)
    P, prB, prC = pullback_scat(ident, ident)
    assert validate_scat(P) == []
    assert validate_sfunctor(prB) == []
    assert P.n_objects() == cat.n_objects()
    for (a, b) in P.object_pairs():
        assert P.hom[(a, b)].size(0) == cat.hom[(a, b)].size(0)


def test_pullback_projections_commute():
    g = codiscrete_groupoid(2, D)
    s = singleton_cat(D)
    f = inclusion_of_object(g, 0, s)
    h = inclusion_of_object(g, 1, s)
    P, prB, prC = pullback_scat(f, h)
    assert validate_scat(P) == []
    lhs = compose_sfunctors(f, prB)
    rhs = compose_sfunctors(h, prC)
    assert lhs.ob_map == rhs.ob_map
    for p in P.object_pairs():
        assert lhs.hom_maps[p] == rhs.hom_maps[p]


def test_pullback_of_codiscrete_is_codiscrete():
    # the desk-scale model of the localization square: pulling the
    # codiscrete groupoid back along itself returns it unchanged
    g = codiscrete_groupoid(2, D)
    ident = identity_sfunctor(g)
    P, _, _ = pullback_scat(ident, ident)
    assert P.hom == g.hom
    assert validate_scat(P) == []


def test_pullback_mediating_functor():
    cat = functor_U(boundary(1, D))
    ident = identity_sfunctor(cat)
    P, prB, prC = pullback_scat(ident, ident)
    med = pullback_mediating(P, prB, prC, ident, ident)
    assert validate_sfunctor(med) == []
    assert compose_sfunctors(prB, med) == ident


# -- pi0 -------------------------------------------------------------------------

def test_pi0_of_walking_arrow():
    fc = pi0_category(walking_arrow(D))
    assert len(fc.hom(0, 1)) == 1
    assert len(fc.hom(1, 0)) == 0
    assert len(fc.hom(0, 0)) == 1


def test_pi0_of_U_two_points():
    fc = pi0_category(functor_U(boundary(1, D)))
    assert len(fc.hom(0, 1)) == 2  # two parallel morphisms


def test_pi0_data_raises_on_every_call():
    # Hom(x, x) has components {0, 1} and {2}, and 1 . 1 = 2 while 0 . 0 = 0
    h = from_simplicial_complex([(0, 1), (2,)], 1)
    table = [[g if f == 0 else f if g == 0 else 2 for f in range(3)]
             for g in range(3)]
    cat = SimplicialCategory(objects=("x",), hom={(0, 0): h},
                             compose={(0, 0, 0): (table, ())}, identities=(0,))
    for _ in range(2):
        with pytest.raises(StructureError, match="not well defined"):
            pi0_data(cat)


def test_pi0_of_codiscrete_is_codiscrete():
    fc = pi0_category(codiscrete_groupoid(2, D))
    for a in range(2):
        for b in range(2):
            assert len(fc.hom(a, b)) == 1


def test_pi0_functor_functorial():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    F = pi0_functor(inc)
    assert validate_functor(F) == []
    ident = pi0_functor(identity_sfunctor(cat))
    assert validate_functor(ident) == []
    assert ident.ob_map == (0, 1)
    # composition preserved
    G = pi0_functor(compose_sfunctors(identity_sfunctor(cat), inc))
    assert G == F or (G.ob_map == F.ob_map and G.mor_maps == F.mor_maps)


def test_pi0_inclusion_into_codiscrete_is_equivalence():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    ok, _ = is_equivalence(pi0_functor(inc))
    assert ok


# -- homotopy equivalences --------------------------------------------------------

def test_identity_is_homotopy_equivalence():
    cat = walking_arrow(D)
    assert is_homotopy_equivalence(cat, 0, 0, cat.identities[0])


def test_generator_of_walking_arrow_not_homotopy_equivalence():
    cat = walking_arrow(D)
    assert not is_homotopy_equivalence(cat, 0, 1, 0)


def test_codiscrete_morphisms_all_homotopy_equivalences():
    cat = codiscrete_groupoid(3, D)
    for a in range(3):
        for b in range(3):
            assert is_homotopy_equivalence(cat, a, b, 0)


# -- the validators against the law-by-law reference -------------------------

def reference_validate_scat(cat: SimplicialCategory) -> list:
    """validate_scat as written out law by law, dimension by dimension."""
    bad = []
    n = cat.n_objects()
    bound = cat.dim_bound
    for (a, b), h in cat.hom.items():
        sub = validate_sset(h)
        bad.extend(f"hom ({a},{b}): {v}" for v in sub)
    if len(cat.identities) != n:
        bad.append("identities must mark one 0-simplex per object")
        return bad
    for a in range(n):
        if not (0 <= cat.identities[a] < cat.hom[(a, a)].size(0)):
            bad.append(f"identity of object {a} out of range")
            return bad
    if bad:
        return bad

    for (a, b, c) in cat.object_triples():
        table = cat.compose.get((a, b, c))
        hf, hg, ht = cat.hom[(a, b)], cat.hom[(b, c)], cat.hom[(a, c)]
        if table is None:
            if any(hf.size(k) and hg.size(k) for k in range(bound + 1)):
                bad.append(f"missing composition table {(a, b, c)}")
            continue
        if len(table) != bound + 1:
            bad.append(f"composition table {(a, b, c)} must cover every dimension")
            continue
        for k in range(bound + 1):
            nf, ng, nt = hf.size(k), hg.size(k), ht.size(k)
            lvl = table[k]
            if nf == 0 or ng == 0:
                continue
            if len(lvl) != ng or any(len(row) != nf for row in lvl):
                bad.append(f"table {(a, b, c)} dim {k}: wrong shape")
                continue
            if any(not (0 <= v < nt) for row in lvl for v in row):
                bad.append(f"table {(a, b, c)} dim {k}: entry out of range")
    if bad:
        return bad

    # composition is a simplicial map
    for (a, b, c) in cat.object_triples():
        hf, hg, ht = cat.hom[(a, b)], cat.hom[(b, c)], cat.hom[(a, c)]
        for k in range(bound + 1):
            for g in range(hg.size(k)):
                for f in range(hf.size(k)):
                    gf = cat.comp(k, a, b, c, g, f)
                    if k >= 1:
                        for i in range(k + 1):
                            lhs = ht.face(k, gf, i)
                            rhs = cat.comp(k - 1, a, b, c, hg.face(k, g, i),
                                           hf.face(k, f, i))
                            if lhs != rhs:
                                bad.append(
                                    f"composition not simplicial: d_{i} at "
                                    f"{(a, b, c)} dim {k} pair ({g},{f})")
                    if k + 1 <= bound:
                        for j in range(k + 1):
                            lhs = ht.degeneracy(k, gf, j)
                            rhs = cat.comp(k + 1, a, b, c,
                                           hg.degeneracy(k, g, j),
                                           hf.degeneracy(k, f, j))
                            if lhs != rhs:
                                bad.append(
                                    f"composition not simplicial: s_{j} at "
                                    f"{(a, b, c)} dim {k} pair ({g},{f})")

    # unit laws
    for (a, b) in cat.object_pairs():
        hf = cat.hom[(a, b)]
        for k in range(bound + 1):
            ida = cat.identity_tower(a, k)
            idb = cat.identity_tower(b, k)
            for f in range(hf.size(k)):
                if cat.comp(k, a, a, b, f, ida) != f:
                    bad.append(f"right unit law fails at {(a, b)} dim {k} simplex {f}")
                if cat.comp(k, a, b, b, idb, f) != f:
                    bad.append(f"left unit law fails at {(a, b)} dim {k} simplex {f}")

    # associativity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    hf, hg, hh = cat.hom[(a, b)], cat.hom[(b, c)], cat.hom[(c, d)]
                    for k in range(bound + 1):
                        nf, ng, nh = hf.size(k), hg.size(k), hh.size(k)
                        if nf == 0 or ng == 0 or nh == 0:
                            continue
                        for f in range(nf):
                            for g in range(ng):
                                gf = cat.comp(k, a, b, c, g, f)
                                for h in range(nh):
                                    lhs = cat.comp(k, a, c, d, h, gf)
                                    rhs = cat.comp(k, a, b, d,
                                                   cat.comp(k, b, c, d, h, g), f)
                                    if lhs != rhs:
                                        bad.append(
                                            f"associativity fails at {(a, b, c, d)}"
                                            f" dim {k} triple ({f},{g},{h})")
    return bad


def reference_validate_sfunctor(F: SFunctor) -> list:
    """validate_sfunctor as written out law by law, dimension by dimension."""
    bad = []
    src, tgt = F.source, F.target
    n = src.n_objects()
    if len(F.ob_map) != n or any(not (0 <= x < tgt.n_objects()) for x in F.ob_map):
        return ["object map not a total map into the target objects"]
    for (a, b) in src.object_pairs():
        m = F.hom_maps.get((a, b))
        if m is None:
            bad.append(f"missing hom map at {(a, b)}")
            continue
        if m.source != src.hom[(a, b)] or m.target != tgt.hom[(F.ob(a), F.ob(b))]:
            bad.append(f"hom map at {(a, b)} has wrong source or target")
            continue
        bad.extend(f"hom map {(a, b)}: {v}" for v in validate_sset_map(m))
    if bad:
        return bad
    for a in range(n):
        if F.apply(0, a, a, src.identities[a]) != tgt.identities[F.ob(a)]:
            bad.append(f"identity of object {a} not preserved")
    for (a, b, c) in src.object_triples():
        hf, hg = src.hom[(a, b)], src.hom[(b, c)]
        fa, fb, fc = F.ob(a), F.ob(b), F.ob(c)
        for k in range(src.dim_bound + 1):
            for g in range(hg.size(k)):
                for f in range(hf.size(k)):
                    lhs = F.apply(k, a, c, src.comp(k, a, b, c, g, f))
                    rhs = tgt.comp(k, fa, fb, fc, F.apply(k, b, c, g),
                                   F.apply(k, a, b, f))
                    if lhs != rhs:
                        bad.append(f"composition not preserved at {(a, b, c)} "
                                   f"dim {k} pair ({g},{f})")
    return bad


def pushout_into_simplex(inc):
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    return pushout_generating(base, att, glue_for_u(att, base, 0, 1, inc),
                              Budget(max_dim=D, max_words=8)).category


@lru_cache(maxsize=None)
def oracle_fixtures():
    categories = [functor_U(standard_simplex(1, D)), functor_U(boundary(2, D)),
                  codiscrete_groupoid(3, D), walking_arrow(D),
                  coproduct([walking_arrow(D), codiscrete_groupoid(2, D)])[0],
                  pushout_into_simplex(horn_inclusion(2, 1, D)),
                  pushout_into_simplex(boundary_inclusion(2, D)),
                  max_monoid(1), loop_monoid()]
    functors = [functor_U_map(horn_inclusion(2, 1, D)),
                identity_sfunctor(codiscrete_groupoid(3, D)),
                inclusion_of_object(codiscrete_groupoid(2, D), 1, singleton_cat(D))]
    return categories, functors


def corrupt_scat(data, cat):
    """cat with one identity or one or two composition entries redrawn, out
    of range included."""
    if data.draw(st.booleans(), label="corrupt an identity"):
        identities = list(cat.identities)
        a = data.draw(st.integers(0, cat.n_objects() - 1))
        identities[a] = data.draw(st.integers(0, cat.hom[(a, a)].size(0)))
        return with_entries(cat, [], tuple(identities))
    slots = [(t, k, g, f) for t, levels in cat.compose.items()
             for k, lvl in enumerate(levels) for g, row in enumerate(lvl)
             for f in range(len(row))]
    entries = []
    for _ in range(data.draw(st.integers(1, 2))):
        (a, b, c), k, g, f = data.draw(st.sampled_from(slots))
        entries.append((((a, b, c), k, g, f),
                        data.draw(st.integers(0, cat.hom[(a, c)].size(k)))))
    return with_entries(cat, entries)


def corrupt_sfunctor(data, F):
    """F with one assignment of one hom map redrawn, out of range included."""
    slots = [(p, k, i) for p, m in F.hom_maps.items()
             for k, lvl in enumerate(m.assign) for i in range(len(lvl))]
    p, k, i = data.draw(st.sampled_from(slots))
    m = F.hom_maps[p]
    assign = [list(lvl) for lvl in m.assign]
    assign[k][i] = data.draw(st.integers(0, m.target.size(k)))
    return SFunctor(F.source, F.target, F.ob_map,
                    {**F.hom_maps, p: SSetMap(m.source, m.target, assign)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_validators_agree_with_the_reference(data):
    categories, functors = oracle_fixtures()
    if data.draw(st.booleans(), label="functor"):
        F = corrupt_sfunctor(data, data.draw(st.sampled_from(functors)))
        assert (validate_sfunctor(F) == []) == (reference_validate_sfunctor(F) == [])
    else:
        cat = corrupt_scat(data, data.draw(st.sampled_from(categories)))
        assert (validate_scat(cat) == []) == (reference_validate_scat(cat) == [])
