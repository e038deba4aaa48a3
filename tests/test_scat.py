import dataclasses
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sccat import constructions_basic, scat, sset, words
from sccat.cat import is_equivalence, is_isomorphism, validate_functor
from sccat.constructions_basic import (codiscrete_groupoid,
                                       inclusion_of_object, walking_arrow)
from sccat.model import factor_bounded, generating_acyclic_a1, generating_cofibrations
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
from sccat.verdict import Budget, InputError, StructureError
from sccat.words import Attachment, glue_for_c2, glue_for_u, pushout_generating
from tests import test_model
from tests.test_golden import _pushout_corpus
from tests.test_model import z2_category
from tests.test_ssetcheck import LIFTING_COMPLEXES

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
    broken = scat._category(cat.objects, cat.hom, compose, cat.identities, cat.dim_bound)
    assert validate_scat(broken) != []
    with pytest.raises(InputError, match="not a simplicial category: dim 1:"):
        public_copy(broken)


@pytest.mark.parametrize("identities, message", [
    ((0,), "identities must mark one 0-simplex per object"),
    ((0, 1), "identity of object 1 out of range"),
])
def test_validate_scat_names_broken_identities(identities, message):
    cat = functor_U(standard_simplex(1, D))
    broken = scat._category(cat.objects, cat.hom, cat.compose, identities, cat.dim_bound)
    assert validate_scat(broken) == [message]
    with pytest.raises(InputError, match=f"not a simplicial category: {message}"):
        public_copy(broken)


def max_monoid(d):
    """One object whose endomorphisms are Delta[1] under the vertexwise max,
    unit vertex 0.  Simplex i of each dimension has i ones, so max acts on
    indices."""
    x = standard_simplex(1, d)
    return SimplicialCategory(("x",), {(0, 0): x},
                              build_compose(1, {(0, 0): x}, d,
                                            lambda k, a, b, c, g, f: max(g, f), (0,)),
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
                              build_compose(1, {(0, 0): x}, 1, rule, (0,)),
                              identities=(0,))


def rule_on_every_entry(n_objects, homs, dim_bound, rule):
    """Composition tables with the rule asked for every entry, the unit
    entries included."""
    return {(a, b, c): tuple(
        tuple(tuple(rule(k, a, b, c, g, f) for f in range(homs[(a, b)].size(k)))
              for g in range(homs[(b, c)].size(k))) if homs[(a, b)].size(k) else ()
        for k in range(dim_bound + 1))
        for a in range(n_objects) for b in range(n_objects) for c in range(n_objects)}


def u_rule(k, a, b, c, g, f):
    """Composition in U(X): f is an identity tower when a == b, and g one
    otherwise."""
    return g if a == b else f


def z2_pullback():
    ident = identity_sfunctor(z2_category(D))
    return pullback_scat(ident, ident)


def codiscrete_pullback():
    g = codiscrete_groupoid(2, D)
    s = singleton_cat(D)
    return pullback_scat(inclusion_of_object(g, 0, s), inclusion_of_object(g, 1, s))


def u_pullback():
    return pullback_scat(functor_U_map(horn_inclusion(2, 1, D)),
                         functor_U_map(boundary_inclusion(2, D)))


@pytest.mark.parametrize("make", [
    lambda: max_monoid(D), loop_monoid, lambda: z2_category(D),
    lambda: codiscrete_groupoid(1, D), lambda: codiscrete_groupoid(2, D),
    lambda: codiscrete_groupoid(3, D), z2_pullback, codiscrete_pullback, u_pullback,
], ids=["max", "loop", "z2", "codiscrete1", "codiscrete2", "codiscrete3",
        "z2-pullback", "codiscrete-pullback", "u-pullback"])
def test_unit_law_tables_equal_the_rule_on_every_entry(make, monkeypatch):
    # every build_compose call the construction makes, U(X) by the rule of
    # U; the unit law's entries are what each rule gives there.  A library
    # category makes its tables on the first read of compose, so each one
    # the construction makes is read
    calls, made, real, defer = [], [], scat.build_compose, scat._deferred_category

    def recording(n_objects, homs, dim_bound, rule, identities):
        out = real(n_objects, homs, dim_bound, rule, identities)
        calls.append((n_objects, homs, dim_bound, rule or u_rule, out))
        return out

    def deferring(*data):
        made.append(defer(*data))
        return made[-1]

    for module in (scat, test_model, sys.modules[__name__]):
        monkeypatch.setattr(module, "build_compose", recording)
    for module in (scat, constructions_basic, words):
        monkeypatch.setattr(module, "_deferred_category", deferring)
    make()
    assert all(type(cat.compose) is dict for cat in made)
    assert any(rule is not u_rule for *_, rule, _ in calls)
    for n_objects, homs, dim_bound, rule, out in calls:
        assert out == rule_on_every_entry(n_objects, homs, dim_bound, rule)


# the factorizations whose pushout stages the canonical-form test reads
FACTORIZATIONS = [
    (lambda: functor_U_map(horn_inclusion(2, 1, D)), lambda: generating_acyclic_a1(2, D)),
    (lambda: test_model.empty_to(walking_arrow(D)), lambda: generating_cofibrations(1, D)),
    (lambda: test_model.two_copies_onto_one(boundary(1, D)),
     lambda: generating_cofibrations(1, D)),
]


def library_categories():
    """The categories the library builds on the fixtures: the multi-object
    categories, U(X) of every lifting complex, the pullbacks above, and
    every pushout stage of the factorizations."""
    cats = list(test_model.MULTI_OBJECT_CATEGORIES)
    cats += [functor_U(x) for xs in LIFTING_COMPLEXES.values() for x in xs]
    cats += [make()[0] for make in (z2_pullback, codiscrete_pullback, u_pullback)]
    for f, gens in FACTORIZATIONS:
        res = factor_bounded(f(), gens(), test_model.B)
        assert res.cells
        cats += [cell.glue.target for cell in res.cells] + [res.left.target]
    return cats


def test_library_categories_are_canonical():
    # the public constructor, which canonicalizes, changes nothing of what
    # the library builds: the same tables, in the same order
    for cat in library_categories():
        again = SimplicialCategory(cat.objects, cat.hom, cat.compose, cat.identities,
                                   cat.dim_bound)
        assert again == cat
        assert list(again.compose.items()) == list(cat.compose.items())


# -- composition tables made on the first read --------------------------------

def counting_build_compose(monkeypatch) -> list:
    """The data of every build_compose call from here on."""
    calls, real = [], scat.build_compose

    def counting(*data):
        calls.append(data)
        return real(*data)
    monkeypatch.setattr(scat, "build_compose", counting)
    return calls


def benchmark_pushout(inc):
    """U(inc) pushed out into U of inc's target, at inc's bound."""
    base, att = functor_U(inc.target), Attachment.from_sset_mono(inc)
    return pushout_generating(base, att, glue_for_u(att, base, 0, 1, inc),
                              Budget(max_dim=inc.target.dim_bound, max_words=16,
                                     max_steps=500_000)).category


DEFERRED = {
    "functor_U": lambda: [functor_U(standard_simplex(2, D))],
    "functor_U_map": lambda: [functor_U_map(horn_inclusion(2, 1, D)).source,
                              functor_U_map(boundary_inclusion(2, D)).target],
    **{f"pushout {name}": (lambda inc=inc: [benchmark_pushout(inc())]) for name, inc in {
        "horn[2,1] D2": lambda: horn_inclusion(2, 1, 2),
        "horn[3,1] D3": lambda: horn_inclusion(3, 1, 3),
        "horn[4,2] D4": lambda: horn_inclusion(4, 2, 4),
        "bd[2] D2": lambda: boundary_inclusion(2, 2),
        "bd[3] D3": lambda: boundary_inclusion(3, 3)}.items()},
    "codiscrete_groupoid": lambda: [codiscrete_groupoid(n, D) for n in (1, 2, 3)],
    # u_pullback compares two copies of U(Delta[2]), which reads their tables
    "pullback_scat": lambda: [make()[0] for make in (z2_pullback, codiscrete_pullback)],
}


@pytest.mark.parametrize("name", DEFERRED)
def test_library_categories_make_their_tables_on_the_first_read(name, monkeypatch):
    calls = counting_build_compose(monkeypatch)
    cats = DEFERRED[name]()
    assert calls == [] and all(type(cat) is scat._DeferredCategory for cat in cats)
    for made, cat in enumerate(cats, 1):
        tables = cat.compose
        assert len(calls) == made and type(cat) is SimplicialCategory
        assert cat.compose is tables and len(calls) == made
        assert calls[-1][:2] == (cat.n_objects(), cat.hom)


def eager(make, monkeypatch):
    """make() with every deferred table made at construction: ``_category``
    of ``build_compose`` run at once on the same data and rule."""
    def at_once(objects, homs, rule, identities, dim_bound):
        return scat._category(objects, homs, build_compose(
            len(objects), homs, dim_bound, rule, identities), identities, dim_bound)
    with monkeypatch.context() as patch:
        for module in (scat, constructions_basic, words):
            patch.setattr(module, "_deferred_category", at_once)
        return make()


def test_deferred_tables_equal_the_tables_made_at_once(monkeypatch):
    makes = [lambda x=x: scat._u_on(x, point(x.dim_bound))
             for xs in LIFTING_COMPLEXES.values() for x in xs]
    makes += [lambda call=call: call().category
              for name, call in _pushout_corpus().items() if name.endswith(" default")]
    makes += [lambda make=make: make()[0]
              for make in (z2_pullback, codiscrete_pullback, u_pullback)]
    makes += [lambda n=n: codiscrete_groupoid(n, D) for n in (1, 2, 3)]
    for make in makes:
        deferred, at_once = make(), eager(make, monkeypatch)
        assert type(deferred) is scat._DeferredCategory and type(at_once) is SimplicialCategory
        assert deferred.compose == at_once.compose and deferred == at_once


def test_a_factorization_makes_no_composition_table(monkeypatch):
    f, gens = functor_U_map(horn_inclusion(2, 1, 2)), generating_acyclic_a1(2, 2)
    calls = counting_build_compose(monkeypatch)
    assert factor_bounded(f, gens).complete
    assert calls == []


def test_identity_towers_of_u_make_no_record_of_the_point(monkeypatch):
    records, real = [], sset._derive_records
    monkeypatch.setattr(sset, "_derive_records", lambda *data: records.append(data) or real(*data))
    u = functor_U(standard_simplex(2, 3))
    towers = u.identity_towers()
    assert records == [] and type(u.hom[(0, 0)]) is sset._TupleSet
    assert towers == [(0, 0)] * 4


@pytest.mark.parametrize("n_objects, identities, message", [
    (2, (0, 0), "every hom must be a SimplicialSet at dim_bound, one per object pair"),
    (1, (5,), "identities must mark one 0-simplex of each Hom"),
    (1, (0, 0), "identities must mark one 0-simplex of each Hom"),
], ids=["a-missing-hom-pair", "an-identity-out-of-range", "one-identity-too-many"])
def test_build_compose_rejects_missing_homs_and_bad_identities(n_objects, identities, message):
    with pytest.raises(InputError, match=message):
        build_compose(n_objects, {(0, 0): point(2)}, 2, None, identities)


def with_entries(cat, entries, identities=None):
    """cat with compose[t][k][g][f] = v for each ((t, k, g, f), v), stored
    through ``scat._category`` with no check: the result need not be a
    simplicial category, which the public constructor would refuse."""
    compose = {t: [[list(row) for row in lvl] for lvl in levels]
               for t, levels in cat.compose.items()}
    for (t, k, g, f), v in entries:
        compose[t][k][g][f] = v
    compose = {t: tuple(tuple(map(tuple, lvl)) for lvl in levels)
               for t, levels in compose.items()}
    return scat._category(cat.objects, cat.hom, compose,
                          identities or cat.identities, cat.dim_bound)


def public_copy(cat):
    """cat's data handed to the public constructor, which validates it."""
    return SimplicialCategory(cat.objects, cat.hom, cat.compose, cat.identities, cat.dim_bound)


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
    with pytest.raises(InputError, match=f"not a simplicial category: {prefix}"):
        public_copy(broken)



# -- equality ---------------------------------------------------------------------

def test_categories_that_differ_only_in_their_tables_compare_unequal():
    # Z/2 and the monoid {1, e} with e e = e share their object, their hom and
    # their identity; a pushout compares categories (its glue must land in
    # the base), so the tables must count
    two = boundary(1, D)
    z2, idem = (SimplicialCategory(("x",), {(0, 0): two},
                                   build_compose(1, {(0, 0): two}, D, rule, (0,)), (0,), D)
                for rule in (lambda k, a, b, c, g, f: g ^ f, lambda k, a, b, c, g, f: g | f))
    assert validate_scat(z2) == validate_scat(idem) == []
    assert (z2.objects, z2.hom, z2.identities) == (idem.objects, idem.hom, idem.identities)
    assert z2 != idem and not z2 == idem and z2 == z2_category(D)
    att = Attachment.c2(D)
    with pytest.raises(InputError, match="glue must land in the base category"):
        pushout_generating(idem, att, glue_for_c2(att, z2))

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


@pytest.mark.parametrize("d", [0, 2, 3])
def test_walking_arrow_is_u_of_the_point_on_one_point(d):
    arrow = walking_arrow(d)
    assert arrow == functor_U(point(d))
    assert arrow.hom[(0, 0)] is arrow.hom[(1, 1)] is arrow.hom[(0, 1)]
    assert arrow.hom[(1, 0)].size(0) == 0


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
    units = (((0,),),) * (D + 1)        # the one composite of each Hom(a, a)_k
    cat = SimplicialCategory(objects=("x", "y"), hom={(0, 0): pt, (1, 1): pt},
                             compose={(0, 0, 0): units, (1, 1, 1): units},
                             identities=(0, 0), dim_bound=D)
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
    # a functor that lacks its hom maps is unequal, in both orders
    bare = SFunctor(source=cat, target=cat, ob_map=ident.ob_map, hom_maps={})
    assert bare != ident and ident != bare


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
    # stored with no check: the public constructor refuses the category
    # (composition is not associative, and dimension 1 has no table)
    compose = {(0, 0, 0): (tuple(map(tuple, table)), ())}
    with pytest.raises(InputError, match="not a simplicial category"):
        SimplicialCategory(objects=("x",), hom={(0, 0): h}, compose=compose, identities=(0,))
    cat = scat._category(("x",), {(0, 0): h}, compose, (0,), 1)
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


@pytest.mark.parametrize("a, b", [(5, 0), (0, -1)])
def test_is_homotopy_equivalence_rejects_an_unknown_object(a, b):
    with pytest.raises(InputError, match="unknown object"):
        is_homotopy_equivalence(singleton_cat(2), a, b, 0)


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
        # the public constructor refuses exactly what the validator faults
        if validate_scat(cat):
            with pytest.raises(InputError, match="not a simplicial category"):
                public_copy(cat)
        else:
            assert public_copy(cat) == cat


# -- identity towers -------------------------------------------------------------

TOWER_FIXTURES = {
    "oracle-fixtures": lambda: oracle_fixtures()[0],
    "multi-object": lambda: test_model.MULTI_OBJECT_CATEGORIES,
    "pullbacks": lambda: [z2_pullback()[0], codiscrete_pullback()[0], u_pullback()[0]],
    "codiscrete": lambda: [codiscrete_groupoid(n, d) for n in (1, 2, 3) for d in (1, 2, 3)],
    "monoids": lambda: [max_monoid(d) for d in (1, 2, 3)] + [loop_monoid()],
    "pushouts-at-D3": lambda: [pushout_into_simplex(horn_inclusion(2, 1, 3)),
                               pushout_into_simplex(boundary_inclusion(2, 3))],
}


@pytest.mark.parametrize("name", TOWER_FIXTURES)
def test_identity_towers_are_s0_applied_k_times(name):
    for cat in TOWER_FIXTURES[name]():
        towers = cat.identity_towers()
        assert len(towers) == cat.dim_bound + 1
        for a in range(cat.n_objects()):
            cur = cat.identities[a]
            for k in range(cat.dim_bound + 1):
                assert towers[k][a] == cat.identity_tower(a, k) == cur
                if k < cat.dim_bound:
                    cur = cat.hom[(a, a)].dims[k][cur].degens[0]


# -- input errors ------------------------------------------------------------------

def _pullback_of_identities(cat):
    ident = identity_sfunctor(cat)
    return pullback_scat(ident, ident)


def _constant_on_z2():
    """The functor Z/2 -> Z/2 sending every morphism to the unit: a cone
    with the identity that does not commute over Z/2."""
    z2 = z2_category(D)
    const = SSetMap(z2.hom[(0, 0)], z2.hom[(0, 0)], [[0, 0]] * (D + 1))
    return SFunctor(source=z2, target=z2, ob_map=(0,), hom_maps={(0, 0): const})


SCAT_INPUT_ERRORS = {
    "hom-dim_bound": (
        lambda: SimplicialCategory(("x", "y"), {(0, 0): point(2), (1, 1): point(3)}, {}, (0, 0)),
        InputError, "all hom complexes must share one dim_bound"),
    "compose": (lambda: compose_sfunctors(identity_sfunctor(walking_arrow(D)),
                                          identity_sfunctor(singleton_cat(D))),
                InputError, "functors not composable"),
    "full-subcategory": (lambda: full_subcategory(walking_arrow(D), [0, 2]),
                         InputError, "unknown object in subcategory selection"),
    "double-object": (lambda: double_object(walking_arrow(D), 2), InputError, "unknown object"),
    "coproduct-empty": (lambda: coproduct([]), InputError,
                        "coproduct needs at least one category"),
    "coproduct-dim_bound": (lambda: coproduct([singleton_cat(2), singleton_cat(3)]),
                            InputError, "dim_bound mismatch in coproduct"),
    "pullback-target": (lambda: pullback_scat(identity_sfunctor(walking_arrow(D)),
                                              identity_sfunctor(singleton_cat(D))),
                        InputError, "pullback needs a common target"),
    "pullback-dim_bound": (
        lambda: pullback_scat(identity_sfunctor(singleton_cat(2)),
                              SFunctor(source=singleton_cat(3), target=singleton_cat(2),
                                       ob_map=(0,), hom_maps={})),
        InputError, "dim_bound mismatch"),
    "cone-source": (lambda: pullback_mediating(
        *_pullback_of_identities(singleton_cat(D)), identity_sfunctor(singleton_cat(D)),
        identity_sfunctor(walking_arrow(D))), InputError, "cone legs must share their source"),
    # objects 0 and 1 of the walking arrow have no common preimage
    "cone-objects": (lambda: pullback_mediating(
        *pullback_scat(inclusion_of_object(walking_arrow(D), 0, singleton_cat(D)),
                       inclusion_of_object(walking_arrow(D), 1, singleton_cat(D))),
        identity_sfunctor(singleton_cat(D)), identity_sfunctor(singleton_cat(D))),
        StructureError, "cone does not factor on objects"),
    "cone-homs": (lambda: pullback_mediating(
        *_pullback_of_identities(z2_category(D)), identity_sfunctor(z2_category(D)),
        _constant_on_z2()), StructureError, "cone does not factor on homs"),
    "homotopy-equivalence": (lambda: is_homotopy_equivalence(walking_arrow(D), 0, 1, 1),
                             InputError, "not a 0-simplex of the stated hom"),
}


@pytest.mark.parametrize("case", SCAT_INPUT_ERRORS)
def test_malformed_inputs_raise_with_their_message(case):
    call, exc, message = SCAT_INPUT_ERRORS[case]
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message
