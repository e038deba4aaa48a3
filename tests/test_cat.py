import dataclasses

import pytest

from sccat.cat import (
    FiniteCategory, FiniteFunctor, compose_functors, is_equivalence,
    is_isomorphism, validate_category, validate_functor,
)
from sccat.verdict import InputError


# -- handy constructions for tests -------------------------------------------

def terminal_category() -> FiniteCategory:
    return FiniteCategory(objects=("*",), homs={(0, 0): ("id",)},
                          compose={(0, 0, 0): ((0,),)}, identities=(0,))


def codiscrete_category(n: int) -> FiniteCategory:
    homs = {(a, b): ("m",) for a in range(n) for b in range(n)}
    compose = {(a, b, c): ((0,),) for a in range(n) for b in range(n)
               for c in range(n)}
    return FiniteCategory(objects=tuple(f"x{i}" for i in range(n)),
                          homs=homs, compose=compose,
                          identities=tuple(0 for _ in range(n)))


def walking_arrow_category() -> FiniteCategory:
    homs = {(0, 0): ("id",), (1, 1): ("id",), (0, 1): ("g",), (1, 0): ()}
    compose = {
        (0, 0, 0): ((0,),), (1, 1, 1): ((0,),),
        (0, 0, 1): ((0,),), (0, 1, 1): ((0,),),
        (1, 1, 0): (), (1, 0, 0): (), (0, 1, 0): (), (1, 0, 1): (),
    }
    return FiniteCategory(objects=("x", "y"), homs=homs, compose=compose,
                          identities=(0, 0))


def identity_functor(c: FiniteCategory) -> FiniteFunctor:
    return FiniteFunctor(source=c, target=c,
                         ob_map=tuple(range(c.n_objects())),
                         mor_maps={(a, b): tuple(range(len(c.hom(a, b))))
                                   for a in range(c.n_objects())
                                   for b in range(c.n_objects())})


def test_builtin_categories_validate():
    assert validate_category(terminal_category()) == []
    assert validate_category(codiscrete_category(2)) == []
    assert validate_category(codiscrete_category(3)) == []
    assert validate_category(walking_arrow_category()) == []


def test_identity_morphism_is_isomorphism():
    c = terminal_category()
    ok, inv = is_isomorphism(c, 0, 0, c.identities[0])
    assert ok and inv == c.identities[0]


def test_codiscrete_morphisms_are_isomorphisms():
    c = codiscrete_category(2)
    ok, inv = is_isomorphism(c, 0, 1, 0)
    assert ok
    # the inverse re-checks by table lookup
    assert c.comp(0, 1, 0, inv, 0) == c.identities[0]
    assert c.comp(1, 0, 1, 0, inv) == c.identities[1]


def test_walking_arrow_generator_not_isomorphism():
    c = walking_arrow_category()
    ok, _ = is_isomorphism(c, 0, 1, 0)
    assert not ok  # no morphism back from y to x


@pytest.mark.parametrize("a, b, m, message", [
    (True, 1, 0, "unknown object"), (0.0, 1, 0, "unknown object"), (0, 2, 0, "unknown object"),
    (0, 1, None, "morphism index out of range"), (0, 1, 1, "morphism index out of range"),
], ids=["a-True", "a-0.0", "b-2", "m-None", "m-1"])
def test_is_isomorphism_takes_only_objects_and_morphisms_of_the_category(a, b, m, message):
    with pytest.raises(InputError, match=message):
        is_isomorphism(codiscrete_category(2), a, b, m)


def test_identity_functor_is_equivalence():
    for c in [terminal_category(), codiscrete_category(2),
              walking_arrow_category()]:
        F = identity_functor(c)
        assert validate_functor(F) == []
        ok, _ = is_equivalence(F)
        assert ok


def test_codiscrete_to_terminal_is_equivalence():
    c = codiscrete_category(2)
    t = terminal_category()
    F = FiniteFunctor(source=c, target=t, ob_map=(0, 0),
                      mor_maps={(a, b): (0,) for a in range(2) for b in range(2)})
    assert validate_functor(F) == []
    ok, witness = is_equivalence(F)
    assert ok
    assert witness["iso_choices"][0]["source_object"] == 0


def test_two_discrete_objects_to_terminal_not_equivalence():
    # hom(x, y) is empty upstream but a singleton downstream: not full
    disc = FiniteCategory(objects=("x", "y"),
                          homs={(0, 0): ("id",), (1, 1): ("id",),
                                (0, 1): (), (1, 0): ()},
                          compose={(0, 0, 0): ((0,),), (1, 1, 1): ((0,),)},
                          identities=(0, 0))
    assert validate_category(disc) == []
    t = terminal_category()
    F = FiniteFunctor(source=disc, target=t, ob_map=(0, 0),
                      mor_maps={(0, 0): (0,), (1, 1): (0,), (0, 1): (), (1, 0): ()})
    assert validate_functor(F) == []
    ok, witness = is_equivalence(F)
    assert not ok
    assert witness["not_full_at"] == (0, 1)


def test_equivalences_compose():
    c = codiscrete_category(3)
    d = codiscrete_category(2)
    t = terminal_category()
    F = FiniteFunctor(source=c, target=d, ob_map=(0, 1, 0),
                      mor_maps={(a, b): (0,) for a in range(3) for b in range(3)})
    G = FiniteFunctor(source=d, target=t, ob_map=(0, 0),
                      mor_maps={(a, b): (0,) for a in range(2) for b in range(2)})
    assert validate_functor(F) == [] and validate_functor(G) == []
    ok_f, _ = is_equivalence(F)
    ok_g, _ = is_equivalence(G)
    gf = compose_functors(G, F)
    assert validate_functor(gf) == []
    ok_gf, _ = is_equivalence(gf)
    assert ok_f and ok_g and ok_gf


def test_validate_accepts_z2_monoid():
    m = FiniteCategory(objects=("*",), homs={(0, 0): ("id", "e")},
                       compose={(0, 0, 0): ((0, 1), (1, 0))},  # e*e = id
                       identities=(0,))
    assert validate_category(m) == []


def test_validate_catches_broken_associativity():
    # identities hold but (a a) a = b a = id while a (a a) = a b = a
    bad = FiniteCategory(objects=("*",), homs={(0, 0): ("id", "a", "b")},
                         compose={(0, 0, 0): ((0, 1, 2),
                                              (1, 2, 1),
                                              (2, 0, 2))},
                         identities=(0,))
    violations = validate_category(bad)
    assert any("associativity" in v for v in violations)


def test_validate_catches_broken_identity():
    bad = FiniteCategory(objects=("*",), homs={(0, 0): ("id", "e")},
                         compose={(0, 0, 0): ((1, 1), (1, 1))},
                         identities=(0,))
    assert validate_category(bad) != []


@pytest.mark.parametrize("fields, message", [
    ({"identities": (0,)}, "identities must mark one morphism per object"),
    ({"identities": (0, 1)}, "identity of object 1 out of range"),
    ({"compose": {t: v for t, v in walking_arrow_category().compose.items()
                  if t != (0, 0, 1)}}, "missing composition table (0, 0, 1)"),
    ({"compose": {**walking_arrow_category().compose, (0, 0, 1): ((0, 0),)}},
     "composition table (0, 0, 1) has wrong shape"),
    ({"compose": {**walking_arrow_category().compose, (0, 0, 1): ((1,),)}},
     "composition table (0, 0, 1) out of range"),
])
def test_validate_category_names_each_broken_field(fields, message):
    c = walking_arrow_category()
    assert validate_category(c) == []
    broken = FiniteCategory(**{"objects": c.objects, "homs": c.homs,
                               "compose": c.compose, "identities": c.identities, **fields})
    assert message in validate_category(broken)


@pytest.mark.parametrize("fields, message", [
    ({"ob_map": (0,)}, "object map not a total map into the target objects"),
    ({"ob_map": (0, 2)}, "object map not a total map into the target objects"),
    ({"mor_maps": {(0, 0): (0,), (1, 1): (0,), (1, 0): ()}},
     "morphism map at (0, 1) not total"),
    ({"mor_maps": {(0, 0): (0,), (1, 1): (0,), (0, 1): (1,), (1, 0): ()}},
     "morphism map at (0, 1) out of range"),
])
def test_validate_functor_names_each_broken_field(fields, message):
    F = identity_functor(walking_arrow_category())
    assert validate_functor(F) == []
    assert message in validate_functor(dataclasses.replace(F, **fields))
