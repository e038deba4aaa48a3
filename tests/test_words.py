import pytest

from sccat.constructions_basic import codiscrete_groupoid, walking_arrow
from sccat.scat import (compose_sfunctors, coproduct, functor_U,
                        functor_U_map, identity_sfunctor, singleton_cat,
                        validate_scat, validate_sfunctor)
from sccat.sset import (SSetMap, empty_sset, horn_inclusion, identity_map,
                        point, standard_simplex)
from sccat.verdict import Budget, BudgetExceeded
from sccat.words import (Attachment, glue_at_object, glue_for_c2, glue_for_u,
                         pushout_generating, pushout_mediating)

D = 2
B = Budget(max_dim=2, max_words=8, max_steps=200000)


def point_attachment():
    """U applied to the inclusion of the empty set into the point: pushing
    this out adjoins one free 0-generator between two chosen objects."""
    i = SSetMap(empty_sset(D), point(D), [[] for _ in range(D + 1)])
    return Attachment.from_sset_mono(i, label="adjoin-generator")


def empty_hom_map(att, base, gx, gy):
    return SSetMap(att.A.hom[(0, 1)], base.hom[(gx, gy)],
                   [[] for _ in range(D + 1)])


def test_c2_pushout_adds_isolated_object():
    base = functor_U(standard_simplex(1, D))
    att = Attachment.c2(D)
    res = pushout_generating(base, att, glue_for_c2(att, base), B)
    cat = res.category
    assert validate_scat(cat) == []
    assert cat.n_objects() == 3
    assert res.stabilized
    assert validate_sfunctor(res.inc_base) == []
    assert validate_sfunctor(res.inc_attached) == []
    # same shape as the coproduct with a singleton
    cop, _ = coproduct([base, singleton_cat(D)])
    assert cat.hom == cop.hom and cat.compose == cop.compose


def test_a2_pushout_along_identity_recovers_target():
    # {x} -> H glued onto the singleton itself gives H back
    h = codiscrete_groupoid(2, D)
    att = Attachment.a2(h, 0)
    base = att.A  # the singleton the attachment starts from
    glue = identity_sfunctor(base)
    res = pushout_generating(base, att, glue, B)
    cat = res.category
    assert validate_scat(cat) == []
    assert cat.n_objects() == 2
    for (a, b) in cat.object_pairs():
        assert cat.hom[(a, b)].size(0) == h.hom[(a, b)].size(0)
    assert validate_sfunctor(res.inc_attached) == []


def test_horn_attachment_fills_hom_complex():
    # glue U(V[2,1]) into U(Delta[2]) along the horn inclusion; the pushout
    # adjoins the missing face and the filling cell, with no new composites
    inc = horn_inclusion(2, 1, D)
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    glue = glue_for_u(att, base, 0, 1, inc)
    res = pushout_generating(base, att, glue, B)
    cat = res.category
    assert res.stabilized
    assert validate_scat(cat) == []
    hom = cat.hom[(0, 1)]
    delta2 = standard_simplex(2, D)
    horn_cx = inc.source
    # Hom(x, y) is Delta[2] glued to Delta[2] along the horn
    for k in range(D + 1):
        assert hom.size(k) == 2 * delta2.size(k) - horn_cx.size(k)
    assert cat.hom[(1, 0)].is_empty()
    assert validate_sfunctor(res.inc_base) == []
    assert validate_sfunctor(res.inc_attached) == []


def test_pushout_square_commutes():
    inc = horn_inclusion(2, 1, D)
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    glue = glue_for_u(att, base, 0, 1, inc)
    res = pushout_generating(base, att, glue, B)
    assert compose_sfunctors(res.inc_base, glue) == \
        compose_sfunctors(res.inc_attached, att.inc)


def test_pushout_universal_property():
    # cocone into U(Delta[2]): identity on the base, U(identity) on the
    # attached copy; the mediating functor folds the pushout back down
    inc = horn_inclusion(2, 1, D)
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    glue = glue_for_u(att, base, 0, 1, inc)
    res = pushout_generating(base, att, glue, B)
    to_base = identity_sfunctor(base)
    to_attached = functor_U_map(identity_map(inc.target))
    med = pushout_mediating(res, to_base, to_attached)
    assert validate_sfunctor(med) == []
    assert compose_sfunctors(med, res.inc_base) == to_base
    assert compose_sfunctors(med, res.inc_attached) == to_attached


def test_pushout_a2_into_fresh_object_stabilizes():
    # glue {x} -> codiscrete H onto an isolated object: the closure only
    # sees H's own composites and stops
    base, _ = coproduct([singleton_cat(D, "a"), singleton_cat(D, "b")])
    h = codiscrete_groupoid(2, D)
    att = Attachment.a2(h, 0)
    glue = glue_at_object(att, base, 0)
    res = pushout_generating(base, att, glue, B)
    assert res.stabilized
    cat = res.category
    assert validate_scat(cat) == []
    assert cat.n_objects() == 3
    # the glued-on pair behaves like H around objects 0 and the new one
    new = 2
    assert cat.hom[(0, new)].size(0) == 1
    assert cat.hom[(new, 0)].size(0) == 1
    # nothing connects to the untouched object
    assert cat.hom[(1, new)].is_empty() and cat.hom[(new, 1)].is_empty()


def test_pushout_budget_exceeded_on_cycles():
    # a free generator across a codiscrete pair: words (t c)^m never stop
    g = codiscrete_groupoid(2, D)
    att = point_attachment()
    glue = glue_for_u(att, g, 0, 1, empty_hom_map(att, g, 0, 1))
    with pytest.raises(BudgetExceeded):
        pushout_generating(g, att, glue, Budget(max_words=4, max_steps=10**6))


def test_walking_arrow_free_inverse_does_not_stabilize():
    # freely adding h: y -> x to the walking arrow explodes: (hg)^m words
    base = walking_arrow(D)
    att = point_attachment()
    glue = glue_for_u(att, base, 1, 0, empty_hom_map(att, base, 1, 0))
    with pytest.raises(BudgetExceeded):
        pushout_generating(base, att, glue, Budget(max_words=6, max_steps=10**6))


def test_pushout_budget_exceeded_past_max_steps():
    # the generator between disjoint objects stabilizes within B, but its
    # closure composes more than one pair of words
    base, _ = coproduct([singleton_cat(D, "a"), singleton_cat(D, "b")])
    att = point_attachment()
    glue = glue_for_u(att, base, 0, 1, empty_hom_map(att, base, 0, 1))
    assert pushout_generating(base, att, glue, B).stabilized
    with pytest.raises(BudgetExceeded):
        pushout_generating(base, att, glue, Budget(max_words=B.max_words, max_steps=1))


def test_adjoin_generator_to_disjoint_objects_stabilizes():
    # the same free generator between two objects with no path back is fine
    base, _ = coproduct([singleton_cat(D, "a"), singleton_cat(D, "b")])
    att = point_attachment()
    glue = glue_for_u(att, base, 0, 1, empty_hom_map(att, base, 0, 1))
    res = pushout_generating(base, att, glue, B)
    assert res.stabilized
    cat = res.category
    assert validate_scat(cat) == []
    assert cat.hom[(0, 1)].size(0) == 1
    assert cat.hom[(1, 0)].is_empty()
