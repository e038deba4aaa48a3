import pytest
from hypothesis import given, settings, strategies as st

from sccat.constructions_basic import codiscrete_groupoid, walking_arrow
from sccat.model import generating_cofibrations
from sccat.scat import (compose_sfunctors, coproduct, functor_U,
                        functor_U_map, identity_sfunctor, singleton_cat,
                        validate_scat, validate_sfunctor)
from sccat.sset import (SSetMap, boundary, boundary_inclusion, empty_sset,
                        enumerate_sset_maps, horn_inclusion, identity_map,
                        point, standard_simplex)
from sccat.verdict import Budget, BudgetExceeded, InputError, _Steps
from sccat.words import (Attachment, _WordEngine, glue_at_object, glue_for_c2,
                         glue_for_u, pushout_generating, pushout_mediating)
from tests.test_model import MULTI_OBJECT_CATEGORIES, z2_category

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
    # closure makes more than one one-letter extension
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


# -- the one-letter closure against the all-pairs fixed point ----------------

def all_pairs_generate(eng):
    """The word sets of ``eng.generate`` by naive evaluation: the atoms, then
    rounds that compose every pair of words again until a round adds
    nothing; one step per composed pair."""
    bound = eng.bound

    def word_endpoints(word, at_pair):
        if word:
            return eng.d_endpoints(word[0])[0], eng.d_endpoints(word[-1])[1]
        return at_pair
    words = {(k, a, b): {} for k in range(bound + 1)
             for a in range(eng.n_objects) for b in range(eng.n_objects)}

    def add(k, a, b, w):
        bucket = words[(k, a, b)]
        if w in bucket:
            return False
        if eng.word_f_count(w) > eng.budget.max_words:
            raise BudgetExceeded("free closure did not stabilize within max_words")
        bucket[w] = len(bucket)
        return True

    for k in range(bound + 1):
        for o in range(eng.n_objects):
            add(k, o, o, ())
        for (a, b) in eng.C.object_pairs():
            for idx in range(eng.C.hom[(a, b)].size(k)):
                w = eng.normalize(k, [("C", a, b, idx)])
                sa, sb = word_endpoints(w, (a, b))
                add(k, sa, sb, w)
        for (u, v) in eng.F.object_pairs():
            for idx in range(eng.F.hom[(u, v)].size(k)):
                w = eng.normalize(k, [("F", u, v, idx)])
                sa, sb = word_endpoints(w, (eng.f2d[u], eng.f2d[v]))
                add(k, sa, sb, w)

    steps = _Steps(eng.budget.max_steps)
    for k in range(bound + 1):
        changed = True
        while changed:
            changed = False
            snapshot = {(a, b): list(words[(k, a, b)])
                        for a in range(eng.n_objects)
                        for b in range(eng.n_objects)}
            for a in range(eng.n_objects):
                for b in range(eng.n_objects):
                    for w1 in snapshot[(a, b)]:
                        for c in range(eng.n_objects):
                            for w2 in snapshot[(b, c)]:
                                steps.charge()
                                w = eng.normalize(k, list(w1) + list(w2))
                                sa, sb = word_endpoints(w, (a, c))
                                if add(k, sa, sb, w):
                                    changed = True
    return {key: set(bucket) for key, bucket in words.items()}


# the walking arrow, codiscrete(2), Z/2, U(Delta[1]) and two coproducts
CLOSURE_BASES = MULTI_OBJECT_CATEGORIES[2:]

U_MONOS = [horn_inclusion(1, 0, D), horn_inclusion(2, 1, D),
           horn_inclusion(2, 0, D), boundary_inclusion(1, D),
           boundary_inclusion(2, D)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_one_letter_closure_equals_all_pairs_closure(data):
    base = data.draw(st.sampled_from(CLOSURE_BASES))
    obj = st.integers(0, base.n_objects() - 1)
    kind = data.draw(st.sampled_from(["u", "point", "c2", "a2"]))
    if kind == "c2":
        att = Attachment.c2(D)
        glue = glue_for_c2(att, base)
    elif kind == "a2":
        att = Attachment.a2(codiscrete_groupoid(2, D), 0)
        glue = glue_at_object(att, base, data.draw(obj))
    else:
        att = (point_attachment() if kind == "point" else
               Attachment.from_sset_mono(data.draw(st.sampled_from(U_MONOS))))
        gx, gy = data.draw(obj), data.draw(obj)
        maps = enumerate_sset_maps(att.A.hom[(0, 1)], base.hom[(gx, gy)])
        if not maps:
            return
        glue = glue_for_u(att, base, gx, gy, data.draw(st.sampled_from(maps)))
    eng = _WordEngine(base, att, glue, Budget(max_words=data.draw(st.integers(3, 6)),
                                              max_steps=10**5))
    try:
        expected = all_pairs_generate(eng)
    except BudgetExceeded:
        return
    # the reference stabilized, so the one-letter closure must too
    assert {key: set(ws) for key, ws in eng.generate().items()} == expected


def test_pushout_charges_one_step_per_extension():
    # U(bd[2]) glued into U(Delta[2]): only the empty word at x has letters
    # to extend by, one per simplex of the pushout's Hom(x, y), 3 + 6 + 11
    inc = boundary_inclusion(2, D)
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    glue = glue_for_u(att, base, 0, 1, inc)
    res = pushout_generating(base, att, glue, Budget(max_steps=20))
    assert [res.category.hom[(0, 1)].size(k) for k in range(D + 1)] == [3, 6, 11]
    with pytest.raises(BudgetExceeded, match="step budget"):
        pushout_generating(base, att, glue, Budget(max_steps=19))


def test_non_stabilizing_pushout_meets_max_words_first():
    # C1[1] glued into Z/2 sending bd[1] to {e, t}: the words t g t g ...
    # never stop, and the depth-first walk passes 64 generators well
    # within 1000 steps
    gen = generating_cofibrations(1, D)[1]
    z2 = z2_category(D)
    glue = glue_for_u(gen.attachment, z2, 0, 0, identity_map(boundary(1, D)))
    with pytest.raises(BudgetExceeded, match="max_words"):
        pushout_generating(z2, gen.attachment, glue, Budget(max_steps=1000))


def test_glue_for_u_rejects_an_unknown_object():
    base = functor_U(standard_simplex(1, D))
    att = point_attachment()
    with pytest.raises(InputError):
        glue_for_u(att, base, 5, 0, empty_hom_map(att, base, 0, 0))


def test_glue_at_object_rejects_an_unknown_object():
    att = Attachment.a2(codiscrete_groupoid(2, D), 0)
    with pytest.raises(InputError):
        glue_at_object(att, walking_arrow(D), -1)
