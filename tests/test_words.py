import hashlib
import operator
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sccat
from sccat.constructions_basic import codiscrete_groupoid, walking_arrow
from sccat.model import generating_cofibrations
from sccat.scat import (SFunctor, SimplicialCategory, _category, build_compose,
                        compose_sfunctors, coproduct, functor_U, functor_U_map,
                        identity_sfunctor, singleton_cat, u_functor, validate_scat,
                        validate_sfunctor)
from sccat.sset import (SimplicialSet, SSetMap, _from_keys, _sset, boundary, boundary_inclusion,
                        empty_sset, enumerate_sset_maps, horn_inclusion, identity_map,
                        point, standard_simplex, validate_sset)
from sccat.verdict import Budget, BudgetExceeded, InputError, _Steps
from sccat.words import (Attachment, PushoutResult, glue_at_object, glue_for_c2,
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


# ---------------------------------------------------------------------------
# oracle: the pushout as a word-engine class whose closure hands its words to
# the assembly, the earlier implementation, kept here verbatim; its
# normalize, d_endpoints and word_f_count are the reference of the tests

class _WordEngine:
    def __init__(self, base: SimplicialCategory, att: Attachment,
                 glue: SFunctor, budget: Budget):
        if glue.source != att.A:
            raise InputError("glue must start at the attachment source")
        if glue.target != base:
            raise InputError("glue must land in the base category")
        if base.dim_bound != att.F.dim_bound:
            raise InputError("dim_bound mismatch between base and attachment")
        self.C = base
        self.F = att.F
        self.att = att
        self.glue = glue
        self.budget = budget
        self.bound = base.dim_bound

        # object bookkeeping: D-objects = C-objects + new F-objects
        inc_ob_image = set(att.inc.ob_map)
        self.f2d = {}
        self.new_objects = []
        for a_obj in range(att.A.n_objects()):
            self.f2d[att.inc.ob(a_obj)] = glue.ob(a_obj)
        for u in range(self.F.n_objects()):
            if u not in inc_ob_image:
                self.f2d[u] = base.n_objects() + len(self.new_objects)
                self.new_objects.append(u)
        self.n_objects = base.n_objects() + len(self.new_objects)

        # F-simplices in the image of A, rewritten through the glue
        self.image_rewrite = {}
        for (a, b) in att.A.object_pairs():
            inc_map = att.inc.hom_maps[(a, b)]
            glue_map = glue.hom_maps[(a, b)]
            u, v = att.inc.ob(a), att.inc.ob(b)
            ga, gb = glue.ob(a), glue.ob(b)
            for k in range(self.bound + 1):
                for idx in range(att.A.hom[(a, b)].size(k)):
                    key = (k, u, v, inc_map.assign[k][idx])
                    val = ("C", ga, gb, glue_map.assign[k][idx])
                    if key in self.image_rewrite and self.image_rewrite[key] != val:
                        raise InputError("attachment inclusion is not injective")
                    self.image_rewrite[key] = val

        self.c_id = base.identity_towers()
        self.f_id = self.F.identity_towers()

    # -- letters -------------------------------------------------------------
    def d_endpoints(self, letter):
        tag, a, b, idx = letter
        if tag == "C":
            return a, b
        return self.f2d[a], self.f2d[b]

    def rewrite(self, k, letter):
        """Normalize one letter: None for identities, C-letters for the
        image of the attachment source."""
        tag, a, b, idx = letter
        if tag == "F":
            if a == b and self.f_id[k][a] == idx:
                return None
            letter = self.image_rewrite.get((k, a, b, idx), letter)
            tag, a, b, idx = letter
        return None if tag == "C" and a == b and self.c_id[k][a] == idx else letter

    def normalize(self, k, letters):
        """The normal word of a product of letters: each letter, rewritten,
        is composed with the last letter of the normal word before it for
        as long as the two compose inside one factor."""
        out = []
        for letter in letters:
            letter = self.rewrite(k, letter)
            while letter and out and out[-1][0] == letter[0] and out[-1][2] == letter[1]:
                tag, a, b, idx = out.pop()
                cat = self.C if tag == "C" else self.F
                letter = self.rewrite(k, (tag, a, letter[2],
                                          cat.comp(k, a, b, letter[2], letter[3], idx)))
            if letter:
                out.append(letter)
        return tuple(out)

    def word_f_count(self, word):
        return sum(1 for l in word if l[0] == "F")

    # -- closure ---------------------------------------------------------------
    def generate(self):
        """The normal words of every dimension, keyed by (k, a, b): a
        depth-first walk of the tree of normal words from the empty ones,
        which tries every letter starting at a word's target and keeps the
        ones that do not compose with its last letter inside one factor."""
        n = self.n_objects
        words = {(k, a, b): [] for k in range(self.bound + 1)
                 for a in range(n) for b in range(n)}
        steps = _Steps(self.budget.max_steps)
        self.one = [{} for _ in range(self.bound + 1)]    # [k]: letter -> its normal word
        for k, one in enumerate(self.one):
            letters = [{} for _ in range(n)]    # D-source -> letters, in order
            for tag, cat in (("C", self.C), ("F", self.F)):
                for (a, b) in cat.object_pairs():
                    for idx in range(cat.hom[(a, b)].size(k)):
                        w = one[tag, a, b, idx] = self.normalize(k, [(tag, a, b, idx)])
                        for letter in w:
                            letters[self.d_endpoints(letter)[0]][letter] = None
            stack = [((), o, o) for o in range(n)]
            for o in range(n):
                words[(k, o, o)].append(())
            while stack:
                w, a, b = stack.pop()
                last = w[-1] if w else (None, None, None)
                for letter in letters[b]:
                    steps.charge()
                    if letter[0] == last[0] and letter[1] == last[2]:
                        continue
                    new, c = w + (letter,), self.d_endpoints(letter)[1]
                    if self.word_f_count(new) > self.budget.max_words:
                        raise BudgetExceeded("free closure did not stabilize within max_words")
                    words[(k, a, c)].append(new)
                    stack.append((new, a, c))
        return words

    # -- assembling the result ---------------------------------------------------
    def build(self) -> PushoutResult:
        raw = self.generate()
        bound = self.bound
        n = self.n_objects

        def word_key(w):
            return (self.word_f_count(w), len(w), w)

        # deterministic order: old simplices first, keeping their indices
        # (each C letter is its own normal form, an identity tower the empty
        # word), then everything else by (generator count, length, letters)
        words = {}
        n_old = self.C.n_objects()
        for k in range(bound + 1):
            for a in range(n):
                for b in range(n):
                    old = self.C.hom[(a, b)].size(k) if max(a, b) < n_old else 0
                    lst = [self.one[k]["C", a, b, idx] for idx in range(old)]
                    seen = set(lst)
                    lst += sorted((w for w in raw[(k, a, b)] if w not in seen), key=word_key)
                    words[(k, (a, b))] = lst

        def letter_op(k, letter, op, i):
            """d_i (op "face") or s_i (op "degeneracy") of one letter."""
            tag, a, b, idx = letter
            hom = self.C.hom[(a, b)] if tag == "C" else self.F.hom[(a, b)]
            return (tag, a, b, getattr(hom, op)(k, idx, i))

        def op_keys(k, pair, op, dk):
            """Per word of Hom_pair in dimension k, the normal words of its
            k + 1 faces (dk = -1) or degeneracies (dk = +1), made as the
            builder reads them.  The first words are C's simplices at their
            old indices, so their rows are read off C's records."""
            below = words[(k + dk, pair)]
            old = self.C.hom[pair].dims[k] if max(pair) < n_old else ()
            for s in old:
                yield [below[j] for j in (s.faces if dk < 0 else s.degens)]
            for w in words[(k, pair)][len(old):]:
                yield [self.normalize(k + dk, [letter_op(k, l, op, i) for l in w])
                       for i in range(k + 1)]

        homs, index = {}, {}
        for pair in ((a, b) for a in range(n) for b in range(n)):
            levels = [words[(k, pair)] for k in range(bound + 1)]
            if max(pair) < n_old and all(
                    len(level) == self.C.hom[pair].size(k) for k, level in enumerate(levels)):
                # no new word: the hom is the base's own
                homs[pair] = self.C.hom[pair]
                index[pair] = [dict(zip(level, range(len(level)))) for level in levels]
                continue
            homs[pair], index[pair] = _from_keys(
                bound, levels,
                [[]] + [op_keys(k, pair, "face", -1) for k in range(1, bound + 1)],
                [op_keys(k, pair, "degeneracy", 1) for k in range(bound)])

        def rule(k, a, b, c, g, f):
            """g after f is the normal form of the word f g."""
            w = self.normalize(k, words[(k, (a, b))][f] + words[(k, (b, c))][g])
            return index[(a, c)][k][w]

        identities = tuple(index[(o, o)][0][()] for o in range(n))
        compose = build_compose(n, homs, bound, rule, identities)

        labels = list(self.C.objects)
        for u in self.new_objects:
            lbl = str(self.F.objects[u])
            labels.append(lbl if lbl not in labels else f"{lbl}+")
        D = _category(tuple(labels), homs, compose, identities, bound)

        inc_base = SFunctor(
            source=self.C, target=D,
            ob_map=tuple(range(self.C.n_objects())),
            hom_maps={pair: SSetMap(self.C.hom[pair], homs[pair],
                                    [list(range(self.C.hom[pair].size(k)))
                                     for k in range(bound + 1)])
                      for pair in self.C.object_pairs()})

        f_ob = tuple(self.f2d[u] for u in range(self.F.n_objects()))

        # an F letter (u, v) normalizes to a word from f2d[u] to f2d[v], also
        # when the glue rewrites it into C
        f_maps = {}
        for (u, v) in self.F.object_pairs():
            h, pair = self.F.hom[(u, v)], (self.f2d[u], self.f2d[v])
            f_maps[(u, v)] = SSetMap(h, homs[pair], [
                [index[pair][k][self.one[k]["F", u, v, idx]]
                 for idx in range(h.size(k))] for k in range(bound + 1)])
        inc_attached = SFunctor(source=self.F, target=D, ob_map=f_ob,
                                hom_maps=f_maps)

        return PushoutResult(category=D, inc_base=inc_base,
                             inc_attached=inc_attached, stabilized=True,
                             attachment=self.att, glue=self.glue,
                             new_objects=tuple(self.new_objects), words=words)


def pushout_of(eng):
    """``pushout_generating`` on the engine's inputs."""
    return pushout_generating(eng.C, eng.att, eng.glue, eng.budget)


# -- the one-letter closure against the all-pairs fixed point ----------------

def all_pairs_generate(eng):
    """The word sets of the pushout by naive evaluation: the atoms, then
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


def draw_engine(data, max_steps=st.just(10**5)):
    """A word engine for a drawn base, attachment and glue, or None when
    the drawn objects admit no glue; its step cap is drawn from
    ``max_steps``."""
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
            return None
        glue = glue_for_u(att, base, gx, gy, data.draw(st.sampled_from(maps)))
    return _WordEngine(base, att, glue, Budget(max_words=data.draw(st.integers(3, 6)),
                                               max_steps=data.draw(max_steps)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_pushout_equals_the_word_engine(data):
    # the same result, or the same exception with the same message, at step
    # caps from one step to more than any drawn closure needs
    eng = draw_engine(data, st.sampled_from([1, 5, 40, 300, 10**5]))
    if eng is None:
        return
    outcomes = []
    for build in (eng.build, lambda: pushout_of(eng)):
        try:
            outcomes.append(build())
        except Exception as e:
            outcomes.append(e)
    want, got = outcomes
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    for field in ("category", "inc_base", "inc_attached", "words", "new_objects", "stabilized"):
        assert getattr(got, field) == getattr(want, field), field


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_one_letter_closure_equals_all_pairs_closure(data):
    eng = draw_engine(data)
    if eng is None:
        return
    try:
        expected = all_pairs_generate(eng)
    except BudgetExceeded:
        return
    # the reference stabilized, so the one-letter closure must too
    assert {(k, a, b): set(ws) for (k, (a, b)), ws in pushout_of(eng).words.items()} == expected


def assert_tables_follow_the_words(eng, res):
    """Every composite, face and degeneracy of the pushout is the normal
    form of the letterwise one, computed from ``res.words``; the base's
    simplices keep their records at their old indices."""
    D_, C = res.category, eng.C
    index = {key: {w: i for i, w in enumerate(ws)} for key, ws in res.words.items()}

    def letterwise(k, w, op, i, dk):
        """The normal word of d_i w (op "face", dk = -1) or s_i w (op
        "degeneracy", dk = +1), w a k-dimensional word."""
        return eng.normalize(k + dk, [
            (t, a, b, getattr((C if t == "C" else eng.F).hom[(a, b)], op)(k, idx, i))
            for t, a, b, idx in w])

    for p in D_.object_pairs():
        h = D_.hom[p]
        for k in range(h.dim_bound + 1):
            if max(p) < C.n_objects():
                assert h.dims[k][:C.hom[p].size(k)] == C.hom[p].dims[k]
            for n, w in enumerate(res.words[(k, p)]):
                for i in range(k + 1):
                    if k:
                        assert h.face(k, n, i) == index[(k - 1, p)][
                            letterwise(k, w, "face", i, -1)]
                    if k < h.dim_bound:
                        assert h.degeneracy(k, n, i) == index[(k + 1, p)][
                            letterwise(k, w, "degeneracy", i, 1)]
    for (a, b, c) in D_.object_triples():
        for k in range(D_.dim_bound + 1):
            for g, wg in enumerate(res.words[(k, (b, c))]):
                for f, wf in enumerate(res.words[(k, (a, b))]):
                    assert D_.comp(k, a, b, c, g, f) == index[(k, (a, c))][
                        eng.normalize(k, wf + wg)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_pushout_tables_follow_the_words(data):
    eng = draw_engine(data)
    if eng is None:
        return
    try:
        res = pushout_of(eng)
    except BudgetExceeded:
        return
    assert_tables_follow_the_words(eng, res)


@pytest.mark.parametrize("inc", [
    *(horn_inclusion(n, k, max(n, D)) for n in (1, 2, 3) for k in range(n + 1)),
    *(boundary_inclusion(n, max(n, D)) for n in (1, 2, 3))])
def test_u_pushout_tables_follow_the_words(inc):
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    eng = _WordEngine(base, att, glue_for_u(att, base, 0, 1, inc), B)
    assert_tables_follow_the_words(eng, pushout_of(eng))


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


# -- the closure's step budget ------------------------------------------------------

def u_pushout_parts(inc):
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    return base, att, glue_for_u(att, base, 0, 1, inc)


def c2_pushout_parts(d):
    base = codiscrete_groupoid(2, d)
    att = Attachment.c2(d)
    return base, att, glue_for_c2(att, base)


@pytest.mark.parametrize("d, parts, steps", [
    (2, lambda d: u_pushout_parts(horn_inclusion(2, 1, d)), 23),
    (2, lambda d: u_pushout_parts(boundary_inclusion(2, d)), 20),
    (2, lambda d: u_pushout_parts(horn_inclusion(1, 0, d)), 15),
    (2, c2_pushout_parts, 12),
    (3, lambda d: u_pushout_parts(horn_inclusion(2, 1, d)), 44),
    (3, lambda d: u_pushout_parts(boundary_inclusion(2, d)), 38),
    (3, lambda d: u_pushout_parts(horn_inclusion(1, 0, d)), 24),
    (3, c2_pushout_parts, 16),
], ids=["horn21-D2", "bd2-D2", "horn10-D2", "c2-D2", "horn21-D3", "bd2-D3", "horn10-D3",
        "c2-D3"])
def test_closure_charges_one_step_per_letter_tried_at_each_word(d, parts, steps):
    # N = the sum over the normal words of the letters that start at the
    # word's target; the letters from b in dimension k are the one-letter
    # words from b
    base, att, glue = parts(d)
    res = pushout_generating(base, att, glue, Budget())
    n = res.category.n_objects()
    starting_at = {(k, b): sum(len(w) == 1 for c in range(n) for w in res.words[(k, (b, c))])
                   for k in range(d + 1) for b in range(n)}
    N = sum(len(ws) * starting_at[(k, b)] for (k, (_, b)), ws in res.words.items())
    assert N == steps
    assert pushout_generating(base, att, glue, Budget(max_steps=N)).words == res.words
    with pytest.raises(BudgetExceeded, match="step budget"):
        pushout_generating(base, att, glue, Budget(max_steps=N - 1))


# -- results do not depend on the string hash seed ------------------------------

SEED_SCRIPT = """
from sccat import model, scat, sset, words
from sccat.constructions_basic import codiscrete_groupoid, inclusion_of_object
from sccat.verdict import Budget

def cat(c):
    return (c.objects, sorted((p, h.dims) for p, h in c.hom.items()),
            sorted(c.compose.items()), c.identities)

def functor(F):
    return (cat(F.source), cat(F.target), F.ob_map,
            sorted((p, m.assign) for p, m in F.hom_maps.items()))

out = []
for inc in (sset.horn_inclusion(2, 1, 3), sset.boundary_inclusion(2, 2)):
    base, att = scat.functor_U(inc.target), words.Attachment.from_sset_mono(inc)
    res = words.pushout_generating(base, att, words.glue_for_u(att, base, 0, 1, inc))
    out.append((cat(res.category), sorted(res.words.items()), functor(res.inc_attached)))
base, att = codiscrete_groupoid(2, 2), words.Attachment.a2(codiscrete_groupoid(2, 2), 0)
res = words.pushout_generating(base, att, words.glue_at_object(att, base, 1), Budget(max_words=6))
out.append((cat(res.category), sorted(res.words.items())))
fr = model.factor_bounded(scat.functor_U_map(sset.horn_inclusion(2, 1, 2)),
                          model.generating_acyclic_a1(2, 2), Budget(max_dim=2, max_words=16))
out.append((functor(fr.left), functor(fr.right), [c.generator for c in fr.cells], fr.complete))
v = model.is_acyclic_fibration_by_rlp(
    inclusion_of_object(codiscrete_groupoid(2, 2), 0, scat.singleton_cat(2)), Budget(max_dim=2))
square = v.witness["square"]
out.append((v.kind, v.witness["generator"], sorted(v.qualifier.items()),
            [functor(getattr(square, side)) for side in ("left", "right", "top", "bottom")]))
print(repr(out))
"""


def test_results_do_not_depend_on_the_string_hash_seed():
    # pushout words are tuples holding strings, kept in sets and dicts
    src = os.path.dirname(os.path.dirname(sccat.__file__))
    runs = [subprocess.Popen([sys.executable, "-c", SEED_SCRIPT], stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
            for seed in ("0", "1")]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert hashlib.sha256(outs[0]).hexdigest() == hashlib.sha256(outs[1]).hexdigest()
    assert len(outs[0]) > 10_000


# -- homs that gain no word are the base's own ------------------------------------

def full_build(eng, res, pair):
    """Hom ``pair`` of the pushout built from its words alone: every face and
    degeneracy normalized letter by letter, none read off the base."""
    bound, C = res.category.dim_bound, eng.C
    levels = [res.words[(k, pair)] for k in range(bound + 1)]

    def rows(k, op, dk):
        return [[eng.normalize(k + dk, [
            (t, a, b, getattr((C if t == "C" else eng.F).hom[(a, b)], op)(k, idx, i))
            for t, a, b, idx in w]) for i in range(k + 1)] for w in levels[k]]

    return _from_keys(bound, levels, [[]] + [rows(k, "face", -1) for k in range(1, bound + 1)],
                      [rows(k, "degeneracy", 1) for k in range(bound)])[0]


def assert_unchanged_homs_are_kept(base, att, glue):
    eng = _WordEngine(base, att, glue, Budget())
    res = pushout_of(eng)
    kept = 0
    for p in res.category.object_pairs():
        assert res.category.hom[p] == full_build(eng, res, p)
        new = max(p) >= base.n_objects() or any(
            len(res.words[(k, p)]) > base.hom[p].size(k) for k in range(base.dim_bound + 1))
        assert (res.category.hom[p] is base.hom.get(p)) == (not new)
        kept += not new
    return kept


@pytest.mark.parametrize("m, k, d", [(m, k, d) for d in range(1, 5) for m in range(1, d + 1)
                                     for k in [*range(m + 1), None]])
def test_u_pushouts_keep_the_homs_that_gain_no_word(m, k, d):
    # U(bd Delta[m]) or U(horn (m, k)) pushed into U(Delta[m]): only Hom(x, y)
    # gains words
    inc = boundary_inclusion(m, d) if k is None else horn_inclusion(m, k, d)
    assert assert_unchanged_homs_are_kept(*u_pushout_parts(inc)) == 3



@pytest.mark.parametrize("m, k, d", [(m, k, d) for d in range(1, 5) for m in range(1, d + 1)
                                     for k in [*range(m + 1), None]])
def test_u_pushouts_keep_the_records_of_the_base(m, k, d):
    # in Hom(x, y), which gains words, each simplex of the base sits at its
    # old index with the base's own record; every hom equals _from_keys run
    # on all the rows, as the word engine builds it
    inc = boundary_inclusion(m, d) if k is None else horn_inclusion(m, k, d)
    base, att, glue = u_pushout_parts(inc)
    eng = _WordEngine(base, att, glue, Budget())
    res, want = pushout_of(eng), eng.build()
    assert res.words == want.words
    for p in res.category.object_pairs():
        assert res.category.hom[p] == want.category.hom[p]
    hom, old = res.category.hom[(0, 1)], base.hom[(0, 1)]
    assert hom is not old
    for j in range(d + 1):
        assert res.inc_base.hom_maps[(0, 1)].assign[j] == tuple(range(old.size(j)))
        assert all(map(operator.is_, hom.dims[j][:old.size(j)], old.dims[j]))


def test_a_hand_built_base_keeps_its_records_as_given():
    # Delta[1] with one degenerate simplex flagged nondegenerate, which the
    # public constructor refuses, stored with no check: the pushout of
    # U(bd Delta[1] -> Delta[1]) onto U of it keeps that record, and
    # validate_sset names it there as in the base
    inc = boundary_inclusion(1, D)
    dims = [list(level) for level in inc.target.dims]
    k, idx = next((k, i) for k in range(1, D + 1) for i, r in enumerate(dims[k]) if r.word)
    dims[k][idx] = dims[k][idx]._replace(base=idx, word=())
    with pytest.raises(InputError, match="flagged nondegenerate"):
        SimplicialSet(D, dims)
    x = _sset(D, tuple(map(tuple, dims)))
    base, att = functor_U(x), Attachment.from_sset_mono(inc)
    glue = glue_for_u(att, base, 0, 1, SSetMap(inc.source, x, inc.assign))
    hom = pushout_generating(base, att, glue, B).category.hom[(0, 1)]
    assert hom.size(1) > x.size(1) and hom.dims[k][idx] is x.dims[k][idx]
    assert validate_sset(hom) == validate_sset(x) == [
        f"dim {k} simplex {idx}: flagged nondegenerate but equals s_0 d_0"]

def test_c2_pushout_keeps_every_hom_of_the_base():
    assert assert_unchanged_homs_are_kept(*c2_pushout_parts(3)) == 4


def test_u_of_a_map_shares_one_point():
    m = functor_U_map(horn_inclusion(2, 1, D))
    assert m.target is functor_U(m.hom_maps[(0, 1)].target)
    pt = m.target.hom[(0, 0)]
    assert all(cat.hom[(o, o)] is pt for cat in (m.source, m.target) for o in (0, 1))


# -- input errors ------------------------------------------------------------------

def _non_injective_attachment():
    """U of the collapse of the boundary of Delta[1] onto the point, tagged as
    an attachment, glued by the identity of its source."""
    inc = functor_U_map(SSetMap(boundary(1, D), point(D), [[0, 0]] * (D + 1)))
    att = Attachment(kind="usset", A=inc.source, F=inc.target, inc=inc)
    return pushout_generating(inc.source, att, identity_sfunctor(inc.source), B)


def _c2_pushout():
    """The pushout of C2 along the empty functor into a point."""
    att, base = Attachment.c2(D), singleton_cat(D)
    return pushout_generating(base, att, glue_for_c2(att, base), B)


def _cocone_off_the_span():
    """A cell U(empty -> pt) glued onto x -> y of the walking arrow, with a
    cocone that sends the cell's y to x: the legs disagree on the span."""
    att, arrow = point_attachment(), walking_arrow(D)
    empty = SSetMap(empty_sset(D), arrow.hom[(0, 1)], [[] for _ in range(D + 1)])
    res = pushout_generating(arrow, att, glue_for_u(att, arrow, 0, 1, empty), B)
    cell_to_x = u_functor(att.F, arrow, 0, 0, identity_map(point(D)))
    return pushout_mediating(res, identity_sfunctor(arrow), cell_to_x)


WORDS_INPUT_ERRORS = {
    "non-mono": (lambda: Attachment.from_sset_mono(SSetMap(boundary(1, D), point(D),
                                                           [[0, 0]] * (D + 1))),
                 "attachment needs a monomorphism of simplicial sets"),
    "a2-objects": (lambda: Attachment.a2(singleton_cat(D)),
                   "an A2 attachment target has exactly two objects"),
    "glue-source": (lambda: pushout_generating(walking_arrow(D), Attachment.c2(D),
                                               identity_sfunctor(walking_arrow(D))),
                    "glue must start at the attachment source"),
    "glue-target": (lambda: pushout_generating(singleton_cat(D), Attachment.c2(D),
                                               glue_for_c2(Attachment.c2(D), walking_arrow(D))),
                    "glue must land in the base category"),
    "glue-dim_bound": (lambda: pushout_generating(singleton_cat(D), Attachment.c2(D + 1),
                                                  glue_for_c2(Attachment.c2(D + 1),
                                                              singleton_cat(D))),
                       "dim_bound mismatch between base and attachment"),
    "non-injective": (_non_injective_attachment, "attachment inclusion is not injective"),
    "glue-c2-kind": (lambda: glue_for_c2(point_attachment(), walking_arrow(D)),
                     "glue_for_c2 needs a c2 attachment"),
    "glue-object-kind": (lambda: glue_at_object(Attachment.c2(D), walking_arrow(D), 0),
                         "glue_at_object needs an a2 attachment"),
    "glue-u-kind": (lambda: glue_for_u(Attachment.c2(D), walking_arrow(D), 0, 1,
                                       identity_map(point(D))),
                    "glue_for_u needs a U(mono) attachment"),
    "glue-u-hom": (lambda: glue_for_u(point_attachment(), walking_arrow(D), 0, 1,
                                      identity_map(point(D))),
                   "hom_map must send Hom(x, y) of the source into Hom(gx, gy) of the base"),
    "cocone-base": (lambda: pushout_mediating(_c2_pushout(), identity_sfunctor(walking_arrow(D)),
                                              identity_sfunctor(singleton_cat(D))),
                    "cocone leg must start at the base category"),
    "cocone-attached": (lambda: pushout_mediating(_c2_pushout(),
                                                  identity_sfunctor(singleton_cat(D)),
                                                  identity_sfunctor(walking_arrow(D))),
                        "cocone leg must start at the attached category"),
    "cocone-span": (_cocone_off_the_span, "cocone does not commute with the attachment span"),
}


@pytest.mark.parametrize("case", WORDS_INPUT_ERRORS)
def test_malformed_inputs_raise_input_error_with_their_message(case):
    call, message = WORDS_INPUT_ERRORS[case]
    with pytest.raises(InputError) as err:
        call()
    assert type(err.value) is InputError and str(err.value) == message
