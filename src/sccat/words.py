"""Pushouts of simplicial categories along generating maps, by normalized
alternating words.

The supported attachment shapes are exactly the ones the generating sets
use:

* adding an object (the map from the empty category to the singleton);
* U(i) for a monomorphism i: X -> Y of simplicial sets;
* an inclusion {x} -> H of the marked two-object kind.

In every case the pushout of ``glue: A -> C`` against ``inc: A -> F`` is a
free product amalgamated over the image of A: morphisms are words whose
letters come from C and from F, written in diagrammatic order.  A word is
normal when identity letters are gone, letters of F lying in the image of
A have been rewritten into C through the glue, and adjacent letters that
compose inside a single factor have been composed there ("unit and
existing-composition reductions").  Normal forms are unique, so the word
category is the genuine pushout whenever generation stabilizes.

``pushout_generating`` makes it in three passes:

1. Set-up: the objects (C's, then those of F outside the image of A) and
   the table that rewrites the image of A into C.
2. Closure, one dimension at a time.  Every prefix of a normal word is
   normal, so the normal words form a tree under the empty words, and the
   closure lists them directly: it extends a normal word only by an
   alphabet letter (a normal one-letter word: a C letter is its own, an
   identity tower none, and each F letter is rewritten once) that does not
   compose with its last letter inside one factor, and the result is again
   normal and new.  Every letter tried at a word is one step.  The walk is
   depth-first: when the words never stabilize, it soon meets a word past
   ``max_words`` letters of F along one branch, while a breadth-first walk
   first builds every shorter word, and there can be exponentially many of
   them.  Past ``max_words`` or ``max_steps`` (one ``_Steps`` count per
   pushout), BudgetExceeded is raised.  The walk visits the base's own
   words too (the empty word at a base object and the one-letter C words),
   but orders only the others: the base's simplices come first, at their
   old indices, listed from the base's sizes, then the new words by
   (letters of F, length, letters).
3. Assembly.  Each hom that gains a word is handed to ``sset._from_keys``
   keyed by its words and the normal forms of their letterwise faces and
   degeneracies; acting letterwise keeps the construction simplicial,
   composition included.  C -> D is the identity on C's indices, so the
   base's simplices keep C's records, the record objects themselves, and
   only the new words get rows, keys and records, normalized letter by
   letter.  The base's records are right as given: a hand-built base was
   validated once, by its constructor, so the pushout checks no record.
   A hom that gains no word is the base's own object, not rebuilt.  The
   composition tables are made on the first read of the pushout's
   ``compose``: composites with an identity factor are filled by the unit
   law; only the others normalize a product.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .constructions_basic import inclusion_of_object
from .scat import (SFunctor, SimplicialCategory, _deferred_category, compose_sfunctors,
                   empty_cat, functor_U_map, singleton_cat, u_functor)
from .sset import SSetMap, _check_natural, _from_keys
from .verdict import Budget, BudgetExceeded, InputError, _Steps, _budget

# letters: ("C", a, b, idx) with C-object endpoints, or ("F", u, v, idx)
# with F-object endpoints; the simplex dimension is carried by the word.


@dataclass(frozen=True)
class Attachment:
    """A generating map inc: A -> F together with its shape tag."""
    kind: str                   # "c2" | "usset" | "a2"
    A: SimplicialCategory
    F: SimplicialCategory
    inc: SFunctor
    label: str = ""

    @staticmethod
    def c2(dim_bound: int = 4) -> "Attachment":
        a = empty_cat(dim_bound)
        f = singleton_cat(dim_bound)
        inc = SFunctor(source=a, target=f, ob_map=(), hom_maps={})
        return Attachment(kind="c2", A=a, F=f, inc=inc, label="phi->{x}")

    @staticmethod
    def from_sset_mono(i: SSetMap, label: str = "") -> "Attachment":
        if any(len(set(i.assign[k])) != i.source.size(k) for k in range(i.source.dim_bound + 1)):
            raise InputError("attachment needs a monomorphism of simplicial sets")
        inc = functor_U_map(i)
        return Attachment(kind="usset", A=inc.source, F=inc.target, inc=inc,
                          label=label or "U(mono)")

    @staticmethod
    def a2(h: SimplicialCategory, x_index: int = 0, label: str = "a2") -> "Attachment":
        if h.n_objects() != 2:
            raise InputError("an A2 attachment target has exactly two objects")
        _check_natural("x_index", x_index, 0, 1)
        a = singleton_cat(h.dim_bound, label=str(h.objects[x_index]))
        inc = inclusion_of_object(h, x_index, a)
        return Attachment(kind="a2", A=a, F=h, inc=inc, label=label)


@dataclass
class PushoutResult:
    category: SimplicialCategory
    inc_base: SFunctor          # C -> D
    inc_attached: SFunctor      # F -> D
    stabilized: bool
    attachment: Attachment
    glue: SFunctor
    new_objects: tuple
    words: dict                 # (k, (a, b)) -> [word, ...]


def pushout_generating(base: SimplicialCategory, attachment: Attachment,
                       glue: SFunctor, budget: Budget | None = None) -> PushoutResult:
    """Pushout of the attachment along the glue, exact when the free
    closure stabilizes within the budget; raises BudgetExceeded otherwise."""
    budget = _budget(budget)
    C, F, inc = base, attachment.F, attachment.inc
    if glue.source != attachment.A:
        raise InputError("glue must start at the attachment source")
    if glue.target != C:
        raise InputError("glue must land in the base category")
    if C.dim_bound != F.dim_bound:
        raise InputError("dim_bound mismatch between base and attachment")
    bound, n_old = C.dim_bound, C.n_objects()

    # -- set-up: D-objects = C-objects + the F-objects outside the image of A
    f2d = {inc.ob(a_obj): glue.ob(a_obj) for a_obj in range(attachment.A.n_objects())}
    new_objects = [u for u in range(F.n_objects()) if u not in inc.ob_map]
    f2d.update((u, n_old + i) for i, u in enumerate(new_objects))
    n = n_old + len(new_objects)
    pairs = [(a, b) for a in range(n) for b in range(n)]

    # F-simplices in the image of A, rewritten through the glue
    image_rewrite = {}
    for (a, b) in attachment.A.object_pairs():
        inc_map, glue_map = inc.hom_maps[(a, b)], glue.hom_maps[(a, b)]
        u, v, ga, gb = inc.ob(a), inc.ob(b), glue.ob(a), glue.ob(b)
        for k in range(bound + 1):
            for idx in range(attachment.A.hom[(a, b)].size(k)):
                key = (k, u, v, inc_map.assign[k][idx])
                val = ("C", ga, gb, glue_map.assign[k][idx])
                if image_rewrite.setdefault(key, val) != val:
                    raise InputError("attachment inclusion is not injective")
    c_id, f_id = C.identity_towers(), F.identity_towers()

    def ends(letter):
        tag, a, b, _ = letter
        return (a, b) if tag == "C" else (f2d[a], f2d[b])

    def rewrite(k, letter):
        """One letter's normal form: None for an identity, a C-letter for the image of A."""
        tag, a, b, idx = letter
        if tag == "F":
            if a == b and f_id[k][a] == idx:
                return None
            letter = image_rewrite.get((k, a, b, idx), letter)
            tag, a, b, idx = letter
        return None if tag == "C" and a == b and c_id[k][a] == idx else letter

    def normalize(k, letters):
        """The normal word of a product of letters: each letter, rewritten, is
        composed with the last letter before it while the two compose in one factor."""
        out = []
        for letter in letters:
            letter = rewrite(k, letter)
            while letter and out and out[-1][0] == letter[0] and out[-1][2] == letter[1]:
                tag, a, b, idx = out.pop()
                cat = C if tag == "C" else F
                letter = rewrite(k, (tag, a, letter[2],
                                     cat.comp(k, a, b, letter[2], letter[3], idx)))
            if letter:
                out.append(letter)
        return tuple(out)

    # -- closure: each word on the stack carries its count of F-letters
    steps = _Steps(budget.max_steps)
    words, one = {}, []        # one[k][(u, v)][idx]: the normal word of an F letter
    for k in range(bound + 1):
        # the base's simplices: each C letter its own normal form, an
        # identity tower the empty word
        old, letters = {}, [{} for _ in range(n)]    # D-source -> {letter: D-target}
        for (a, b) in C.object_pairs():
            level = old[(a, b)] = [(("C", a, b, idx),) for idx in range(C.hom[(a, b)].size(k))]
            if a == b:
                level[c_id[k][a]] = ()
            letters[a].update(zip(itertools.chain.from_iterable(level), itertools.repeat(b)))
        forms = {}
        for (u, v) in F.object_pairs():
            level = forms[(u, v)] = []
            for idx in range(F.hom[(u, v)].size(k)):
                letter = rewrite(k, ("F", u, v, idx))
                level.append((letter,) if letter else ())
                if letter:
                    source, target = ends(letter)
                    letters[source][letter] = target
        one.append(forms)
        found = {pair: [] for pair in pairs}    # (F-letters, length, word), new words only
        stack = [((), o, o, 0) for o in range(n)]
        while stack:
            w, a, b, f = stack.pop()
            if f or len(w) > 1 or a >= n_old:
                found[(a, b)].append((f, len(w), w))
            last_tag, _, last_end, _ = w[-1] if w else (None, None, None, None)
            for letter, c in letters[b].items():
                steps.charge()
                tag, u, v, idx = letter
                if tag == last_tag and u == last_end:
                    continue
                new, g = w + (letter,), f + (tag == "F")
                if g > budget.max_words:
                    raise BudgetExceeded("free closure did not stabilize within max_words")
                stack.append((new, a, c, g))
        for pair in pairs:
            words[(k, pair)] = old.get(pair, []) + [w for _, _, w in sorted(found[pair])]

    # -- assembly
    def rows(k, new, dk):
        """Per word of ``new``, the normal words of its k + 1 faces (dk = -1)
        or degeneracies (dk = +1), normalized letter by letter."""
        for w in new:
            recs = [(tag, a, b, (C if tag == "C" else F).hom[(a, b)].dims[k][idx])
                    for tag, a, b, idx in w]
            yield [normalize(k + dk, [(tag, a, b, r.faces[i] if dk < 0 else r.degens[i])
                                      for tag, a, b, r in recs]) for i in range(k + 1)]

    homs, index = {}, {}
    for pair in pairs:
        levels = [words[(k, pair)] for k in range(bound + 1)]
        base_hom = C.hom.get(pair)
        if base_hom is not None and all(
                len(level) == base_hom.size(k) for k, level in enumerate(levels)):
            # no new word: the hom is the base's own
            homs[pair] = base_hom
            index[pair] = [dict(zip(level, range(len(level)))) for level in levels]
            continue
        # the base's simplices keep their records; only the new words get rows
        kept = base_hom.dims if base_hom is not None else None
        new = [level[len(kept[k]) if kept else 0:] for k, level in enumerate(levels)]
        homs[pair], index[pair] = _from_keys(
            bound, levels, [[]] + [rows(k, new[k], -1) for k in range(1, bound + 1)],
            [rows(k, new[k], 1) for k in range(bound)], kept)

    def rule(k, a, b, c, g, f):
        """g after f is the normal form of the word f g."""
        w = normalize(k, words[(k, (a, b))][f] + words[(k, (b, c))][g])
        return index[(a, c)][k][w]

    identities = tuple(index[(o, o)][0][()] for o in range(n))
    labels = list(C.objects)
    for u in new_objects:
        lbl = str(F.objects[u])
        labels.append(lbl if lbl not in labels else f"{lbl}+")
    D = _deferred_category(tuple(labels), homs, rule, identities, bound)

    inc_base = SFunctor(
        source=C, target=D, ob_map=tuple(range(n_old)),
        hom_maps={pair: SSetMap(C.hom[pair], homs[pair],
                                [range(C.hom[pair].size(k)) for k in range(bound + 1)])
                  for pair in C.object_pairs()})

    # an F letter (u, v) normalizes to a word from f2d[u] to f2d[v], in C or not
    f_maps = {}
    for (u, v) in F.object_pairs():
        h, pair = F.hom[(u, v)], (f2d[u], f2d[v])
        f_maps[(u, v)] = SSetMap(h, homs[pair], [
            map(index[pair][k].__getitem__, one[k][(u, v)]) for k in range(bound + 1)])
    inc_attached = SFunctor(source=F, target=D, hom_maps=f_maps,
                            ob_map=tuple(f2d[u] for u in range(F.n_objects())))

    return PushoutResult(category=D, inc_base=inc_base, inc_attached=inc_attached,
                         stabilized=True, attachment=attachment, glue=glue,
                         new_objects=tuple(new_objects), words=words)


def glue_for_c2(attachment: Attachment, base: SimplicialCategory) -> SFunctor:
    """The unique functor from the empty category into the base."""
    if attachment.kind != "c2":
        raise InputError("glue_for_c2 needs a c2 attachment")
    return SFunctor(source=attachment.A, target=base, ob_map=(), hom_maps={})


def glue_at_object(attachment: Attachment, base: SimplicialCategory,
                   obj: int) -> SFunctor:
    """Glue a one-object attachment source onto the given base object."""
    if attachment.kind != "a2":
        raise InputError("glue_at_object needs an a2 attachment")
    return inclusion_of_object(base, obj, attachment.A)


def glue_for_u(attachment: Attachment, base: SimplicialCategory, gx: int,
               gy: int, hom_map: SSetMap) -> SFunctor:
    """Glue U(X) into the base: objects go to gx, gy and X maps into
    Hom(gx, gy) by the given simplicial map."""
    if attachment.kind != "usset":
        raise InputError("glue_for_u needs a U(mono) attachment")
    glue = u_functor(attachment.A, base, gx, gy, hom_map)    # checks gx and gy
    if hom_map.source != attachment.A.hom[(0, 1)] or hom_map.target != base.hom[(gx, gy)]:
        raise InputError("hom_map must send Hom(x, y) of the source into "
                         "Hom(gx, gy) of the base")
    return glue


def pushout_mediating(result: PushoutResult, to_base: SFunctor,
                      to_attached: SFunctor) -> SFunctor:
    """The functor out of the pushout induced by a commuting cocone
    (to_base: C -> T, to_attached: F -> T)."""
    if to_base.source != result.inc_base.source:
        raise InputError("cocone leg must start at the base category")
    if to_attached.source != result.attachment.F:
        raise InputError("cocone leg must start at the attached category")
    # cocone must agree on the attachment source
    lhs = compose_sfunctors(to_base, result.glue)
    rhs = compose_sfunctors(to_attached, result.attachment.inc)
    if lhs != rhs:
        raise InputError("cocone does not commute with the attachment span")
    T = to_base.target
    D = result.category
    # the objects of D are those of the base, then the new ones of F
    ob_map = list(to_base.ob_map) + [to_attached.ob(u) for u in result.new_objects]

    def letter_image(k, letter):
        tag, a, b, idx = letter
        if tag == "C":
            return (to_base.ob(a), to_base.ob(b), to_base.apply(k, a, b, idx))
        return (to_attached.ob(a), to_attached.ob(b),
                to_attached.apply(k, a, b, idx))

    hom_maps = {}
    for (a, b) in D.object_pairs():
        assign = []
        for k in range(D.dim_bound + 1):
            level = []
            for w in result.words[(k, (a, b))]:
                if not w:
                    level.append(T.identity_tower(ob_map[a], k))
                    continue
                ta, _, cur = letter_image(k, w[0])
                for letter in w[1:]:
                    la, lb, nxt = letter_image(k, letter)
                    cur = T.comp(k, ta, la, lb, nxt, cur)
                level.append(cur)
            assign.append(level)
        hom_maps[(a, b)] = SSetMap(D.hom[(a, b)], T.hom[(ob_map[a], ob_map[b])],
                                   assign)
    return SFunctor(source=D, target=T, ob_map=tuple(ob_map), hom_maps=hom_maps)
