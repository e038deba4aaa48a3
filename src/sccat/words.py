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
category is the genuine pushout whenever generation stabilizes; if new
words keep appearing past ``max_words`` letters of F, or the closure
makes more than ``max_steps`` one-letter extensions (one ``_Steps`` count
per pushout), BudgetExceeded is raised.

Every prefix of a normal word is normal, so the normal words form a tree
under the empty words, and the closure lists them directly: it extends a
normal word only by an alphabet letter (a normal one-letter word) that
does not compose with its last letter inside one factor, and the result is
again normal and new.  Every letter tried at a word is one step.  The walk
is depth-first.  When the words never stabilize, it soon meets a word past
``max_words`` letters of F along one branch, while a breadth-first walk
first builds every shorter word, and there can be exponentially many of
them.

Faces, degeneracies and composition act letterwise, which keeps the whole
construction simplicial.  Each hom is handed to ``sset._from_keys`` keyed
by its normal words: the words of every dimension in their final order,
and the normal forms of each word's letterwise faces and degeneracies.
The base's simplices come first, at their old indices, and keep their
records: their face and degeneracy keys are read off the base, and only
new words are normalized letter by letter.  A hom that gains no word is
the base's own object, not rebuilt.  Each letter is normalized once, when
the closure makes its alphabet.  Composites with an identity factor are
filled by the unit law; only the others normalize a product.
"""
from __future__ import annotations

from dataclasses import dataclass

from .constructions_basic import inclusion_of_object
from .scat import (SFunctor, SimplicialCategory, _category, build_compose, compose_sfunctors,
                   empty_cat, functor_U_map, singleton_cat, u_functor)
from .sset import SSetMap, _check_natural, _from_keys
from .verdict import Budget, BudgetExceeded, InputError, _Steps

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


def pushout_generating(base: SimplicialCategory, attachment: Attachment,
                       glue: SFunctor, budget: Budget | None = None) -> PushoutResult:
    """Pushout of the attachment along the glue, exact when the free
    closure stabilizes within the budget; raises BudgetExceeded otherwise."""
    budget = budget or Budget()
    return _WordEngine(base, attachment, glue, budget).build()


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
