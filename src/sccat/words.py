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

The closure appends one letter at a time: normalizing w1 w2 pushes the
letters of w2 onto w1 one by one, so every product is reached that way.
The walk is depth-first.  When the words never stabilize, it soon meets a
word past ``max_words`` letters of F along one branch, while a
breadth-first walk first builds every shorter word, and there can be
exponentially many of them.

Faces, degeneracies and composition act letterwise, which keeps the whole
construction simplicial; stale decomposition data is re-derived from the
finished tables.
"""
from __future__ import annotations

from dataclasses import dataclass

from .constructions_basic import inclusion_of_object
from .scat import (SFunctor, SimplicialCategory, build_compose,
                   compose_sfunctors, singleton_cat, functor_U, empty_cat,
                   u_functor)
from .sset import SimplicialSet, SSetMap, derive_records
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
        return _u_attachment(i, functor_U(i.target), label)

    @staticmethod
    def a2(h: SimplicialCategory, x_index: int = 0, label: str = "a2") -> "Attachment":
        if h.n_objects() != 2:
            raise InputError("an A2 attachment target has exactly two objects")
        a = singleton_cat(h.dim_bound, label=str(h.objects[x_index]))
        inc = inclusion_of_object(h, x_index, a)
        return Attachment(kind="a2", A=a, F=h, inc=inc, label=label)


def _u_attachment(i: SSetMap, u_target: SimplicialCategory, label: str) -> Attachment:
    """``Attachment.from_sset_mono(i, label)`` into u_target = U(i.target)."""
    if any(len(set(i.assign[k])) != i.source.size(k) for k in range(i.source.dim_bound + 1)):
        raise InputError("attachment needs a monomorphism of simplicial sets")
    inc = u_functor(functor_U(i.source), u_target, 0, 1, i)
    return Attachment(kind="usset", A=inc.source, F=inc.target, inc=inc,
                      label=label or "U(mono)")


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

        self.c_id = [[base.identity_tower(a, k) for a in range(base.n_objects())]
                     for k in range(self.bound + 1)]
        self.f_id = [[self.F.identity_tower(u, k) for u in range(self.F.n_objects())]
                     for k in range(self.bound + 1)]

    # -- letters -------------------------------------------------------------
    def d_endpoints(self, letter):
        tag, a, b, idx = letter
        if tag == "C":
            return a, b
        return self.f2d[a], self.f2d[b]

    def rewrite(self, k, letter):
        """Normalize one letter: None for identities, C-letters for the
        image of the attachment source."""
        while True:
            tag, a, b, idx = letter
            if tag == "C":
                if a == b and self.c_id[k][a] == idx:
                    return None
                return letter
            if a == b and self.f_id[k][a] == idx:
                return None
            img = self.image_rewrite.get((k, a, b, idx))
            if img is None:
                return letter
            letter = img

    def push(self, out, letter, k):
        letter = self.rewrite(k, letter)
        if letter is None:
            return
        out.append(letter)
        while len(out) >= 2:
            l1, l2 = out[-2], out[-1]
            t1, a1, b1, i1 = l1
            t2, a2, b2, i2 = l2
            if t1 != t2 or b1 != a2:
                break
            out.pop()
            out.pop()
            if t1 == "C":
                merged = ("C", a1, b2, self.C.comp(k, a1, b1, b2, i2, i1))
            else:
                merged = ("F", a1, b2, self.F.comp(k, a1, b1, b2, i2, i1))
            merged = self.rewrite(k, merged)
            if merged is not None:
                out.append(merged)

    def normalize(self, k, letters):
        out = []
        for letter in letters:
            self.push(out, letter, k)
        return tuple(out)

    def word_f_count(self, word):
        return sum(1 for l in word if l[0] == "F")

    # -- closure ---------------------------------------------------------------
    def generate(self):
        """The normal words of every dimension, keyed by (k, a, b): a
        depth-first walk from the empty words that pushes every letter
        starting at a new word's target onto it."""
        n = self.n_objects
        words = {(k, a, b): set() for k in range(self.bound + 1)
                 for a in range(n) for b in range(n)}
        steps = _Steps(self.budget.max_steps)
        for k in range(self.bound + 1):
            letters = [{} for _ in range(n)]    # D-source -> letters, in order
            for tag, cat in (("C", self.C), ("F", self.F)):
                for (a, b) in cat.object_pairs():
                    for idx in range(cat.hom[(a, b)].size(k)):
                        for letter in self.normalize(k, [(tag, a, b, idx)]):
                            letters[self.d_endpoints(letter)[0]][letter] = None
            stack = [((), o, o) for o in range(n)]
            for o in range(n):
                words[(k, o, o)].add(())
            while stack:
                w, a, b = stack.pop()
                for letter in letters[b]:
                    steps.charge()
                    out = list(w)
                    self.push(out, letter, k)
                    new, c = tuple(out), self.d_endpoints(letter)[1]
                    if new in words[(k, a, c)]:
                        continue
                    if self.word_f_count(new) > self.budget.max_words:
                        raise BudgetExceeded("free closure did not stabilize within max_words")
                    words[(k, a, c)].add(new)
                    stack.append((new, a, c))
        return words

    # -- assembling the result ---------------------------------------------------
    def build(self) -> PushoutResult:
        raw = self.generate()
        bound = self.bound
        n = self.n_objects

        def letter_key(letter):
            tag, a, b, idx = letter
            return (0 if tag == "C" else 1, a, b, idx)

        def word_key(w):
            return (self.word_f_count(w), len(w), tuple(letter_key(l) for l in w))

        # deterministic order: old simplices first, keeping their indices
        # (each C letter is its own normal form, an identity tower the empty
        # word), then everything else by (generator count, length, letters)
        words, index = {}, {}
        n_old = self.C.n_objects()
        for k in range(bound + 1):
            for a in range(n):
                for b in range(n):
                    old = self.C.hom[(a, b)].size(k) if max(a, b) < n_old else 0
                    lst = [self.normalize(k, [("C", a, b, idx)]) for idx in range(old)]
                    seen = set(lst)
                    lst += sorted((w for w in raw[(k, a, b)] if w not in seen), key=word_key)
                    words[(k, (a, b))] = lst
                    index[(k, (a, b))] = {w: i for i, w in enumerate(lst)}

        def letter_op(k, letter, op, i):
            """d_i (op "face") or s_i (op "degeneracy") of one letter."""
            tag, a, b, idx = letter
            hom = self.C.hom[(a, b)] if tag == "C" else self.F.hom[(a, b)]
            return (tag, a, b, getattr(hom, op)(k, idx, i))

        def op_table(k, pair, op, dk):
            """Per word of Hom_pair in dimension k, the indices of its k + 1
            faces (dk = -1) or degeneracies (dk = +1)."""
            return [[index[(k + dk, pair)][self.normalize(
                k + dk, [letter_op(k, l, op, i) for l in w])] for i in range(k + 1)]
                for w in words[(k, pair)]]

        homs = {}
        for pair in ((a, b) for a in range(n) for b in range(n)):
            faces_tables = [op_table(k, pair, "face", -1) if k else
                            [[] for _ in words[(k, pair)]] for k in range(bound + 1)]
            degens_tables = [op_table(k, pair, "degeneracy", 1) if k < bound else
                             [[] for _ in words[(k, pair)]] for k in range(bound + 1)]
            homs[pair] = SimplicialSet(bound, derive_records(bound, faces_tables,
                                                             degens_tables))

        def rule(k, a, b, c, g, f):
            """g after f is the normal form of the word f g."""
            w = self.normalize(k, words[(k, (a, b))][f] + words[(k, (b, c))][g])
            return index[(k, (a, c))][w]

        compose = build_compose(n, homs, bound, rule)

        labels = list(self.C.objects)
        for u in self.new_objects:
            lbl = str(self.F.objects[u])
            labels.append(lbl if lbl not in labels else f"{lbl}+")
        identities = tuple(index[(0, (o, o))][()] for o in range(n))
        D = SimplicialCategory(objects=tuple(labels), hom=homs,
                               compose=compose, identities=identities,
                               dim_bound=bound)

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
                [index[(k, pair)][self.normalize(k, [("F", u, v, idx)])]
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
    if not (0 <= gx < base.n_objects() and 0 <= gy < base.n_objects()):
        raise InputError("unknown object")
    if hom_map.source != attachment.A.hom[(0, 1)] or hom_map.target != base.hom[(gx, gy)]:
        raise InputError("hom_map must send Hom(x, y) of the source into "
                         "Hom(gx, gy) of the base")
    return u_functor(attachment.A, base, gx, gy, hom_map)


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
