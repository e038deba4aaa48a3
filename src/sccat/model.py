"""The three classes of maps as decision procedures, generating sets,
lifting solver, free-map and retract witnesses, bounded factorization.

DK-equivalence = weak equivalence on every function complex plus
equivalence of component categories.  Fibration = Kan fibration on every
function complex plus path lifting of homotopy equivalences on objects.
Acyclic fibrations get two independent routes: the definitional one and
the right-lifting-property route against the generating cofibrations;
the acceptance suite cross-checks them.

A functor U(K) -> C is a pair of objects (c, c'), possibly equal, with a
map K -> Hom_C(c, c'), since U(K) has no composites but identities.  So f
has the right lifting property against U(i) iff every hom map f_{c,c'}
has it against i.  Route (b) and each round of factorization decide the
generators U(boundary) of C1 and U(horn) of A1 this way, hom by hom on
the Yoneda data of ``ssetcheck``, which also names the first square with
no lift, and C2 on objects.  They decide on the generator's cell alone and
build the functor of only the generator that names a square.  The generic
functor search of ``has_rlp_against_set`` stays as the independent check
of both routes.

Cofibration checking is witness-based: a degeneracy-closed generator
marking that passes the free-map check, or a strong-retract witness.  The
free-map check decides unique word decomposition by exhaustive evaluation
with pigeonhole termination; it is definite unless its step cap cuts it
short.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cat import is_equivalence
from .constructions_basic import inclusion_of_object
from .scat import (SFunctor, SimplicialCategory, compose_sfunctors,
                   coproduct, identity_sfunctor, is_homotopy_equivalence,
                   functor_U, pi0_functor, singleton_cat, u_functor)
from .search import enumerate_sfunctors
from .sset import SSetMap, _check_natural, _tuple_inclusion, boundary, horn, standard_simplex
from .ssetcheck import (_first_square, _kan_fibration, _unfilled,
                        is_weak_equivalence_sset, is_weakly_contractible)
from .verdict import (BUDGET, Budget, BudgetExceeded, InputError, Verdict,
                      _Steps, aggregate)
from .words import (Attachment, _u_attachment, glue_for_c2, pushout_generating,
                    pushout_mediating)


# ---------------------------------------------------------------------------
# lifting problems and witnesses

@dataclass(frozen=True)
class LiftingProblem:
    """left: A -> B, right: C -> D, top: A -> C, bottom: B -> D with
    right . top = bottom . left."""
    left: SFunctor
    right: SFunctor
    top: SFunctor
    bottom: SFunctor

    def commutes(self) -> bool:
        return (compose_sfunctors(self.right, self.top)
                == compose_sfunctors(self.bottom, self.left))


@dataclass(frozen=True)
class LiftWitness:
    diagonal: SFunctor


def verify_lift(problem: LiftingProblem, witness: LiftWitness) -> bool:
    d = witness.diagonal
    return (compose_sfunctors(d, problem.left) == problem.top
            and compose_sfunctors(problem.right, d) == problem.bottom)


@dataclass(frozen=True)
class RetractWitness:
    """Exhibits f: C -> D as a strong retract of g: C -> D' via
    section: D -> D' and retraction: D' -> D with identity round trip."""
    section: SFunctor
    retraction: SFunctor


def verify_retract(f: SFunctor, g: SFunctor, w: RetractWitness) -> bool:
    if f.source != g.source:
        return False
    return (compose_sfunctors(w.retraction, w.section) == identity_sfunctor(f.target)
            and compose_sfunctors(w.section, f) == g
            and compose_sfunctors(w.retraction, g) == f)


def solve_lifting(problem: LiftingProblem, budget: Budget | None = None) -> Verdict:
    """Search for a diagonal B -> C by exhaustive functor enumeration: the
    first functor under the left map and over the right map.

    DefiniteYes carries the first witness in enumeration order, DefiniteNo
    means exhaustion, and Unknown appears only on the node budget.
    """
    budget = budget or Budget()
    if not problem.commutes():
        raise InputError("lifting square does not commute")
    try:
        found = enumerate_sfunctors(problem.left.target, problem.right.source,
                                    under=(problem.left, problem.top),
                                    over=(problem.right, problem.bottom),
                                    first_only=True, max_nodes=budget.max_steps)
    except BudgetExceeded:
        return Verdict.unknown(BUDGET)
    if not found:
        return Verdict.no(witness={"exhausted": True})
    w = LiftWitness(diagonal=found[0])
    if not verify_lift(problem, w):
        raise AssertionError("search produced a non-lift; constraint bug")
    return Verdict.yes(witness=w)


def _problem_squares(gen: SFunctor, f: SFunctor, budget: Budget):
    """The squares of ``enumerate_problem_squares``, in its order, made
    one bottom's tops at a time as they are asked for."""
    for bottom in enumerate_sfunctors(gen.target, f.target,
                                      max_nodes=budget.max_steps):
        for top in enumerate_sfunctors(gen.source, f.source,
                                       over=(f, compose_sfunctors(bottom, gen)),
                                       max_nodes=budget.max_steps):
            yield LiftingProblem(left=gen, right=f, top=top, bottom=bottom)


def enumerate_problem_squares(gen: SFunctor, f: SFunctor, budget: Budget):
    """All commuting squares with the generator on the left and f on the
    right, bottoms first, then the tops over f (f . top = bottom . gen)."""
    return list(_problem_squares(gen, f, budget))


def _first_unliftable(gen: SFunctor, f: SFunctor, budget: Budget):
    """(the first square against gen that has no lift, or None; whether
    some square before it came back unknown)."""
    saw_unknown = False
    for problem in _problem_squares(gen, f, budget):
        v = solve_lifting(problem, budget)
        if v.is_no:
            return problem, saw_unknown
        saw_unknown = saw_unknown or not v.is_definite
    return None, saw_unknown


def has_rlp_against_set(f: SFunctor, gens, budget: Budget | None = None) -> Verdict:
    """RLP of f against every GeneratorMap in gens, by the generic functor
    search; a definite counterexample square dominates, then unknowns, then
    yes."""
    budget = budget or Budget()
    saw_unknown = False
    try:
        for gen in gens:
            problem, unknown = _first_unliftable(gen.map, f, budget)
            if problem is not None:
                return Verdict.no(witness={"generator": gen.name, "square": problem})
            saw_unknown = saw_unknown or unknown
    except BudgetExceeded:
        return Verdict.unknown(BUDGET)
    if saw_unknown:
        return Verdict.unknown(BUDGET)
    return Verdict.yes(witness={"all_squares_lift": True})


def _first_unliftable_cell(f: SFunctor, gen: GeneratorMap, steps: _Steps):
    """The first square against the A1 or C1 generator ``gen`` with no lift,
    in ``enumerate_problem_squares`` order, or None: bottom objects (c, c')
    in order, then ``_first_square`` among the hom maps over them."""
    n, k = gen.cell
    src, tgt = f.source, f.target
    for c, c2 in tgt.object_pairs():
        over = [(a, b) for a, b in src.object_pairs() if (f.ob(a), f.ob(b)) == (c, c2)]
        unfilled = [_unfilled(f.hom_maps[pair], n, k, steps) for pair in over]
        if any(unfilled):
            q, top, bottom = _first_square([f.hom_maps[pair] for pair in over], unfilled,
                                           gen.map.hom_maps[(0, 1)], n, k)
            return LiftingProblem(left=gen.map, right=f,
                                  top=u_functor(gen.map.source, src, *over[q], top),
                                  bottom=u_functor(gen.map.target, tgt, c, c2, bottom))
    return None


def _first_unliftable_c2(f: SFunctor, gen: GeneratorMap):
    """The first square against C2 with no lift, or None: f lifts iff it is
    surjective on objects, and the first bottom is the least object missed."""
    d = min(set(range(f.target.n_objects())) - set(f.ob_map), default=None)
    return None if d is None else LiftingProblem(
        left=gen.map, right=f, top=glue_for_c2(gen.attachment, f.source),
        bottom=inclusion_of_object(f.target, d, gen.map.target))


def _first_unliftable_gen(f: SFunctor, gen: GeneratorMap, steps: _Steps):
    """The first square against the A1, C1 or C2 generator ``gen`` with no lift, or None."""
    if gen.cell is not None:
        return _first_unliftable_cell(f, gen, steps)
    if gen.name == "C2":
        return _first_unliftable_c2(f, gen)
    raise InputError(f"{gen.name} is not A1, C1 or C2")


# ---------------------------------------------------------------------------
# the three classes

def is_dk_equivalence(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """W1 on every function complex and W2 on components."""
    budget = budget or Budget()
    sub = []
    for (a, b) in f.source.object_pairs():
        v = is_weak_equivalence_sset(f.hom_maps[(a, b)], budget)
        if v.is_no:
            return Verdict.no(witness={"w1_failure": (a, b), **(v.witness or {})})
        sub.append(v)
    ok, w2 = is_equivalence(pi0_functor(f))
    if not ok:
        return Verdict.no(witness={"w2_failure": w2})
    return aggregate(sub, witness_on_yes={"w1": "all hom maps", "w2": w2})


def is_fibration(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """F1 on every function complex, under one step count for all of
    them; F2 by finite enumeration."""
    budget = budget or Budget()
    steps = _Steps(budget.max_steps)
    sub = []
    for (a, b) in f.source.object_pairs():
        v = _kan_fibration(f.hom_maps[(a, b)], budget, steps)
        if v.is_no:
            return Verdict.no(witness={"f1_failure": (a, b), **(v.witness or {})})
        sub.append(v)
    src, tgt = f.source, f.target
    for a1 in range(src.n_objects()):
        for b in range(tgt.n_objects()):
            for e in range(tgt.hom[(f.ob(a1), b)].size(0)):
                if is_homotopy_equivalence(tgt, f.ob(a1), b, e) and not any(
                        f.ob(a2) == b and f.apply(0, a1, a2, d) == e
                        and is_homotopy_equivalence(src, a1, a2, d)
                        for a2 in range(src.n_objects())
                        for d in range(src.hom[(a1, a2)].size(0))):
                    return Verdict.no(witness={"f2_failure": {
                        "object": a1, "target": b, "equivalence": e}})
    return aggregate(sub, witness_on_yes={"f1": "all hom maps", "f2": "lifted"})


def is_acyclic_fibration(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """Route (a): fibration and DK-equivalence."""
    budget = budget or Budget()
    return aggregate([is_fibration(f, budget), is_dk_equivalence(f, budget)],
                     witness_on_yes={"route": "definitional"}, route="a")


def is_acyclic_fibration_by_rlp(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """Route (b): RLP against C1[0..n_max], then C2, decided like a round of
    ``factor_bounded``: all joins share one count of ``budget.max_steps``.
    Generators are decided on their cells; only the one that names the
    square of a no is built."""
    budget = budget or Budget()
    n_max = min(budget.max_dim, f.source.dim_bound)
    steps = _Steps(budget.max_steps)
    v = Verdict.yes(witness={"all_squares_lift": True})
    try:
        for gen in generating_cofibrations(n_max, f.source.dim_bound):
            square = _first_unliftable_gen(f, gen, steps)
            if square is not None:
                v = Verdict.no(witness={"generator": gen.name, "square": square})
                break
    except BudgetExceeded:
        v = Verdict.unknown(BUDGET)
    return Verdict(v.kind, witness=v.witness, reason=v.reason,
                   qualifier={**v.qualifier, "route": "b", "checked_max_dim": n_max})


# ---------------------------------------------------------------------------
# generating sets

class GeneratorMap:
    """A generator of C1, A1 or C2 at ``dim_bound`` as a cell tag: ``cell`` is
    (n, k) for U(horn (n, k) -> Delta[n]), (n, None) for U(boundary ->
    Delta[n]) and None for C2.  ``attachment``, and so ``map`` =
    ``attachment.inc``, is made by ``build(self)`` on the first read of
    either, and kept.  The cell generators of one ``generating_*`` call
    share one Delta[n] and one U(Delta[n]) per n, made by the first built."""
    __slots__ = ("name", "dim", "cell", "dim_bound", "_build", "_attachment")

    def __init__(self, name: str, dim: int, cell: tuple | None, dim_bound: int, build):
        self.name, self.dim, self.cell, self.dim_bound = name, dim, cell, dim_bound
        self._build, self._attachment = build, None

    @property
    def attachment(self) -> Attachment:
        if self._attachment is None:
            self._attachment = self._build(self)
        return self._attachment

    @property
    def map(self) -> SFunctor:
        return self.attachment.inc

    def __eq__(self, other):
        return isinstance(other, GeneratorMap) and (
            (self.name, self.dim, self.cell, self.map, self.attachment)
            == (other.name, other.dim, other.cell, other.map, other.attachment))

    def __repr__(self):
        return f"GeneratorMap({self.name!r}, dim={self.dim}, cell={self.cell})"


def c2_generator(dim_bound: int = 4) -> GeneratorMap:
    _check_natural("dim_bound", dim_bound)
    return GeneratorMap("C2", 0, None, dim_bound, lambda gen: Attachment.c2(gen.dim_bound))


def _cell_generators(n_max: int, dim_bound: int, horns: bool) -> list:
    """Unbuilt, in order: U(horn (n, k) -> Delta[n]) named A1[n,k], 1 <= n <= n_max,
    if ``horns``, else U(boundary -> Delta[n]) named C1[n], n <= n_max."""
    _check_natural("dim_bound", dim_bound)
    _check_natural("n_max", n_max, float("-inf"))
    if n_max < 0:
        raise InputError("n_max is negative")
    if n_max > dim_bound:
        raise InputError("n_max exceeds dim_bound")
    cells = ([(n, k) for n in range(1, n_max + 1) for k in range(n + 1)] if horns
             else [(n, None) for n in range(n_max + 1)])
    targets = {}    # n -> (Delta[n], U(Delta[n])), made on first use

    def build(gen):
        n, k = gen.cell
        if n not in targets:
            simplex = standard_simplex(n, dim_bound)
            targets[n] = simplex, functor_U(simplex)
        simplex, u_simplex = targets[n]
        sub = boundary(n, dim_bound) if k is None else horn(n, k, dim_bound)
        return _u_attachment(_tuple_inclusion(sub, simplex), u_simplex, gen.name)

    return [GeneratorMap(f"C1[{n}]" if k is None else f"A1[{n},{k}]", n, (n, k),
                         dim_bound, build) for n, k in cells]


def generating_cofibrations(n_max: int, dim_bound: int = 4) -> list:
    """C1 instances for 0 <= n <= n_max plus the object-adding map C2."""
    return [*_cell_generators(n_max, dim_bound, False), c2_generator(dim_bound)]


def generating_acyclic_a1(n_max: int, dim_bound: int = 4) -> list:
    """A1 instances for 1 <= n <= n_max, 0 <= k <= n."""
    return _cell_generators(n_max, dim_bound, True)


# ---------------------------------------------------------------------------
# free maps and the A2 check

@dataclass(frozen=True)
class GeneratorMarking:
    """Per hom pair, the set of (dimension, index) marked as free
    generators.  Degeneracies of marked simplices must be marked."""
    marked: dict

    @staticmethod
    def close_under_degeneracies(cat: SimplicialCategory, marked: dict) -> "GeneratorMarking":
        out = {pair: set(entries) for pair, entries in marked.items()}
        for pair, entries in out.items():
            hom = cat.hom[pair]
            frontier = list(entries)
            while frontier:
                k, idx = frontier.pop()
                if k + 1 > cat.dim_bound:
                    continue
                for j in range(k + 1):
                    up = (k + 1, hom.degeneracy(k, idx, j))
                    if up not in entries:
                        entries.add(up)
                        frontier.append(up)
        return GeneratorMarking(marked={p: frozenset(v) for p, v in out.items()})


def validate_marking(cat: SimplicialCategory, marking: GeneratorMarking) -> list:
    bad = []
    for pair, entries in marking.marked.items():
        if pair not in cat.hom:
            bad.append(f"marking references unknown hom {pair}")
            continue
        hom = cat.hom[pair]
        for (k, idx) in entries:
            if not (0 <= k <= cat.dim_bound) or not (0 <= idx < hom.size(k)):
                bad.append(f"marking {pair} references unknown simplex ({k},{idx})")
                continue
            if k + 1 <= cat.dim_bound:
                for j in range(k + 1):
                    if (k + 1, hom.degeneracy(k, idx, j)) not in entries:
                        bad.append(f"marking {pair} not closed under s_{j} "
                                   f"at ({k},{idx})")
    return bad


def is_free_map(f: SFunctor, marking: GeneratorMarking,
                max_steps: int = 10**6):
    """(bool, report) for Def-style freeness: f a monomorphism and every
    target simplex the value of exactly one normalized word in image
    simplices and marked generators.

    Always terminates: if two normalized words ever evaluate equally the
    answer is no, and otherwise the word count is bounded by the simplex
    count.  Past ``max_steps`` words it answers (None, {"step_cap": ...}).
    """
    src, tgt = f.source, f.target
    report = {}
    bad = validate_marking(tgt, marking)
    if bad:
        return False, {"marking": bad}
    if len(set(f.ob_map)) != len(f.ob_map):
        return False, {"monomorphism": "object map not injective"}
    image = {}
    for (a, b) in src.object_pairs():
        m = f.hom_maps[(a, b)]
        pair = (f.ob(a), f.ob(b))
        for k in range(src.dim_bound + 1):
            if len(set(m.assign[k])) != src.hom[(a, b)].size(k):
                return False, {"monomorphism": f"hom map {(a, b)} dim {k}"}
            for idx in m.assign[k]:
                image.setdefault(pair, set()).add((k, idx))
    for pair, entries in marking.marked.items():
        clash = entries & image.get(pair, set())
        if clash:
            return False, {"marking_in_image": {"pair": pair,
                                                "simplices": sorted(clash)}}

    # letters per dimension: ("i", pair, idx) image simplices (identity
    # towers excluded: identities are the empty word) and ("g", pair, idx)
    # marked generators.  Normalized words never have two adjacent image
    # letters; the closure builds each normalized word exactly once, so a
    # (pair, value) collision is a genuine relation.
    bound = tgt.dim_bound
    n = tgt.n_objects()
    id_towers = tgt.identity_towers()

    def letters_at(k):
        return ([("i", pair, idx) for pair in sorted(image) for kk, idx in sorted(image[pair])
                 if kk == k and not (pair[0] == pair[1] and idx == id_towers[k][pair[0]])]
                + [("g", pair, idx) for pair in sorted(marking.marked)
                   for kk, idx in sorted(marking.marked[pair]) if kk == k])

    steps = _Steps(max_steps)
    for k in range(bound + 1):
        letters = letters_at(k)
        seen = {}   # (pair, value) -> word
        queue = []
        for o in range(n):
            key = ((o, o), id_towers[k][o])
            seen[key] = ()
            queue.append(((), (o, o), id_towers[k][o]))
        pos = 0
        while pos < len(queue):
            word, pair, value = queue[pos]
            pos += 1
            for letter in letters:
                _, lpair, lidx = letter
                if lpair[0] != pair[1]:
                    continue
                if word and word[-1][0] == "i" and letter[0] == "i":
                    continue  # adjacent image letters must stay composed
                if word:
                    new_value = tgt.comp(k, pair[0], pair[1], lpair[1],
                                         lidx, value)
                else:
                    new_value = lidx
                new_pair = (pair[0], lpair[1])
                new_word = word + (letter,)
                try:
                    steps.charge()
                except BudgetExceeded:
                    return None, {"step_cap": max_steps}
                key = (new_pair, new_value)
                if key in seen:
                    return False, {"relation": {
                        "value": key, "words": [seen[key], new_word]},
                        "dimension": k}
                seen[key] = new_word
                queue.append((new_word, new_pair, new_value))

        for (a, b) in tgt.object_pairs():
            for idx in range(tgt.hom[(a, b)].size(k)):
                if ((a, b), idx) not in seen:
                    return False, {"not_generated": {"pair": (a, b), "dimension": k,
                                                     "simplex": idx}}
    return True, {"free": True}


def coproduct_inclusion_functor(h: SimplicialCategory) -> SFunctor:
    """{x} + {y} -> H picking out the two objects of H."""
    if h.n_objects() != 2:
        raise InputError("needs a two-object target")
    sx = singleton_cat(h.dim_bound, label=str(h.objects[0]))
    sy = singleton_cat(h.dim_bound, label=str(h.objects[1]))
    cop, _ = coproduct([sx, sy])
    return u_functor(cop, h, 0, 1, SSetMap(cop.hom[(0, 1)], h.hom[(0, 1)],
                                           [[] for _ in range(h.dim_bound + 1)]))


def is_a2_candidate(inc: SFunctor, budget: Budget | None = None, *,
                    marking: GeneratorMarking | None = None) -> Verdict:
    """Whether inc: {x} -> H is a generating acyclic cofibration of the
    two-object kind.

    Checks: exactly two objects; all four function complexes weakly
    contractible; a cofibration witness for {x} + {y} -> H, a marking
    passing the literal free-map check within ``budget.max_steps`` words
    (unknown(budget-exhausted) past them).  Countability holds trivially
    at finite scale and is recorded.

    For finite H the answer is never yes.  Weakly contractible homs are
    nonempty, and the image of {x} + {y} is identity towers only, so every
    word is made of marked letters.  With u: x -> y and v: y -> x in
    dimension 0, the words (v u)^n are distinct and all land in the finite
    Hom(x, x)_0, so ``is_free_map`` finds a relation or reaches its step
    cap.  The yes return stays so that the verdict follows its witness.
    """
    budget = budget or Budget()
    h = inc.target
    if h.n_objects() != 2 or inc.source.n_objects() != 1:
        return Verdict.no(witness={"shape": "needs {x} -> H with two objects"})
    contractibility = []
    for pair in [(0, 1), (1, 0), (0, 0), (1, 1)]:
        v = is_weakly_contractible(h.hom[pair], budget)
        if v.is_no:
            return Verdict.no(witness={"hom_not_weakly_contractible": pair,
                                       **(v.witness or {})})
        contractibility.append(v)
    agg = aggregate(contractibility)
    if not agg.is_definite:
        return Verdict.unknown(agg.reason or BUDGET, witness=agg.witness)

    ok, free_report = None, None
    if marking is not None:
        ok, free_report = is_free_map(coproduct_inclusion_functor(h), marking,
                                      max_steps=budget.max_steps)
        if ok is None:
            return Verdict.unknown(BUDGET, witness=free_report)
    if not ok:
        return Verdict.no(witness={"cofibration_witness_missing": True,
                                   "free_map_report": free_report})
    return Verdict.yes(witness={"homs": "weakly contractible",
                                "cofibration_witness": "free-marking"},
                       countability="finite-scale-automatic")


# ---------------------------------------------------------------------------
# bounded factorization (small object argument, desk scale)

@dataclass(frozen=True)
class CellRecord:
    generator: str
    glue: SFunctor
    bottom: SFunctor


@dataclass
class FactorResult:
    left: SFunctor          # relative cell inclusion C -> E
    right: SFunctor         # E -> D with RLP against the generators
    cells: list
    complete: bool


def factor_bounded(f: SFunctor, gens, budget: Budget | None = None) -> FactorResult:
    """Factor f as (iterated generating pushouts) followed by a map with
    RLP against the generators.

    Cells attach deterministically: highest-dimensional generator first
    (ties by supplied order), earliest unliftable square first.  Attacking
    low-dimensional cells first provably diverges even on one-horn inputs,
    so the top-down order is the one that terminates at desk scale.

    Each round walks the generators in that order.  A generator with a
    ``cell`` (A1, C1) is decided hom by hom on Yoneda data and skipped when
    every hom map lifts; these joins share one count of ``budget.max_steps``
    steps for the whole call.  The first one that fails names its first
    square with no lift, in ``enumerate_problem_squares`` order: bottom
    objects (c, c'), the bottom's n-simplex y by the images of Delta[n]'s
    nondegenerate simplices, top objects (a, a') over (c, c'), then the
    face tuple by the images of the horn's or boundary's nondegenerate
    simplices.  C2 fails iff the right map misses an object, first the
    least one.  Only a failing generator is built.  Other generators, and
    generators of another ``dim_bound`` than f, raise InputError before
    any is built.  Stops with complete=False when a square is left after
    ``budget.max_words`` cells or a join or pushout exceeds the budget; the
    exact equation right . left = f holds on every return.
    """
    budget = budget or Budget()
    if any(gen.dim_bound != f.target.dim_bound for gen in gens):
        raise InputError("dim_bound mismatch")
    steps = _Steps(budget.max_steps)
    stage, left, right, cells = f.source, identity_sfunctor(f.source), f, []
    gens = sorted(gens, key=lambda g: -g.dim)
    while True:
        square = None
        try:
            for gen in gens:
                square = _first_unliftable_gen(right, gen, steps)
                if square is not None:
                    break
            if square is None or len(cells) >= budget.max_words:
                return FactorResult(left=left, right=right, cells=cells,
                                    complete=square is None)
            res = pushout_generating(stage, gen.attachment, square.top, budget)
        except BudgetExceeded:
            return FactorResult(left=left, right=right, cells=cells, complete=False)
        stage = res.category
        left = compose_sfunctors(res.inc_base, left)
        right = pushout_mediating(res, right, square.bottom)
        cells.append(CellRecord(generator=gen.name, glue=square.top,
                                bottom=square.bottom))
