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
has it against i.  Route (b) and each round of factorization share one
walk to the first generator with an unliftable square, which decides
U(boundary) of C1 and U(horn) of A1 this way, by the one cell join of
``ssetcheck`` (which also names the square), and C2 on objects.  It
decides on the generator's cell alone and builds only the generator that
names a square.  The generic functor search of ``has_rlp_against_set``
stays as the independent check of both routes.

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
from .scat import (SFunctor, SimplicialCategory, _is_homotopy_equivalence, _u_functor,
                   compose_sfunctors, coproduct, identity_sfunctor, pi0_functor,
                   singleton_cat)
from .search import enumerate_sfunctors
from .sset import SSetMap, _check_natural, _simplex, _tuple_inclusion, boundary, horn
from .ssetcheck import (_cells, _first_miss, _rlp_against_cells, is_weak_equivalence_sset,
                        is_weakly_contractible)
from .verdict import (BUDGET, Budget, BudgetExceeded, InputError, Verdict,
                      _Steps, _budget, aggregate)
from .words import Attachment, glue_for_c2, pushout_generating, pushout_mediating


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
    budget = _budget(budget)
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
    return list(_problem_squares(gen, f, _budget(budget)))


def has_rlp_against_set(f: SFunctor, gens, budget: Budget | None = None) -> Verdict:
    """RLP of f against every GeneratorMap in gens, by the generic functor
    search; a definite counterexample square dominates, then unknowns, then
    yes."""
    budget = _budget(budget)
    saw_unknown = False
    try:
        for gen in gens:
            for problem in _problem_squares(gen.map, f, budget):
                v = solve_lifting(problem, budget)
                if v.is_no:
                    return Verdict.no(witness={"generator": gen.name, "square": problem})
                saw_unknown = saw_unknown or not v.is_definite
    except BudgetExceeded:
        return Verdict.unknown(BUDGET)
    if saw_unknown:
        return Verdict.unknown(BUDGET)
    return Verdict.yes(witness={"all_squares_lift": True})


def _first_failure(f: SFunctor, gens, steps: _Steps):
    """(the first of ``gens`` with a square against f that has no lift, its
    first such square in ``enumerate_problem_squares`` order), or None.  A
    cell is joined on the hom maps over each pair of bottom objects in turn;
    C2 (no cell) fails iff f misses an object, first the least one."""
    src, tgt = f.source, f.target
    over = {}    # bottom objects (c, c') -> the top objects over them, in order
    for a, b in src.object_pairs():
        over.setdefault((f.ob(a), f.ob(b)), []).append((a, b))
    for gen in gens:
        if gen.cell is None:
            d = min(set(range(tgt.n_objects())) - set(f.ob_map), default=None)
            if d is not None:
                return gen, LiftingProblem(left=gen.map, right=f,
                                           top=glue_for_c2(gen.attachment, src),
                                           bottom=inclusion_of_object(tgt, d, gen.map.target))
            continue
        n, k = gen.cell
        for (c, c2), tops in sorted(over.items()):
            miss = _first_miss([f.hom_maps[pair] for pair in tops], n, k,
                               lambda: gen.map.hom_maps[(0, 1)], steps)
            if miss is not None:
                q, square = miss
                return gen, LiftingProblem(
                    left=gen.map, right=f,
                    top=_u_functor(gen.map.source, src, *tops[q], square.top),
                    bottom=_u_functor(gen.map.target, tgt, c, c2, square.bottom))
    return None


# ---------------------------------------------------------------------------
# the three classes

def is_dk_equivalence(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """W1 on every function complex and W2 on components."""
    budget = _budget(budget)
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
    budget = _budget(budget)
    steps = _Steps(budget.max_steps)
    sub = []
    for (a, b) in f.source.object_pairs():
        v = _rlp_against_cells(f.hom_maps[(a, b)], True, budget, steps)
        if v.is_no:
            return Verdict.no(witness={"f1_failure": (a, b), **(v.witness or {})})
        sub.append(v)
    src, tgt = f.source, f.target
    for a1 in range(src.n_objects()):
        for b in range(tgt.n_objects()):
            for e in range(tgt.hom[(f.ob(a1), b)].size(0)):
                if _is_homotopy_equivalence(tgt, f.ob(a1), b, e) and not any(
                        f.ob(a2) == b and f.apply(0, a1, a2, d) == e
                        and _is_homotopy_equivalence(src, a1, a2, d)
                        for a2 in range(src.n_objects())
                        for d in range(src.hom[(a1, a2)].size(0))):
                    return Verdict.no(witness={"f2_failure": {
                        "object": a1, "target": b, "equivalence": e}})
    return aggregate(sub, witness_on_yes={"f1": "all hom maps", "f2": "lifted"})


def is_acyclic_fibration(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """Route (a): fibration and DK-equivalence."""
    budget = _budget(budget)
    return aggregate([is_fibration(f, budget), is_dk_equivalence(f, budget)],
                     witness_on_yes={"route": "definitional"}, route="a")


def is_acyclic_fibration_by_rlp(f: SFunctor, budget: Budget | None = None) -> Verdict:
    """Route (b): RLP against C1[0..n_max], then C2, decided like a round of
    ``factor_bounded``: all joins share one count of ``budget.max_steps``.
    Generators are decided on their cells; only the one that names the
    square of a no is built."""
    budget = _budget(budget)
    n_max = min(budget.max_dim, f.source.dim_bound)
    steps = _Steps(budget.max_steps)
    try:
        found = _first_failure(f, generating_cofibrations(n_max, f.source.dim_bound), steps)
        v = (Verdict.yes(witness={"all_squares_lift": True}) if found is None
             else Verdict.no(witness={"generator": found[0].name, "square": found[1]}))
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
        _check_natural("dim", dim)
        _check_natural("dim_bound", dim_bound)
        self._store(name, dim, cell, dim_bound, build)

    def _store(self, name, dim, cell, dim_bound, build):
        self.name, self.dim, self.cell, self.dim_bound = name, dim, cell, dim_bound
        self._build, self._attachment = build, None
        return self

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
    return _generator("C2", 0, None, dim_bound, lambda gen: Attachment.c2(gen.dim_bound))


def _generator(*fields) -> GeneratorMap:
    """``GeneratorMap(*fields)`` with no check, for the dim and dim_bound the
    library checked."""
    return GeneratorMap.__new__(GeneratorMap)._store(*fields)


def _cell_generators(n_max: int, dim_bound: int, horns: bool) -> list:
    """Unbuilt, in order: U(horn (n, k) -> Delta[n]) named A1[n,k], 1 <= n <= n_max,
    if ``horns``, else U(boundary -> Delta[n]) named C1[n], n <= n_max."""
    _check_natural("dim_bound", dim_bound)
    _check_natural("n_max", n_max, float("-inf"))
    if n_max < 0:
        raise InputError("n_max is negative")
    if n_max > dim_bound:
        raise InputError("n_max exceeds dim_bound")
    simplices = {}    # n -> Delta[n], made on first use; U(Delta[n]) is kept on it

    def build(gen):
        n, k = gen.cell
        if n not in simplices:
            simplices[n] = _simplex(n, dim_bound)
        sub = boundary(n, dim_bound) if k is None else horn(n, k, dim_bound)
        return Attachment.from_sset_mono(_tuple_inclusion(sub, simplices[n]), gen.name)

    return [_generator(f"C1[{n}]" if k is None else f"A1[{n},{k}]", n, (n, k),
                       dim_bound, build) for n, k in _cells(n_max, horns)]


def generating_cofibrations(n_max: int, dim_bound: int = 4) -> list:
    """C1 instances for 0 <= n <= n_max plus the object-adding map C2."""
    return [*_cell_generators(n_max, dim_bound, False), c2_generator(dim_bound)]


def generating_acyclic_a1(n_max: int, dim_bound: int = 4) -> list:
    """A1 instances for 1 <= n <= n_max, 0 <= k <= n."""
    return _cell_generators(n_max, dim_bound, True)


# ---------------------------------------------------------------------------
# free maps and the A2 check

def _check_marked(marked) -> None:
    """InputError unless ``marked`` is a dict whose values are sets of
    (dimension, index) pairs of ints (a bool is no int)."""
    if not (isinstance(marked, dict) and all(
            isinstance(entries, (set, frozenset)) and all(
                type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                for e in entries) for entries in marked.values())):
        raise InputError("a marking maps hom pairs to sets of (dimension, index) pairs of ints")


def _names_simplex(hom, k: int, idx: int) -> bool:
    return 0 <= k <= hom.dim_bound and 0 <= idx < hom.size(k)


@dataclass(frozen=True)
class GeneratorMarking:
    """Per hom pair, the set of (dimension, index) marked as free
    generators.  Degeneracies of marked simplices must be marked.  Any
    other shape raises InputError on construction."""
    marked: dict

    def __post_init__(self):
        _check_marked(self.marked)

    @staticmethod
    def close_under_degeneracies(cat: SimplicialCategory, marked: dict) -> "GeneratorMarking":
        """``marked`` with every degeneracy of a marked simplex marked.  A
        marking of the wrong shape, or one naming a hom or simplex that cat
        does not have, raises InputError."""
        _check_marked(marked)
        out = {}
        for pair, entries in marked.items():
            if pair not in cat.hom or not all(_names_simplex(cat.hom[pair], *e) for e in entries):
                raise InputError(f"marking {pair} names no hom or simplex of the category")
            hom, closed = cat.hom[pair], set(entries)
            for k in range(cat.dim_bound):      # level k + 1 is closed once level k is
                closed |= {(k + 1, hom.degeneracy(k, idx, j))
                           for kk, idx in closed if kk == k for j in range(k + 1)}
            out[pair] = frozenset(closed)
        return GeneratorMarking(marked=out)


def _check_marking(marking) -> None:
    if not isinstance(marking, GeneratorMarking):
        raise InputError(f"marking must be a GeneratorMarking, got {type(marking).__name__}")


def validate_marking(cat: SimplicialCategory, marking: GeneratorMarking) -> list:
    _check_marking(marking)
    bad = []
    for pair, entries in marking.marked.items():
        if pair not in cat.hom:
            bad.append(f"marking references unknown hom {pair}")
            continue
        hom = cat.hom[pair]
        for (k, idx) in entries:
            if not _names_simplex(hom, k, idx):
                bad.append(f"marking {pair} references unknown simplex ({k},{idx})")
            elif k < cat.dim_bound:
                for j in range(k + 1):
                    if (k + 1, hom.degeneracy(k, idx, j)) not in entries:
                        bad.append(f"marking {pair} not closed under s_{j} at ({k},{idx})")
    return bad


def is_free_map(f: SFunctor, marking: GeneratorMarking,
                max_steps: int = 10**6):
    """(bool, report) for Def-style freeness: f a monomorphism and every
    target simplex the value of exactly one normalized word in image
    simplices and marked generators.

    The letters of dimension k are the image simplices but the identities
    (the empty words), as ("i", pair, idx), then the marked generators, as
    ("g", pair, idx), each kind by pair, then index.  Normalized words have
    no two adjacent image letters.  Each dimension builds them breadth
    first, each once, and each word built costs one step; so a (pair,
    value) met twice is a relation, and otherwise the word count is bounded
    by the simplex count.  Past ``max_steps`` words it answers (None,
    {"step_cap": ...}); ``max_steps`` is an int of at least 1, as in
    ``Budget``.
    """
    _check_natural("max_steps", max_steps, 1)
    src, tgt = f.source, f.target
    bad = validate_marking(tgt, marking)
    if bad:
        return False, {"marking": bad}
    if len(set(f.ob_map)) != len(f.ob_map):
        return False, {"monomorphism": "object map not injective"}
    image = {}
    for (a, b) in src.object_pairs():
        m = f.hom_maps[(a, b)]
        for k in range(src.dim_bound + 1):
            if len(set(m.assign[k])) != src.hom[(a, b)].size(k):
                return False, {"monomorphism": f"hom map {(a, b)} dim {k}"}
        image[(f.ob(a), f.ob(b))] = {(k, i) for k, level in enumerate(m.assign) for i in level}
    for pair, entries in marking.marked.items():
        clash = entries & image.get(pair, set())
        if clash:
            return False, {"marking_in_image": {"pair": pair,
                                                "simplices": sorted(clash)}}

    # the alphabet, once per call: (dimension, source object) -> letters
    id_towers = tgt.identity_towers()
    letters = {}
    for kind, table in (("i", image), ("g", marking.marked)):
        for pair in sorted(table):
            for k, idx in sorted(table[pair]):
                if kind == "g" or pair[0] != pair[1] or idx != id_towers[k][pair[0]]:
                    letters.setdefault((k, pair[0]), []).append((kind, pair, idx))

    steps = _Steps(max_steps)
    try:
        for k in range(tgt.dim_bound + 1):
            queue = [((), (o, o), id_towers[k][o]) for o in range(tgt.n_objects())]
            seen = {(pair, value): word for word, pair, value in queue}
            for word, (a, b), value in queue:       # words built in the pass join it
                for letter in letters.get((k, b), ()):
                    kind, (_, c), idx = letter
                    if kind == "i" and word and word[-1][0] == "i":
                        continue  # adjacent image letters must stay composed
                    key = ((a, c), tgt.comp(k, a, b, c, idx, value) if word else idx)
                    steps.charge()
                    if key in seen:
                        return False, {"relation": {"value": key,
                                                    "words": [seen[key], word + (letter,)]},
                                       "dimension": k}
                    seen[key] = word + (letter,)
                    queue.append((seen[key], *key))
            for pair in tgt.object_pairs():
                for idx in range(tgt.hom[pair].size(k)):
                    if (pair, idx) not in seen:
                        return False, {"not_generated": {"pair": pair, "dimension": k,
                                                         "simplex": idx}}
    except BudgetExceeded:
        return None, {"step_cap": max_steps}
    return True, {"free": True}


def coproduct_inclusion_functor(h: SimplicialCategory) -> SFunctor:
    """{x} + {y} -> H picking out the two objects of H."""
    if h.n_objects() != 2:
        raise InputError("needs a two-object target")
    sx = singleton_cat(h.dim_bound, label=str(h.objects[0]))
    sy = singleton_cat(h.dim_bound, label=str(h.objects[1]))
    cop, _ = coproduct([sx, sy])
    return _u_functor(cop, h, 0, 1, SSetMap(cop.hom[(0, 1)], h.hom[(0, 1)],
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
    budget = _budget(budget)
    if marking is not None:
        _check_marking(marking)
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

    Each round walks the generators in that order, as route (b) does.  A
    generator with a ``cell`` (A1, C1) is decided hom by hom on Yoneda data
    and skipped when every hom map lifts; these joins share one count of
    ``budget.max_steps`` steps for the whole call.  The first one that
    fails names its first square with no lift, in
    ``enumerate_problem_squares`` order: bottom objects (c, c'), the
    bottom's n-simplex y by the images of Delta[n]'s nondegenerate
    simplices, top objects (a, a') over (c, c'), then the face tuple by the
    images of the horn's or boundary's nondegenerate simplices.  C2 fails
    iff the right map misses an object, first the least one.  Only a
    failing generator is built.  An entry that is no GeneratorMap, has no
    cell and is not C2, or has another ``dim_bound`` than f raises
    InputError before any join.  Stops with complete=False when a square is
    left after ``budget.max_words`` cells or a join or pushout exceeds the
    budget; the exact equation right . left = f holds on every return.
    """
    budget = _budget(budget)
    for gen in gens:
        if not isinstance(gen, GeneratorMap):
            raise InputError(f"{type(gen).__name__} is not a GeneratorMap")
        if gen.cell is None and gen.name != "C2":
            raise InputError(f"{gen.name} is not A1, C1 or C2")
        if gen.dim_bound != f.target.dim_bound:
            raise InputError("dim_bound mismatch")
    steps = _Steps(budget.max_steps)
    stage, left, right, cells = f.source, identity_sfunctor(f.source), f, []
    gens = sorted(gens, key=lambda g: -g.dim)
    while True:
        try:
            found = _first_failure(right, gens, steps)
            if found is None or len(cells) >= budget.max_words:
                return FactorResult(left=left, right=right, cells=cells,
                                    complete=found is None)
            gen, square = found
            res = pushout_generating(stage, gen.attachment, square.top, budget)
        except BudgetExceeded:
            return FactorResult(left=left, right=right, cells=cells, complete=False)
        stage = res.category
        left = compose_sfunctors(res.inc_base, left)
        right = pushout_mediating(res, right, square.bottom)
        cells.append(CellRecord(generator=gen.name, glue=square.top,
                                bottom=square.bottom))
