"""Simplicial categories: categories enriched in simplicial sets.

A simplicial category stores a finite object list, one simplicial set per
ordered pair of objects (all sharing a dim_bound), dimensionwise total
composition tables, and a marked identity 0-simplex per object.  The
identity in dimension k is the k-fold degeneracy of that 0-simplex; each
category makes these identity towers once, as one table
(``identity_towers``), which ``build_compose`` computes the same way
before the category exists.

Composition tables are indexed ``compose[(a, b, c)][k][g][f]`` = index of
g after f in Hom(a, c)_k, for f in Hom(a, b)_k and g in Hom(b, c)_k.
Their canonical form: every object triple is a key, every level a tuple of
row tuples, and a level where Hom(a, b)_k or Hom(b, c)_k is empty is ().
``build_compose`` makes them so, filling every entry with an identity-tower
factor by the unit law and asking a construction's rule only for the
others (in U(X) every composite is such a unit composite).  The library's
U(X), pushouts, pullbacks and codiscrete groupoids make their tables on
the first read of ``compose`` (``_DeferredCategory``); the public
constructor and every other builder store them at once.  The public
constructor, for hand-built data, also runs ``validate_scat`` on what it
stores: a hand-built category is validated once, by its constructor, and
no builder or decider checks a category again.

Functors carry an object map plus one simplicial map per hom pair.
Validation is dimension by dimension, through ``cat``: dimension k is an
ordinary category C_k (``validate_category``), every face d_i: C_k ->
C_{k-1} and degeneracy s_j: C_k -> C_{k+1} is an identity-on-objects
functor, and a functor is one C_k -> D_k in every dimension
(``validate_functor``).  The component category pi_0 and its
functoriality live here as well, next to the constructions that only
shuffle hom data around.  Full subcategories, object doubling and
coproducts are made from existing categories' objects: they share those
categories' homs and composition tables through one builder,
``_on_objects``, and their functors are the identity on every hom.
Pullbacks build new homs levelwise.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cat import (FiniteCategory, FiniteFunctor, _is_isomorphism,
                  validate_category, validate_functor)
from .sset import (SimplicialSet, SSetMap, _check_natural, _empty_sset, _simplex, compose_maps,
                   empty_sset, identity_map, memo, pi0, pi0_class_of, pi0_map, point,
                   pullback_ssets, validate_sset, validate_sset_map)
from .verdict import InputError, StructureError


class SimplicialCategory:
    """The public constructor is for hand-built data: it checks the keys
    and dim_bound, gives every missing hom one empty set, stores the tables
    in the canonical form of ``build_compose``, a missing triple with
    composable pairs left out, and validates the category once: a
    violation of ``validate_scat``, or a table it cannot read, raises
    InputError naming the first.  Library builders make canonical data and
    store it through ``_category``, with no check, or through
    ``_deferred_category``, whose tables are made on the first read of
    ``compose``; they hand this constructor nothing."""
    __slots__ = ("objects", "hom", "compose", "identities", "dim_bound", "_cache")

    def __init__(self, objects, hom, compose, identities, dim_bound: int | None = None):
        objects, hom = tuple(objects), dict(hom)
        n = len(objects)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        triples = [(a, b, c) for a, b in pairs for c in range(n)]
        if not (hom.keys() <= set(pairs) and compose.keys() <= set(triples)):
            raise InputError("hom and compose keys must be pairs and triples of objects")
        if not all(isinstance(h, SimplicialSet) for h in hom.values()):
            raise InputError("every hom must be a SimplicialSet")
        bounds = {h.dim_bound for h in hom.values()}
        if dim_bound is None:
            if not bounds:
                raise InputError("dim_bound required for a category with no homs")
            dim_bound = max(bounds)
        _check_natural("dim_bound", dim_bound)
        if bounds - {dim_bound}:
            raise InputError("all hom complexes must share one dim_bound")
        missing = [p for p in pairs if p not in hom]
        if missing:
            hom.update(dict.fromkeys(missing, empty_sset(dim_bound)))
        tables = {}
        try:
            for t in triples:
                live = [hom[t[:2]].size(k) and hom[t[1:]].size(k) for k in range(dim_bound + 1)]
                if t in compose or not any(live):
                    levels = compose.get(t, ())
                    tables[t] = tuple(tuple(map(tuple, levels[k])) if live[k] and k < len(levels)
                                      else () for k in range(dim_bound + 1))
            bad = validate_scat(self._store(objects, hom, tables, tuple(identities), dim_bound))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            bad = ["a table the checks cannot read"]
        if bad:
            raise InputError(f"not a simplicial category: {bad[0]}")

    def _store(self, objects, hom, compose, identities, dim_bound):
        self.objects, self.hom, self.compose = objects, hom, compose
        self.identities, self.dim_bound, self._cache = identities, dim_bound, {}
        return self

    # -- accessors -----------------------------------------------------------
    def n_objects(self) -> int:
        return len(self.objects)

    def comp(self, k: int, a: int, b: int, c: int, g: int, f: int) -> int:
        return self.compose[(a, b, c)][k][g][f]

    @memo
    def identity_towers(self) -> list:
        """[k][a]: the identity k-simplex of object a."""
        return _identity_towers(self.hom, self.identities, self.dim_bound)

    def identity_tower(self, a: int, k: int) -> int:
        """The identity k-simplex of object a."""
        return self.identity_towers()[k][a]

    def object_pairs(self):
        n = self.n_objects()
        return ((a, b) for a in range(n) for b in range(n))

    def object_triples(self):
        n = self.n_objects()
        return ((a, b, c) for a in range(n) for b in range(n) for c in range(n))

    def __eq__(self, other):
        return self is other or (isinstance(other, SimplicialCategory)
                                 and self.objects == other.objects
                                 and self.dim_bound == other.dim_bound
                                 and self.hom == other.hom
                                 and self.compose == other.compose
                                 and self.identities == other.identities)

    def __repr__(self):
        return (f"SimplicialCategory(objects={list(self.objects)}, "
                f"dim_bound={self.dim_bound})")


def _category(objects, hom, compose, identities, dim_bound) -> SimplicialCategory:
    """Canonical data (see ``build_compose``), every hom pair a key, stored
    as given; the tables are made already (see ``_deferred_category``)."""
    return SimplicialCategory.__new__(SimplicialCategory)._store(
        objects, hom, compose, identities, dim_bound)


class _DeferredCategory(SimplicialCategory):
    """A library-built category whose composition tables are not made yet.

    Its compose slot holds their maker, ``build_compose`` on the
    category's data and a rule, with every check.  The first read of
    ``compose`` runs it, stores the tables in the slot and makes the
    category a plain SimplicialCategory, so no hook stays on the class of
    any category.  Nothing else reads the slot: the objects, homs and
    identity towers answer in both forms."""
    __slots__ = ()

    @property
    def compose(self):
        compose = _COMPOSE.__get__(self)()
        _COMPOSE.__set__(self, compose)
        self.__class__ = SimplicialCategory
        return compose


_COMPOSE = SimplicialCategory.compose   # the slot under _DeferredCategory's property


def _deferred_category(objects, homs, rule, identities, dim_bound) -> SimplicialCategory:
    """``_category`` of the tables ``build_compose`` makes of this data and
    rule, made on the first read of ``compose`` (see ``_DeferredCategory``)."""
    cat = _category(objects, homs, lambda: build_compose(
        len(objects), homs, dim_bound, rule, identities), identities, dim_bound)
    cat.__class__ = _DeferredCategory
    return cat


def _identity_towers(homs: dict, identities, dim_bound: int) -> list:
    """[k][a]: s_0 applied k times to the marked 0-simplex identities[a]."""
    towers = [tuple(identities)]
    for k in range(dim_bound):
        towers.append(tuple(homs[(a, a)].degeneracy(k, i, 0) for a, i in enumerate(towers[k])))
    return towers


def build_compose(n_objects: int, homs: dict, dim_bound: int, rule, identities) -> dict:
    """Composition tables in canonical form from the marked identity
    0-simplices and a rule(k, a, b, c, g, f) -> index: every object triple
    is a key, and a level where Hom(a, b)_k or Hom(b, c)_k is empty is ().

    The unit law fills every entry with an identity-tower factor: g after
    the identity of a is g, the identity of c after f is f.  ``rule`` is
    asked only for the other entries, and may be None when there are none
    (as in U(X)).  The tables are made when this is called;
    ``_deferred_category`` calls it on the first read of ``compose``."""
    _check_natural("n_objects", n_objects)
    _check_natural("dim_bound", dim_bound)
    if homs.keys() != {(a, b) for a in range(n_objects) for b in range(n_objects)} or any(
            not isinstance(h, SimplicialSet) or h.dim_bound != dim_bound for h in homs.values()):
        raise InputError("every hom must be a SimplicialSet at dim_bound, one per object pair")
    if len(identities) != n_objects or any(type(i) is not int or not 0 <= i < homs[(a, a)].size(0)
                                           for a, i in enumerate(identities)):
        raise InputError("identities must mark one 0-simplex of each Hom(a, a)")
    ids = _identity_towers(homs, identities, dim_bound)
    compose = {}
    for a in range(n_objects):
        for b in range(n_objects):
            for c in range(n_objects):
                levels = []
                for k in range(dim_bound + 1):
                    nf, ng = homs[(a, b)].size(k), homs[(b, c)].size(k)
                    if not (nf and ng):
                        levels.append(())
                    elif a == b and nf == 1:    # f is the identity tower
                        levels.append(tuple(zip(range(ng))))
                    else:
                        id_f = ids[k][a] if a == b else -1
                        id_g = ids[k][b] if b == c else -1
                        levels.append(tuple(
                            tuple(range(nf)) if g == id_g else
                            tuple(g if f == id_f else rule(k, a, b, c, g, f)
                                  for f in range(nf))
                            for g in range(ng)))
                compose[(a, b, c)] = tuple(levels)
    return compose


def _level(cat: SimplicialCategory, k: int) -> FiniteCategory:
    """Dimension k as an ordinary category: the k-simplices of each hom,
    composed by the dimension-k tables, with the identity towers."""
    return FiniteCategory(
        objects=cat.objects,
        homs={p: range(h.size(k)) for p, h in cat.hom.items()},
        compose={t: levels[k] for t, levels in cat.compose.items()},
        identities=[cat.identity_tower(a, k) for a in range(cat.n_objects())])


def validate_scat(cat: SimplicialCategory) -> list:
    """All violated invariants, naming dimension, triple and simplices."""
    bad = []
    n = cat.n_objects()
    for (a, b), h in cat.hom.items():
        bad.extend(f"hom ({a},{b}): {v}" for v in validate_sset(h))
    if len(cat.identities) != n:
        return bad + ["identities must mark one 0-simplex per object"]
    for a in range(n):
        if not (0 <= cat.identities[a] < cat.hom[(a, a)].size(0)):
            return bad + [f"identity of object {a} out of range"]
    if bad:
        return bad

    levels = [_level(cat, k) for k in range(cat.dim_bound + 1)]
    for k, c in enumerate(levels):
        bad.extend(f"dim {k}: {v}" for v in validate_category(c))
    if bad:
        return bad
    ids = tuple(range(n))
    for k in range(1, cat.dim_bound + 1):
        for i in range(k + 1):
            d_i = FiniteFunctor(levels[k], levels[k - 1], ids, {
                p: tuple(h.face(k, f, i) for f in range(h.size(k)))
                for p, h in cat.hom.items()})
            bad.extend(f"d_{i} at dim {k}: {v}" for v in validate_functor(d_i))
    for k in range(cat.dim_bound):
        for j in range(k + 1):
            s_j = FiniteFunctor(levels[k], levels[k + 1], ids, {
                p: tuple(h.degeneracy(k, f, j) for f in range(h.size(k)))
                for p, h in cat.hom.items()})
            bad.extend(f"s_{j} at dim {k}: {v}" for v in validate_functor(s_j))
    return bad


# ---------------------------------------------------------------------------
# functors

@dataclass(frozen=True)
class SFunctor:
    source: SimplicialCategory
    target: SimplicialCategory
    ob_map: tuple
    hom_maps: dict  # (a, b) -> SSetMap

    def ob(self, a: int) -> int:
        return self.ob_map[a]

    def apply(self, k: int, a: int, b: int, idx: int) -> int:
        return self.hom_maps[(a, b)].assign[k][idx]

    def __eq__(self, other):
        return (isinstance(other, SFunctor)
                and self.source == other.source and self.target == other.target
                and self.ob_map == other.ob_map
                and all(self.hom_maps.get(p) == other.hom_maps.get(p)
                        for p in self.source.object_pairs()))

    def __hash__(self):
        return hash((self.ob_map, tuple(sorted(
            (p, m.assign) for p, m in self.hom_maps.items()))))


def validate_sfunctor(F: SFunctor) -> list:
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
    for k in range(tgt.dim_bound + 1):  # a source with no objects may have another bound
        F_k = FiniteFunctor(_level(src, k), _level(tgt, k), F.ob_map,
                            {p: m.assign[k] for p, m in F.hom_maps.items()})
        bad.extend(f"dim {k}: {v}" for v in validate_functor(F_k))
    return bad


def _identity_on_homs(src: SimplicialCategory, tgt: SimplicialCategory,
                      ob_map) -> SFunctor:
    """The functor src -> tgt on ob_map that is the identity on every hom;
    Hom(a, b) of src must be Hom(ob_map[a], ob_map[b]) of tgt."""
    return SFunctor(source=src, target=tgt, ob_map=tuple(ob_map),
                    hom_maps={p: identity_map(src.hom[p]) for p in src.object_pairs()})


def identity_sfunctor(cat: SimplicialCategory) -> SFunctor:
    return _identity_on_homs(cat, cat, range(cat.n_objects()))


def compose_sfunctors(G: SFunctor, F: SFunctor) -> SFunctor:
    if F.target != G.source:
        raise InputError("functors not composable")
    n = F.source.n_objects()
    return SFunctor(
        source=F.source, target=G.target,
        ob_map=tuple(G.ob(F.ob(a)) for a in range(n)),
        hom_maps={(a, b): compose_maps(G.hom_maps[(F.ob(a), F.ob(b))],
                                       F.hom_maps[(a, b)])
                  for (a, b) in F.source.object_pairs()})


# ---------------------------------------------------------------------------
# basic constructions

def empty_cat(dim_bound: int = 4) -> SimplicialCategory:
    _check_natural("dim_bound", dim_bound)
    return _category((), {}, {}, (), dim_bound)


def singleton_cat(dim_bound: int = 4, label: str = "x") -> SimplicialCategory:
    pt = point(dim_bound)
    return _category((label,), {(0, 0): pt},
                     {(0, 0, 0): tuple(((0,),) for _ in range(dim_bound + 1))}, (0,), dim_bound)


def _u_on(x: SimplicialSet, pt: SimplicialSet) -> SimplicialCategory:
    """U(X) with the point pt as the hom of each object to itself."""
    bound = x.dim_bound
    homs = {(0, 0): pt, (1, 1): pt, (0, 1): x, (1, 0): _empty_sset(bound)}
    # every composite has an identity factor: the unit law fills all tables
    return _deferred_category(("x", "y"), homs, None, (0, 0), bound)


@memo
def functor_U(x: SimplicialSet) -> SimplicialCategory:
    """Two objects, Hom(x, y) = X, no other nonidentity morphisms.  Made
    once per X, as derived data of X."""
    return _u_on(x, _simplex(0, x.dim_bound))


def functor_U_map(g: SSetMap) -> SFunctor:
    """U applied to a simplicial-set map: into U(g.target), from U(g.source)
    made on the point of U(g.target)."""
    u_target = functor_U(g.target)
    return _u_functor(_u_on(g.source, u_target.hom[(0, 0)]), u_target, 0, 1, g)


def _unit_map(pt: SimplicialSet, cat: SimplicialCategory, a: int) -> SSetMap:
    """The map from the point hom pt onto the identity tower of object a."""
    return SSetMap(pt, cat.hom[(a, a)],
                   [[cat.identity_tower(a, k)] for k in range(cat.dim_bound + 1)])


def u_functor(u_cat: SimplicialCategory, target: SimplicialCategory, gx: int,
              gy: int, hom_map: SSetMap) -> SFunctor:
    """The functor from u_cat = U(X) (or a category of its shape) to the
    target sending x, y to gx, gy and X = Hom(x, y) by hom_map."""
    for g in (gx, gy):
        _check_natural("object", g, 0, target.n_objects() - 1, "unknown object")
    return _u_functor(u_cat, target, gx, gy, hom_map)


def _u_functor(u_cat: SimplicialCategory, target: SimplicialCategory, gx: int,
               gy: int, hom_map: SSetMap) -> SFunctor:
    """``u_functor`` with no check, for the objects the library made."""
    obs = (gx, gy)
    hom_maps = {(o, o): _unit_map(u_cat.hom[(o, o)], target, g) for o, g in enumerate(obs)}
    hom_maps[(0, 1)] = hom_map
    hom_maps[(1, 0)] = SSetMap(u_cat.hom[(1, 0)], target.hom[(gy, gx)],
                               [[] for _ in range(target.dim_bound + 1)])
    return SFunctor(source=u_cat, target=target, ob_map=obs, hom_maps=hom_maps)


def _on_objects(parts: list, labels: tuple, dim_bound: int) -> SimplicialCategory:
    """The category whose object i is object x of category c, for parts[i]
    = (part, c, x).  Objects of one part share c's homs and composition
    tables; the hom between two parts is empty.  Parts are told apart by
    their tag, not by c, so one category may stand in two parts."""
    empty = empty_sset(dim_bound)
    empty_levels = tuple(() for _ in range(dim_bound + 1))
    homs, compose = {}, {}
    for i, (p, c, x) in enumerate(parts):
        for j, (q, _, y) in enumerate(parts):
            homs[(i, j)] = c.hom[(x, y)] if p == q else empty
            for k, (r, _, z) in enumerate(parts):
                compose[(i, j, k)] = c.compose[(x, y, z)] if p == q == r else empty_levels
    return _category(labels, homs, compose, tuple(c.identities[x] for _, c, x in parts),
                     dim_bound)


def full_subcategory(cat: SimplicialCategory, objs) -> tuple:
    """(subcategory, inclusion functor); objs by index, order preserved."""
    objs = list(objs)
    for o in objs:
        _check_natural("object", o, 0, cat.n_objects() - 1,
                       "unknown object in subcategory selection")
    sub = _on_objects([(0, cat, o) for o in objs], tuple(cat.objects[o] for o in objs),
                      cat.dim_bound)
    return sub, _identity_on_homs(sub, cat, objs)


def double_object(cat: SimplicialCategory, a: int) -> tuple:
    """(E', collapse) where E' has two objects a, a' and every hom equal to
    Hom(a, a); the collapse sends both to a and is the identity on homs."""
    _check_natural("a", a, 0, cat.n_objects() - 1, "unknown object")
    label = cat.objects[a]
    e = _on_objects([(0, cat, a), (0, cat, a)], (label, f"{label}'"), cat.dim_bound)
    return e, _identity_on_homs(e, cat, (a, a))


def coproduct(cats: list) -> tuple:
    """(coproduct, list of inclusion functors)."""
    if not cats:
        raise InputError("coproduct needs at least one category")
    bound = cats[0].dim_bound
    if any(c.dim_bound != bound for c in cats):
        raise InputError("dim_bound mismatch in coproduct")
    parts = [(ci, c, x) for ci, c in enumerate(cats) for x in range(c.n_objects())]
    labels = []
    for ci, c, x in parts:
        lbl = c.objects[x]
        labels.append(lbl if lbl not in labels else f"{lbl}#{ci}")
    cop = _on_objects(parts, tuple(labels), bound)
    return cop, [_identity_on_homs(c, cop, [i for i, (p, _, _) in enumerate(parts) if p == ci])
                 for ci, c in enumerate(cats)]


def pullback_scat(f: SFunctor, h: SFunctor) -> tuple:
    """Pullback B x_D C of f: B -> D, h: C -> D.

    Returns (P, pr_B, pr_C).  Objects are the pairs (b, c) with matching
    images, in lexicographic order; homs are levelwise pullbacks.
    """
    if f.target != h.target:
        raise InputError("pullback needs a common target")
    B, C = f.source, h.source
    bound = B.dim_bound
    obj_pairs = [(b, c) for b in range(B.n_objects()) for c in range(C.n_objects())
                 if f.ob(b) == h.ob(c)]
    if B.dim_bound != C.dim_bound:
        raise InputError("dim_bound mismatch")
    homs = {}
    proj_b = {}
    proj_c = {}
    pair_idx = {}
    for i, (b1, c1) in enumerate(obj_pairs):
        for j, (b2, c2) in enumerate(obj_pairs):
            p, prx, pry, idx = pullback_ssets(f.hom_maps[(b1, b2)],
                                              h.hom_maps[(c1, c2)])
            homs[(i, j)] = p
            proj_b[(i, j)] = prx
            proj_c[(i, j)] = pry
            pair_idx[(i, j)] = idx

    def rule(k, i, j, l, g, ff):
        b1, c1 = obj_pairs[i]
        b2, c2 = obj_pairs[j]
        b3, c3 = obj_pairs[l]
        bf = proj_b[(i, j)].assign[k][ff]
        cf = proj_c[(i, j)].assign[k][ff]
        bg = proj_b[(j, l)].assign[k][g]
        cg = proj_c[(j, l)].assign[k][g]
        target_pair = (B.comp(k, b1, b2, b3, bg, bf),
                       C.comp(k, c1, c2, c3, cg, cf))
        return pair_idx[(i, l)][k][target_pair]

    identities = tuple(pair_idx[(i, i)][0][(B.identities[b], C.identities[c])]
                       for i, (b, c) in enumerate(obj_pairs))
    P = _deferred_category(tuple(f"({B.objects[b]},{C.objects[c]})" for (b, c) in obj_pairs),
                           homs, rule, identities, bound)
    pr_B = SFunctor(source=P, target=B,
                    ob_map=tuple(b for (b, c) in obj_pairs),
                    hom_maps={(i, j): proj_b[(i, j)]
                              for i in range(len(obj_pairs))
                              for j in range(len(obj_pairs))})
    pr_C = SFunctor(source=P, target=C,
                    ob_map=tuple(c for (b, c) in obj_pairs),
                    hom_maps={(i, j): proj_c[(i, j)]
                              for i in range(len(obj_pairs))
                              for j in range(len(obj_pairs))})
    return P, pr_B, pr_C


def pullback_mediating(P: SimplicialCategory, pr_B: SFunctor, pr_C: SFunctor,
                       cone_B: SFunctor, cone_C: SFunctor) -> SFunctor:
    """The unique functor T -> P through a commuting cone (T -> B, T -> C).

    Raises StructureError if the cone does not factor (which would refute
    the universal property)."""
    T = cone_B.source
    if cone_C.source != T:
        raise InputError("cone legs must share their source")
    obj_pairs = list(zip(pr_B.ob_map, pr_C.ob_map))
    ob_map = []
    for t in range(T.n_objects()):
        pair = (cone_B.ob(t), cone_C.ob(t))
        if pair not in obj_pairs:
            raise StructureError("cone does not factor on objects")
        ob_map.append(obj_pairs.index(pair))
    hom_maps = {}
    for (a, b) in T.object_pairs():
        i, j = ob_map[a], ob_map[b]
        hom_p = P.hom[(i, j)]
        # invert the joint projection on simplices
        lookup = [dict() for _ in range(P.dim_bound + 1)]
        for k in range(P.dim_bound + 1):
            for idx in range(hom_p.size(k)):
                lookup[k][(pr_B.hom_maps[(i, j)].assign[k][idx],
                           pr_C.hom_maps[(i, j)].assign[k][idx])] = idx
        assign = []
        for k in range(P.dim_bound + 1):
            level = []
            for idx in range(T.hom[(a, b)].size(k)):
                key = (cone_B.apply(k, a, b, idx), cone_C.apply(k, a, b, idx))
                if key not in lookup[k]:
                    raise StructureError("cone does not factor on homs")
                level.append(lookup[k][key])
            assign.append(level)
        hom_maps[(a, b)] = SSetMap(T.hom[(a, b)], hom_p, assign)
    return SFunctor(source=T, target=P, ob_map=tuple(ob_map), hom_maps=hom_maps)


# ---------------------------------------------------------------------------
# pi0

@memo
def pi0_data(cat: SimplicialCategory):
    """(component category, classes) where classes[(a, b)] is the pi0
    partition of Hom(a, b) and morphism i of the component category is the
    i-th class.  Well-definedness of induced composition is asserted."""
    classes = {pair: pi0(cat.hom[pair]) for pair in cat.object_pairs()}
    class_of = {pair: pi0_class_of(cat.hom[pair]) for pair in cat.object_pairs()}
    homs = {(a, b): tuple(f"c{i}" for i in range(len(classes[(a, b)])))
            for (a, b) in cat.object_pairs()}
    compose = {}
    for (a, b, c) in cat.object_triples():
        table = []
        for gi, gcls in enumerate(classes[(b, c)]):
            row = []
            for fi, fcls in enumerate(classes[(a, b)]):
                values = {class_of[(a, c)][cat.comp(0, a, b, c, g0, f0)]
                          for g0 in gcls for f0 in fcls}
                if len(values) != 1:
                    raise StructureError(
                        f"pi0 composition not well defined at {(a, b, c)} "
                        f"classes ({gi},{fi})")
                row.append(values.pop())
            table.append(tuple(row))
        compose[(a, b, c)] = tuple(table)
    identities = tuple(class_of[(a, a)][cat.identities[a]]
                       for a in range(cat.n_objects()))
    fc = FiniteCategory(objects=cat.objects, homs=homs, compose=compose,
                        identities=identities)
    return fc, classes


def pi0_category(cat: SimplicialCategory) -> FiniteCategory:
    return pi0_data(cat)[0]


def pi0_functor(F: SFunctor) -> FiniteFunctor:
    mor_maps = {pair: tuple(pi0_map(F.hom_maps[pair]))
                for pair in F.source.object_pairs()}
    return FiniteFunctor(source=pi0_category(F.source),
                         target=pi0_category(F.target),
                         ob_map=F.ob_map, mor_maps=mor_maps)


def is_homotopy_equivalence(cat: SimplicialCategory, a: int, b: int,
                            e: int) -> bool:
    """Whether the 0-simplex e of Hom(a, b) becomes an isomorphism in the
    component category."""
    for v in (a, b):
        _check_natural("object", v, 0, cat.n_objects() - 1, "unknown object")
    _check_natural("e", e, 0, cat.hom[(a, b)].size(0) - 1, "not a 0-simplex of the stated hom")
    return _is_homotopy_equivalence(cat, a, b, e)


def _is_homotopy_equivalence(cat: SimplicialCategory, a: int, b: int, e: int) -> bool:
    """``is_homotopy_equivalence`` with no check, for the a, b and e the library made."""
    fc, _ = pi0_data(cat)
    cls = pi0_class_of(cat.hom[(a, b)])[e]
    return _is_isomorphism(fc, a, b, cls)[0]

