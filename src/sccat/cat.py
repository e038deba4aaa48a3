"""Finite ordinary categories and functors.

These are the targets of the component functor pi_0 and the levels of a
simplicial category (dimension k, whose morphisms are the k-simplices of
its homs): objects, finite hom sets, total composition tables, marked
identities.  Morphisms are referred to by (source, target, index)
triples.  Composition tables are indexed ``compose[(a, b, c)][g][f]`` for
f: a -> b, g: b -> c, giving g after f.
"""
from __future__ import annotations

from dataclasses import dataclass

from .sset import _check_natural
from .verdict import InputError


class FiniteCategory:
    __slots__ = ("objects", "homs", "compose", "identities")

    def __init__(self, objects, homs, compose, identities):
        self.objects = tuple(objects)
        self.homs = {k: tuple(v) for k, v in homs.items()}
        n = len(self.objects)
        for a in range(n):
            for b in range(n):
                self.homs.setdefault((a, b), ())
        self.compose = {k: tuple(tuple(row) for row in v) for k, v in compose.items()}
        self.identities = tuple(identities)

    def n_objects(self) -> int:
        return len(self.objects)

    def hom(self, a: int, b: int) -> tuple:
        return self.homs.get((a, b), ())

    def comp(self, a: int, b: int, c: int, g: int, f: int) -> int:
        """g after f, for f: a -> b, g: b -> c."""
        return self.compose[(a, b, c)][g][f]

    def __eq__(self, other):
        return (isinstance(other, FiniteCategory)
                and self.objects == other.objects and self.homs == other.homs
                and self.compose == other.compose
                and self.identities == other.identities)

    def __repr__(self):
        return f"FiniteCategory({len(self.objects)} objects)"


def validate_category(c: FiniteCategory) -> list:
    bad = []
    n = c.n_objects()
    if len(c.identities) != n:
        return ["identities must mark one morphism per object"]
    for a in range(n):
        if not (0 <= c.identities[a] < len(c.hom(a, a))):
            bad.append(f"identity of object {a} out of range")
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                table = c.compose.get((a, b, cc))
                nf, ng = len(c.hom(a, b)), len(c.hom(b, cc))
                if table is None:
                    if nf and ng:
                        bad.append(f"missing composition table {(a, b, cc)}")
                    continue
                if nf == 0 or ng == 0:
                    continue  # no composable pairs; empty table shapes are fine
                if len(table) != ng or any(len(row) != nf for row in table):
                    bad.append(f"composition table {(a, b, cc)} has wrong shape")
                    continue
                for row in table:
                    for v in row:
                        if not (0 <= v < len(c.hom(a, cc))):
                            bad.append(f"composition table {(a, b, cc)} out of range")
                            break
    if bad:
        return bad
    for a in range(n):
        for b in range(n):
            ida, idb = c.identities[a], c.identities[b]
            for f in range(len(c.hom(a, b))):
                if c.comp(a, a, b, f, ida) != f:
                    bad.append(f"right identity law fails at {(a, b)} morphism {f}")
                if c.comp(a, b, b, idb, f) != f:
                    bad.append(f"left identity law fails at {(a, b)} morphism {f}")
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                for d in range(n):
                    for f in range(len(c.hom(a, b))):
                        for g in range(len(c.hom(b, cc))):
                            gf = c.comp(a, b, cc, g, f)
                            for h in range(len(c.hom(cc, d))):
                                lhs = c.comp(a, cc, d, h, gf)
                                rhs = c.comp(a, b, d, c.comp(b, cc, d, h, g), f)
                                if lhs != rhs:
                                    bad.append(
                                        f"associativity fails at {(a, b, cc, d)}"
                                        f" morphisms {(f, g, h)}")
    return bad


def is_isomorphism(c: FiniteCategory, a: int, b: int, m: int):
    """(True, inverse) if m: a -> b has a two-sided inverse, else (False, None)."""
    _check_natural("a", a, 0, c.n_objects() - 1, "unknown object")
    _check_natural("b", b, 0, c.n_objects() - 1, "unknown object")
    _check_natural("m", m, 0, len(c.hom(a, b)) - 1, "morphism index out of range")
    return _is_isomorphism(c, a, b, m)


def _is_isomorphism(c: FiniteCategory, a: int, b: int, m: int):
    """``is_isomorphism`` with no check, for the a, b and m the library made."""
    for m2 in range(len(c.hom(b, a))):
        if (c.comp(a, b, a, m2, m) == c.identities[a]
                and c.comp(b, a, b, m, m2) == c.identities[b]):
            return True, m2
    return False, None


@dataclass(frozen=True)
class FiniteFunctor:
    source: FiniteCategory
    target: FiniteCategory
    ob_map: tuple
    mor_maps: dict  # (a, b) -> tuple of indices in target hom(F a, F b)

    def ob(self, a: int) -> int:
        return self.ob_map[a]

    def mor(self, a: int, b: int, f: int) -> int:
        return self.mor_maps[(a, b)][f]


def validate_functor(F: FiniteFunctor) -> list:
    bad = []
    c, d = F.source, F.target
    n = c.n_objects()
    if len(F.ob_map) != n or any(not (0 <= x < d.n_objects()) for x in F.ob_map):
        return ["object map not a total map into the target objects"]
    for a in range(n):
        for b in range(n):
            fa, fb = F.ob(a), F.ob(b)
            maps = F.mor_maps.get((a, b), ())
            if len(maps) != len(c.hom(a, b)):
                bad.append(f"morphism map at {(a, b)} not total")
                continue
            for f, img in enumerate(maps):
                if not (0 <= img < len(d.hom(fa, fb))):
                    bad.append(f"morphism map at {(a, b)} out of range")
    if bad:
        return bad
    for a in range(n):
        if F.mor(a, a, c.identities[a]) != d.identities[F.ob(a)]:
            bad.append(f"identity of object {a} not preserved")
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                for f in range(len(c.hom(a, b))):
                    for g in range(len(c.hom(b, cc))):
                        lhs = F.mor(a, cc, c.comp(a, b, cc, g, f))
                        rhs = d.comp(F.ob(a), F.ob(b), F.ob(cc),
                                     F.mor(b, cc, g), F.mor(a, b, f))
                        if lhs != rhs:
                            bad.append(f"composition not preserved at {(a, b, cc)}")
    return bad


def compose_functors(G: FiniteFunctor, F: FiniteFunctor) -> FiniteFunctor:
    if F.target is not G.source and F.target != G.source:
        raise InputError("functors not composable")
    n = F.source.n_objects()
    return FiniteFunctor(
        source=F.source, target=G.target,
        ob_map=tuple(G.ob(F.ob(a)) for a in range(n)),
        mor_maps={(a, b): tuple(G.mor(F.ob(a), F.ob(b), F.mor(a, b, f))
                                for f in range(len(F.source.hom(a, b))))
                  for a in range(n) for b in range(n)})


def is_equivalence(F: FiniteFunctor):
    """(verdict_bool, witness) for F being an equivalence of categories.

    Fully faithful: every hom map is a bijection.  Essentially surjective:
    every target object is isomorphic to the image of some source object;
    the witness records, per target object, the chosen (source object,
    isomorphism) in deterministic search order.
    """
    c, d = F.source, F.target
    n = c.n_objects()
    for a in range(n):
        for b in range(n):
            imgs = [F.mor(a, b, f) for f in range(len(c.hom(a, b)))]
            if len(set(imgs)) != len(imgs):
                return False, {"not_faithful_at": (a, b)}
            if len(imgs) != len(d.hom(F.ob(a), F.ob(b))):
                return False, {"not_full_at": (a, b),
                               "hom_sizes": (len(imgs), len(d.hom(F.ob(a), F.ob(b))))}
    iso_choices = {}
    for t in range(d.n_objects()):
        found = None
        for a in range(n):
            if found:
                break
            for m in range(len(d.hom(F.ob(a), t))):
                ok, inv = _is_isomorphism(d, F.ob(a), t, m)
                if ok:
                    found = {"source_object": a, "iso": (F.ob(a), t, m),
                             "inverse": inv}
                    break
        if found is None:
            return False, {"not_essentially_surjective_at": t}
        iso_choices[t] = found
    return True, {"iso_choices": iso_choices}
