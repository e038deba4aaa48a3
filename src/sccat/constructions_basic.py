"""The walking arrow and codiscrete groupoids.

Separated from the larger builders so low-level modules can use them
without import cycles.
"""
from __future__ import annotations

from .scat import SFunctor, SimplicialCategory, _unit_map, build_compose, functor_U
from .sset import _check_natural, point
from .verdict import InputError


def walking_arrow(dim_bound: int = 4) -> SimplicialCategory:
    """Two objects and a single nonidentity morphism g: x -> y."""
    return functor_U(point(dim_bound))


def codiscrete_groupoid(n_objects: int, dim_bound: int = 4) -> SimplicialCategory:
    """Exactly one morphism between any ordered pair, in every dimension."""
    _check_natural("n_objects", n_objects, 1)
    pt = point(dim_bound)
    homs = {(a, b): pt for a in range(n_objects) for b in range(n_objects)}
    identities = (0,) * n_objects
    compose = build_compose(n_objects, homs, dim_bound,
                            lambda k, a, b, c, g, f: 0, identities)
    return SimplicialCategory(
        objects=tuple(("x", "y", "z")[i] if n_objects <= 3 else f"x{i}"
                      for i in range(n_objects)),
        hom=homs, compose=compose, identities=identities)


def inclusion_of_object(cat: SimplicialCategory, a: int,
                        singleton) -> SFunctor:
    """The functor from the one-object category onto the object a."""
    if not 0 <= a < cat.n_objects():
        raise InputError("unknown object")
    return SFunctor(source=singleton, target=cat, ob_map=(a,),
                    hom_maps={(0, 0): _unit_map(singleton.hom[(0, 0)], cat, a)})
