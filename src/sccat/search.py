"""Exhaustive enumeration of functors between simplicial categories.

Object maps are tried in lexicographic order; for each, the simplex
images of every hom pair are assigned at once by the slot search of
``sset`` (dimension by dimension, pairs in index order, nondegenerate
simplices in index order), with identities pinned and composition
preservation checked as soon as every participant of an instance is
determined.  A lifting square constrains the search through its two
triangles: ``under=(i, top)`` and ``over=(p, bottom)``.  The order is part
of the contract: counterexamples and witnesses must be reproducible.

Instances of the unit laws, g . id = g and id . f = f, are not checked:
identities are pinned in dimension 0 and degenerate images follow their
decompositions, so an identity tower always goes to an identity tower,
and such an instance holds by the target's own unit law, which
``validate_scat`` checks in every dimension through ``validate_category``.
A source U(K) has no other composites, so a search from it checks no
composition at all.
"""
from __future__ import annotations

import itertools

from .scat import SFunctor, SimplicialCategory
from .sset import SSetMap, _pins_under, _slot_order, _SlotSearch, memo
from .verdict import InputError


@memo
def _comp_instances(src: SimplicialCategory):
    """The composition instances of the source other than the unit laws,
    grouped by the search slot after which all three participants are
    determined."""
    n = src.n_objects()
    homs = [src.hom[pair] for pair in src.object_pairs()]
    slot_pos = {slot: pos for pos, slot in enumerate(_slot_order(homs))}

    def det_slot(k, pair, idx):
        rec = homs[pair].dims[k][idx]
        return slot_pos[(k - len(rec.word), pair, rec.base)]

    grouped = [[] for _ in slot_pos]
    for (a, b, c) in src.object_triples():
        hf, hg = src.hom[(a, b)], src.hom[(b, c)]
        for k in range(src.dim_bound + 1):
            id_a, id_b = src.identity_tower(a, k), src.identity_tower(b, k)
            for g in range(hg.size(k)):
                if b == c and g == id_b:
                    continue
                for f in range(hf.size(k)):
                    if a == b and f == id_a:
                        continue
                    gf = src.comp(k, a, b, c, g, f)
                    ready = max(det_slot(k, a * n + b, f),
                                det_slot(k, b * n + c, g),
                                det_slot(k, a * n + c, gf))
                    grouped[ready].append((k, a, b, c, g, f, gf))
    return grouped


def enumerate_sfunctors(src: SimplicialCategory, dst: SimplicialCategory, *,
                        under=None, over=None, first_only=False, max_nodes=None):
    """All functors g: src -> dst, in search order.

    ``under=(i, top)``, functors i: A -> src and top: A -> dst, keeps the g
    with g . i = top; ``over=(p, bottom)``, functors p: dst -> D and
    bottom: src -> D, keeps the g with p . g = bottom.  One node budget
    covers every object map: past ``max_nodes`` assignments in total,
    BudgetExceeded is raised.
    """
    if src.dim_bound != dst.dim_bound:
        raise InputError("dim_bound mismatch")
    n_src, n_dst = src.n_objects(), dst.n_objects()
    if n_src == 0:
        return [SFunctor(source=src, target=dst, ob_map=(), hom_maps={})]
    pairs = list(src.object_pairs())

    ob_pins, pins = {}, {}
    if under is not None:
        i, top = under
        for a in range(i.source.n_objects()):
            if ob_pins.setdefault(i.ob(a), top.ob(a)) != top.ob(a):
                return []
        pins = _pins_under([(i.ob(a) * n_src + i.ob(b), i.hom_maps[(a, b)],
                             top.hom_maps[(a, b)])
                            for (a, b) in i.source.object_pairs()])
        if pins is None:
            return []
    ob_choices = [[ob_pins[a]] if a in ob_pins else range(n_dst)
                  for a in range(n_src)]
    if over is not None:
        p, bottom = over
        ob_choices = [[x for x in cands if p.ob(x) == bottom.ob(a)]
                      for a, cands in enumerate(ob_choices)]

    comp_groups = _comp_instances(src)
    search = _SlotSearch([src.hom[pair] for pair in pairs], max_nodes)
    results = []
    for ob_map in itertools.product(*ob_choices):
        targets = [dst.hom[(ob_map[a], ob_map[b])] for (a, b) in pairs]
        run_pins = {**pins, **{(0, a * n_src + a, src.identities[a]):
                               dst.identities[ob_map[a]] for a in range(n_src)}}
        over_tables = None
        if over is not None:
            over_tables = [(p.hom_maps[(ob_map[a], ob_map[b])].assign,
                            bottom.hom_maps[(a, b)].assign) for (a, b) in pairs]

        def comp_ok(pos, image):
            for (k, a, b, c, g, f, gf) in comp_groups[pos]:
                img_f = image(k, a * n_src + b, f)
                img_g = image(k, b * n_src + c, g)
                img_gf = image(k, a * n_src + c, gf)
                if dst.comp(k, ob_map[a], ob_map[b], ob_map[c],
                            img_g, img_f) != img_gf:
                    return False
            return True

        for tables in search.run(targets, run_pins, over_tables, comp_ok):
            results.append(SFunctor(source=src, target=dst, ob_map=ob_map, hom_maps={
                pair: SSetMap(src.hom[pair], targets[q], tables[q])
                for q, pair in enumerate(pairs)}))
            if first_only:
                return results
    return results
