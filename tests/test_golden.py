"""Golden digests of the lifting checks, both acyclic-fibration routes, the
DK-equivalence check, the generic search, bounded factorization, the
pushouts along generating maps, the fundamental-group and weak-equivalence
checks, coset enumeration, homology, and the free-map and A2 checks on the
test fixtures.

Each corpus entry is one call; its result (or the exception it raised) is
put into a canonical form and hashed.  ``golden_digests.json`` keeps one
short digest per entry, so a change that moves a verdict, a witness, a
search order or a factorization names the entries it moved.  Regenerate
the file only when a result is meant to change:

    PYTHONPATH=src python -m tests.test_golden
"""
import dataclasses
import hashlib
import json
import pathlib

from sccat import model, scat
from sccat.constructions_basic import codiscrete_groupoid, inclusion_of_object, walking_arrow
from sccat.homology import betti, homology
from sccat.pi1 import coset_enumeration, edge_path_presentation, fundamental_group_trivial
from sccat.scat import (double_object, functor_U, functor_U_map, identity_sfunctor,
                        singleton_cat)
from sccat.sset import (SimplicialSet, SSetMap, boundary, boundary_inclusion, horn,
                        horn_inclusion, point, standard_simplex)
from sccat.ssetcheck import (is_acyclic_fibration_sset, is_kan_fibration,
                             is_weak_equivalence_sset, is_weakly_contractible,
                             unique_map_to_point)
from sccat.verdict import Budget
from sccat.words import (Attachment, glue_at_object, glue_for_c2, glue_for_u,
                         pushout_generating)
from tests.test_homology import (ORACLE_COMPLEXES, oracle_maps, triangle_on_one_edge,
                                 weak_equivalence_fixture_maps)
from tests.test_model import (MULTI_OBJECT_CATEGORIES, empty_to, marking_all_nonidentity,
                              multi_object_functors, two_copies_onto_one)
from tests.test_pi1 import PI1_SPACES, PRESENTATIONS
from tests.test_sset import IDENTIFIED_FACES
from tests.test_ssetcheck import LIFTING_COMPLEXES, SURFACE_MAPS, lifting_maps

DATA = pathlib.Path(__file__).with_name("golden_digests.json")

# the default budget and two small ones: a truncated dimension with one
# cell, and a step count that most joins, searches and pushouts overrun
BUDGETS = {"default": Budget(), "dim1": Budget(max_dim=1, max_words=1, max_steps=2_000),
           "steps40": Budget(max_dim=2, max_words=2, max_steps=40)}


def _dump(enc) -> str:
    return json.dumps(enc, separators=(",", ":"))


def encode(obj, known: dict):
    """A JSON-able canonical form of obj: containers by their items (sets
    and dicts sorted by the encoding of an item or key), dataclasses by
    their fields and ``__slots__`` objects by their public slots, each
    tagged with its type name; an exception by its type and message.
    Simplicial sets and maps equal exactly when their public slots do, so
    equal ones stand for one digest of their encoding, kept in ``known``."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, BaseException):
        return ["raised", type(obj).__name__, str(obj)]
    if isinstance(obj, (list, tuple)):
        return ["list" if isinstance(obj, list) else "tuple", [encode(v, known) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted((encode(v, known) for v in obj), key=_dump)]
    if isinstance(obj, dict):
        items = sorted(((_dump(encode(k, known)), encode(v, known)) for k, v in obj.items()),
                       key=lambda item: item[0])
        return ["dict", [list(item) for item in items]]
    if isinstance(obj, (SimplicialSet, SSetMap)):
        if obj not in known:
            known[obj] = [type(obj).__name__, _hash(_encode_fields(obj, known))]
        return known[obj]
    return _encode_fields(obj, known)


def _encode_fields(obj, known: dict):
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    else:
        names = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
        if not names:
            raise TypeError(f"no canonical form for {type(obj).__name__}")
    # the fields first: reading one may make deferred data and change the
    # type, as the first read of a deferred category's compose does
    fields = [[name, encode(getattr(obj, name), known)]
              for name in names if not name.startswith("_")]
    return [type(obj).__name__, fields]


def _hash(enc) -> str:
    return hashlib.sha256(_dump(enc).encode()).hexdigest()[:16]


def digests() -> dict:
    """Entry name -> the digest of the call's result, or of what it raised."""
    out, known = {}, {}
    for name, call in corpus().items():
        try:
            result = call()
        except Exception as e:  # an input error is a result too
            result = e
        out[name] = _hash(encode(result, known))
    return out


def _sset_maps():
    """Simplicial-set maps: the first map between each pair of the D2
    lifting complexes, and at D3 between each pair whose target is one of
    the last four, and the surface maps at D2."""
    out = {}
    for d in (2, 3):
        last = len(LIFTING_COMPLEXES[d])
        targets = range(last) if d == 2 else range(last - 4, last)
        for i in range(last):
            for j in targets:
                maps = lifting_maps(d, i, j)
                if maps:
                    out[f"D{d} {i}->{j}"] = maps[0]
    out.update({f"D2 surface #{q}": p for q, p in enumerate(SURFACE_MAPS[2])})
    return out


def _functors():
    """Functors: the first from each multi-object test category to each
    later one and to itself, U of a few lifting maps, and the fixtures
    that name squares against C1, C2 and A1."""
    last = len(MULTI_OBJECT_CATEGORIES)
    out = {f"multi {i}->{j}": fs[0] for i in range(last) for j in range(i, last)
           if (fs := multi_object_functors(i, j))}
    for d in (2, 3):
        for i, j in [(0, 2), (1, 2), (5, 3), (6, 1), (7, 0)]:
            out[f"U D{d} {i}->{j}"] = functor_U_map(lifting_maps(d, i, j)[0])
    out.update({
        "U bd1 D2": functor_U_map(boundary_inclusion(1, 2)),
        "U bd2 D2": functor_U_map(boundary_inclusion(2, 2)),
        "U bd3 D3": functor_U_map(boundary_inclusion(3, 3)),
        "U horn21 D2": functor_U_map(horn_inclusion(2, 1, 2)),
        "U horn31 D3": functor_U_map(horn_inclusion(3, 1, 3)),
        "x into codiscrete2": inclusion_of_object(codiscrete_groupoid(2, 2), 0,
                                                  singleton_cat(2)),
        "id codiscrete2": identity_sfunctor(codiscrete_groupoid(2, 2)),
    })
    return out


def _factorizations():
    """(functor, generator sets) against A1 and against C1 + C2 at D2 and D3."""
    return {
        "A1 U horn31 D3": (lambda: functor_U_map(horn_inclusion(3, 1, 3)),
                           lambda: model.generating_acyclic_a1(3, 3)),
        "A1 U horn21 D2": (lambda: functor_U_map(horn_inclusion(2, 1, 2)),
                           lambda: model.generating_acyclic_a1(2, 2)),
        "A1 two horn20 D2": (lambda: two_copies_onto_one(horn(2, 0, 2)),
                             lambda: model.generating_acyclic_a1(2, 2)),
        "A1 U bd1->Delta1 D3": (lambda: functor_U_map(lifting_maps(3, 1, 2)[0]),
                                lambda: model.generating_acyclic_a1(2, 3)),
        "C1C2 empty->arrow D2": (lambda: empty_to(walking_arrow(2)),
                                 lambda: model.generating_cofibrations(1, 2)),
        "C1C2 two bd1 D2": (lambda: two_copies_onto_one(boundary(1, 2)),
                            lambda: model.generating_cofibrations(1, 2)),
        "C1C2 x into codiscrete2 D2": (
            lambda: inclusion_of_object(codiscrete_groupoid(2, 2), 0, singleton_cat(2)),
            lambda: model.generating_cofibrations(2, 2)),
        "C1C2 empty->arrow D3": (lambda: empty_to(walking_arrow(3)),
                                 lambda: model.generating_cofibrations(1, 3)),
        "C1C2 U bd1 D3": (lambda: functor_U_map(boundary_inclusion(1, 3)),
                          lambda: model.generating_cofibrations(1, 3)),
    }


def _pi1_corpus() -> dict:
    """The fundamental-group and weak-equivalence side: weak contractibility,
    and the edge-path presentation and its triviality at every base, of each
    homology oracle complex and each space of the pi1 tests (the torus among
    them, with more than one generator); the weak-equivalence check on every
    map between two oracle complexes and on the fixture maps; coset
    enumeration on the presentations of the pi1 tests, capped as
    ``is_trivial_group`` caps it."""
    out = {}
    spaces = {f"D{d} {i}": x for d, xs in ORACLE_COMPLEXES.items() for i, x in enumerate(xs)}
    spaces.update({f"pi1 space {i}": x for i, x in enumerate(PI1_SPACES)})
    for name, x in spaces.items():
        for b, budget in BUDGETS.items():
            out[f"contractible {name} {b}"] = (
                lambda x=x, budget=budget: is_weakly_contractible(x, budget))
        for base in range(x.size(0)):
            out[f"edge-path {name} at {base}"] = (
                lambda x=x, base=base: edge_path_presentation(x, base))
            for b, budget in BUDGETS.items():
                out[f"pi1 trivial {name} at {base} {b}"] = (
                    lambda x=x, base=base, budget=budget:
                    fundamental_group_trivial(x, base, budget))
    maps = {f"D{d} {i}->{j} #{q}": f for d, xs in ORACLE_COMPLEXES.items()
            for i in range(len(xs)) for j in range(len(xs))
            for q, f in enumerate(oracle_maps(d, i, j))}
    maps.update({f"fixture #{q}": f for q, f in enumerate(weak_equivalence_fixture_maps())})
    for name, f in maps.items():
        for b, budget in BUDGETS.items():
            out[f"weq {name} {b}"] = (
                lambda f=f, budget=budget: is_weak_equivalence_sset(f, budget))
    for q, pres in enumerate(PRESENTATIONS):
        for b, budget in BUDGETS.items():
            cap = max(2, min(budget.max_steps, 20000))
            out[f"coset_enumeration #{q} {b}"] = (
                lambda pres=pres, cap=cap: coset_enumeration(pres, cap))
    return out


def _u_pushout(inc, budget):
    """U(inc) pushed out into U of inc's target, glued along inc itself."""
    base = functor_U(inc.target)
    att = Attachment.from_sset_mono(inc)
    return pushout_generating(base, att, glue_for_u(att, base, 0, 1, inc), budget)


def _c2_pushout(budget):
    """A new object next to codiscrete(2)."""
    base, att = codiscrete_groupoid(2, 2), Attachment.c2(2)
    return pushout_generating(base, att, glue_for_c2(att, base), budget)


def _a2_pushout(budget):
    """codiscrete(2) attached along its object 0 to the object 1 of another."""
    base = codiscrete_groupoid(2, 2)
    att = Attachment.a2(codiscrete_groupoid(2, 2), 0)
    return pushout_generating(base, att, glue_at_object(att, base, 1), budget)


def _pushout_corpus() -> dict:
    """Pushouts along generating maps: U of every boundary and horn
    inclusion into Delta[m], for 1 <= m <= d <= 3, pushed out into
    U(Delta[m]) along the inclusion itself, and the C2 and A2 pushouts
    above, each at every golden budget; the largest of the benchmark's
    pushouts, U of the horn (4, 2) at D4, at the default budget only."""
    incs = {f"bd{m} D{d}": (lambda m=m, d=d: boundary_inclusion(m, d))
            for d in (1, 2, 3) for m in range(1, d + 1)}
    incs.update({f"horn{m}{k} D{d}": (lambda m=m, k=k, d=d: horn_inclusion(m, k, d))
                 for d in (1, 2, 3) for m in range(1, d + 1) for k in range(m + 1)})
    out = {f"pushout U {name} {b}": (lambda inc=inc, budget=budget: _u_pushout(inc(), budget))
           for name, inc in incs.items() for b, budget in BUDGETS.items()}
    for b, budget in BUDGETS.items():
        out[f"pushout C2 codiscrete2 D2 {b}"] = lambda budget=budget: _c2_pushout(budget)
        out[f"pushout A2 codiscrete2 at 1 D2 {b}"] = lambda budget=budget: _a2_pushout(budget)
    out["pushout U horn42 D4 default"] = (
        lambda: _u_pushout(horn_inclusion(4, 2, 4), BUDGETS["default"]))
    return out


def _homology_corpus() -> dict:
    """H_k and its Betti number at every degree 0..dim_bound, and at the
    first degree past it, of each homology oracle complex, of each set with
    identified faces at D2-D4, and of the triangle on one edge, whose
    boundary squared is nonzero.  The triangle's constructor raises, so it
    is built inside each of its calls."""
    spaces = {f"D{d} {i}": x for d, xs in ORACLE_COMPLEXES.items() for i, x in enumerate(xs)}
    spaces.update({f"{name} D{d}": make(d) for name, make in IDENTIFIED_FACES.items()
                   for d in (2, 3, 4)})
    out = {f"{check.__name__} {name} in {k}": (lambda check=check, x=x, k=k: check(x, k))
           for name, x in spaces.items() for k in range(x.dim_bound + 2)
           for check in (homology, betti)}
    out.update({f"{check.__name__} triangle on one edge in {k}": (
        lambda check=check, k=k: check(triangle_on_one_edge(), k))
        for k in range(4) for check in (homology, betti)})
    return out


# the free-map step caps: the default, three that cut the decisions on
# U(bd Delta[1]) (six words) short at different points, and one that cuts
# the A2 check on codiscrete(2) (three words) short
FREE_MAP_CAPS = (10**6, 2, 3, 5, 6)


def _free_map_corpus() -> dict:
    """The free-map check on the fixtures of the model tests: the coproduct
    inclusion {x} + {y} -> H, the identity of H and the inclusion of the
    object 0, for H = U(bd Delta[1]), U(pt), U(Delta[1]), codiscrete(2) and
    the walking arrow, under no marking, under every simplex but the
    identities marked and closed under degeneracies, and under the 0-simplex
    0 of Hom(0, 1) marked alone; the two maps that are not monomorphisms.
    The A2 check on the inclusion of the object 0 into each H and into
    codiscrete(3), with the full marking, the empty one and none given.
    Each at every step cap of ``FREE_MAP_CAPS``, the A2 check through
    ``max_steps``."""
    targets = {"U bd1": functor_U(boundary(1, 2)), "U pt": functor_U(point(2)),
               "U Delta1": functor_U(standard_simplex(1, 2)),
               "codiscrete2": codiscrete_groupoid(2, 2), "arrow": walking_arrow(2)}
    maps = {"collapse of doubled pt": lambda: double_object(singleton_cat(2), 0)[1],
            "U Delta1->pt": lambda: functor_U_map(unique_map_to_point(standard_simplex(1, 2)))}
    out = {}
    for name, h in targets.items():
        markings = {"none": model.GeneratorMarking({}), "all": marking_all_nonidentity(h),
                    "one unclosed": model.GeneratorMarking({(0, 1): frozenset({(0, 0)})})}
        fs = {"coproduct": model.coproduct_inclusion_functor(h), "identity": identity_sfunctor(h),
              "object 0": inclusion_of_object(h, 0, singleton_cat(2))}
        for cap in FREE_MAP_CAPS:
            out.update({f"is_free_map {fname} {name} marking {mname} cap {cap}": (
                lambda f=f, m=m, cap=cap: model.is_free_map(f, m, max_steps=cap))
                for fname, f in fs.items() for mname, m in markings.items()})
            for mname, m in [("absent", None), ("none", markings["none"]),
                             ("all", markings["all"])]:
                out[f"is_a2_candidate {name} marking {mname} cap {cap}"] = (
                    lambda inc=fs["object 0"], m=m, cap=cap:
                    model.is_a2_candidate(inc, Budget(max_steps=cap), marking=m))
    for cap in FREE_MAP_CAPS:
        out.update({f"is_free_map {name} cap {cap}": (
            lambda f=f, cap=cap: model.is_free_map(f(), model.GeneratorMarking({}),
                                                   max_steps=cap))
            for name, f in maps.items()})
        out[f"is_a2_candidate codiscrete3 cap {cap}"] = (
            lambda cap=cap: model.is_a2_candidate(
                inclusion_of_object(codiscrete_groupoid(3, 2), 0, singleton_cat(2)),
                Budget(max_steps=cap)))
    return out


def corpus() -> dict:
    """Entry name -> a call with no arguments."""
    out = _pi1_corpus()
    out.update(_pushout_corpus())
    out.update(_homology_corpus())
    out.update(_free_map_corpus())
    for name, p in _sset_maps().items():
        for b, budget in BUDGETS.items():
            out[f"kan {name} {b}"] = lambda p=p, budget=budget: is_kan_fibration(p, budget)
            out[f"acyclic-sset {name} {b}"] = (
                lambda p=p, budget=budget: is_acyclic_fibration_sset(p, budget))
    functors = _functors()
    for name, f in functors.items():
        for b, budget in BUDGETS.items():
            for check in (model.is_dk_equivalence, model.is_fibration,
                          model.is_acyclic_fibration, model.is_acyclic_fibration_by_rlp):
                out[f"{check.__name__} {name} {b}"] = (
                    lambda check=check, f=f, budget=budget: check(f, budget))
    for name in ("multi 2->3", "multi 1->3", "multi 4->6", "U D2 0->2", "U bd1 D2",
                 "x into codiscrete2"):
        f = functors[name]
        for b, budget in BUDGETS.items():
            for gens in ("cofibrations", "acyclic_a1"):
                make = getattr(model, f"generating_{gens}")
                out[f"has_rlp_against_set {gens} {name} {b}"] = (
                    lambda f=f, make=make, budget=budget:
                    model.has_rlp_against_set(f, make(1, 2), budget))
    for name, (f, gens) in _factorizations().items():
        for b, budget in BUDGETS.items():
            out[f"factor_bounded {name} {b}"] = (
                lambda f=f, gens=gens, budget=budget: model.factor_bounded(f(), gens(), budget))
    return out


def test_encoding_is_canonical():
    assert (encode({3: {2, 1}, 1: (frozenset(), [None])}, {})
            == encode({1: (set(), [None]), 3: {1, 2}}, {}))
    assert encode({"a": 1, "b": 2}, {}) == encode({"b": 2, "a": 1}, {})
    assert encode((1, 2), {}) != encode([1, 2], {})
    assert encode(ValueError("x"), {}) == ["raised", "ValueError", "x"]
    g = model.generating_cofibrations(0, 2)[0]
    assert [name for name, _ in encode(g, {})[1]] == ["name", "dim", "cell", "dim_bound"]


def test_a_deferred_category_encodes_as_after_its_first_read():
    deferred, read = walking_arrow(2), walking_arrow(2)
    assert read.compose and type(deferred) is scat._DeferredCategory
    assert encode(deferred, {}) == encode(read, {})
    assert encode(deferred, {})[0] == "SimplicialCategory"


def test_results_match_the_golden_digests():
    want, got = json.loads(DATA.read_text()), digests()
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert moved == []


if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n")
