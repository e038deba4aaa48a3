"""The public boundary: every int slot of a public function rejects what is
not an int in range with InputError (a ValueError), never with an error
that leaks from inside, and never by returning.

The sweep covers the public functions and constructors of ``sset``,
``scat``, ``constructions_basic``, ``pi1``, ``cat`` and ``words``, the
degree of ``homology``, ``betti`` and ``homology_map_is_iso``, the
generating sets, ``GeneratorMap`` and ``is_free_map`` of ``model`` and the
fields of ``Budget``; ``test_pi1`` checks the letters of a presentation's
relators the same way.  Methods of built objects (``size``, ``face``,
``comp``, ...) index data that is already checked and are not swept.
Every ``budget=`` slot of the package takes None or a ``Budget`` and
rejects anything else with InputError on entry.  Every marking slot of
``model`` takes only a ``GeneratorMarking``, and a marking's dict is
checked for its shape before it is read.  The public constructors of
hand-built data, ``SimplicialSet`` and ``SimplicialCategory``, refuse
tables that break the simplicial laws, or that the validators cannot read,
with InputError naming the first violation.
"""
import inspect
import re

import pytest

from sccat import (cat, constructions_basic, homology, intmat, model, pi1, scat, search, sset,
                   ssetcheck, verdict, words)
from sccat.cat import is_isomorphism
from sccat.constructions_basic import codiscrete_groupoid, inclusion_of_object, walking_arrow
from sccat.homology import betti, homology_map_is_iso
from sccat.model import (GeneratorMap, GeneratorMarking, LiftingProblem, c2_generator,
                         coproduct_inclusion_functor, generating_acyclic_a1,
                         generating_cofibrations, is_free_map)
from sccat.pi1 import (GroupPresentation, coset_enumeration, edge_path_data,
                       edge_path_presentation, fundamental_group_trivial)
from sccat.scat import (SimplicialCategory, build_compose, double_object, empty_cat,
                        full_subcategory, functor_U_map, identity_sfunctor,
                        is_homotopy_equivalence, pi0_category, singleton_cat, u_functor)
from sccat.sset import (SimplicialSet, attach_nondeg, boundary, boundary_inclusion,
                        degeneracy_words, derive_records, empty_sset, from_nondegenerate,
                        from_simplex_tuples, from_simplicial_complex, horn, horn_inclusion,
                        identity_map, point, standard_simplex, word_after_degeneracy)
from sccat.verdict import Budget, InputError
from sccat.words import Attachment, glue_at_object, glue_for_u

D = 2
VALUES = [2.0, True, -1, None, "a"]


def _records_of_a_point():
    pt = point(D)
    return ([[s.faces for s in level] for level in pt.dims],
            [[s.degens for s in level] for level in pt.dims[:D]])


def _u_functor(gx, gy):
    g = functor_U_map(horn_inclusion(2, 1, D))
    return u_functor(g.source, g.target, gx, gy, g.hom_maps[(0, 1)])


def _is_homotopy_equivalence(a=0, b=0, e=0):
    return is_homotopy_equivalence(codiscrete_groupoid(2, D), a, b, e)


def _is_isomorphism(a=0, b=1, m=0):
    return is_isomorphism(pi0_category(codiscrete_groupoid(2, D)), a, b, m)


def _is_free_map(max_steps):
    """{x} + {y} -> U(bd Delta[1]) with every simplex but the identities marked."""
    h = scat.functor_U(boundary(1, D))
    marked = {}
    for (a, b) in h.object_pairs():
        entries = {(k, i) for k in range(D + 1) for i in range(h.hom[(a, b)].size(k))
                   if not (a == b and i == h.identity_tower(a, k))}
        if entries:
            marked[(a, b)] = entries
    return is_free_map(coproduct_inclusion_functor(h),
                       GeneratorMarking.close_under_degeneracies(h, marked), max_steps=max_steps)


def _glue_for_u(gx, gy):
    i = horn_inclusion(2, 1, D)
    base = functor_U_map(i).target
    return glue_for_u(Attachment.from_sset_mono(i), base, gx, gy, i)


# "module.name" -> {int slot: the call with the value put in that slot, every
# other argument valid}
SWEEP = {
    "sset.word_after_degeneracy": {"j": lambda v: word_after_degeneracy((1,), v)},
    "sset.degeneracy_words": {"base_dim": lambda v: degeneracy_words(v, 1),
                              "length": lambda v: degeneracy_words(1, v)},
    "sset.SimplicialSet": {"dim_bound": lambda v: SimplicialSet(v, point(D).dims)},
    "sset.derive_records": {"dim_bound": lambda v: derive_records(v, *_records_of_a_point())},
    "sset.from_nondegenerate": {"dim_bound": lambda v: from_nondegenerate(v, [[[]]])},
    "sset.from_simplex_tuples": {"dim_bound": lambda v: from_simplex_tuples(v, [(0,)])},
    "sset.standard_simplex": {"n": lambda v: standard_simplex(v, D),
                              "dim_bound": lambda v: standard_simplex(1, v)},
    "sset.boundary": {"n": lambda v: boundary(v, D), "dim_bound": lambda v: boundary(1, v)},
    "sset.horn": {"n": lambda v: horn(v, 0, D), "k": lambda v: horn(2, v, D),
                  "dim_bound": lambda v: horn(2, 0, v)},
    "sset.point": {"dim_bound": point},
    "sset.empty_sset": {"dim_bound": empty_sset},
    "sset.from_simplicial_complex": {
        "dim_bound": lambda v: from_simplicial_complex([(0, 1)], v)},
    "sset.attach_nondeg": {"k": lambda v: attach_nondeg(point(D), v, [])},
    "sset.boundary_inclusion": {"n": lambda v: boundary_inclusion(v, D),
                                "dim_bound": lambda v: boundary_inclusion(1, v)},
    "sset.horn_inclusion": {"n": lambda v: horn_inclusion(v, 0, D),
                            "k": lambda v: horn_inclusion(2, v, D),
                            "dim_bound": lambda v: horn_inclusion(2, 0, v)},
    # dim_bound=None is read off the homs, so the sweep gives no homs
    "scat.SimplicialCategory": {
        "dim_bound": lambda v: SimplicialCategory((), {}, {}, (), dim_bound=v)},
    "scat.build_compose": {
        "n_objects": lambda v: build_compose(v, {(0, 0): point(D)}, D, None, (0,)),
        "dim_bound": lambda v: build_compose(1, {(0, 0): point(D)}, v, None, (0,))},
    "scat.empty_cat": {"dim_bound": empty_cat},
    "scat.singleton_cat": {"dim_bound": singleton_cat},
    "scat.u_functor": {"gx": lambda v: _u_functor(v, 1), "gy": lambda v: _u_functor(0, v)},
    "scat.full_subcategory": {"objs": lambda v: full_subcategory(walking_arrow(D), [0, v])},
    "scat.double_object": {"a": lambda v: double_object(walking_arrow(D), v)},
    "scat.is_homotopy_equivalence": {"a": lambda v: _is_homotopy_equivalence(a=v),
                                     "b": lambda v: _is_homotopy_equivalence(b=v),
                                     "e": lambda v: _is_homotopy_equivalence(e=v)},
    "constructions_basic.walking_arrow": {"dim_bound": walking_arrow},
    "constructions_basic.codiscrete_groupoid": {
        "n_objects": lambda v: codiscrete_groupoid(v, D),
        "dim_bound": lambda v: codiscrete_groupoid(2, v)},
    "constructions_basic.inclusion_of_object": {
        "a": lambda v: inclusion_of_object(walking_arrow(D), v, singleton_cat(D))},
    "homology.homology": {"k": lambda v: homology.homology(boundary(1, D), v)},
    "homology.betti": {"k": lambda v: betti(boundary(1, D), v)},
    "homology.homology_map_is_iso": {
        "k": lambda v: homology_map_is_iso(identity_map(boundary(1, D)), v)},
    "model.GeneratorMap": {"dim": lambda v: GeneratorMap("C2", v, None, D, None),
                           "dim_bound": lambda v: GeneratorMap("C2", 0, None, v, None)},
    "model.c2_generator": {"dim_bound": c2_generator},
    "model.generating_cofibrations": {"n_max": lambda v: generating_cofibrations(v, D),
                                      "dim_bound": lambda v: generating_cofibrations(1, v)},
    "model.generating_acyclic_a1": {"n_max": lambda v: generating_acyclic_a1(v, D),
                                    "dim_bound": lambda v: generating_acyclic_a1(1, v)},
    "model.is_free_map": {"max_steps": _is_free_map},
    "pi1.coset_enumeration": {
        "max_cosets": lambda v: coset_enumeration(GroupPresentation(("a",), ((1, 1),)), v)},
    "pi1.edge_path_data": {"base": lambda v: edge_path_data(boundary(1, D), v)},
    "pi1.edge_path_presentation": {"base": lambda v: edge_path_presentation(boundary(1, D), v)},
    "pi1.fundamental_group_trivial": {
        "base": lambda v: fundamental_group_trivial(boundary(1, D), v)},
    "cat.is_isomorphism": {"a": lambda v: _is_isomorphism(a=v),
                           "b": lambda v: _is_isomorphism(b=v),
                           "m": lambda v: _is_isomorphism(m=v)},
    "words.glue_at_object": {"obj": lambda v: glue_at_object(
        Attachment.a2(codiscrete_groupoid(2, D)), codiscrete_groupoid(2, D), v)},
    "words.glue_for_u": {"gx": lambda v: _glue_for_u(v, 1), "gy": lambda v: _glue_for_u(0, v)},
    "verdict.Budget": {"max_dim": lambda v: Budget(max_dim=v),
                       "max_words": lambda v: Budget(max_words=v),
                       "max_steps": lambda v: Budget(max_steps=v)},
}

# the swept modules, and for homology and model only the names above
SCOPE = {sset: None, scat: None, constructions_basic: None,
         homology: {"homology", "betti", "homology_map_is_iso"},
         model: {"GeneratorMap", "c2_generator", "generating_cofibrations",
                 "generating_acyclic_a1", "is_free_map"},
         verdict: {"Budget"}, pi1: None, cat: None, words: None}
# a record type: a plain tuple that only sset.derive_records makes
NOT_SWEPT = {"sset.Simplex"}


@pytest.mark.parametrize("slot", [(name, arg) for name, slots in SWEEP.items()
                                  for arg in slots], ids="-".join)
@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_every_int_slot_raises_input_or_value_error(slot, value):
    name, arg = slot
    try:
        out = SWEEP[name][arg](value)
    except ValueError:      # InputError included
        return
    pytest.fail(f"{name}({arg}={value!r}) returned {out!r}")


def _int_slots(module, names):
    """("module.name", parameter) for each public function or class of the
    module (of ``names`` only, when given) with a parameter annotated int."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                or not callable(obj) or (names is not None and name not in names)):
            continue
        for p in inspect.signature(obj).parameters.values():
            if re.search(r"\bint\b", str(p.annotation)):
                yield f"{short}.{name}", p.name


def test_the_sweep_covers_every_public_int_slot():
    found = {slot for module, names in SCOPE.items() for slot in _int_slots(module, names)
             if slot[0] not in NOT_SWEPT}
    swept = {(name, arg) for name, slots in SWEEP.items() for arg in slots}
    assert found - swept == set()
    # and names no function that has gone
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in SCOPE}
    assert all(callable(getattr(modules[name.split(".")[0]], name.split(".")[1], None))
               for name in SWEEP)


# -- object-index slots ------------------------------------------------------------

def _a2_attachment(x_index):
    return Attachment.a2(codiscrete_groupoid(2, D), x_index)


@pytest.mark.parametrize("call", [
    lambda c: full_subcategory(c, [True]),
    lambda c: double_object(c, True),
    lambda c: double_object(c, 1.0),
    lambda c: inclusion_of_object(c, True, singleton_cat(D)),
    lambda c: inclusion_of_object(c, 1.0, singleton_cat(D)),
    lambda c: _a2_attachment(True),
    lambda c: is_homotopy_equivalence(c, 0, 0, 0.0),
    lambda c: edge_path_data(boundary(1, D), True),
    lambda c: edge_path_data(boundary(1, D), 0.0),
], ids=["full_subcategory-True", "double_object-True", "double_object-1.0",
        "inclusion_of_object-True", "inclusion_of_object-1.0", "a2-True",
        "is_homotopy_equivalence-0.0", "edge_path_data-True", "edge_path_data-0.0"])
def test_object_index_slots_take_only_ints(call):
    with pytest.raises(InputError):
        call(codiscrete_groupoid(2, D))


# -- the public constructor's keys ---------------------------------------------------

@pytest.mark.parametrize("hom, compose", [
    ({(0, 0): point(D)}, {(0, 0, 5): ()}),
    ({(0, 0): point(D), (3, 3): point(D)}, {}),
], ids=["compose-triple", "hom-pair"])
def test_the_public_constructor_rejects_keys_of_unknown_objects(hom, compose):
    with pytest.raises(InputError, match="keys must be pairs and triples of objects"):
        SimplicialCategory(("x",), hom, compose, (0,))


# -- hom slots of the category constructors ---------------------------------------

@pytest.mark.parametrize("call", [
    lambda: build_compose(1, {(0, 0): point(D)}, D + 1, None, (0,)),
    lambda: build_compose(1, {(0, 0): 5}, D, None, (0,)),
    lambda: SimplicialCategory(("x",), {(0, 0): 5}, {}, (0,)),
], ids=["build_compose-dim_bound-above-the-hom", "build_compose-int-hom",
        "SimplicialCategory-int-hom"])
def test_a_hom_must_be_a_simplicial_set_at_the_dim_bound(call):
    with pytest.raises(InputError, match="every hom must be a SimplicialSet"):
        call()


# -- tables that break the simplicial laws ------------------------------------------

def _state_tables(above_0):
    """The composition tables of one object x with Hom(x, x) = Delta[1] at
    D, composed by max in dimension 0 and by ``above_0`` above it."""
    return build_compose(1, {(0, 0): standard_simplex(1, D)}, D,
                         lambda k, a, b, c, g, f: above_0(g, f) if k else max(g, f), (0,))


def _simplex_dims(broken):
    """The records of Delta[2] at D, with s_0 of the vertex 0 sent to the
    edge 01 if ``broken``."""
    dims = [list(level) for level in standard_simplex(2, D).dims]
    if broken:
        dims[0][0] = dims[0][0]._replace(degens=(1,))
    return dims


# "module.name" -> (the constructor's message on the broken tables, the call
# with the broken tables (True) or the sound ones (False))
INVALID_TABLES = {
    # every composite above dimension 0 sent to the identity tower, simplex 0
    # of each level: dimension 1 is not associative (22 violations in all);
    # by max in every dimension, the tables make a simplicial monoid
    "scat.SimplicialCategory": (
        "not a simplicial category: dim 1: associativity fails", lambda broken: SimplicialCategory(
            ("x",), {(0, 0): standard_simplex(1, D)},
            _state_tables((lambda g, f: 0) if broken else max), (0,))),
    "sset.SimplicialSet": ("not a simplicial set: dim 0 simplex 0: s_0 s_0 != s_1 s_0",
                           lambda broken: SimplicialSet(D, _simplex_dims(broken))),
}


@pytest.mark.parametrize("name", sorted(INVALID_TABLES))
def test_a_public_constructor_refuses_tables_that_break_the_laws(name):
    message, call = INVALID_TABLES[name]
    with pytest.raises(InputError, match=message):
        call(True)
    call(False)


@pytest.mark.parametrize("call", [
    lambda: SimplicialSet(1, [5, ()]),
    lambda: SimplicialSet(1, [[None], []]),
    lambda: SimplicialCategory(("x",), {(0, 0): point(D)}, {(0, 0, 0): ((("a",),),) * 3}, (0,)),
    lambda: SimplicialCategory(("x",), {(0, 0): point(D)}, {(0, 0, 0): (5,) * 3}, (0,)),
    lambda: SimplicialCategory(("x",), {(0, 0): point(D)}, {}, ("a",)),
], ids=["set-level-no-sequence", "set-record-none", "category-entry-str",
        "category-row-no-sequence", "category-identity-str"])
def test_a_public_constructor_refuses_tables_it_cannot_read(call):
    with pytest.raises(InputError, match="not a simplicial"):
        call()


def test_a_degree_that_is_no_int_raises_after_the_int_degree_is_memoized():
    x = boundary(1, D)
    assert homology.homology(x, 1) == (0, [])
    for v in (1.0, True):
        with pytest.raises(InputError, match="homology degree must be an int"):
            homology.homology(x, v)


def test_is_free_map_takes_a_step_cap_of_at_least_one():
    assert _is_free_map(1)[0] is None
    with pytest.raises(InputError, match="max_steps must be an int in 1.."):
        _is_free_map(0)


# -- budget slots ----------------------------------------------------------------------

def _one():
    return identity_sfunctor(singleton_cat(D))


def _pushout(budget):
    i = horn_inclusion(2, 1, D)
    base, att = functor_U_map(i).target, Attachment.from_sset_mono(i)
    return words.pushout_generating(base, att, glue_for_u(att, base, 0, 1, i), budget)


# "module.name" -> the call with the value put in its budget slot, every other
# argument valid
BUDGET_SWEEP = {
    "model.solve_lifting": lambda b: model.solve_lifting(
        LiftingProblem(left=_one(), right=_one(), top=_one(), bottom=_one()), b),
    "model.enumerate_problem_squares": lambda b: model.enumerate_problem_squares(
        c2_generator(D).map, _one(), b),
    "model.has_rlp_against_set": lambda b: model.has_rlp_against_set(
        _one(), [c2_generator(D)], b),
    "model.is_dk_equivalence": lambda b: model.is_dk_equivalence(_one(), b),
    "model.is_fibration": lambda b: model.is_fibration(_one(), b),
    "model.is_acyclic_fibration": lambda b: model.is_acyclic_fibration(_one(), b),
    "model.is_acyclic_fibration_by_rlp": lambda b: model.is_acyclic_fibration_by_rlp(_one(), b),
    "model.is_a2_candidate": lambda b: model.is_a2_candidate(
        inclusion_of_object(codiscrete_groupoid(2, D), 0, singleton_cat(D)), b),
    "model.factor_bounded": lambda b: model.factor_bounded(_one(), [c2_generator(D)], b),
    "pi1.is_trivial_group": lambda b: pi1.is_trivial_group(
        GroupPresentation(("a",), ((1,),)), b),
    "pi1.fundamental_group_trivial": lambda b: fundamental_group_trivial(boundary(1, D), 0, b),
    "ssetcheck.is_weakly_contractible": lambda b: ssetcheck.is_weakly_contractible(point(D), b),
    "ssetcheck.is_weak_equivalence_sset": lambda b: ssetcheck.is_weak_equivalence_sset(
        identity_map(point(D)), b),
    "ssetcheck.has_rlp_sset": lambda b: ssetcheck.has_rlp_sset(
        identity_map(point(D)), boundary_inclusion(1, D), b),
    "ssetcheck.is_kan_fibration": lambda b: ssetcheck.is_kan_fibration(
        identity_map(point(D)), b),
    "ssetcheck.is_acyclic_fibration_sset": lambda b: ssetcheck.is_acyclic_fibration_sset(
        identity_map(point(D)), b),
    "words.pushout_generating": _pushout,
}


@pytest.mark.parametrize("name", sorted(BUDGET_SWEEP))
@pytest.mark.parametrize("value", [5, "a", {}, 0], ids=repr)
def test_every_budget_slot_takes_only_none_or_a_budget(name, value):
    with pytest.raises(InputError, match="budget must be a Budget or None"):
        BUDGET_SWEEP[name](value)


@pytest.mark.parametrize("name", sorted(BUDGET_SWEEP))
def test_every_budget_slot_takes_none_and_a_budget(name):
    BUDGET_SWEEP[name](None)
    BUDGET_SWEEP[name](Budget(max_steps=50))


def test_the_budget_sweep_covers_every_public_budget_slot():
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (cat, constructions_basic, homology, intmat, model, pi1, scat,
                            search, sset, ssetcheck, verdict, words)
             for name, obj in vars(module).items()
             if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
             and inspect.isfunction(obj) and "budget" in inspect.signature(obj).parameters}
    assert found == set(BUDGET_SWEEP)


# -- marking slots -----------------------------------------------------------------------

def _u_bd1():
    return scat.functor_U(boundary(1, D))


# "name" -> the call with the value put in its marking slot, every other argument
# valid; the first two take the plain dict of a marking, the others a GeneratorMarking
MARKED_SWEEP = {
    "model.GeneratorMarking": GeneratorMarking,
    "model.GeneratorMarking.close_under_degeneracies":
        lambda m: GeneratorMarking.close_under_degeneracies(_u_bd1(), m),
}
MARKING_SWEEP = {
    "model.validate_marking": lambda m: model.validate_marking(_u_bd1(), m),
    "model.is_free_map": lambda m: is_free_map(coproduct_inclusion_functor(_u_bd1()), m),
    "model.is_a2_candidate": lambda m: model.is_a2_candidate(
        inclusion_of_object(codiscrete_groupoid(2, D), 0, singleton_cat(D)), marking=m),
}
BAD_MARKED = {"int": 5, "none": None, "str": "a", "list-of-entries": {(0, 1): [(0, 0)]},
              "str-dimension": {(0, 1): frozenset({("a", 0)})},
              "int-entry": {(0, 1): frozenset({0})},
              "bool-index": {(0, 1): frozenset({(0, True)})},
              "triple-entry": {(0, 1): frozenset({(0, 0, 0)})}}


@pytest.mark.parametrize("name", sorted(MARKED_SWEEP))
@pytest.mark.parametrize("value", sorted(BAD_MARKED))
def test_every_marked_slot_checks_the_shape_first(name, value):
    with pytest.raises(InputError, match="a marking maps hom pairs to sets of"):
        MARKED_SWEEP[name](BAD_MARKED[value])


@pytest.mark.parametrize("marked", [{(5, 5): set()}, {(0, 1): {(0, 99)}}, {(0, 1): {(-1, 0)}}],
                         ids=["hom", "simplex", "dimension"])
def test_closing_a_marking_names_an_unknown_hom_or_simplex(marked):
    with pytest.raises(InputError, match="names no hom or simplex of the category"):
        GeneratorMarking.close_under_degeneracies(_u_bd1(), marked)


@pytest.mark.parametrize("name", sorted(MARKING_SWEEP))
@pytest.mark.parametrize("value", [5, "a", {}, {(0, 1): frozenset()}], ids=repr)
def test_every_marking_slot_takes_only_a_generator_marking(name, value):
    with pytest.raises(InputError, match="marking must be a GeneratorMarking"):
        MARKING_SWEEP[name](value)


@pytest.mark.parametrize("name", sorted(MARKING_SWEEP))
def test_every_marking_slot_takes_a_generator_marking(name):
    MARKING_SWEEP[name](GeneratorMarking({(0, 1): frozenset({(0, 0)})}))


def test_a_free_map_check_with_a_marking_of_the_wrong_shape_raises_input_error():
    for entry in (("a", 0), 0):
        with pytest.raises(InputError):
            is_free_map(coproduct_inclusion_functor(_u_bd1()),
                        GeneratorMarking({(0, 1): frozenset({entry})}))


def test_the_marking_sweep_covers_every_public_marking_slot():
    found = {f"model.{name}" for name, obj in vars(model).items()
             if not name.startswith("_") and getattr(obj, "__module__", None) == model.__name__
             and inspect.isfunction(obj) and {"marking", "marked"} & set(
                 inspect.signature(obj).parameters)}
    assert found == set(MARKING_SWEEP)
