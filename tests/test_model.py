from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sccat import model, ssetcheck
from sccat.constructions_basic import (codiscrete_groupoid,
                                       inclusion_of_object, walking_arrow)
from sccat.model import (
    CellRecord, FactorResult, GeneratorMap, GeneratorMarking, LiftingProblem, LiftWitness,
    RetractWitness, _first_failure,
    c2_generator, coproduct_inclusion_functor,
    enumerate_problem_squares, factor_bounded, generating_acyclic_a1,
    generating_cofibrations, has_rlp_against_set, is_a2_candidate,
    is_acyclic_fibration, is_acyclic_fibration_by_rlp, is_dk_equivalence,
    is_fibration, is_free_map, solve_lifting, validate_marking, verify_lift,
    verify_retract,
)
from sccat.scat import (SFunctor, SimplicialCategory, build_compose,
                        compose_sfunctors, coproduct, double_object, empty_cat,
                        full_subcategory, functor_U, functor_U_map, identity_sfunctor,
                        singleton_cat, validate_scat, validate_sfunctor)
from sccat.search import enumerate_sfunctors
from sccat.sset import (SSetMap, _check_natural, boundary, boundary_inclusion, empty_sset,
                        horn, horn_inclusion, identity_map, point, standard_simplex)
from sccat.ssetcheck import _first_miss, _first_square, unique_map_to_point
from sccat.verdict import (BUDGET, Budget, BudgetExceeded, InputError, _Steps,
                           aggregate)
from sccat.words import Attachment, pushout_generating, pushout_mediating
from tests.test_ssetcheck import (LIFTING_COMPLEXES, _rlp_by_faces, first_square_at_last_slot,
                                  fold_map, lifting_maps)

D = 2
B = Budget(max_dim=2, max_words=16, max_steps=500_000)


def _rlp_by_homs(f, cell, steps):
    """Whether f has the RLP against U(i), i the horn (n, k) or, k None, the
    boundary of Delta[n]: whether every hom map of f has it against i."""
    n, k = cell
    return all(_rlp_by_faces(f.hom_maps[pair], n, k, steps)
               for pair in f.source.object_pairs())


def empty_to(cat):
    return SFunctor(source=empty_cat(cat.dim_bound), target=cat, ob_map=(),
                    hom_maps={})


# -- DK-equivalence ------------------------------------------------------------

def test_identity_is_dk_equivalence():
    for cat in [walking_arrow(D), codiscrete_groupoid(2, D),
                functor_U(boundary(1, D))]:
        assert is_dk_equivalence(identity_sfunctor(cat), B).is_yes


def test_singleton_into_codiscrete_is_dk_equivalence():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    assert is_dk_equivalence(inc, B).is_yes


def test_U_boundary_inclusion_not_dk_equivalence():
    f = functor_U_map(boundary_inclusion(2, D))
    v = is_dk_equivalence(f, B)
    assert v.is_no
    assert v.witness["w1_failure"] == (0, 1)


def test_two_singletons_into_codiscrete_not_w2_failure():
    # {x} + {y} -> codiscrete(2): hom maps are weak equivalences? the empty
    # inclusion into a point is not, so W1 already fails
    cat = codiscrete_groupoid(2, D)
    f = coproduct_inclusion_functor(cat)
    v = is_dk_equivalence(f, B)
    assert v.is_no


# -- fibrations -----------------------------------------------------------------

def test_identity_is_fibration():
    for cat in [walking_arrow(D), codiscrete_groupoid(2, D)]:
        assert is_fibration(identity_sfunctor(cat), B).is_yes


def test_max_steps_bounds_all_homs_of_a_fibration_together():
    # U(fold Delta[2] + Delta[2] -> Delta[2]): the fold hom alone needs 208
    # steps, the identity homs on the two objects need steps on top (a step
    # per simplex their bijection test reads), the empty hom none
    f = functor_U_map(fold_map(standard_simplex(2, D)))
    per_hom = []
    for pair in f.source.object_pairs():
        steps = _Steps(10**9)
        for n in (1, 2):
            for k in range(n + 1):
                assert _first_miss([f.hom_maps[pair]], n, k, None, steps) is None
        per_hom.append(10**9 - steps.left)
    assert max(per_hom) == 208 < sum(per_hom)
    v = is_fibration(f, Budget(max_steps=104))
    assert v.kind == "unknown" and v.reason == BUDGET
    assert is_fibration(f, Budget(max_steps=sum(per_hom))).is_yes
    assert is_fibration(f, Budget(max_steps=sum(per_hom) - 1)).kind == "unknown"


def test_fibration_yes_keeps_checked_dimension():
    f = functor_U_map(identity_map(horn(2, 1, 3)))
    v = is_fibration(f, Budget(max_dim=1))
    assert v.is_yes
    assert v.qualifier["checked_max_dim"] == 1


def test_singleton_into_codiscrete_not_fibration():
    # the homotopy equivalence x -> y in the target has no lift with
    # prescribed source: the paper's desk instance of an F2 failure
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    v = is_fibration(inc, B)
    assert v.is_no
    assert v.witness["f2_failure"]["target"] == 1


def test_collapse_of_double_object_f1_holds():
    cat = functor_U(standard_simplex(1, D))
    e, collapse = double_object(cat, 0)
    from sccat.ssetcheck import is_kan_fibration
    for pair in e.object_pairs():
        assert is_kan_fibration(collapse.hom_maps[pair], B).kind != "no"


# -- acyclic fibrations: both routes ---------------------------------------------

def test_identity_acyclic_fibration_both_routes():
    cat = codiscrete_groupoid(2, D)
    ident = identity_sfunctor(cat)
    assert is_acyclic_fibration(ident, B).is_yes
    assert is_acyclic_fibration_by_rlp(ident, B).is_yes


def test_non_surjective_fails_route_b_via_c2():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    v = is_acyclic_fibration_by_rlp(inc, B)
    assert v.is_no
    assert v.witness["generator"] == "C2"


def test_collapse_of_doubled_singleton_both_routes():
    e, collapse = double_object(singleton_cat(D), 0)
    assert is_acyclic_fibration(collapse, B).is_yes
    assert is_acyclic_fibration_by_rlp(collapse, B).is_yes


# -- generating sets ---------------------------------------------------------------

def test_generating_set_counts():
    c = generating_cofibrations(0, D)
    assert [g.name for g in c] == ["C1[0]", "C2"]
    a1 = generating_acyclic_a1(1, D)
    assert [g.name for g in a1] == ["A1[1,0]", "A1[1,1]"]
    assert len(generating_acyclic_a1(2, D)) == 5


@pytest.mark.parametrize("d", [2, 3])
def test_generator_cells_name_their_maps(d):
    for g in generating_acyclic_a1(d, d) + generating_cofibrations(d, d):
        if g.name == "C2":
            assert g.cell is None
            continue
        n, k = g.cell
        inc = boundary_inclusion(n, d) if k is None else horn_inclusion(n, k, d)
        assert g.map == functor_U_map(inc)
        assert g.name == (f"C1[{n}]" if k is None else f"A1[{n},{k}]")
    assert c2_generator(d).cell is None


@pytest.mark.parametrize("d", [2, 3])
def test_generators_build_their_map_once(d):
    for g in generating_acyclic_a1(d, d) + generating_cofibrations(d, d):
        att = g.attachment
        assert g.map is att.inc
        assert att.A is att.inc.source and att.F is att.inc.target


@pytest.mark.parametrize("d", [2, 3, 4])
def test_horns_of_one_dimension_share_their_target(d):
    targets = {}
    for g in generating_acyclic_a1(d, d):
        assert g.map.target is targets.setdefault(g.dim, g.map.target)
    assert sorted(targets) == list(range(1, d + 1))


@pytest.mark.parametrize("make", [generating_cofibrations, generating_acyclic_a1])
def test_generating_sets_check_n_max_when_called(make):
    with pytest.raises(InputError, match="n_max is negative"):
        make(-1, D)
    with pytest.raises(InputError, match="n_max exceeds dim_bound"):
        make(D + 1, D)


# each int slot of the category layer's constructors, with the value put in it
INT_SLOTS = {
    "SimplicialCategory-dim_bound": lambda v: SimplicialCategory((), {}, {}, (), dim_bound=v),
    "empty_cat-dim_bound": lambda v: empty_cat(v),
    "singleton_cat-dim_bound": lambda v: singleton_cat(v),
    "codiscrete-n_objects": lambda v: codiscrete_groupoid(v, D),
    "codiscrete-dim_bound": lambda v: codiscrete_groupoid(2, v),
    "c2-dim_bound": lambda v: c2_generator(v),
    "cofibrations-n_max": lambda v: generating_cofibrations(v, D),
    "cofibrations-dim_bound": lambda v: generating_cofibrations(1, v),
    "acyclic_a1-n_max": lambda v: generating_acyclic_a1(v, D),
    "acyclic_a1-dim_bound": lambda v: generating_acyclic_a1(1, v),
}


@pytest.mark.parametrize("slot", INT_SLOTS)
@pytest.mark.parametrize("value", [2.0, True, -1, None, "a"], ids=repr)
def test_category_constructors_reject_ints_out_of_range_and_non_ints(slot, value):
    with pytest.raises(InputError):
        INT_SLOTS[slot](value)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generators_equal_an_independent_build(d):
    gens = generating_acyclic_a1(d, d) + generating_cofibrations(d, d)
    assert [g.cell for g in gens] == ([(n, k) for n in range(1, d + 1) for k in range(n + 1)]
                                      + [(n, None) for n in range(d + 1)] + [None])
    for g in gens:
        if g.cell is None:
            name, dim, ref = "C2", 0, Attachment.c2(d)
        else:
            n, k = g.cell
            name = f"C1[{n}]" if k is None else f"A1[{n},{k}]"
            inc = boundary_inclusion(n, d) if k is None else horn_inclusion(n, k, d)
            dim, ref = n, Attachment.from_sset_mono(inc, name)
        assert (g.name, g.dim, g.dim_bound, g.map) == (name, dim, d, ref.inc)
        att = g.attachment
        assert ((att.kind, att.A, att.F, att.inc, att.label)
                == (ref.kind, ref.A, ref.F, ref.inc, ref.label))


def count_builds(monkeypatch):
    """The names of the generators built from here on, in build order."""
    built = []
    from_sset_mono, c2 = Attachment.from_sset_mono, Attachment.c2

    def build_cell(i, label=""):
        built.append(label)
        return from_sset_mono(i, label)

    def build_c2(dim_bound):
        built.append("C2")
        return c2(dim_bound)

    monkeypatch.setattr(Attachment, "from_sset_mono", staticmethod(build_cell))
    monkeypatch.setattr(Attachment, "c2", staticmethod(build_c2))
    return built


def test_route_b_builds_only_the_generator_of_its_square(monkeypatch):
    built = count_builds(monkeypatch)
    assert is_acyclic_fibration_by_rlp(identity_sfunctor(codiscrete_groupoid(3, D)), B).is_yes
    assert built == []
    v = is_acyclic_fibration_by_rlp(inclusion_of_object(codiscrete_groupoid(2, D), 0,
                                                        singleton_cat(D)), B)
    assert v.is_no and built == ["C2"]


def test_factor_bounded_builds_only_the_generators_of_its_cells(monkeypatch):
    built = count_builds(monkeypatch)
    res = factor_bounded(functor_U_map(horn_inclusion(3, 1, 3)), generating_acyclic_a1(3, 3),
                         Budget(max_dim=3, max_words=16, max_steps=500_000))
    assert res.complete and res.cells
    assert built == list(dict.fromkeys(c.generator for c in res.cells))


def test_dim_bound_mismatch_builds_nothing(monkeypatch):
    built = count_builds(monkeypatch)
    with pytest.raises(InputError, match="dim_bound mismatch"):
        factor_bounded(functor_U_map(horn_inclusion(2, 1, 2)),
                       generating_acyclic_a1(3, 3) + [c2_generator(3)], Budget(max_dim=3))
    assert built == []


@pytest.mark.parametrize("gens, message", [
    (lambda: [Attachment.c2(D)], "Attachment is not a GeneratorMap"),
    # a cell-less generator that is not C2, after a set that names a square
    (lambda: generating_acyclic_a1(2, D) + [GeneratorMap("C3", 0, None, D,
                                                         lambda g: Attachment.c2(D))],
     "C3 is not A1, C1 or C2"),
], ids=["attachment", "cell-less-not-c2"])
def test_factor_bounded_checks_every_generator_before_any_is_built(monkeypatch, gens,
                                                                   message):
    gens = gens()
    built = count_builds(monkeypatch)
    with pytest.raises(InputError) as err:
        factor_bounded(functor_U_map(horn_inclusion(2, 1, D)), gens, B)
    assert type(err.value) is InputError and str(err.value) == message
    assert built == []


def test_generating_sets_are_made_anew_on_each_call():
    first, second = generating_acyclic_a1(3, 3), generating_acyclic_a1(3, 3)
    assert first == second
    for a, b in zip(first, second):
        assert a is not b and a.attachment is not b.attachment
        assert a.map.source is not b.map.source and a.map.target is not b.map.target


def test_generator_maps_validate():
    for g in generating_cofibrations(2, D) + generating_acyclic_a1(2, D):
        assert validate_sfunctor(g.map) == []


# -- lifting -----------------------------------------------------------------------

def test_solve_lifting_identity_right():
    cat = functor_U(standard_simplex(1, D))
    ident = identity_sfunctor(cat)
    arrow = walking_arrow(D)
    glue = SFunctor(source=arrow, target=cat, ob_map=(0, 1),
                    hom_maps={p: cat_hom_map(arrow, cat, p) for p in
                              arrow.object_pairs()})
    assert validate_sfunctor(glue) == []
    problem = LiftingProblem(left=glue, right=ident, top=glue, bottom=ident)
    v = solve_lifting(problem, B)
    assert v.is_yes
    assert verify_lift(problem, v.witness)
    assert v.witness.diagonal == ident


def cat_hom_map(arrow, cat, pair):
    # the walking arrow maps into U(Delta[1]) sending g to vertex 0 of the
    # hom complex
    src = arrow.hom[pair]
    tgt = cat.hom[pair]
    if pair == (0, 1):
        assign = []
        cur = 0
        for k in range(D + 1):
            assign.append([cur])
            if k + 1 <= D:
                cur = tgt.degeneracy(k, cur, 0)
        return SSetMap(src, tgt, assign)
    if pair[0] == pair[1]:
        return SSetMap(src, tgt, [[cat.identity_tower(pair[0], k)]
                                  for k in range(D + 1)])
    return SSetMap(src, tgt, [[] for _ in range(D + 1)])


def test_solve_lifting_c2_against_nonsurjective():
    gens = generating_cofibrations(0, D)
    c2 = gens[-1]
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    # square: phi -> {x} over the uncovered object y
    bottom = inclusion_of_object(cat, 1, c2.map.target)
    problem = LiftingProblem(left=c2.map, right=inc,
                             top=empty_to(inc.source), bottom=bottom)
    v = solve_lifting(problem, B)
    assert v.is_no


def test_has_rlp_identity_against_everything():
    cat = functor_U(boundary(1, D))
    ident = identity_sfunctor(cat)
    gens = generating_cofibrations(1, D) + generating_acyclic_a1(1, D)
    assert has_rlp_against_set(ident, gens, B).is_yes


def test_rlp_a1_detects_non_kan_hom():
    # U(dDelta[2] -> point): hom map is not a Kan fibration, so RLP(A1)
    # fails, reproducing the characterization of F1
    from sccat.ssetcheck import _first_miss, _first_square, unique_map_to_point
    p = unique_map_to_point(boundary(2, D))
    f = functor_U_map(p)
    v = has_rlp_against_set(f, generating_acyclic_a1(2, D), B)
    assert v.is_no
    from sccat.model import is_fibration as fib
    assert fib(f, B).is_no


def test_route_b_and_solve_lifting_read_unknown_past_max_steps():
    # the joins of route (b) and the functor search of one lifting square
    # run out of a one-step budget: unknown, never a raise
    f = identity_sfunctor(codiscrete_groupoid(2, D))
    v = is_acyclic_fibration_by_rlp(f, Budget(max_dim=1, max_steps=1))
    assert v.kind == "unknown" and v.reason == BUDGET
    assert v.qualifier["route"] == "b"
    problem = enumerate_problem_squares(generating_cofibrations(1, D)[1].map, f, B)[0]
    assert solve_lifting(problem, B).is_yes
    v = solve_lifting(problem, Budget(max_steps=1))
    assert v.kind == "unknown" and v.reason == BUDGET


def test_rlp_against_a_set_is_unknown_when_its_search_runs_out():
    # U(bd[1] -> point) does not lift C1[1]; at one step the enumeration
    # of its squares runs out first: unknown, never a raise
    f = functor_U_map(unique_map_to_point(boundary(1, D)))
    v = has_rlp_against_set(f, generating_cofibrations(1, D), Budget(max_dim=2, max_steps=1))
    assert v.kind == "unknown" and v.reason == BUDGET
    v = has_rlp_against_set(f, generating_cofibrations(1, D), Budget(max_dim=2, max_steps=30))
    assert v.is_no and v.witness["generator"] == "C1[1]"


# -- retracts ------------------------------------------------------------------------

def test_retract_of_itself():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    w = RetractWitness(section=identity_sfunctor(cat),
                       retraction=identity_sfunctor(cat))
    assert verify_retract(inc, inc, w)


def test_retract_with_broken_round_trip():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    e, collapse = double_object(cat, 0)
    # retraction that does not invert any section: wrong shapes
    w = RetractWitness(section=identity_sfunctor(cat),
                       retraction=compose_sfunctors(identity_sfunctor(cat),
                                                    identity_sfunctor(cat)))
    assert verify_retract(inc, inc, w)  # identity round trip is fine
    # now a genuinely broken witness: swap the two objects of codiscrete(2)
    swap = SFunctor(source=cat, target=cat, ob_map=(1, 0),
                    hom_maps={(a, b): SSetMap(cat.hom[(a, b)],
                                              cat.hom[(1 - a, 1 - b)],
                                              [[0] for _ in range(D + 1)])
                              for (a, b) in cat.object_pairs()})
    w2 = RetractWitness(section=swap, retraction=identity_sfunctor(cat))
    assert not verify_retract(inc, inc, w2)


def test_retract_needs_a_common_source():
    cat = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(cat, 0, singleton_cat(D))
    w = RetractWitness(section=identity_sfunctor(cat),
                       retraction=identity_sfunctor(cat))
    assert not verify_retract(inc, identity_sfunctor(cat), w)


# -- free maps and A2 ------------------------------------------------------------------

def marking_all_nonidentity(h):
    marked = {}
    for (a, b) in h.object_pairs():
        hom = h.hom[(a, b)]
        entries = set()
        for k in range(h.dim_bound + 1):
            for idx in range(hom.size(k)):
                if a == b and idx == h.identity_tower(a, k):
                    continue
                entries.add((k, idx))
        if entries:
            marked[(a, b)] = entries
    return GeneratorMarking.close_under_degeneracies(h, marked)


def test_free_map_u_of_sset():
    # {x} + {y} -> U(X) with all nondegenerate simplices marked is free
    h = functor_U(boundary(1, D))
    inc = coproduct_inclusion_functor(h)
    marking = marking_all_nonidentity(h)
    ok, report = is_free_map(inc, marking)
    assert ok, report


def test_free_map_fails_without_degeneracy_closure():
    h = functor_U(point(D))
    inc = coproduct_inclusion_functor(h)
    # mark only the 0-simplex g, not its degeneracies
    marking = GeneratorMarking(marked={(0, 1): frozenset({(0, 0)})})
    ok, report = is_free_map(inc, marking)
    assert not ok
    assert "marking" in report


def test_free_map_fails_on_non_mono():
    h = functor_U(point(D))
    e, collapse = double_object(singleton_cat(D), 0)
    ok, report = is_free_map(collapse, GeneratorMarking(marked={}))
    assert not ok
    assert "monomorphism" in report


def test_free_map_fails_on_a_hom_map_that_is_not_injective():
    f = functor_U_map(unique_map_to_point(standard_simplex(1, D)))
    assert is_free_map(f, GeneratorMarking(marked={})) == (
        False, {"monomorphism": "hom map (0, 1) dim 0"})


def test_free_map_rejects_a_marking_in_the_image():
    h = functor_U(standard_simplex(1, D))
    edge = h.hom[(0, 1)].nondeg_indices(1)[0]
    marking = GeneratorMarking.close_under_degeneracies(h, {(0, 1): {(1, edge)}})
    ok, report = is_free_map(identity_sfunctor(h), marking)
    assert not ok
    assert report == {"marking_in_image": {"pair": (0, 1),
                                           "simplices": sorted(marking.marked[(0, 1)])}}


def test_free_map_keeps_image_letters_composed():
    # every morphism of codiscrete(2) is in the image, so g: x -> y and
    # h: y -> x are image letters; h . g = id is their composite, not a
    # second word for the identity
    f = identity_sfunctor(codiscrete_groupoid(2, D))
    assert is_free_map(f, GeneratorMarking({})) == (True, {"free": True})


def test_free_map_rejects_codiscrete_relation():
    # in the codiscrete groupoid, h . g = id gives two decompositions
    h = codiscrete_groupoid(2, D)
    inc = coproduct_inclusion_functor(h)
    marking = marking_all_nonidentity(h)
    ok, report = is_free_map(inc, marking)
    assert not ok
    assert "relation" in report


def test_a2_candidate_codiscrete_rejected_on_freeness():
    h = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(h, 0, singleton_cat(D))
    v = is_a2_candidate(inc, B, marking=marking_all_nonidentity(h))
    assert v.is_no
    assert "free_map_report" in v.witness or "cofibration_witness_missing" in v.witness
    # u: x -> y and v: y -> x are marked letters, so the words (v u)^n are
    # distinct and land in the finite Hom(x, x)_0: the first, v u, already
    # equals the empty word
    assert v.witness["free_map_report"] == {"relation": {
        "value": ((0, 0), 0), "words": [(), (("g", (0, 1), 0), ("g", (1, 0), 0))]},
        "dimension": 0}


def test_a2_candidate_u_point_rejected_on_contractibility():
    h = functor_U(point(D))
    inc = inclusion_of_object(h, 0, singleton_cat(D))
    v = is_a2_candidate(inc, B, marking=marking_all_nonidentity(h))
    assert v.is_no
    assert v.witness["hom_not_weakly_contractible"] == (1, 0)


def test_free_map_step_cap_answers_unknown():
    h = functor_U(boundary(1, D))
    ok, report = is_free_map(coproduct_inclusion_functor(h),
                             marking_all_nonidentity(h), max_steps=3)
    assert ok is None
    assert report == {"step_cap": 3}


def test_free_map_names_an_ungenerated_simplex():
    # nothing marked: the edge x -> y of U(bd[1]) is no word
    h = functor_U(boundary(1, D))
    assert is_free_map(coproduct_inclusion_functor(h), GeneratorMarking({})) == (
        False, {"not_generated": {"pair": (0, 1), "dimension": 0, "simplex": 0}})


@pytest.mark.parametrize("marked,message", [
    ({(5, 5): frozenset()}, "marking references unknown hom (5, 5)"),
    ({(0, 1): frozenset({(0, 99)})}, "marking (0, 1) references unknown simplex (0,99)"),
])
def test_validate_marking_names_unknown_homs_and_simplices(marked, message):
    assert validate_marking(functor_U(boundary(1, D)), GeneratorMarking(marked)) == [message]


def test_free_map_decides_at_exactly_its_step_count():
    # one step per word built: the two marked simplices of Hom(x, y) in
    # each of the dimensions 0, 1, 2
    h = functor_U(boundary(1, D))
    inc, marking = coproduct_inclusion_functor(h), marking_all_nonidentity(h)
    assert is_free_map(inc, marking, max_steps=6) == (True, {"free": True})
    assert is_free_map(inc, marking, max_steps=5) == (None, {"step_cap": 5})


def test_a2_candidate_needs_two_objects():
    inc = inclusion_of_object(codiscrete_groupoid(3, D), 0, singleton_cat(D))
    v = is_a2_candidate(inc)
    assert v.is_no and v.witness == {"shape": "needs {x} -> H with two objects"}


def test_a2_candidate_step_cap_is_budget_exhausted():
    # codiscrete(2) needs three words to show its relation h . g = id
    h = codiscrete_groupoid(2, D)
    inc = inclusion_of_object(h, 0, singleton_cat(D))
    v = is_a2_candidate(inc, Budget(max_dim=2, max_steps=2),
                        marking=marking_all_nonidentity(h))
    assert v.kind == "unknown" and v.reason == "budget-exhausted"
    assert v.witness == {"step_cap": 2}


# -- oracle: the free-map check as it was before its letters were tabled ----------------
#
# The earlier implementation, kept verbatim but for its names.  It shares no
# code with ``is_free_map`` but the category's accessors, ``_check_natural``
# and ``_Steps``: it has its own marking check and degeneracy closure, scans
# every image and marked entry to build each dimension's alphabet, tries
# every letter on every word, walks its queue by index and catches the step
# cap at each charge.

def _close_by_frontier(cat, marked):
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


def _marking_faults(cat, marking):
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


def _free_map_by_scan(f, marking, max_steps=10**6):
    _check_natural("max_steps", max_steps, 1)
    src, tgt = f.source, f.target
    bad = _marking_faults(tgt, marking)
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
                    continue
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


@lru_cache(maxsize=None)
def free_map_targets(d):
    """Categories at D{d}: U(X) for the sets X of ``free_map_sets``,
    codiscrete(2), the walking arrow, and three with composable morphisms
    that are no identities: Z/2, codiscrete(3) and the walking arrow + Z/2."""
    return ([functor_U(x) for x in free_map_sets(d)]
            + [codiscrete_groupoid(2, d), walking_arrow(d), z2_category(d),
               codiscrete_groupoid(3, d), coproduct([walking_arrow(d), z2_category(d)])[0]])


@lru_cache(maxsize=None)
def free_map_sets(d):
    """The point, bd Delta[1], Delta[1] and, from D2, the horn (2, 1)."""
    return [point(d), boundary(1, d), standard_simplex(1, d)] + ([horn(2, 1, d)] if d > 1 else [])


def draw_free_map_input(data):
    """(f, seeds, closed, max_steps).  f is a coproduct inclusion (into a
    two-object category), the inclusion of a full subcategory or of an
    object, an identity, or a map that is not injective: the collapse of a
    doubled object, or U of a set onto the point.  The seeds are simplices
    of f's target, nearly all outside f's image: every one of them but at
    most one, or a few; one in the image is added one time in eight."""
    d = data.draw(st.integers(1, 3), label="dim_bound")
    h = data.draw(st.sampled_from(free_map_targets(d)))
    n = h.n_objects()
    # the two maps that are not injective are drawn least
    kind = data.draw(st.sampled_from(["coproduct"] * 3 * (n == 2) + ["full"] * 3
                                     + ["object", "identity", "collapse", "onto pt"]))
    if kind == "coproduct":
        f = coproduct_inclusion_functor(h)
    elif kind == "full":
        f = full_subcategory(h, data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                   max_size=n, unique=True)))[1]
    elif kind == "object":
        f = inclusion_of_object(h, data.draw(st.integers(0, n - 1)), singleton_cat(d))
    elif kind == "identity":
        f = identity_sfunctor(h)
    elif kind == "collapse":
        f = double_object(h, data.draw(st.integers(0, n - 1)))[1]
    else:
        f = functor_U_map(unique_map_to_point(data.draw(st.sampled_from(free_map_sets(d)[1:]))))
    tgt = f.target
    image = {((f.ob(a), f.ob(b)), k, idx) for (a, b), m in f.hom_maps.items()
             for k, level in enumerate(m.assign) for idx in level}
    simplices = [(pair, k, idx) for pair in sorted(tgt.hom) for k in range(tgt.dim_bound + 1)
                 for idx in range(tgt.hom[pair].size(k))]
    outside = [s for s in simplices if s not in image]
    if not outside:
        chosen = []
    elif data.draw(st.booleans(), label="all outside"):
        dropped = data.draw(st.lists(st.sampled_from(outside), max_size=1))
        chosen = [s for s in outside if s not in dropped]
    else:
        chosen = data.draw(st.lists(st.sampled_from(outside), max_size=4))
    if image and data.draw(st.integers(0, 7)) == 0:
        chosen.append(data.draw(st.sampled_from(sorted(image))))
    seeds = {}
    for pair, k, idx in chosen:
        seeds.setdefault(pair, set()).add((k, idx))
    closed = data.draw(st.integers(0, 3)) > 0
    max_steps = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
    return f, seeds, closed, max_steps


FREE_MAP_OUTCOMES = {"free", "relation", "not_generated", "marking", "marking_in_image",
                     "monomorphism", "step_cap"}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def compare_free_map_with_the_scan(data, outcomes):
    f, seeds, closed, max_steps = draw_free_map_input(data)
    marking = GeneratorMarking({pair: frozenset(v) for pair, v in seeds.items()})
    if closed:
        marking = GeneratorMarking.close_under_degeneracies(f.target, seeds)
        assert marking == _close_by_frontier(f.target, seeds)
    assert validate_marking(f.target, marking) == _marking_faults(f.target, marking)
    got = is_free_map(f, marking, max_steps)
    assert got == _free_map_by_scan(f, marking, max_steps)
    outcomes[next(iter(got[1]))] += 1


def test_free_map_equals_the_scan_oracle():
    # 400 derandomized draws, which meet every outcome
    outcomes = Counter()
    compare_free_map_with_the_scan(outcomes=outcomes)
    assert set(outcomes) == FREE_MAP_OUTCOMES, outcomes


# -- factorization ---------------------------------------------------------------------

def test_factor_bounded_already_rlp():
    cat = codiscrete_groupoid(2, D)
    ident = identity_sfunctor(cat)
    res = factor_bounded(ident, generating_acyclic_a1(1, D), B)
    assert res.complete
    assert res.cells == []
    assert compose_sfunctors(res.right, res.left) == ident


def test_factor_bounded_c2_object_cell():
    # phi -> {x} factored against C2: one object cell, then RLP holds
    tgt = singleton_cat(D)
    f = empty_to(tgt)
    res = factor_bounded(f, [g for g in generating_cofibrations(0, D)
                             if g.name == "C2"], B)
    assert res.complete
    assert len(res.cells) == 1
    assert res.cells[0].generator == "C2"
    assert compose_sfunctors(res.right, res.left) == f


def test_factor_bounded_horn_cell():
    # U(V[2,1]) -> U(Delta[2]) factored against A1(n <= 2): one cell
    inc = horn_inclusion(2, 1, D)
    f = functor_U_map(inc)
    res = factor_bounded(f, generating_acyclic_a1(2, D), B)
    assert res.complete
    assert compose_sfunctors(res.right, res.left) == f
    assert len(res.cells) >= 1


def test_factor_bounded_search_budget_returns_incomplete():
    f = functor_U_map(horn_inclusion(2, 1, D))
    res = factor_bounded(f, generating_acyclic_a1(2, D),
                         Budget(max_dim=2, max_words=16, max_steps=5))
    assert not res.complete
    assert compose_sfunctors(res.right, res.left) == f


def test_factor_bounded_pushout_budget_returns_incomplete():
    # after C2, C2 and one free arrow x -> y from C1[0], gluing the free
    # arrow y -> x gives words of every length: the pushout overruns
    # max_words
    f = empty_to(codiscrete_groupoid(2, D))
    res = factor_bounded(f, generating_cofibrations(1, D), B)
    assert not res.complete
    assert compose_sfunctors(res.right, res.left) == f


@pytest.mark.parametrize("f,gens,budget", [
    (lambda: functor_U_map(horn_inclusion(2, 1, 2)), lambda: generating_acyclic_a1(3, 3),
     Budget(max_dim=3)),
    (lambda: identity_sfunctor(codiscrete_groupoid(2, 3)), lambda: generating_acyclic_a1(2, 2),
     Budget()),
], ids=["A1(3) at D3 on a D2 map", "A1(2) at D2 on a D3 map"])
def test_factor_bounded_rejects_generators_of_another_dim_bound(f, gens, budget):
    with pytest.raises(InputError, match="dim_bound mismatch"):
        factor_bounded(f(), gens(), budget)
    with pytest.raises(InputError, match="dim_bound mismatch"):
        has_rlp_against_set(f(), gens(), budget)


# -- factorization decided hom by hom, against the generic search ---------------

def factor_by_search(f, gens, budget):
    """factor_bounded as every round's full generic search: all squares
    against each generator in order, each solved by functor search."""
    gens = sorted(gens, key=lambda g: -g.dim)
    stage, left, right, cells = f.source, identity_sfunctor(f.source), f, []
    while True:
        found, saw_unknown = None, False
        try:
            for gen in gens:
                for problem in enumerate_problem_squares(gen.map, right, budget):
                    v = solve_lifting(problem, budget)
                    if v.is_no:
                        found = gen, problem
                        break
                    saw_unknown = saw_unknown or not v.is_definite
                if found is not None:
                    break
            if found is None or len(cells) >= max(1, budget.max_words):
                return FactorResult(left=left, right=right, cells=cells,
                                    complete=found is None and not saw_unknown)
            gen, problem = found
            res = pushout_generating(stage, gen.attachment, problem.top, budget)
        except BudgetExceeded:
            return FactorResult(left=left, right=right, cells=cells, complete=False)
        stage = res.category
        left = compose_sfunctors(res.inc_base, left)
        right = pushout_mediating(res, right, problem.bottom)
        cells.append(CellRecord(generator=gen.name, glue=problem.top,
                                bottom=problem.bottom))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_factorization_equals_the_generic_search(data):
    d = data.draw(st.sampled_from([2, 3]))
    last = len(LIFTING_COMPLEXES[d]) - 1
    maps = lifting_maps(d, data.draw(st.integers(0, last)),
                        data.draw(st.integers(0, last)))
    if not maps:
        return
    f = functor_U_map(data.draw(st.sampled_from(maps)))
    gens = data.draw(st.sampled_from([generating_acyclic_a1(d, d),
                                      generating_cofibrations(1, d)]))
    budget = Budget(max_words=3)
    res = factor_bounded(f, gens, budget)
    assert res == factor_by_search(f, gens, budget)
    assert compose_sfunctors(res.right, res.left) == f
    # the join is the generic search's verdict, on the input and on the
    # factorization's right map, whose homs are pushouts
    for g in gens:
        if g.cell is not None:
            for h in (f, res.right):
                assert (_rlp_by_homs(h, g.cell, _Steps(10**9))
                        == has_rlp_against_set(h, [g]).is_yes)


def z2_category(d):
    """One object whose endomorphisms are Z/2, discrete."""
    two = boundary(1, d)    # simplex j is vertex j in every dimension
    return SimplicialCategory(objects=("x",), hom={(0, 0): two},
                              compose=build_compose(1, {(0, 0): two}, d,
                                                    lambda k, a, b, c, g, f: g ^ f, (0,)),
                              identities=(0,), dim_bound=d)


MULTI_OBJECT_CATEGORIES = [empty_cat(D), singleton_cat(D), walking_arrow(D),
                           codiscrete_groupoid(2, D), z2_category(D),
                           functor_U(standard_simplex(1, D)),
                           coproduct([walking_arrow(D), z2_category(D)])[0],
                           coproduct([singleton_cat(D), codiscrete_groupoid(2, D)])[0]]


@lru_cache(maxsize=None)
def multi_object_functors(i, j):
    return enumerate_sfunctors(MULTI_OBJECT_CATEGORIES[i], MULTI_OBJECT_CATEGORIES[j])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_factorization_of_multi_object_functors_equals_the_generic_search(data):
    # squares with c = c' or a = a' (one-object categories, functors that
    # are not injective on objects) and the C2 rule (functors that miss
    # objects)
    last = len(MULTI_OBJECT_CATEGORIES) - 1
    functors = multi_object_functors(data.draw(st.integers(0, last)),
                                     data.draw(st.integers(1, last)))
    if not functors:
        return
    f = data.draw(st.sampled_from(functors))
    gens = data.draw(st.sampled_from([[c2_generator(D)], generating_cofibrations(1, D),
                                      generating_acyclic_a1(2, D)]))
    budget = Budget(max_words=3)
    res = factor_bounded(f, gens, budget)
    assert res == factor_by_search(f, gens, budget)
    assert compose_sfunctors(res.right, res.left) == f
    # each generator's named square is the search's first square; squares
    # with a = a' only show here, as their pushouts overrun max_words
    for g in gens:
        v = has_rlp_against_set(f, [g])
        found = _first_failure(f, [g], _Steps(10**9))
        assert (None if found is None else found[1]) == (v.witness["square"] if v.is_no
                                                         else None)


def test_join_reads_the_endomorphism_homs():
    # one object whose endomorphisms are Z/2, discrete: a square against
    # U(i) may send both objects of U(i) to that one object
    two = boundary(1, D)    # simplex j is vertex j in every dimension
    z2 = SimplicialCategory(objects=("x",), hom={(0, 0): two},
                            compose=build_compose(1, {(0, 0): two}, D,
                                                  lambda k, a, b, c, g, f: g ^ f, (0,)),
                            identities=(0,), dim_bound=D)
    assert validate_scat(z2) == []
    pt = singleton_cat(D)
    collapse = SFunctor(source=z2, target=pt, ob_map=(0,),
                        hom_maps={(0, 0): unique_map_to_point(two)})
    unit = inclusion_of_object(z2, 0, pt)
    verdicts = {}
    for f in (collapse, unit):
        for g in generating_cofibrations(2, D) + generating_acyclic_a1(2, D):
            if g.cell is not None:
                join = _rlp_by_homs(f, g.cell, _Steps(10**9))
                assert join == has_rlp_against_set(f, [g]).is_yes
                verdicts[f is unit, g.name] = join
    # the collapse does not lift two distinct units to an edge, the unit
    # misses the vertex 1; horns lift in discrete homs
    assert not verdicts[False, "C1[1]"] and verdicts[False, "C1[0]"]
    assert not verdicts[True, "C1[0]"]
    assert all(verdicts[False, f"A1[{n},{k}]"] for n in (1, 2) for k in range(n + 1))


# -- route (b) by the joins, against the generic search -------------------------------

def assert_route_b_is_the_search(f, budget=Budget()):
    """Route (b) equals the generic search against C1[0..n_max] and C2 in
    kind, reason and witness, and agrees with route (a) when both are
    definite; returns its verdict."""
    d = f.source.dim_bound
    v = is_acyclic_fibration_by_rlp(f, budget)
    n_max = min(budget.max_dim, d)
    oracle = has_rlp_against_set(f, generating_cofibrations(n_max, d), budget)
    assert (v.kind, v.reason, v.witness) == (oracle.kind, oracle.reason, oracle.witness)
    assert v.qualifier == {**oracle.qualifier, "route": "b", "checked_max_dim": n_max}
    a = is_acyclic_fibration(f, budget)
    if a.is_definite and v.is_definite:
        assert a.kind == v.kind
    return v


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_route_b_equals_the_generic_search(data):
    if data.draw(st.booleans()):
        d = data.draw(st.sampled_from([2, 3]))
        last = len(LIFTING_COMPLEXES[d]) - 1
        maps = [functor_U_map(g) for g in lifting_maps(d, data.draw(st.integers(0, last)),
                                                          data.draw(st.integers(0, last)))]
    else:
        last = len(MULTI_OBJECT_CATEGORIES) - 1
        maps = multi_object_functors(data.draw(st.integers(0, last)),
                                     data.draw(st.integers(0, last)))
    if maps:
        assert_route_b_is_the_search(data.draw(st.sampled_from(maps)))


@pytest.mark.parametrize("f, generator", [
    (functor_U_map(lifting_maps(D, 0, 2)[0]), "C1[0]"),   # C1[1] fails too
    (functor_U_map(boundary_inclusion(1, D)), "C1[1]"),
    (functor_U_map(boundary_inclusion(2, D)), "C1[2]"),
    (functor_U_map(boundary_inclusion(3, 3)), "C1[3]"),
    (inclusion_of_object(codiscrete_groupoid(2, D), 0, singleton_cat(D)), "C2"),
])
def test_route_b_names_the_search_square_of_each_generator(f, generator):
    v = assert_route_b_is_the_search(f)
    assert v.is_no and v.witness["generator"] == generator
    assert v.witness["square"].commutes()


def test_route_b_yes_keeps_checked_dimension():
    # max_dim=1 tries C1[0], C1[1] and C2 only, on homs of dimension up to 3
    f = functor_U_map(identity_map(standard_simplex(1, 3)))
    v = is_acyclic_fibration_by_rlp(f, Budget(max_dim=1))
    assert v.is_yes and v.qualifier["checked_max_dim"] == 1
    assert aggregate([v]).qualifier == {"checked_max_dim": 1}


def test_route_b_max_steps_bounds_all_generators_together():
    # the joins of C1[0], C1[1] and C1[2] on the identity of codiscrete(2)
    # share one count; C2 charges nothing
    f = identity_sfunctor(codiscrete_groupoid(2, D))
    per_gen = []
    for g in generating_cofibrations(D, D)[:-1]:
        steps = _Steps(10**9)
        assert _first_failure(f, [g], steps) is None
        per_gen.append(10**9 - steps.left)
    assert 0 < max(per_gen) < sum(per_gen)
    assert is_acyclic_fibration_by_rlp(f, Budget(max_steps=sum(per_gen))).is_yes
    v = is_acyclic_fibration_by_rlp(f, Budget(max_steps=sum(per_gen) - 1))
    assert v.kind == "unknown" and v.reason == BUDGET


# -- naming squares with the pruned bottom walk ------------------------------------

def two_copies_onto_one(x):
    """U(x) + U(x) -> U(pt), each copy by U of x -> pt: every hom pair of
    U(pt) lies under several hom pairs of the source."""
    g = functor_U_map(unique_map_to_point(x))
    src, _ = coproduct([g.source, g.source])
    ob_map = (0, 1, 0, 1)
    hom_maps = {(a, b): g.hom_maps[(a % 2, b % 2)] if a // 2 == b // 2 else
                SSetMap(src.hom[(a, b)], g.target.hom[(ob_map[a], ob_map[b])],
                        [[] for _ in range(x.dim_bound + 1)])
                for a, b in src.object_pairs()}
    return SFunctor(source=src, target=g.target, ob_map=ob_map, hom_maps=hom_maps)


@pytest.mark.parametrize("f, gens, budget", [
    (lambda: functor_U_map(horn_inclusion(3, 1, 3)), lambda: generating_acyclic_a1(3, 3),
     Budget(max_dim=3, max_words=16, max_steps=500_000)),
    (lambda: functor_U_map(horn_inclusion(2, 1, 2)), lambda: generating_acyclic_a1(2, 2), B),
    (lambda: empty_to(walking_arrow(D)), lambda: generating_cofibrations(1, D), B),
    (lambda: two_copies_onto_one(boundary(1, D)), lambda: generating_cofibrations(1, D), B),
    (lambda: two_copies_onto_one(horn(2, 0, D)), lambda: generating_acyclic_a1(2, D), B),
], ids=["horn31-A1-D3", "horn21-A1-D2", "walking-arrow-C1C2", "two-bd1-C1C2", "two-horn20-A1"])
def test_factor_bounded_names_the_old_squares(monkeypatch, request, f, gens, budget):
    # every square factor_bounded names, from the list of hom maps over one
    # pair of bottom objects, is the one the walk asking at the last slot names
    calls = []

    def first_square(ps, unfilled, i, n, k):
        got = _first_square(ps, unfilled, i, n, k)
        assert got == first_square_at_last_slot(ps, unfilled, i, n, k)
        calls.append(len(ps))
        return got

    monkeypatch.setattr(ssetcheck, "_first_square", first_square)
    res = factor_bounded(f(), gens(), budget)
    # one square per cell but C2's, and one more for a square left unattached
    assert len(calls) == sum(c.generator != "C2" for c in res.cells) + (not res.complete)
    assert max(calls) == (4 if "two" in request.node.callspec.id else 1)
