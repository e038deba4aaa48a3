from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sccat import model
from sccat.constructions_basic import (codiscrete_groupoid,
                                       inclusion_of_object, walking_arrow)
from sccat.model import (
    CellRecord, FactorResult, GeneratorMarking, LiftingProblem, LiftWitness,
    RetractWitness, _first_unliftable_c2, _first_unliftable_cell,
    c2_generator, coproduct_inclusion_functor,
    enumerate_problem_squares, factor_bounded, generating_acyclic_a1,
    generating_cofibrations, has_rlp_against_set, is_a2_candidate,
    is_acyclic_fibration, is_acyclic_fibration_by_rlp, is_dk_equivalence,
    is_fibration, is_free_map, solve_lifting, validate_marking, verify_lift,
    verify_retract,
)
from sccat.scat import (SFunctor, SimplicialCategory, build_compose,
                        compose_sfunctors, coproduct, double_object, empty_cat,
                        functor_U, functor_U_map, identity_sfunctor,
                        singleton_cat, validate_scat, validate_sfunctor)
from sccat.search import enumerate_sfunctors
from sccat.sset import (SSetMap, boundary, boundary_inclusion, empty_sset, horn,
                        horn_inclusion, identity_map, point, standard_simplex)
from sccat.ssetcheck import unique_map_to_point
from sccat.verdict import (BUDGET, Budget, BudgetExceeded, InputError, _Steps,
                           aggregate)
from sccat.words import Attachment, pushout_generating, pushout_mediating
from tests.test_ssetcheck import LIFTING_COMPLEXES, _rlp_by_faces, lifting_maps

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
    # U(id Delta[2]): the Delta[2] hom alone needs 104 steps, the identity
    # homs on the two objects and the empty hom need steps on top
    f = functor_U_map(identity_map(standard_simplex(2, D)))
    per_hom = []
    for pair in f.source.object_pairs():
        steps = _Steps(10**9)
        for n in (1, 2):
            for k in range(n + 1):
                assert _rlp_by_faces(f.hom_maps[pair], n, k, steps)
        per_hom.append(10**9 - steps.left)
    assert max(per_hom) == 104 < sum(per_hom)
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
    u_attachment, c2 = model._u_attachment, Attachment.c2

    def build_cell(i, u_target, label):
        built.append(label)
        return u_attachment(i, u_target, label)

    def build_c2(dim_bound):
        built.append("C2")
        return c2(dim_bound)

    monkeypatch.setattr(model, "_u_attachment", build_cell)
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
    from sccat.ssetcheck import unique_map_to_point
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
        named = (_first_unliftable_c2(f, g) if g.cell is None
                 else _first_unliftable_cell(f, g, _Steps(10**9)))
        assert named == (v.witness["square"] if v.is_no else None)


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
        assert _first_unliftable_cell(f, g, steps) is None
        per_gen.append(10**9 - steps.left)
    assert 0 < max(per_gen) < sum(per_gen)
    assert is_acyclic_fibration_by_rlp(f, Budget(max_steps=sum(per_gen))).is_yes
    v = is_acyclic_fibration_by_rlp(f, Budget(max_steps=sum(per_gen) - 1))
    assert v.kind == "unknown" and v.reason == BUDGET
