"""Oracle tests for the search of maps under i and over p: the constrained
enumeration must equal, in order, the unconstrained enumeration filtered
by composition."""
import itertools

from hypothesis import given, settings, strategies as st

from sccat.constructions_basic import codiscrete_groupoid, walking_arrow
from sccat.scat import compose_sfunctors, functor_U, identity_sfunctor
from sccat.search import enumerate_sfunctors
from sccat.sset import (compose_maps, enumerate_sset_maps, from_nondegenerate,
                        from_simplicial_complex, horn)
from sccat.verdict import BudgetExceeded

D = 2
# faces of Delta[3] of dimension at most D, as vertex tuples
FACES = [f for r in range(1, D + 2) for f in itertools.combinations(range(4), r)]
# one vertex with a loop, and the projective plane on it: nondegenerate
# simplices whose vertices coincide, which a map may send to degenerate ones
LOOPS = [from_nondegenerate(D, [[[]], [[(0, ()), (0, ())]]]),
         from_nondegenerate(D, [[[]], [[(0, ()), (0, ())]],
                                [[(0, ()), (0, (0,)), (0, ())]]])]
complexes = st.one_of(
    st.lists(st.sampled_from(FACES), min_size=1, max_size=3).map(
        lambda facets: from_simplicial_complex(facets, D)),
    st.sampled_from(LOOPS))
CATS = [codiscrete_groupoid(2, D), walking_arrow(D), functor_U(horn(2, 1, D))]


def draw_constraints(data, enumerate_maps, compose, a, b, c, d):
    """under=(i, top), over=(p, bottom) or both.  Half the time top and
    bottom are made from one map g0: B -> C, so that the constrained search
    is not empty."""
    i = data.draw(st.sampled_from(enumerate_maps(a, b)))
    p = data.draw(st.sampled_from(enumerate_maps(c, d)))
    g0 = data.draw(st.sampled_from(enumerate_maps(b, c)))
    if data.draw(st.booleans()):
        top, bottom = compose(g0, i), compose(p, g0)
    else:
        top = data.draw(st.sampled_from(enumerate_maps(a, c)))
        bottom = data.draw(st.sampled_from(enumerate_maps(b, d)))
    which = data.draw(st.sampled_from(["both", "under", "over"]))
    return ((i, top) if which != "over" else None,
            (p, bottom) if which != "under" else None)


def filtered(maps, compose, under, over):
    return [g for g in maps
            if (under is None or compose(g, under[0]) == under[1])
            and (over is None or compose(over[0], g) == over[1])]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_sset_search_is_the_filtered_enumeration(data):
    a, b, c, d = (data.draw(complexes) for _ in range(4))
    under, over = draw_constraints(data, enumerate_sset_maps, compose_maps,
                                   a, b, c, d)
    want = filtered(enumerate_sset_maps(b, c), compose_maps, under, over)
    assert enumerate_sset_maps(b, c, under=under, over=over) == want
    assert enumerate_sset_maps(b, c, under=under, over=over,
                               first_only=True) == want[:1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_functor_search_is_the_filtered_enumeration(data):
    a, b, c, d = (data.draw(st.sampled_from(CATS)) for _ in range(4))
    under, over = draw_constraints(data, enumerate_sfunctors, compose_sfunctors,
                                   a, b, c, d)
    want = filtered(enumerate_sfunctors(b, c), compose_sfunctors, under, over)
    assert enumerate_sfunctors(b, c, under=under, over=over) == want
    assert enumerate_sfunctors(b, c, under=under, over=over,
                               first_only=True) == want[:1]


def least_budget(src, dst, **kw):
    """The smallest max_nodes with which the enumeration finishes."""
    for m in itertools.count(1):
        try:
            enumerate_sfunctors(src, dst, max_nodes=m, **kw)
            return m
        except BudgetExceeded:
            pass


def test_max_nodes_bounds_all_object_maps_together():
    # every object map U(horn) -> codiscrete(2) extends to exactly one
    # functor; over the identity of codiscrete(2), a functor g leaves only
    # g's object map and prunes no simplex, so it measures that map's work
    src, dst = functor_U(horn(2, 1, D)), codiscrete_groupoid(2, D)
    functors = enumerate_sfunctors(src, dst)
    assert len(functors) == 4
    per_object_map = [least_budget(src, dst, over=(identity_sfunctor(dst), g))
                      for g in functors]
    assert least_budget(src, dst) == sum(per_object_map)
