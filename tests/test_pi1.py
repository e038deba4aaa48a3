import pytest
from hypothesis import given, settings, strategies as st

from sccat import intmat
from sccat.pi1 import (
    GroupPresentation, abelianization_invariants, coset_enumeration,
    edge_path_data, edge_path_presentation, free_reduce,
    fundamental_group_trivial, is_trivial_group,
)
from sccat.sset import (_UnionFind, boundary, disjoint_union, from_simplicial_complex, horn,
                        pi0, pi0_class_of, point, standard_simplex)
from sccat.verdict import Budget, BudgetExceeded, InputError
from tests.test_homology import cycle, torus_facets
from tests.test_sset import projective_plane


def P(gens, rels):
    return GroupPresentation(generators=tuple(gens), relators=tuple(rels))


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -1)) == (1, 2, -1)


def test_abelianization():
    assert abelianization_invariants(P(["a"], [])) == (1, [])
    assert abelianization_invariants(P(["a"], [(1, 1, 1)])) == (0, [3])
    assert abelianization_invariants(P(["a", "b"], [(1,), (2,)])) == (0, [])


ORDERS = [
    (P(["a"], [(1,)]), 1),
    (P(["a"], [(1, 1, 1)]), 3),
    (P(["a", "b"], [(1, 1), (2, 2), (1, 2, 1, 2)]), 4),  # Klein four group
    (P(["a", "b"], [(1, -2), (1, 1, 1), (2, 2, 2, 2)]), 1),  # a=b, a^3=a^4=1
    (P([], []), 1),
]
A5 = P(["a", "b"], [(1, 1), (2, 2, 2), (1, 2) * 5])
# trivial, but only the enumeration can tell
TRIVIAL_BY_ENUMERATION = P(["a", "b"], [(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)])
# the presentations of this module, the golden corpus enumerates them too
PRESENTATIONS = [pres for pres, _ in ORDERS] + [P(["a"], []), A5, TRIVIAL_BY_ENUMERATION]


@pytest.mark.parametrize("pres,order", ORDERS)
def test_coset_enumeration_orders(pres, order):
    assert coset_enumeration(pres, 2000) == order


def test_coset_enumeration_budget():
    # Z is infinite: never completes
    assert coset_enumeration(P(["a"], []), 50) is None


@pytest.mark.parametrize("max_cosets", [True, 2.0, 0.0, -1, None, "a"], ids=repr)
def test_coset_enumeration_takes_only_a_natural_cap(max_cosets):
    with pytest.raises(InputError, match="max_cosets must be an int"):
        coset_enumeration(P(["a"], [(1, 1)]), max_cosets)


def test_is_trivial_group_examples():
    assert is_trivial_group(P([], [])).is_yes
    assert is_trivial_group(P(["a"], [])).is_no          # abelianization Z
    assert is_trivial_group(P(["a"], [(1, 1, 1)])).is_no  # Z/3 via SNF
    assert is_trivial_group(P(["a"], [(1,)])).is_yes
    v = is_trivial_group(P(["a"], [(1, 1, 1)]))
    assert v.witness["abelianization"] == (0, [3])
    # A5 is perfect: the abelianization is trivial, the enumeration says no
    v = is_trivial_group(A5)
    assert v.is_no and v.witness == {"order": 60}


def test_is_trivial_group_unknown_on_tiny_budget():
    # trivial abelianization, so only enumeration can decide; with no room
    # to enumerate the verdict must stay unknown
    pres = TRIVIAL_BY_ENUMERATION
    v = is_trivial_group(pres, Budget(max_steps=3))
    assert v.kind == "unknown"
    # with room it is the classic presentation of the trivial group
    assert is_trivial_group(pres, Budget(max_steps=10000)).is_yes


@pytest.mark.parametrize("letter", [0, 2, -2, 1.0, 2.0, True, None, "a"], ids=repr)
def test_a_relator_letter_is_a_nonzero_int_naming_a_generator(letter):
    with pytest.raises(InputError, match="relator letter .* out of range"):
        GroupPresentation(("a",), ((letter,),))


def test_edge_path_presentation_delta2_trivial():
    x = standard_simplex(2, dim_bound=2)
    pres = edge_path_presentation(x, 0)
    # one generator (edge 12 off the tree), one relator killing it
    assert pres.n_generators == 1
    assert is_trivial_group(pres).is_yes


def test_edge_path_presentation_circle_is_Z():
    x = boundary(2, dim_bound=2)
    pres = edge_path_presentation(x, 0)
    assert pres.n_generators == 1
    assert pres.relators == ()
    assert abelianization_invariants(pres) == (1, [])


def test_edge_path_presentation_point_empty():
    pres = edge_path_presentation(point(2), 0)
    assert pres.n_generators == 0
    assert is_trivial_group(pres).is_yes


def test_edge_path_projective_plane_z2():
    x = projective_plane(dim_bound=2)
    pres = edge_path_presentation(x, 0)
    assert pres.n_generators == 1
    assert abelianization_invariants(pres) == (0, [2])
    assert is_trivial_group(pres).is_no


def test_edge_path_tree_is_deterministic_bfs():
    x = boundary(2, dim_bound=2)
    data = edge_path_data(x, 0)
    # nondegenerate edges sit at indices 1=(01), 2=(02), 4=(12) in the lex
    # tuple order; BFS from vertex 0 takes the first two into the tree
    assert data.tree_edges == (1, 2)
    assert list(data.generator_of_edge) == [4]


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 2)])
def test_horns_simply_connected(n, k):
    assert fundamental_group_trivial(horn(n, k, dim_bound=3), 0).is_yes


def test_sphere_2_simply_connected():
    assert fundamental_group_trivial(boundary(3, dim_bound=3), 0).is_yes


def test_edge_path_skips_two_simplices_of_other_components():
    # a hollow and a filled triangle: the filled one's 2-simplex gives a
    # relator only at a base in its own component
    x = disjoint_union(boundary(2, 2), standard_simplex(2, 2))[0]
    hollow, filled = edge_path_data(x, 0), edge_path_data(x, 3)
    assert hollow.presentation == P(["e4"], [])
    assert hollow.component == (0, 1, 2)
    assert filled.presentation == P(["e10"], [(1,)])
    assert filled.component == (3, 4, 5)


def dense_abelianization_invariants(p):
    """The abelianization by the dense Smith normal form of the exponent-sum
    matrix, generators as rows and relators as columns."""
    mat = [[0] * len(p.relators) for _ in range(p.n_generators)]
    for j, rel in enumerate(p.relators):
        for letter in rel:
            mat[abs(letter) - 1][j] += 1 if letter > 0 else -1
    facs = intmat.smith_normal_form(mat).invariant_factors() if p.relators and mat else []
    return p.n_generators - len(facs), sorted(d for d in facs if d != 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_sparse_abelianization_equals_the_dense_smith_normal_form(data):
    n = data.draw(st.integers(0, 4))
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from([g, -g])) if n else st.nothing()
    rels = data.draw(st.lists(st.lists(letters, max_size=8).map(tuple), max_size=5 if n else 0))
    pres = P([f"g{i}" for i in range(n)], rels)
    assert abelianization_invariants(pres) == dense_abelianization_invariants(pres)


def test_abelianization_of_relators_with_zero_exponent_sums():
    # commutators vanish in the abelianization: Z^2, then Z + Z/2
    assert abelianization_invariants(P(["a", "b"], [(1, 2, -1, -2)])) == (2, [])
    assert abelianization_invariants(P(["a", "b"], [(1, 2, -1, -2), (2, 2)])) == (1, [2])


PI1_SPACES = [boundary(2, 2), standard_simplex(2, 2), projective_plane(2), horn(3, 1, 3),
              point(2), cycle(5, 2), from_simplicial_complex(torus_facets(), 2),
              disjoint_union(boundary(2, 2), standard_simplex(2, 2))[0],
              disjoint_union(point(2), cycle(4, 2))[0]]


@pytest.mark.parametrize("x", PI1_SPACES, ids=range(len(PI1_SPACES)))
def test_edge_path_component_is_the_pi0_component_of_the_base(x):
    for base in range(x.size(0)):
        assert edge_path_data(x, base).component == tuple(pi0(x)[pi0_class_of(x)[base]])


# ---------------------------------------------------------------------------
# oracle: the coset enumeration as a table object with a hand-kept cap, the
# earlier implementation, kept here verbatim in behaviour

class _CosetTable:
    """Coset table over the trivial subgroup with lazy coincidence merging:
    reads resolve through the union-find ``cosets``, a merge keeps the
    smaller coset, and only relator scans merge."""

    def __init__(self, n_gens, max_cosets):
        self.n_cols = 2 * n_gens
        self.max_cosets = max_cosets
        self.table = [[None] * self.n_cols]
        self.cosets = _UnionFind(1)

    def col(self, letter):
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(self, c):
        return c ^ 1

    def entry(self, a, c):
        v = self.table[self.cosets.find(a)][c]
        return None if v is None else self.cosets.find(v)

    def define(self, a, c):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded("coset table full")
        self.table.append([None] * self.n_cols)
        self.set_entry(a, c, self.cosets.add())

    def set_entry(self, a, c, b):
        self.table[a][c] = b
        self.table[b][self.inv_col(c)] = a

    def merge(self, a, b):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = self.cosets.find(x), self.cosets.find(y)
            if x == y:
                continue
            self.cosets.union(x, y)
            if y < x:
                x, y = y, x
            rx, ry = self.table[x], self.table[y]
            for c in range(self.n_cols):
                v = ry[c]
                if v is None:
                    continue
                if rx[c] is None:
                    rx[c] = v
                else:
                    stack.append((rx[c], v))
                ry[c] = None

    def scan(self, start, word):
        while True:
            f = b = start
            i, j = 0, len(word) - 1
            while i <= j:
                nxt = self.entry(f, self.col(word[i]))
                if nxt is None:
                    break
                f = nxt
                i += 1
            while j >= i:
                prv = self.entry(b, self.inv_col(self.col(word[j])))
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                self.merge(f, b)
                return
            if j == i:
                self.set_entry(f, self.col(word[i]), b)
                return
            self.define(f, self.col(word[i]))


def coset_enumeration_by_table(p, max_cosets):
    relators = [r for r in (free_reduce(r) for r in p.relators) if r]
    tbl = _CosetTable(p.n_generators, max_cosets)
    try:
        a = 0
        while a < len(tbl.table):
            for rel in relators:
                if tbl.cosets.find(a) != a:
                    break
                tbl.scan(a, rel)
            if tbl.cosets.find(a) == a:
                for c in range(tbl.n_cols):
                    if tbl.entry(a, c) is None:
                        tbl.define(a, c)
            a += 1
    except BudgetExceeded:
        return None
    return sum(tbl.cosets.find(a) == a for a in range(len(tbl.table)))


@st.composite
def presentations(draw):
    """0-3 generators and, with at least one, 0-4 relators of length 1-7."""
    n = draw(st.integers(0, 3))
    if n == 0:
        return P([], [])
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from([g, -g]))
    rels = draw(st.lists(st.lists(letters, min_size=1, max_size=7).map(tuple), max_size=4))
    return P([f"g{i}" for i in range(n)], rels)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(presentations(), st.sampled_from([0, 1, 2, 5, 17, 60, 400]))
def test_coset_enumeration_equals_the_table_oracle(pres, max_cosets):
    assert coset_enumeration(pres, max_cosets) == coset_enumeration_by_table(pres, max_cosets)
