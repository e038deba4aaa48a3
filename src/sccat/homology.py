"""Integer homology of dimension-bounded simplicial sets.

Chain groups are the normalized ones: free on the nondegenerate simplices,
with degenerate faces dropped from boundaries.  Because every stored
object is skeletal (nothing nondegenerate above dim_bound), the normalized
complex vanishes above the bound and homology is exact in every tracked
degree, including the top one, where the incoming boundary is zero.

Chain complexes stay sparse from the simplices to the reduction: d_k is
built once per complex as columns ``{row: coefficient}`` with at most
k + 1 entries, and dd = 0, the chain maps and the reductions all work on
such columns.  `boundary_matrix` and `chain_map_matrix` are dense views,
kept for tests and tracing; no decision reads them.

dd = 0 is never multiplied out on a decision's path: every set is
simplicial, a hand-built one validated once by its constructor (see
``sset``) and a library-built one by construction, and the simplicial
identities give dd = 0 (May, Simplicial Objects in Algebraic Topology,
1967, section 22; Goerss and Jardine, Simplicial Homotopy Theory, III.2).
``assert_chain_complex`` multiplies it out for tests and tracing.  The
invariant factors of d_1 are read off pi0: d_1 sends an edge to the
difference of its ends, so its cokernel is free on pi0, and its factors
are one 1 per vertex beyond the first of each component.

Besides Betti numbers and torsion this module decides whether a
simplicial map induces isomorphisms on homology, which is what the
weak-equivalence checkers consume.  That is one lattice test (see
`homology_map_is_iso`), except where the groups settle it with no check
lost: H_0 is free on pi0 and every 0-chain is a cycle, so H_0(f) is an
isomorphism iff pi0(f) is a bijection; between zero groups every target
cycle is a boundary, so the test cannot fail.  A boundary other than d_1
is reduced once per complex (`intmat.Reduction`) and cached; its invariant
factors give ranks, Betti numbers and torsion, and the source side's
cycle basis is read off the same reduction.  d_1 is reduced only where
that basis is read.
"""
from __future__ import annotations

from . import intmat
from .sset import SimplicialSet, SSetMap, _check_natural, memo, pi0, pi0_bijective
from .verdict import InputError, StructureError


class DimensionBoundError(InputError):
    pass


@memo
def _nondeg_pos(x: SimplicialSet, k: int) -> dict:
    return {idx: n for n, idx in enumerate(x.nondeg_indices(k))}


def _chain_rank(x: SimplicialSet, k: int) -> int:
    """The rank of C_k X, zero outside 0..dim_bound."""
    return len(x.nondeg_indices(k)) if 0 <= k <= x.dim_bound else 0


@memo
def _boundary_columns(x: SimplicialSet, k: int) -> list:
    """The normalized boundary C_k -> C_{k-1} as sparse columns, one per
    nondegenerate k-simplex; rows index nondegenerate (k-1)-simplices.

    d_0 has a column per vertex and no entries, d_{dim_bound+1} no column
    (the complex is skeletal)."""
    if not 0 <= k <= x.dim_bound:
        return []
    rows_pos = _nondeg_pos(x, k - 1) if k else {}
    cols = []
    for faces in x.nondeg_faces(k):
        col, sign = {}, 1
        for f in faces:
            r = rows_pos.get(f)
            if r is not None:
                v = col.pop(r, 0) + sign
                if v:
                    col[r] = v
            sign = -sign
        cols.append(col)
    return cols


def boundary_matrix(x: SimplicialSet, k: int):
    """Dense view of d_k, for tests and tracing."""
    return intmat.from_columns(_boundary_columns(x, k), _chain_rank(x, k - 1))


@memo
def _boundary_reduction(x: SimplicialSet, k: int) -> intmat.Reduction:
    """The reduction of d_k, computed once per complex: its invariant
    factors and its cycle basis are both read off it."""
    return intmat.Reduction(_boundary_columns(x, k))


def _invariant_factors(x: SimplicialSet, k: int) -> list:
    """The invariant factors of d_k; those of d_1 are read off pi0."""
    if k == 1:
        return [1] * (x.size(0) - len(pi0(x)))
    return _boundary_reduction(x, k).invariant_factors()


def assert_chain_complex(x: SimplicialSet) -> None:
    """dd = 0 on the normalized complex, multiplied out on every call; a
    nonzero product raises StructureError.  No decision calls it: the
    simplicial identities of every set give dd = 0.  It is an oracle for
    tests and tracing."""
    for k in range(1, x.dim_bound + 1):
        if any(intmat.mul_columns(_boundary_columns(x, k), _boundary_columns(x, k + 1))):
            raise StructureError(f"boundary squared is nonzero in degree {k + 1}")


def homology(x: SimplicialSet, k: int) -> tuple:
    """(betti, sorted torsion coefficients) of H_k(X; Z).

    Degrees run 0..dim_bound; the top degree is exact because the object
    is skeletal.  Other degrees raise a dimension-bound error, and a degree
    that is no int (a bool is not) an InputError, before the memo is read.
    """
    if type(k) is not int or not 0 <= k <= x.dim_bound:
        _check_natural("k", k, float("-inf"), message=f"homology degree must be an int, got {k!r}")
        raise DimensionBoundError(
            f"homology degree {k} outside tracked range 0..{x.dim_bound}")
    return _homology(x, k)


@memo
def _homology(x: SimplicialSet, k: int) -> tuple:
    n_k = len(x.nondeg_indices(k))
    above = _invariant_factors(x, k + 1)
    betti = n_k - len(_invariant_factors(x, k)) - len(above)
    torsion = sorted(d for d in above if d != 1)
    if betti < 0:
        raise StructureError("negative betti number: boundary data inconsistent")
    return betti, torsion


def betti(x: SimplicialSet, k: int) -> int:
    return homology(x, k)[0]


def reduced_homology_vanishes(x: SimplicialSet) -> tuple:
    """(True, None) if all reduced homology vanishes, else (False, (k, value)).

    H~_0 = 0 means one path component; higher degrees use `homology`.
    """
    comps = len(pi0(x))
    if comps != 1:
        return False, (0, comps)
    for k in range(1, x.dim_bound + 1):
        h = homology(x, k)
        if h != (0, []):
            return False, (k, h)
    return True, None


# ---------------------------------------------------------------------------
# induced maps on homology

def _chain_map_columns(f: SSetMap, k: int) -> list:
    """The normalized chain map in degree k as sparse columns: a
    nondegenerate image is one entry 1, a degenerate one maps to zero."""
    rows_pos, image = _nondeg_pos(f.target, k), f.assign[k]
    rows = [rows_pos.get(image[idx]) for idx in f.source.nondeg_indices(k)]
    return [{} if r is None else {r: 1} for r in rows]


def chain_map_matrix(f: SSetMap, k: int):
    """Dense view of the chain map in degree k, for tests and tracing."""
    return intmat.from_columns(_chain_map_columns(f, k), _chain_rank(f.target, k))


def homology_map_is_iso(f: SSetMap, k: int) -> bool:
    """Whether H_k(f) is an isomorphism.  Always definite.

    With equal groups on both sides, H_k(f) is an isomorphism iff it is
    onto (they are Hopfian), i.e. iff f(Z_k X) + B_k Y = Z_k Y.  Z_k Y is a
    kernel, hence saturated, so the glued generators span it iff their rank
    is dim Z_k Y and every invariant factor is 1.  The target's cached
    invariant factors give dim Z_k Y; the cycle basis is read on the
    source side only, off the source's cached reduction.

    Two cases glue nothing and lose no check.  In degree 0 (H_0 is free on
    pi0 and d_0 = 0) it is whether pi0(f) is a bijection.  Between zero
    groups Z_k Y = B_k Y, so only the check that cycles go to cycles runs.
    No degree multiplies out dd = 0: a hand-built set was validated once,
    by its constructor.
    """
    x, y = f.source, f.target
    if type(k) is int and k == 0:  # any other degree is checked by `homology`
        return pi0_bijective(f)
    if homology(x, k) != homology(y, k):
        return False
    images = intmat.mul_columns(_chain_map_columns(f, k),
                                _boundary_reduction(x, k).kernel_basis())
    if any(intmat.mul_columns(_boundary_columns(y, k), images)):
        raise StructureError("cycle maps to a non-cycle")
    if homology(y, k) == (0, []):  # Z_k Y = B_k Y
        return True
    cycle_rank = _chain_rank(y, k) - len(_invariant_factors(y, k))
    factors = intmat.Reduction(images + _boundary_columns(y, k + 1)).invariant_factors()
    return len(factors) == cycle_rank and all(d == 1 for d in factors)


def homology_iso_all_degrees(f: SSetMap) -> tuple:
    """(True, None) or (False, failing degree)."""
    for k in range(f.source.dim_bound + 1):
        if not homology_map_is_iso(f, k):
            return False, k
    return True, None
