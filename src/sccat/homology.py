"""Integer homology of dimension-bounded simplicial sets.

Chain groups are the normalized ones: free on the nondegenerate simplices,
with degenerate faces dropped from boundaries.  Because every stored
object is skeletal (nothing nondegenerate above dim_bound), the normalized
complex vanishes above the bound and homology is exact in every tracked
degree, including the top one, where the incoming boundary is zero.

Besides Betti numbers and torsion this module computes whether a
simplicial map induces isomorphisms on homology, which is what the
weak-equivalence checkers consume.  Finitely generated abelian groups are
Hopfian, so between groups with equal invariants the induced map is an
isomorphism iff it is onto.  That is one lattice test: the image cycles
together with the target boundaries must span the target cycle lattice,
which its invariant factors decide without coordinates.  Each boundary
matrix is reduced once per complex (`intmat.Reduction`) and cached; its
invariant factors give ranks, Betti numbers and torsion, and the source
side's cycle basis is read off the same reduction.
"""
from __future__ import annotations

from . import intmat
from .sset import SimplicialSet, SSetMap, memo, pi0
from .verdict import InputError, StructureError


class DimensionBoundError(InputError):
    pass


@memo
def _nondeg_pos(x: SimplicialSet, k: int) -> dict:
    return {idx: n for n, idx in enumerate(x.nondeg_indices(k))}


@memo
def boundary_matrix(x: SimplicialSet, k: int):
    """The normalized boundary C_k -> C_{k-1}; rows index nondegenerate
    (k-1)-simplices, columns nondegenerate k-simplices.

    k = 0 yields a 0-row matrix and k = dim_bound + 1 a 0-column matrix
    (the complex is skeletal)."""
    if k <= 0 or k > x.dim_bound:
        cols = len(x.nondeg_indices(k)) if 0 <= k <= x.dim_bound else 0
        rows = len(x.nondeg_indices(k - 1)) if 0 <= k - 1 <= x.dim_bound else 0
        mat = intmat.zeros(rows, cols)
    else:
        rows_pos = _nondeg_pos(x, k - 1)
        cols = x.nondeg_indices(k)
        mat = intmat.zeros(len(rows_pos), len(cols))
        for c, idx in enumerate(cols):
            sign = 1
            for i, f in enumerate(x.dims[k][idx].faces):
                r = rows_pos.get(f)
                if r is not None:
                    mat[r][c] += sign
                sign = -sign
    return mat


@memo
def _boundary_reduction(x: SimplicialSet, k: int) -> intmat.Reduction:
    """The reduction of d_k, computed once per complex: its invariant
    factors and its cycle basis are both read off it."""
    return intmat.Reduction(boundary_matrix(x, k))


@memo
def _cycle_basis(x: SimplicialSet, k: int):
    """A basis of Z_k X as matrix columns, computed once per complex.  The
    0-row d_0 reads as shape (0, 0), so its kernel is not asked for."""
    n = len(x.nondeg_indices(k))
    return (intmat.from_columns(_boundary_reduction(x, k).kernel_basis(), n)
            if k else intmat.identity(n))


@memo
def assert_chain_complex(x: SimplicialSet) -> None:
    """dd = 0 on the normalized complex; raised eagerly before any reduction.
    A complex that passes is not multiplied out again; one that fails
    raises on every call."""
    for k in range(1, x.dim_bound + 1):
        prod = intmat.matmul(boundary_matrix(x, k), boundary_matrix(x, k + 1))
        if any(any(v for v in row) for row in prod):
            raise StructureError(f"boundary squared is nonzero in degree {k + 1}")


@memo
def homology(x: SimplicialSet, k: int) -> tuple:
    """(betti, sorted torsion coefficients) of H_k(X; Z).

    Degrees run 0..dim_bound; the top degree is exact because the object
    is skeletal.  Other degrees raise a dimension-bound error.
    """
    if k < 0 or k > x.dim_bound:
        raise DimensionBoundError(
            f"homology degree {k} outside tracked range 0..{x.dim_bound}")
    assert_chain_complex(x)
    n_k = len(x.nondeg_indices(k))
    above = _boundary_reduction(x, k + 1).invariant_factors()
    betti = n_k - len(_boundary_reduction(x, k).invariant_factors()) - len(above)
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

def chain_map_matrix(f: SSetMap, k: int):
    """Normalized chain map in degree k: degenerate images map to zero."""
    x, y = f.source, f.target
    rows_pos = _nondeg_pos(y, k)
    cols = x.nondeg_indices(k)
    mat = intmat.zeros(len(rows_pos), len(cols))
    for c, idx in enumerate(cols):
        img = f.assign[k][idx]
        r = rows_pos.get(img)
        if r is not None:
            mat[r][c] = 1
    return mat


def homology_map_is_iso(f: SSetMap, k: int) -> bool:
    """Whether H_k(f) is an isomorphism.  Always definite.

    With equal groups on both sides, H_k(f) is an isomorphism iff it is
    onto, i.e. iff f(Z_k X) + B_k Y = Z_k Y.  The cycle lattice Z_k Y is a
    kernel, hence saturated, so the glued generators span it iff their rank
    is dim Z_k Y and every invariant factor is 1.  The target's cached
    invariant factors give dim Z_k Y; the cycle basis is read on the
    source side only.
    """
    x, y = f.source, f.target
    if homology(x, k) != homology(y, k):
        return False
    images = intmat.matmul(chain_map_matrix(f, k), _cycle_basis(x, k))
    d_y = boundary_matrix(y, k)
    if any(any(row) for row in intmat.matmul(d_y, images)):
        raise StructureError("cycle maps to a non-cycle")
    glued = [a + b for a, b in zip(images, boundary_matrix(y, k + 1))]
    cycle_rank = len(y.nondeg_indices(k)) - len(_boundary_reduction(y, k).invariant_factors())
    factors = intmat.invariant_factors(glued)
    return len(factors) == cycle_rank and all(d == 1 for d in factors)


def homology_iso_all_degrees(f: SSetMap) -> tuple:
    """(True, None) or (False, failing degree)."""
    for k in range(f.source.dim_bound + 1):
        if not homology_map_is_iso(f, k):
            return False, k
    return True, None
