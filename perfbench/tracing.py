"""Per-layer spans, recorded from outside the package.

Each layer's public functions are wrapped by name.  A wrapper replaces the
function in its defining module and in every ``sccat`` module that bound
it with ``from .x import name``, since those bindings are copied at import
time.  Spans (name, start, end, parent) are kept in memory while an
operation runs and summarized per pass; the self time of a span is its
duration minus the time its child spans cover.  Every ``_s`` metric is a
self time.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions wrapped.  Tiny helpers called in inner loops
# (word algebra, matrix allocation, accessors) are left out: their time is
# charged to the layer that calls them.
LAYERS = {
    "intmat": ["smith_normal_form", "solve", "kernel_basis", "rank", "matmul",
               "determinant", "rank_rational"],
    "sset": ["from_nondegenerate", "from_simplex_tuples", "standard_simplex",
             "boundary", "horn", "point", "empty_sset", "from_simplicial_complex",
             "validate_sset", "pi0", "pi0_class_of", "validate_sset_map",
             "identity_map", "compose_maps", "is_iso_map", "sub_complex",
             "disjoint_union", "derive_records", "pullback_ssets", "attach_nondeg",
             "enumerate_sset_maps", "boundary_inclusion", "horn_inclusion"],
    "homology": ["boundary_matrix", "assert_chain_complex", "homology",
                 "reduced_homology_vanishes", "chain_map_matrix",
                 "homology_map_is_iso", "homology_iso_all_degrees"],
    "pi1": ["abelianization_invariants", "coset_enumeration", "is_trivial_group",
            "edge_path_data", "edge_path_presentation", "fundamental_group_trivial"],
    "ssetcheck": ["is_weakly_contractible", "pi0_bijective", "is_weak_equivalence_sset",
                  "check_square_lift", "naive_diagonal_exists", "enumerate_squares",
                  "has_rlp_sset", "is_kan_fibration", "is_acyclic_fibration_sset",
                  "unique_map_to_point"],
    "cat": ["validate_category", "is_isomorphism", "validate_functor",
            "compose_functors", "is_equivalence"],
    "scat": ["build_compose", "validate_scat", "validate_sfunctor", "identity_sfunctor",
             "compose_sfunctors", "empty_cat", "singleton_cat", "functor_U",
             "functor_U_map", "full_subcategory", "double_object", "coproduct",
             "pullback_scat", "pullback_mediating", "pi0_data", "pi0_category",
             "pi0_functor", "is_homotopy_equivalence"],
    "constructions_basic": ["walking_arrow", "codiscrete_groupoid", "inclusion_of_object"],
    "search": ["enumerate_sfunctors"],
    "words": ["pushout_generating", "glue_for_c2", "glue_at_object", "glue_for_u",
              "pushout_mediating"],
    "model": ["verify_lift", "verify_retract", "solve_lifting",
              "enumerate_problem_squares", "has_rlp_against_set", "is_dk_equivalence",
              "is_fibration", "is_acyclic_fibration", "is_acyclic_fibration_by_rlp",
              "c2_generator", "generating_cofibrations", "generating_acyclic_a1",
              "validate_marking", "is_free_map", "coproduct_inclusion_functor",
              "is_a2_candidate", "factor_bounded"],
}

# the build functions of the sset layer, summed into sset.build_s
SSET_BUILD = {"from_nondegenerate", "from_simplex_tuples", "standard_simplex", "boundary",
              "horn", "point", "empty_sset", "from_simplicial_complex", "sub_complex",
              "disjoint_union", "derive_records", "pullback_ssets", "attach_nondeg",
              "boundary_inclusion", "horn_inclusion", "identity_map"}


def _count_result(counts, fn, args, result):
    """Work counters read off a call's arguments and result."""
    if fn == "intmat.smith_normal_form":
        m = len(args[0])
        cells = m * (len(args[0][0]) if m else 0)
        counts["intmat.snf_max_cells"] = max(counts["intmat.snf_max_cells"], cells)
    elif fn == "sset.enumerate_sset_maps":
        counts["sset.maps_found"] += len(result)
    elif fn == "ssetcheck.has_rlp_sset":
        counts["ssetcheck.rlp_no"] += result.is_no
    elif fn == "ssetcheck.enumerate_squares":
        counts["ssetcheck.squares"] += len(result)
    elif fn == "pi1.coset_enumeration":
        counts["pi1.coset_undecided"] += result is None
    elif fn == "search.enumerate_sfunctors":
        counts["search.functors_found"] += len(result)
    elif fn == "words.pushout_generating":
        counts["words.words_built"] += sum(len(w) for w in result.words.values())
        counts["words.stabilized"] += result.stabilized
    elif fn == "model.enumerate_problem_squares":
        counts["model.problem_squares"] += len(result)
    elif fn == "model.solve_lifting":
        counts["model.lifts_found"] += result.is_yes
    elif fn == "model.factor_bounded":
        counts["model.cells_attached"] += len(result.cells)


class Tracer:
    """Records spans only while ``active`` (inside a timed operation)."""

    def __init__(self):
        self.active = False
        self.spans = []       # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            _count_result(self.counts, name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every listed function, at each place it is bound."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "sccat" or n.startswith("sccat.")]
        for layer, names in LAYERS.items():
            mod = modules[layer]
            for name in names:
                orig = getattr(mod, name)
                wrapped = self.wrap(f"{layer}.{name}", orig)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    @contextmanager
    def span(self, name: str):
        """A root span around one operation; tracing is on inside it."""
        span = [name, perf_counter(), None, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            span[2] = perf_counter()
            self._stack.pop()

    def take_pass(self):
        """Spans and counts of the pass just run; resets both."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def pass_metrics(spans: list, counts: dict, op_scales: list) -> dict:
    """Per-layer metrics of one traced pass.  Each span's time is scaled
    by the factor of the operation it ran in (``op_scales``, in order)."""
    by_fn, root = defaultdict(float), -1
    for (name, _, _, parent), t in zip(spans, self_times(spans)):
        root += parent < 0
        by_fn[name] += t * op_scales[root]
    layer_self = defaultdict(float)
    for name, t in by_fn.items():
        layer_self[name.split(".")[0]] += t

    def calls(fn):
        return counts.get(fn + ".calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    pushouts = calls("words.pushout_generating")
    lifts = calls("model.solve_lifting")
    m = {
        "intmat.snf_calls": calls("intmat.smith_normal_form"),
        "intmat.snf_s": by_fn["intmat.smith_normal_form"],
        "intmat.snf_max_cells": counts.get("intmat.snf_max_cells", 0),
        "intmat.solve_calls": calls("intmat.solve"),
        "intmat.kernel_basis_calls": calls("intmat.kernel_basis"),
        "homology.calls": calls("homology.homology"),
        "homology.iso_checks": calls("homology.homology_map_is_iso"),
        "pi1.trivial_group_calls": calls("pi1.is_trivial_group"),
        "pi1.coset_enum_calls": calls("pi1.coset_enumeration"),
        "pi1.coset_undecided": counts.get("pi1.coset_undecided", 0),
        "sset.build_s": sum(by_fn[f"sset.{f}"] for f in SSET_BUILD),
        "sset.map_enum_calls": calls("sset.enumerate_sset_maps"),
        "sset.maps_found": counts.get("sset.maps_found", 0),
        "sset.map_enum_s": by_fn["sset.enumerate_sset_maps"],
        "ssetcheck.rlp_calls": calls("ssetcheck.has_rlp_sset"),
        "ssetcheck.rlp_no": counts.get("ssetcheck.rlp_no", 0),
        "ssetcheck.squares": counts.get("ssetcheck.squares", 0),
        "ssetcheck.squares_s": by_fn["ssetcheck.enumerate_squares"],
        "ssetcheck.diagonal_s": by_fn["ssetcheck.has_rlp_sset"],
        "search.functor_enum_calls": calls("search.enumerate_sfunctors"),
        "search.functors_found": counts.get("search.functors_found", 0),
        "search.functor_enum_s": by_fn["search.enumerate_sfunctors"],
        "scat.compose_calls": calls("scat.compose_sfunctors"),
        "scat.compose_s": by_fn["scat.compose_sfunctors"],
        "words.pushout_calls": pushouts,
        "words.words_built": counts.get("words.words_built", 0),
        "words.pushout_s": by_fn["words.pushout_generating"],
        "words.stabilized_ratio": ratio(counts.get("words.stabilized", 0), pushouts),
        "model.problem_squares": counts.get("model.problem_squares", 0),
        "model.solve_lifting_calls": lifts,
        "model.lift_found_ratio": ratio(counts.get("model.lifts_found", 0), lifts),
        "model.solve_lifting_s": by_fn["model.solve_lifting"],
        "model.cells_attached": counts.get("model.cells_attached", 0),
    }
    for layer in list(LAYERS) + ["op"]:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
