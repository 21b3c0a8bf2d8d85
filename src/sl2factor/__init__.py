"""Exact unipotent factorization toolkit for SL2(C).

Alternating words of elementary matrices, the product map Phi_N and its
submersivity locus, closed-form fiber solvers, conserved-quantity vector
field flows, constant-matrix and Cohn-matrix factorization algorithms, and
the winding-number certificate that separates 4-factor continuous from
4-factor holomorphic factorizations.

Every public name is imported from its home module on first access (PEP
562), so `import sl2factor` loads no submodule and a caller pays only for
the modules it uses.
"""

_EXPORTS = {
    "exact_algebra": (
        "ExactComplex", "MultiPoly", "format_exact", "parse_exact",
        "poly_det_is_one", "poly_from_json", "poly_to_json"),
    "word_core": (
        "ElementaryFactor", "PhiTemplate", "SL2", "Word", "eval_word",
        "expand_phi", "format_point", "in_singular_set", "middle_Q",
        "middle_Q_brute", "sl2_from_json", "sl2_to_json", "word_from_json",
        "word_inverse", "word_to_json"),
    "submersion_spray": (
        "FlowResult", "TangentFrame", "VectorFieldSpec",
        "check_lemma_submersive", "flow_rk4", "frame_minor_det",
        "frame_rank", "sl2_jacobian", "v_field_spec", "vfield_apply",
        "w_field_spec"),
    "fiber_solver": (
        "FiberCompletion", "InteriorPoint", "complete_generic_even",
        "complete_nongeneric_even", "complete_odd", "f5_param",
        "fiber_transport_dim1", "fiber_transport_dim2", "interior_sample"),
    "factorizer": (
        "Factorization", "can_factor_three", "cohn_eval", "cohn_family_4",
        "cohn_family_relations", "cohn_holo_5", "factor_constant",
        "factor_count_bound", "factor_offdiag_zero", "factor_unit_corner",
        "pad_avoid_singular"),
    "obstruction": (
        "Certificate", "LoopSamples", "axis_continuation_degrees",
        "certificate_from_json", "circle_winding", "cohn_continuous_section",
        "continuous_section_h3", "divisor_degrees", "fiber_degree",
        "holo_obstruction_certificate", "sample_loop",
        "section_degree_on_fiber", "section_near_D1",
        "shrinking_circle_degrees", "winding_number"),
    "_verify": ("verify_suite",),
    "errors": (
        "InadequateSamplingError", "PreconditionError", "SamplingBudgetError",
        "VerificationError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, shows up in -X importtime
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    # later lookups are plain dict hits and never reach this function
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
