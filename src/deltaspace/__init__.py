"""Exact combinatorics of distance value sets and ordered metric spaces."""

from .exact import ExactReal, compare, parse
from .dvs import DistanceSet, close, delta_triangle, gen_delta_alpha, make_set, scale, validate_closure
from .space import PartialIsometry, Space, copies_of, isomorphic, isomorphisms, make_space, uniform_space, validate
from .amalgam import free_amalgam
from .equiv import RatMatrix, ScalingWitness, gl2_apply, gl2_equivalent, linearity_check, scaling_witness, triangle_bijection_check
from .limitbuilder import density_perturb, extend_partial_isometry, extension_property_check, saturate
from .ramsey import arrow, is_rigid
from .coding import DvsCode, approx_check, check_theory_T, encode_dvs, model_encode, sim_check, triangle_structure, ts_isomorphic, validate_code

__all__ = [
    "ExactReal", "compare", "parse",
    "DistanceSet", "close", "delta_triangle", "gen_delta_alpha", "make_set", "scale", "validate_closure",
    "PartialIsometry", "Space", "copies_of", "isomorphic", "isomorphisms", "make_space", "uniform_space", "validate",
    "free_amalgam",
    "RatMatrix", "ScalingWitness", "gl2_apply", "gl2_equivalent", "linearity_check", "scaling_witness", "triangle_bijection_check",
    "density_perturb", "extend_partial_isometry", "extension_property_check", "saturate",
    "arrow", "is_rigid",
    "DvsCode", "approx_check", "check_theory_T", "encode_dvs", "model_encode", "sim_check", "triangle_structure", "ts_isomorphic", "validate_code",
]
