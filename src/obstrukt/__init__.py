"""Convexity obstructions for neural codes.

Builds the simplicial complex of a code, computes exact reduced link homology
over GF(2) or the rationals, extracts the homologically mandatory faces and a
certified approximation of the full mandatory set, handles Stanley-Reisner
and Alexander-dual ideals, and mechanically verifies how all of these behave
under the elementary code maps.
"""

from .codes import (
    Codeword,
    NeuralCode,
    NotationForm,
    WordOps,
    code_to_json,
    format_codeword,
    parse_codeword,
    word_ops,
)
from .complexes import (
    SimplicialComplex,
    closed_star,
    closure_of,
    code_complex,
    complex_to_json,
    cone,
    delete_vertex,
    dual_complex,
    enumerate_complexes,
    facet_intersection,
    facets,
    full_simplex,
    link,
    restriction,
    star,
)
from .homology import (
    Field,
    HomologyProfile,
    boundary_matrix,
    euler_characteristic,
    reduced_homology,
)
from .collapse import (
    CollapseSequence,
    ContractibilityVerdict,
    DominationWitness,
    Verdict,
    contractibility,
    core_homology,
    dominated_vertices,
    elementary_collapse,
    free_face_pairs,
    strong_collapse_core,
)
from .mandatory import (
    MandatoryPartition,
    MandatorySet,
    ObstructionCheck,
    check_no_local_obstruction,
    mandatory_partition,
    mandatory_set,
)
from .ideals import (
    MonomialIdeal,
    alexander_dual,
    ideal_contains,
    permute_ideal,
    sr_ideal,
)
from .codemaps import (
    AddTrivialOff,
    AddTrivialOn,
    CheckResult,
    CodeMap,
    Duplicate,
    Include,
    Outcome,
    Permute,
    Project,
    VerificationReport,
    apply_step,
    image_complex,
    map_code,
    map_faces,
    verify_add_trivial_off,
    verify_add_trivial_on,
    verify_duplicate,
    verify_permutation,
    verify_projection,
)
from .randgen import random_code, random_complex
from .suites import SuiteResult, exhaustive_codes, run_exhaustive, run_sampled, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
