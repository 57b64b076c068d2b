"""Convexity obstructions for neural codes.

Builds the simplicial complex of a code, computes exact reduced link homology
over GF(2) or the rationals, extracts the homologically mandatory faces and a
certified approximation of the full mandatory set, handles Stanley-Reisner
and Alexander-dual ideals, and mechanically verifies how all of these behave
under the elementary code maps.
"""

# CLI path: what the commands read, compute and print, all reached from cli.main.
from .codes import Codeword, NeuralCode, NotationForm, code_to_json, parse_codeword
from .complexes import SimplicialComplex, code_complex, complex_to_json_dict, dual_complex, link
from .homology import Field, HomologyProfile, reduced_homology
from .collapse import Verdict, core_homology
from .mandatory import MandatoryPartition, MandatorySet, mandatory_partition, mandatory_set
from .ideals import MonomialIdeal, alexander_dual, sr_ideal
from .codemaps import (
    AddTrivialOff,
    AddTrivialOn,
    CheckResult,
    Duplicate,
    Include,
    Outcome,
    Permute,
    Project,
    VerificationReport,
    map_code,
)
from .randgen import random_code

# One-code checks that cli.main does not reach: verify checks the THEOREMS row that a step
# names (the verify command runs the same rows through suites.code_reports), and one
# step's image complex and one complex's contractibility verdict.
from .codemaps import image_complex, verify
from .collapse import contractibility

# Notation: format_codeword writes each form that parse_codeword reads on the CLI path.
from .codes import format_codeword

# Paper objects: facets, those acceptance criteria 2, 6, 7 and 9 name, and the obstruction test.
from .complexes import facet_intersection, facets, restriction
from .homology import boundary_matrix, euler_characteristic
from .collapse import strong_collapse_core
from .mandatory import ObstructionCheck, check_no_local_obstruction
from .ideals import ideal_contains, permute_ideal

# Suite API: the suites behind verify, and exhaustive_codes, the codes run_exhaustive covers.
from .suites import SuiteResult, exhaustive_codes, run_exhaustive, run_sampled, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
