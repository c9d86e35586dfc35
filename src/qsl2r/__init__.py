"""qsl2r: exact and numeric verification toolkit for a q-deformed sl(2,R)
at odd roots of unity.

The package is organized bottom-up:

    scalar     the root of unity q, exact cyclotomic arithmetic, q-numbers
    ncpoly     noncommutative polynomials in X, Y, Z, Z^-1, J over Q(q);
               PBW rewriting, the symbolic proof replays, and the one copy
               of every relation and of the cubic identity
    reps       the two irreducible matrix families, `evaluate` (ncpoly
               polynomials onto matrices, tensor polynomials onto pairs of
               representations) and the relation checks built on it,
               tensor products, the family intersection
    spectral   J eigenstructure, ladder chains, tridiagonality, the
               unitarizing (T, G) search
    cli        the qsl2r command-line entry point
"""

from .scalar import (RootContext, CycloNum, GaussCyclo, q_power, q_number,
                     to_complex, is_close)
from .ncpoly import (NcPoly, QRat, parse_expr, format_expr,
                     pbw_normal_form, substitute_j, identity_coefficients,
                     identity_contracts, lemma_check, lemma_v,
                     hopf_symbolic_check, HOPF_CHECKS)
from .reps import (Representation, build_family1, build_family2, evaluate,
                   verify_relations, j_matrix, recover_xy, tensor_rep,
                   intersection_check, representation_to_json,
                   representation_from_json)
from .spectral import (EigenPair, LadderChain, UnitarizingStructure,
                       eigen_solve, verify_identity, ladder_apply,
                       spectrum_chain, tridiagonality_check, unitarize_search)

__all__ = [
    "RootContext", "CycloNum", "GaussCyclo", "q_power", "q_number",
    "to_complex", "is_close",
    "NcPoly", "QRat", "parse_expr", "format_expr",
    "pbw_normal_form", "substitute_j", "identity_coefficients",
    "identity_contracts", "lemma_check", "lemma_v", "hopf_symbolic_check",
    "HOPF_CHECKS",
    "Representation", "build_family1", "build_family2", "evaluate", "verify_relations",
    "j_matrix", "recover_xy", "tensor_rep", "intersection_check",
    "representation_to_json", "representation_from_json",
    "EigenPair", "LadderChain", "UnitarizingStructure", "eigen_solve",
    "verify_identity", "ladder_apply", "spectrum_chain",
    "tridiagonality_check", "unitarize_search",
]

__version__ = "0.1.0"
