"""Recursive towers over finite fields with rational base: correspondence
graphs, completeness and regularness criteria, splitting-polynomial
certificates, genus sequences, and constrained equation search."""

from . import errors
from .divisor import Divisor, divisor_to_function, principal_divisor, pullback, restricted_different
from .feq import (
    FunctionalReport,
    LenstraVerdict,
    divisorial_check,
    is_complete,
    lenstra_check,
    regularness_check,
)
from .ff import FieldCtx, FieldElem, is_prime, legendre
from .fixtures import FIXTURES, chi_from_graph, conjugate_check, load_fixture, verify_fixture
from .genus import asymptotic_report, delta, genus_closed, genus_sum
from .p1 import (
    Mobius,
    ProjPoint,
    RatMap,
    fiber,
    map_parse,
    mobius_conjugate,
    point_parse,
    ramification,
    ratfun_parse,
)
from .search import SearchParams, SearchSolution, candidate_stream, constraint_check
from .search import search as run_search
from .series import (
    coeff_a,
    hypergeom_identity_check,
    li_trick_check,
    lucas_check,
    ode_check,
    poly_feq_check,
    series_feq_check,
    truncate_H_mod_p,
)
from .tgraph import ComponentClass, ComponentReport, TowerGraph, graph_export
from .upoly import Poly, RatFun, compose_rational, ratfun_proportional, resultant

__version__ = "0.1.0"
