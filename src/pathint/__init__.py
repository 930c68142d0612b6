"""Exact-arithmetic iterated path integrals on directed graphs.

The package implements path maps on digraphs, discrete differential forms,
the iterated-integral pairing between words of 1-forms and paths, the
shuffle Hopf algebra of arrow words, homotopy moves with certificate
search, and the homotopy-invariant functional calculus built on top."""

from .errors import (FormError, GraphError, MapError, PairingError,
                     PathError, PathintError)
from .graphs import (BasedDigraph, Digraph, DigraphMap, PatternEmbedding,
                     box_product, compose_maps, cylinder, enumerate_patterns,
                     identity_map, is_digraph_map, line_digraph,
                     validate_digraph)
from .paths import (LoopMap, PathMap, concat, cut, elem_equivalent,
                    enumerate_paths, insert_trivial, inverse, is_reduced,
                    make_path, push_forward, reduce, steps, trivial_path)
from .forms import (OneForm, TwoChain, ZeroForm, closed_one_forms, d0,
                    is_closed, omega2_basis, pullback_one_form)
from .integrals import (all_words, commutator, iterated_integral,
                        iterated_integral_direct, order, pair, step_pairing,
                        volume_number, word_pairing, word_pairings_all)
from .algebra import (AlgebraElement, BasedFunctional, FunctionalVerdict,
                      TensorPair, antipode, coproduct, counit, from_forms,
                      functional_equal, hopf_axiom_report, pullback_element,
                      shuffle, shuffle_words, unit, word_element, zero)
from .homotopy import (HomotopyVerdict, InvarianceVerdict, Move,
                       MoveCertificate, Pi1Result, apply_move,
                       change_base_point, homotopic_loops, invariance_verify,
                       invariant_sufficient, invert_move, is_isosceles,
                       move_neighbors, one_step_map_homotopy, pi1_candidates)
from .fixtures import (directed_cycle, double_edge, standard_square,
                       standard_triangle, wedge_of_cycles)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BasedDigraph", "BasedFunctional", "Digraph",
    "DigraphMap", "FormError", "FunctionalVerdict", "GraphError",
    "HomotopyVerdict", "InvarianceVerdict", "LoopMap", "MapError", "Move",
    "MoveCertificate", "OneForm", "PairingError", "PathError", "PathMap",
    "PathintError", "PatternEmbedding", "Pi1Result",
    "TensorPair", "TwoChain", "ZeroForm", "all_words", "antipode",
    "apply_move", "box_product", "change_base_point", "closed_one_forms",
    "commutator", "compose_maps", "concat", "coproduct", "counit", "cut",
    "cylinder", "d0", "directed_cycle", "double_edge", "elem_equivalent",
    "enumerate_paths", "enumerate_patterns", "from_forms",
    "functional_equal", "homotopic_loops", "hopf_axiom_report",
    "identity_map", "insert_trivial", "invariance_verify",
    "invariant_sufficient", "inverse", "invert_move", "is_closed",
    "is_digraph_map", "is_isosceles", "is_reduced", "iterated_integral",
    "iterated_integral_direct", "line_digraph", "make_path",
    "move_neighbors", "omega2_basis", "one_step_map_homotopy", "order",
    "pair", "pi1_candidates", "pullback_element", "pullback_one_form",
    "push_forward", "reduce", "shuffle", "shuffle_words", "standard_square",
    "standard_triangle", "step_pairing", "steps", "trivial_path", "unit",
    "validate_digraph", "volume_number", "wedge_of_cycles", "word_element",
    "word_pairing", "word_pairings_all", "zero",
]
