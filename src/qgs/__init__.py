"""Eigenpairs, sampling-set certification and explicit spectral-inequality
constants on compact metric graphs."""

from .bounds import (BoundReport, h_bound, heat_trace_bound, observability_constant,
                     spectral_bound, standard_range, torsion_profile)
from .graphs import (BoundarySubspace, Edge, MetricGraph, build_graph,
                     dual_subspace, gauge_transform, graph_from_dict,
                     load_graph, metrics, standard_subspace,
                     subspace_from_basis, vertex_conditions_subspace)
from .polytrig import (GraphFunction, IntervalUnion, PolyTrigTerm,
                       cosine_power_terms, inner_product, masses,
                       sup_on_disk_neighborhood)
from .sampling import (Cover, SamplingParams, SamplingSet, gap_analysis,
                       necessary_check, optimal_gamma, optimal_rho, svc_set,
                       verify_cover)
from .spectral import (EigenPair, TorsionSolution, eigenvalues_up_to,
                       secular_matrix, solve_torsion, spectral_sample)
from .verify import (audit, boundary_trace_check, classify_edges, kovrijkine_check,
                     lasso_counterexample, local_estimate_check,
                     observability_numeric, optimality_example, ratio_reports)

__version__ = "0.1.0"
