"""polybound: the poset of bounded faces of an unbounded pointed polyhedron,
computed exactly from inequality descriptions or vertex-facet incidences."""

from .errors import (BudgetExceededError, InputError, InternalError,
                     PolyboundError)
from .rational import format_rational, parse_rational
from .linalg import dot, nullspace, rank, solve_linear_system
from .lp import LpOutcome, LpStatus, lp_solve
from .polyhedron import (ClosureResult, Graph, HRep, VRep,
                         enumerate_vertices_bruteforce,
                         enumerate_vertices_pivoting, normalize_ray,
                         projective_closure, reverse_search_vertices)
from .incidence import (IncidenceMatrix, compute_incidences, far_face_vertices,
                        is_simple, restrict_to_near, vertex_edge_graph)
from .bounded import (HasseDiagram, WHOLE, closure, covers, filter_bounded,
                      full_face_lattice, selective_generation)
from .moebius import (VertexPoset, moebius_generation, moebius_oracle_filter,
                      vertex_poset)
from .fvector import FVector, HVector, f_vector_simple, generic_ray_objective
from .pipeline import BenchRow, run_pipeline, run_suite

__version__ = "0.1.0"
