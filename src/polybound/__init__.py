"""polybound: the poset of bounded faces of an unbounded pointed polyhedron,
computed exactly from inequality descriptions or vertex-facet incidences.

The package exports what the command line, the pipeline and the README's
library example use; everything else is reached through its module."""

from .errors import (BudgetExceededError, InputError, InternalError,
                     PolyboundError)
from .polyhedron import (ClosureResult, HRep, VRep,
                         enumerate_vertices_bruteforce,
                         enumerate_vertices_pivoting, projective_closure,
                         reverse_search_vertices)
from .incidence import (IncidenceMatrix, compute_incidences, far_face_vertices,
                        restrict_to_near)
from .bounded import (HasseDiagram, filter_bounded, full_face_lattice,
                      selective_generation)
from .moebius import moebius_generation
from .fvector import f_vector_simple
from .pipeline import BenchRow, run_pipeline, run_suite

__version__ = "0.1.0"
