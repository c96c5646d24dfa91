"""Generalised quadrangles, their point graphs, and the regularity
hierarchy up to the t-vertex condition."""

from .algebra import AlgebraError, Field, Matrix2, field_make
from .formulas import FormulaId, expected_count, verify_formula
from .geometry import (CONSTRUCTIONS, GeometryError, PartialLinearSpace,
                       QClan, build_elliptic_gq, build_flock_gq,
                       build_symplectic_gq, build_t2star_gq, check_gq_axiom,
                       dualize, export_incidence, get_construction,
                       payne_qclan, point_graph, validate_pls)
from .graph import (CanonicalCode, Graph, GraphError, canonical_code,
                    complement, from_graph6, graph_from_edges,
                    induced_subgraph, read_graph6_file, to_graph6,
                    write_graph6_file)
from .gtypes import (GraphType, enumerate_order5_complements,
                     enumerate_s_candidates, enumerate_types, order5_type,
                     type_from_graph)
from .regularity import (DEGENERATE, IsoregularityReport, SrgParams,
                         check_isoregular, srg_parameters)
from .symmetry import pair_orbits, vertex_orbits
from .tvc import (Fingerprint, TvcVerdict, check_tvc, count_k44_per_edge,
                  count_type_anchored, pair_fingerprint)

__all__ = [name for name in dir() if not name.startswith("_")]
