from .mesh import MeshSpace, build_mesh  # noqa: F401
from .fields import DofField, EnrichedField  # noqa: F401
from .assembly import (modular_energy, functional_G,  # noqa: F401
                       separating_functional)
from .solve import (GapReport, minimize, gap_experiment,  # noqa: F401
                    cone_trace_diagnostic)
