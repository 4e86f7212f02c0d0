from .mesh import MeshSpace, build_mesh  # noqa: F401
from .fields import DofField, EnrichedField  # noqa: F401
from .assembly import modular_energy, separating_functional  # noqa: F401
from .solve import (GapReport, minimize, gap_experiment,  # noqa: F401
                    cone_trace_diagnostic)
