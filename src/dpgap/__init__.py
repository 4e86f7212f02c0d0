"""dpgap: numerical lab for borderline double-phase energies and the
Lavrentiev gap on the planar checkerboard geometry."""

__version__ = "0.1.0"

from . import errors  # noqa: F401
