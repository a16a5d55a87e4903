"""Multi-scale (sequence, structure, surface) protein fitness modeling.

The public names below load their modules on first access (PEP 562), so
``import protfit.cli`` does not load numpy and ``--threads`` can still cap
BLAS threads.
"""

import importlib

__version__ = "0.1.0"

# Choice lists, kept here because this module loads no numpy.
MODES = ("s2f", "s3f", "surf_only")
EMBEDDERS = ("toy", "file")
OPTIMIZERS = ("adam", "sgd")
REPORT_FORMATS = ("csv", "json")

_EXPORTS = {
    "AssayTable": "io", "DataError": "errors", "FitnessModel": "gvp",
    "ModelConfig": "gvp", "MutationSet": "io", "NumericsError": "errors",
    "Protein": "io", "ProtfitError": "errors", "RbfConfig": "geometry",
    "ResidueEmbeddings": "io", "SpatialGraph": "geometry",
    "SurfaceConfig": "surface", "SurfacePointCloud": "surface",
    "UsageError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
