"""Two-timescale gradient dynamics and spectral stability classification
for smooth minimax problems."""

import importlib

__all__ = ["cli", "dynamics", "problems", "spectral", "stability"]
__version__ = "0.1.0"


def __getattr__(name):
    """Import submodules on first access (PEP 562), so that importing the
    package does not import the CLI."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
