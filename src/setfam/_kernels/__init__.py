"""Search kernels: maximal-clique enumeration, max-clique size and
canonical relabeling, in pure Python (see ``pure``)."""

from . import pure
from .pure import canonical_min, max_clique_size, maximal_cliques

BACKEND = "pure"


def available_backends() -> list[str]:
    return [BACKEND]


def load_backend(name: str):
    """Fetch a backend module by name; "pure" is the only one."""
    if name != BACKEND:
        raise ValueError(f"unknown backend {name!r}")
    return pure
