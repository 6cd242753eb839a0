"""Search kernels: maximal-clique enumeration, max-clique size,
canonical relabeling, relabeling invariants and relabeling search, in
pure Python (see ``pure``)."""

from . import pure
from .pure import canonical_min, find_relabeling, max_clique_size, maximal_cliques, relabel_profile

BACKEND = "pure"


def available_backends() -> list[str]:
    return [BACKEND]


def load_backend(name: str):
    """Fetch a backend module by name; "pure" is the only one."""
    if name != BACKEND:
        raise ValueError(f"unknown backend {name!r}")
    return pure
