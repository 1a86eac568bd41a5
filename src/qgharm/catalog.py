"""Named catalog of the bundled finite quantum group examples.

Seven examples: four commutative function algebras (cyclic groups and S3),
two cocommutative group algebras, and the 8-dimensional example that is
neither. Construction is cached per process; every entry re-verifies its
axioms when first built.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    FiniteQuantumGroup,
    build_function_algebra,
    build_group_algebra,
    build_kac_paljutkin,
    cyclic_table,
    is_cocommutative,
    is_commutative,
    symmetric_table_s3,
)
from .errors import QgharmError

__all__ = ["EXAMPLE_NAMES", "get_example", "list_examples", "example_summary"]


_BUILDERS = {
    "z2-function": lambda name: build_function_algebra(cyclic_table(2), name),
    "z3-function": lambda name: build_function_algebra(cyclic_table(3), name),
    "z4-function": lambda name: build_function_algebra(cyclic_table(4), name),
    "s3-function": lambda name: build_function_algebra(symmetric_table_s3(), name),
    "z2-group": lambda name: build_group_algebra(cyclic_table(2), name),
    "s3-group": lambda name: build_group_algebra(symmetric_table_s3(), name),
    "kac-paljutkin": lambda name: build_kac_paljutkin(),
}

EXAMPLE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def get_example(name: str) -> FiniteQuantumGroup:
    """Build (once per process) the named example quantum group."""
    if name not in _BUILDERS:
        raise QgharmError(f"no example named {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    return _BUILDERS[name](name)


def example_summary(name: str) -> dict:
    g = get_example(name)
    return {
        "name": name,
        "dim": g.dim,
        "commutative": is_commutative(g),
        "cocommutative": is_cocommutative(g),
    }


def list_examples() -> list:
    """Summaries for every catalog entry, in catalog order."""
    return [example_summary(name) for name in EXAMPLE_NAMES]
