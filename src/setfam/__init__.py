"""setfam: intersecting k-uniform set families.

Construction of the named extremal families, structural statistics
(degrees, covers, kernels, links, matchings), exhaustive enumeration of
maximal intersecting families with isomorphism reduction, exact maximum
intersecting subfamily search, and exact audits of the classical bounds
and identities, all at desk scale with brute-force oracles.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .famcore import (
    Family,
    DegreeProfile,
    KSet,
    degree,
    degree_profile,
    elements,
    family,
    format_fam,
    intersection_parameter,
    is_intersecting,
    is_trivial,
    kset,
    maximal_closure,
    parse_fam,
    subfamily_at,
    twin_classes,
)
from .generators import (
    ConstraintSpec,
    HMSpec,
    gen_complete,
    gen_constrained,
    gen_full_star,
    gen_hm,
    gen_meets_front,
)
from .covers import (
    Kernel,
    cover_number,
    find_high_tau_link,
    is_cover,
    kernel,
    kernel_layer_sizes,
    matching_number,
    restriction_link,
)
from .enumeration import (
    IsoClass,
    UnsupportedRegimeError,
    enumerate_maximal_intersecting,
    iso_classes,
)
from .search import (
    EkrVerdict,
    TripleTransversalResult,
    check_ekr_property,
    make_triple_blocks,
    max_intersecting_subfamily,
    max_star_size,
    triple_transversal_search,
)
