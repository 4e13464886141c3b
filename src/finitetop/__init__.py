"""Finite-scale point-set topology workbench.

Spaces, filters, locales and pseudometric structures on carriers of at
most 16 points, with exhaustive validation everywhere exhaustion is
affordable, plus fixed-point solvers, a ranking iteration, a kernel
polynomial approximator and a propositional model builder.
"""

from .spaces import (
    FiniteSpace,
    SetFamily,
    ClosureTable,
    Preorder,
    SeparationProfile,
    generate_topology,
    closure_interior,
    topology_from_closure,
    induced_closure_table,
    topology_from_poset,
    separation_profile,
    discrete_space,
    all_topologies,
)
from .filters import ultrafilter_at, limits
from .construct import (
    PointMap,
    EquivalenceRelation,
    is_continuous,
    initial_topology,
    final_topology,
    product,
    subspace,
    topological_sum,
    quotient,
    one_point_extension,
)
from .locales import (
    heyting_implication,
    points_of_locale,
    phi_map,
    irreducible_closed_sets,
    scott_topology,
    hofmann_mislove_report,
)
from .pmetric import (
    PMetricSpace,
    RelationChain,
    RankedSets,
    StochasticMatrix,
    topology_from_pmetric,
    metric_quotient,
    hausdorff_distance,
    epsilon_net,
    pseudometric_from_chain,
    ultrametric_from_rank,
    banach_fixed_point,
    pagerank,
)
from .approx import (
    GridFunction,
    sqrt_iteration,
    weierstrass_polynomial,
    kernel_ratio,
)
from .logic import (
    PropFormula,
    Theory,
    parse_formula,
    lindenbaum_algebra,
    model_from_ultrafilter,
)
from .errors import FormatError, ValidationError
