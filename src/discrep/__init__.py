"""Exact two-dimensional discrepancy norms and rigorous L1 lower bounds.

Library layout:

  dyadic        exact dyadic intervals/rectangles and Haar evaluations
  pointsets     generators, transforms, exact CSV persistence
  discrepancy   D(x, y), exact L1/L2/Linf norms, Monte-Carlo oracles
  auxiliary     recursive empty-rectangle families and +-1 auxiliary functions
  combinatorics sign-vector moments, odd symmetric expansions, Newton identities
  testfn        Fourier-atom test functions, extremal problem, certificates
  cli           the `discrep` command
"""

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Point,
    dyadic,
    haar_point_kernel,
    is_dyadic,
    subdivide,
)
from .errors import CsvFormatError, ResourceLimitError
from .pointsets import (
    PointSet,
    random_uniform,
    read_csv,
    symmetrize,
    van_der_corput,
    write_csv,
)
from .discrepancy import (
    CellDecomposition,
    L1Norm,
    d_n,
    eval_discrepancy,
    haar_inner_product,
    l1_norm,
    l2_norm_sq,
    l2_norm_sq_direct,
    linf_norm,
    monte_carlo_norm,
)
from .auxiliary import (
    AuxFamilyTree,
    InnerProduct,
    build_tree,
    eval_aux,
    inner_product,
    lemma_short_bound,
    lemma_suite,
    n_from_pointcount,
    product_bound_check,
)
from .combinatorics import (
    OddExpansionTable,
    OddMomentSeries,
    elementary_symmetric,
    expansion_table,
    newton_check,
    odd_moment_series,
    sign_sum_moment,
    sign_sum_moment_bruteforce,
)
from .testfn import (
    Atom,
    BoundCertificate,
    FourierAtomFunction,
    SINE,
    asymptotic_dn_table,
    certificate,
    constants_table,
    extremal_search,
    lin_limit,
    lin_n,
    lin_series_crosscheck,
    sin_expansion_check,
    sup_norm_via_coefficients,
)

__version__ = "0.1.0"
