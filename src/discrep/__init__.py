"""Exact two-dimensional discrepancy norms and rigorous L1 lower bounds.

Library layout:

  pointsets     exact points, generators, transforms, CSV persistence
  discrepancy   exact L1/L2/Linf norms of D, a Monte-Carlo oracle
  auxiliary     recursive empty-rectangle families and +-1 auxiliary functions
  combinatorics sign-vector moments, odd symmetric expansions
  testfn        Fourier-atom test functions, linear coefficients, certificates
  cli           the `discrep` command

`_interval` holds the raw-libmp interval helpers and is the one module that
imports mpmath; the functions that compute an interval load it when they
run, so `import discrep` loads neither mpmath nor numpy.
"""

from .errors import CsvFormatError, ResourceLimitError
from .pointsets import (
    CellDecomposition,
    Point,
    PointSet,
    dyadic,
    is_dyadic,
    random_uniform,
    read_csv,
    symmetrize,
    van_der_corput,
    write_csv,
)
from .discrepancy import (
    L1Norm,
    l1_norm,
    l2_norm_sq,
    linf_norm,
    monte_carlo_norm,
)
from .auxiliary import (
    AuxFamilyTree,
    InnerProduct,
    build_tree,
    build_trees,
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
    lin_limit,
    lin_n,
    lin_series_crosscheck,
)

__version__ = "0.1.0"
