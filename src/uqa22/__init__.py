"""Exact symbolic engine for current projections of the twisted quantum
affine algebra of type A2(2): weight functions, their mode expansions,
and truncated universal R-matrix factors, all over Q(q)."""

__version__ = "0.1.0"

from .qfield import QPoly, QRat, qnum, qpow
from .series import ExpansionSeries, FactoredRational, ratio_degree
from .ncalg import (
    AbstractSymbol,
    ModeSymbol,
    NCExpr,
    abstract,
    mode,
    principal_degree,
)
from .blocks import (
    ArgList,
    build_block,
    build_kernel,
    build_matrices,
    build_tilde_block,
    kernel_value,
    residue_constant,
)
from .projection import (
    AdmissiblePair,
    WeightExpr,
    WeightTerm,
    admissible_pairs,
    build_fs,
    mode_expand,
    star_projection,
    weight_minus_closed,
    weight_minus_recursive,
    weight_plus_closed,
    weight_plus_recursive,
    weight_structure,
)
from .rmatrix import (
    TensorExpr,
    assemble_R,
    cartan_coeff,
    cartan_tensor,
    r_factor,
)
from .verify import SuiteReport, brute_admissible, run_suite
