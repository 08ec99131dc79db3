"""Verification library for three hypergeometric local systems.

Exact trace-function evaluation over small finite fields, Kubert
V-function finite-monodromy criteria, exhaustive base-p digit-sum lemma
checks, and combinatorial classification of the parameter sets, with a
batch CLI for the full reproduction suite.
"""

import os

# One OpenBLAS thread unless the user set a count in any variable OpenBLAS
# reads: it reads them once, when numpy loads it, so this comes before the
# first numpy import.  No call here gains from a second BLAS thread, and an
# idle worker spins.  Child processes inherit the setting.
if not any(var in os.environ for var in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cyclotomic import CycNumber, cyclotomic_polynomial
from .errors import (
    CapExceededError,
    DegreeOutOfRangeError,
    UnsupportedCharacteristicError,
)
from .finite_field import FieldTable, build_field, load_cache, save_cache
from .characters import gauss_sum
from .kubert import (
    bracket,
    check_criterion_Atimes,
    check_criterion_AxB,
    digit_sum,
    kubert_v,
    repunit_scaling_check,
    sequence_AB,
    verify_lemma_28,
    verify_lemma_3x13,
    verify_lemma_4x5,
)
from .exp_sums import (
    FAMILIES,
    TraceTable,
    moments,
    trace_axb,
    trace_quartic,
    trace_table_all,
)
from .hyp_params import (
    HypSpec,
    belyi_induction_match,
    build_Atimes,
    build_AxB,
    det_product_check,
    inertia_model,
    kummer_induction_candidates,
    primitivity_verdict,
    selfdual_test,
)

__version__ = "0.1.0"
