"""Exact mixed-Hodge-structure tables for cohomology of non-trivial local
systems on Hilbert modular varieties, cross-validated against a brute-force
chain-complex homology oracle."""

from .errors import (
    BadDegree,
    BadHodgeIndex,
    ConfigError,
    DictionaryMiss,
    HilbertHodgeError,
    InconsistentInvariants,
    IncompatibleRank,
    OracleSizeExceeded,
    TrivialSystem,
)
from .higgs import (
    HiggsBasisElement,
    HiggsChainComplex,
    build_log_higgs_complex,
    full_homology,
    homology,
)
from .kunneth import (
    cohomology_sheaf_closed_form,
    count_N,
    weight_counts,
)
from .model import (
    LineBundleMonomial,
    LocalSystemSpec,
    SheafMatrix,
    VarietyInvariants,
    validate_spec,
)
from .consistency import (
    CheckReport,
    CheckResult,
    SweepBounds,
    check_euler_ih,
    check_hrr,
    check_oracle_equivalence,
    check_subset_counts,
    check_table_identities,
    run_verification,
)
from .tables import (
    EisensteinDatum,
    IhTable,
    MhsRow,
    MhsTable,
    eisenstein_data,
    gr_F_labels,
    ih_table,
    mhs_table,
    sheaf_cohomology_dim,
)
