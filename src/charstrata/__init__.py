"""charstrata: the cuspidal-support parametrization of unipotent
character sheaves for quasi-simple types, the surjection onto strata,
and machine checks for every counting identity the tables satisfy.

charstrata.strata is the function, shadowing the submodule even in
"import charstrata.strata as m"; "from charstrata.strata import fiber"
still reads the module.
"""

from .cartan import (
    CartanDatum,
    CartanError,
    CartanType,
    CharstrataError,
    Subsystem,
    TORUS,
    datum,
    is_pseudo_levi,
    parse_type,
    pseudo_levi_types,
)
from .cuspidal import (
    CentralizerProfile,
    CuspidalCounts,
    CuspidalLevi,
    SheafTriple,
    SupportCase,
    centralizer_profile,
    centralizer_profiles,
    cuspidal_counts,
    cuspidal_levis,
    enumerate_cs_prime,
    irr_count,
    support_case,
)
from .labels import (
    BipartitionLabel,
    CharacterLabel,
    DPairLabel,
    IrrRegistry,
    LabelError,
    NamedLabel,
    PartitionLabel,
    TrivialLabel,
    enumerate_irr,
    parse_label,
)
from .strata import (
    CStarElement,
    GroupCollection,
    PlacementMismatch,
    RootOfUnityLabel,
    TripleNotFound,
    bijection_pairing,
    bijection_witness,
    c_collection,
    c_star,
    fiber,
    find_triple,
    regular_fiber_labels,
    strata,
    tau,
)
from .tables import (
    NoTableAvailable,
    StrataRow,
    TableStore,
    UnknownStratum,
    component_group,
)
from .verify import VerificationReport, register_external_table, run_all

__version__ = "0.1.0"
