"""Index coding toolkit for symmetric neighboring consecutive side information."""

from . import gf2, gfp
from .air import (
    AirMatrix,
    ChainDecomposition,
    InvalidShapeError,
    build_air,
    chain_of,
    first_deficient_window,
)
from .codec import (
    CodeSpec,
    DecodePlan,
    ReceiverPlan,
    build_code,
    code_for,
    decode,
    encode,
    extend,
    extract_plan,
    single_sum_code,
)
from .mds import LengthComparison, MdsCodeSpec, build_mds, compare_lengths, mds_decode, mds_encode
from .oracles import (
    SimReport,
    TooLargeError,
    brute_mais,
    brute_minrank2,
    check_decodable,
    roundtrip_sim,
)
from .snc import (
    AnalysisReport,
    FullSideInfo,
    MinrankStatus,
    SideInfoGraph,
    SncInstance,
    analyze,
    broadcast_rate,
    build_graph,
    capacity,
    code_length,
    conjecture_value,
    induced_acyclic,
    length_slack,
    mais,
    mais_witness,
    mds_code_length,
    minrank_status,
    optimality_condition,
    partial_clique_kappa,
)

__version__ = "0.1.0"
