"""Exact solver workbench for the Bipartite Influence scoring game."""

__version__ = "0.1.0"

from .graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    VertexColor,
    apply_move,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
    canonical_key,
    components,
    graph_from_json,
    legal_moves,
    load_graph,
    removal_closure,
    segment_value,
    strip_isolated,
)
from .solver import (
    ScorePair,
    SearchBudgetError,
    Solver,
    milnor_audit,
    prune_dominated,
)
from .games import (
    Game,
    add,
    add_all,
    audit_universe,
    dominates,
    equivalent,
    format_game,
    ls,
    negate,
    node,
    number,
    parse_game,
    repeated,
    rs,
    simplify,
)
from .thermo import (
    PiecewiseLinear,
    Thermograph,
    mean,
    mean_by_repetition,
    thermograph,
)
from .segments import (
    SegmentEngine,
    SegmentSum,
    periodicity_scan,
    raw_union_tree,
    segment_table,
    segment_union_tree,
)
from .symmetry import (
    CertifyReport,
    certify_draw,
    find_bw,
    mirror_defect,
)
from .reduction import (
    PosCnf,
    gadget_graph,
    parse_pos_cnf,
    pos_cnf_winner,
    reduction_soundness_check,
)
