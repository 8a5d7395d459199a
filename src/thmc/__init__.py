"""Markov bases and exact conditional tests for two-state chain path models.

The package covers the full pipeline: path tables and their transition
statistics (:mod:`thmc.core`), the six move families with validators and a
symmetric proposal sampler (:mod:`thmc.moves`), exhaustive fiber
enumeration and connectivity checks (:mod:`thmc.fiber`), MLE fitting and
the Metropolis-Hastings exact goodness-of-fit test (:mod:`thmc.inference`),
and CSV ingestion plus the ``thmc`` command line (:mod:`thmc.ingest`,
:mod:`thmc.cli`).  Its only runtime dependencies are numpy and click.
"""

from .core import (
    DENSE_T_CAP,
    Path,
    PathTable,
    TransitionStat,
    Variant,
    all_paths,
    as_path,
    configuration,
    decode,
    encode,
    initial_freq,
    parse_path,
    path_str,
    suff_stat,
    swap_states,
    transitions,
)
from .fiber import (
    BudgetExceeded,
    ConnectivityReport,
    Fiber,
    connectivity,
    enumerate_fiber,
    initial_frequency_classes,
    realizable_stats,
    sweep,
    table_text,
)
from .inference import (
    FitError,
    FittedModel,
    TestResult,
    chi2_sf,
    exact_test,
    fit_mle,
    likelihood_ratio,
    lr_df,
    mh_chain,
)
from .ingest import (
    IngestError,
    ingest,
    klotz_path,
    klotz_table,
    parse_mapping,
    serialize_table,
)
from .moves import (
    FAMILIES,
    Family,
    Move,
    MoveError,
    MoveGraph,
    NegativityViolation,
    ProposalSampler,
    apply_move,
    crossing_swap,
    deg3_sliding,
    enumerate_families,
    enumerate_family,
    format_move,
    move_graph,
    two_by_two_swap,
    type1_deg1,
    type2_deg1,
    type4_move,
)

__version__ = "0.1.0"
