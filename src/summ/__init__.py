"""Consensus-based multi-document extractive summarization.

Six classical sentence rankers produce full rank lists over a document
cluster; aggregation methods (Borda, weighted consensus, content-based
weighted consensus, choose-best oracle) fuse them into a meta-ranking;
a built-in ROUGE-N recall scorer and evaluation harness compare all of
them against reference summaries.
"""

from .consensus import (
    WcsResult,
    borda_aggregate,
    cwcs_aggregate,
    cwcs_weights,
    oracle_select,
    wcs_aggregate,
)
from .corpus import (
    CorpusError,
    DocumentCluster,
    ReferenceSummary,
    Sentence,
    duplicate_stats,
    load_corpus,
    segment_sentences,
    tokenize,
)
from .harness import (
    EvalReport,
    NoSuccessfulClustersError,
    RunConfig,
    emit_report,
    kendall_tau,
    run_evaluation,
    sign_test,
    summarize_cluster,
)
from .rouge import RougeScore, pairwise_sim_matrix, rouge_n_recall
from .summarizers import (
    ClusterFeatures,
    CorpusCounts,
    LengthBudget,
    RankList,
    Summary,
    centroid_rank,
    cosine_similarity,
    extract_summary,
    freqsum_rank,
    greedykl_rank,
    lexrank_rank,
    textrank_rank,
    topicsum_rank,
)

__version__ = "0.1.0"
