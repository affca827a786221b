"""Taxonomy-guided zero-shot recommendation.

Two phases: a one-time taxonomy categorization of the item pool, then
taxonomy-constrained recommendation ranked by feature-pair intersection.
"""

from .core import (
    CategorizedItem,
    Feature,
    FeaturePair,
    FeatureSet,
    InteractionSequence,
    Item,
    RankedList,
    Taxonomy,
    normalize_text,
    pair_set_intersection_size,
    rank_scores,
)
from .errors import (
    AuthError,
    ContentError,
    NetworkError,
    ParseError,
    ProviderError,
    StageError,
    TaxRecError,
)
from .gateway import (
    HttpChatProvider,
    LlmRequest,
    LlmResponse,
    MockProvider,
    PromptTemplate,
    render_categorization_prompt,
    render_direct_recommendation_prompt,
    render_recommendation_prompt,
    render_taxonomy_prompt,
)
from .taxonomy import (
    TaxonomyDocument,
    cached_taxonomy,
    generate_taxonomy,
    load_taxonomy,
    parse_taxonomy,
    store_taxonomy,
    taxonomy_fingerprint,
    taxonomy_to_prompt_text,
    truncate_features,
)
from .catalog import (
    CategorizedPool,
    CategorizeStats,
    Interaction,
    ItemPool,
    categorize_pool,
    load_bookcrossing,
    load_categorized_pool,
    load_movielens,
)
from .recommender import (
    PoolIndex,
    Recommendation,
    RecommendConfig,
    build_pool_index,
    categorize_history,
    history_to_prompt_text,
    parse_feature_output,
    recommend,
    score_pool,
)
from .matchers import (
    Embedder,
    HashEmbedder,
    HttpEmbedder,
    bleu_score,
    exact_title_score,
    rouge_l_f1,
)
from .baselines import (
    AverageEmbeddingRecommender,
    PopularityTable,
    popularity_recommend,
)
from .evaluation import (
    MetricReport,
    SweepSetup,
    build_book_sequences,
    build_movie_sequences,
    format_metric_table,
    load_external_results,
    ndcg_at_k,
    pad_history,
    recall_at_k,
    run_experiment,
    run_sweep,
    write_report,
)
from .synthetic import make_synthetic_dataset

__version__ = "0.1.0"
