"""Command-line driver: taxonomy, categorize, recommend, evaluate.

Configuration precedence is file < environment < flags. The five
environment variables are ``TAXREC_LLM_BASE_URL``, ``TAXREC_LLM_MODEL``,
``TAXREC_LLM_API_KEY``, ``TAXREC_EMBED_BASE_URL``, ``TAXREC_CACHE_DIR``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import baselines, catalog, evaluation, gateway, matchers, recommender, synthetic, taxonomy
from .core import InteractionSequence, Item
from .errors import TaxRecError

_ENV_KEYS = {
    "TAXREC_LLM_BASE_URL": "base_url",
    "TAXREC_LLM_MODEL": "model",
    "TAXREC_LLM_API_KEY": "api_key",
    "TAXREC_EMBED_BASE_URL": "embed_base_url",
    "TAXREC_CACHE_DIR": "cache_dir",
}

# --sweep name -> evaluation.SWEEP_AXES axis; report labels use the axis.
_SWEEP_AXES = {
    "feature-count": "feature_count",
    "matcher": "matcher",
    "prompt-variant": "prompt_variant",
    "ablation": "component_ablation",
}

# Fields that count something: a flag or config file must set them to 1 or more.
_COUNT_FIELDS = (
    "n", "k", "repeats", "max_workers", "n_items", "n_users", "per_user", "feature_count"
)


@dataclass
class RunConfig:
    """Fully resolved settings for one invocation.

    The field defaults are the defaults of every flag, and a config file
    may set exactly these fields.
    """

    provider: str = "mock"
    mock_seed: int = 0
    model: str = "default"
    base_url: str = ""
    api_key: str = ""
    embed_base_url: str = ""
    cache_dir: str = ".taxrec-cache"
    dataset: str = "synthetic"
    data_dir: str = ""
    domain: str = ""
    n_items: int = 240
    n_users: int = 80
    per_user: int = 25
    concentration: float = 0.8
    k: int = 10
    feature_count: int = 10
    matcher: str = "taxonomy"
    history_titles: bool = True
    rec_titles: bool = False
    no_taxonomy: bool = False
    n: int = 200
    seed: int = 0
    repeats: int = 3
    ks: str = "1,5,10"
    methods: str = "taxrec,direct,popularity"
    sweep: str = ""
    values: str = ""
    external: str = ""
    out: str = ""
    label: str = ""
    verbose: bool = False
    max_workers: int = 4

    def provenance(self) -> dict:
        """Everything that shaped the run except output location and secrets."""
        data = asdict(self)
        data.pop("out")
        data.pop("api_key")
        return data


def _split(text: str) -> list[str]:
    """The non-empty, stripped parts of a comma-separated list."""
    return [part.strip() for part in text.split(",") if part.strip()]


def resolve_config(args: argparse.Namespace, env: Mapping[str, str] | None = None) -> RunConfig:
    env = os.environ if env is None else env
    resolved = {f.name: f.default for f in fields(RunConfig)}

    config_path = getattr(args, "config", None)
    if config_path:
        where = f"config file {config_path}"
        try:
            file_values = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise TaxRecError(f"{where}: not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise TaxRecError(f"{where}: expected a JSON object, not {type(file_values).__name__}")
        unknown = set(file_values) - set(resolved)
        if unknown:
            raise TaxRecError(f"{where}: unknown keys {sorted(unknown)}")
        for f in fields(RunConfig):
            value, kind = file_values.get(f.name, f.default), type(f.default)
            # A bool is not an int; an int is a float.
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise TaxRecError(f"{where}: {f.name!r} must be a {kind.__name__}, not {value!r}")
            resolved[f.name] = kind(value)

    for env_key, field_name in _ENV_KEYS.items():
        if env.get(env_key):
            resolved[field_name] = env[env_key]

    for field_name in resolved:
        flag_value = getattr(args, field_name, None)
        if flag_value is not None:
            resolved[field_name] = flag_value

    # Defaults pass and no environment variable sets these: a bad value is a
    # flag's or the file's, and is refused before any taxonomy or pool work.
    def source(name: str) -> str:
        if getattr(args, name, None) is not None:
            return f"--{name.replace('_', '-')}"
        return f"config file {config_path}: {name!r}"

    for name in _COUNT_FIELDS:
        if resolved[name] < 1:
            raise TaxRecError(f"{source(name)} must be >= 1, not {resolved[name]!r}")
    if not 0 <= resolved["concentration"] <= 1:
        raise TaxRecError(
            f"{source('concentration')} must be in [0, 1], not {resolved['concentration']!r}"
        )
    ks = _split(resolved["ks"])
    if not ks or not all(part.isdecimal() and int(part) >= 1 for part in ks):
        raise TaxRecError(f"{source('ks')} must list integers >= 1, not {resolved['ks']!r}")
    if not resolved["domain"]:
        resolved["domain"] = _DATASETS.get(str(resolved["dataset"]), ("item",))[0]
    return RunConfig(**resolved)  # type: ignore[arg-type]


def build_provider(cfg: RunConfig) -> gateway.Provider:
    if cfg.provider == "mock":
        return gateway.MockProvider(cfg.mock_seed)
    if cfg.provider == "http":
        if not cfg.base_url:
            raise TaxRecError(
                "http provider needs a base URL (flag --base-url or TAXREC_LLM_BASE_URL)"
            )
        return gateway.HttpChatProvider(
            base_url=cfg.base_url,
            model_name=cfg.model,
            api_key=cfg.api_key or None,
        )
    raise TaxRecError(f"unknown provider {cfg.provider!r}; expected 'mock' or 'http'")


def build_embedder(cfg: RunConfig) -> matchers.Embedder:
    if cfg.embed_base_url:
        return matchers.HttpEmbedder(base_url=cfg.embed_base_url)
    # Deterministic non-semantic fallback so embedding paths run offline.
    return matchers.HashEmbedder(seed=cfg.mock_seed)


def _synthetic_dataset(cfg: RunConfig) -> tuple[catalog.ItemPool, list[catalog.Interaction]]:
    return synthetic.make_synthetic_dataset(
        n_items=cfg.n_items,
        n_users=cfg.n_users,
        interactions_per_user=cfg.per_user,
        seed=cfg.seed,
        concentration=cfg.concentration,
        domain_label=cfg.domain,
    )


def _data_dir(cfg: RunConfig) -> Path:
    if not cfg.data_dir:
        raise TaxRecError(f"dataset {cfg.dataset!r} needs --data-dir")
    return Path(cfg.data_dir)


# --dataset name -> (default domain, loader, evaluation sequence builder).
_DATASETS = {
    "synthetic": ("book", _synthetic_dataset, evaluation.build_movie_sequences),
    "movielens": (
        "movie", lambda cfg: catalog.load_movielens(_data_dir(cfg)), evaluation.build_movie_sequences
    ),
    "bookcrossing": (
        "book", lambda cfg: catalog.load_bookcrossing(_data_dir(cfg)), evaluation.build_book_sequences
    ),
}


def load_dataset(cfg: RunConfig) -> tuple[catalog.ItemPool, list[catalog.Interaction]]:
    if cfg.dataset not in _DATASETS:
        raise TaxRecError(f"unknown dataset {cfg.dataset!r}")
    return _DATASETS[cfg.dataset][1](cfg)


def _progress_line(done: int, total: int, failed: int) -> None:
    end = "\n" if done + failed >= total else "\r"
    sys.stdout.write(f"categorized {done}/{total} ({failed} failed){end}")
    sys.stdout.flush()


# -- subcommands -------------------------------------------------------


def _require_taxonomy(provider: gateway.Provider, cfg: RunConfig) -> taxonomy.TaxonomyDocument:
    doc = taxonomy.cached_taxonomy(provider, cfg.domain, Path(cfg.cache_dir))
    if doc is None:
        raise TaxRecError(
            f"no taxonomy for domain {cfg.domain!r} from model {provider.model_name!r}; "
            "run 'taxrec taxonomy' first"
        )
    return doc


def cmd_taxonomy(cfg: RunConfig) -> int:
    cache_dir = Path(cfg.cache_dir)
    provider = build_provider(cfg)
    doc = taxonomy.cached_taxonomy(provider, cfg.domain, cache_dir)
    if doc is not None:
        print(f"cached taxonomy for domain {cfg.domain!r}")
    else:
        doc = taxonomy.generate_taxonomy(provider, cfg.domain, cache_dir)
        print(f"generated taxonomy for domain {cfg.domain!r}")
    for feature in doc.taxonomy.features:
        print(f"  {feature.name} ({len(feature.values)} values)")
    print(f"{len(doc.taxonomy.features)} features")
    return 0


def cmd_categorize(cfg: RunConfig) -> int:
    provider = build_provider(cfg)
    doc = _require_taxonomy(provider, cfg)
    pool, _ = load_dataset(cfg)
    stats = catalog.CategorizeStats()
    cpool = catalog.categorize_pool(
        provider,
        pool,
        doc.taxonomy,
        Path(cfg.cache_dir),
        max_workers=cfg.max_workers,
        progress=_progress_line,
        stats=stats,
    )
    print(f"coverage {cpool.coverage:.2%}, {stats.dropped_pairs} out-of-taxonomy pairs dropped")
    return 0


def _recommend_config(cfg: RunConfig, k: int) -> recommender.RecommendConfig:
    rec_cfg = recommender.RecommendConfig(
        k=k, history_with_titles=cfg.history_titles, recommend_with_titles=cfg.rec_titles,
        matcher=cfg.matcher, taxonomy_feature_count=cfg.feature_count,
    )
    if not cfg.no_taxonomy:
        return rec_cfg
    direct = replace(rec_cfg, **evaluation.COMPONENT_ABLATIONS["no_tax"])
    # A free-text matcher asked for by name is kept.
    return direct if cfg.matcher == "taxonomy" else replace(direct, matcher=cfg.matcher)


def _read_history_ids(ids: str, ids_file: str) -> list[str]:
    if ids:
        return _split(ids)
    if ids_file:
        return [
            line.strip()
            for line in Path(ids_file).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    raise TaxRecError("provide history item ids via --ids or --ids-file")


def cmd_recommend(cfg: RunConfig, ids: str, ids_file: str) -> int:
    pool, _ = load_dataset(cfg)
    history_ids = _read_history_ids(ids, ids_file)
    unknown = [item_id for item_id in history_ids if item_id not in pool.by_id]
    if unknown:
        raise TaxRecError(f"unknown item ids: {', '.join(unknown)}")
    history = [pool.by_id[item_id] for item_id in history_ids]
    sequence = InteractionSequence(
        user_id="cli", history=tuple(history), target=Item(id="__cli_no_target__", title="")
    )
    provider = build_provider(cfg)
    rec_cfg = _recommend_config(cfg, cfg.k)
    embedder = build_embedder(cfg) if rec_cfg.matcher == "embedding" else None

    if rec_cfg.use_taxonomy:
        doc = _require_taxonomy(provider, cfg)
        cpool = catalog.load_categorized_pool(
            Path(cfg.cache_dir), pool, doc.taxonomy, provider.model_name
        )
        result = recommender.recommend(
            provider, sequence, cpool, doc.taxonomy, rec_cfg,
            domain_label=cfg.domain, embedder=embedder,
        )
    else:
        result = recommender.recommend_direct(provider, sequence, pool, rec_cfg, cfg.domain, embedder)

    print(f"{'rank':>4}  {'id':<12} {'score':>8}  title")
    for rank, (item_id, score) in enumerate(result.ranked.entries, start=1):
        title = pool.by_id[item_id].title
        print(f"{rank:>4}  {item_id:<12} {score:>8.3f}  {title}")
    if cfg.verbose:
        print("\n--- prompt ---")
        print(result.prompt_text)
        print("--- raw output ---")
        print(result.raw_output)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    cache_dir = Path(cfg.cache_dir)
    provider = build_provider(cfg)
    pool, interactions = load_dataset(cfg)
    sequences = _DATASETS[cfg.dataset][2](interactions, pool, sample_n=cfg.n, seed=cfg.seed)
    ks = [int(part) for part in _split(cfg.ks)]
    depth = max([cfg.k, *ks])

    doc = taxonomy.generate_taxonomy(provider, cfg.domain, cache_dir)
    cpool = catalog.categorize_pool(
        provider, pool, doc.taxonomy, cache_dir,
        max_workers=cfg.max_workers, progress=_progress_line if cfg.verbose else None,
    )
    embedder = build_embedder(cfg)
    base_rec_cfg = _recommend_config(cfg, depth)

    def make_method(rec_cfg: recommender.RecommendConfig) -> evaluation.MethodFn:
        return lambda sequence: recommender.recommend(
            provider, sequence, cpool, doc.taxonomy, rec_cfg,
            domain_label=cfg.domain, embedder=embedder,
        ).ranked

    if cfg.sweep:
        axis = _SWEEP_AXES.get(cfg.sweep)
        if axis is None:
            raise TaxRecError(f"unknown sweep {cfg.sweep!r}; expected one of {sorted(_SWEEP_AXES)}")
        setup = evaluation.SweepSetup(
            make_method=make_method, base_config=base_rec_cfg, sequences=sequences,
            repeats=cfg.repeats, ks=ks, max_workers=cfg.max_workers,
        )
        values = _split(cfg.values) or evaluation.SWEEP_AXES[axis][0]
        reports = evaluation.run_sweep(axis, values, setup)
    else:
        direct_cfg = replace(base_rec_cfg, **evaluation.COMPONENT_ABLATIONS["no_tax"])
        builders: dict[str, Callable[[], evaluation.MethodFn]] = {
            "taxrec": lambda: make_method(base_rec_cfg),
            "direct": lambda: make_method(direct_cfg),
            "popularity": lambda: functools.partial(
                baselines.popularity_recommend,
                baselines.PopularityTable.from_interactions(interactions), k=depth,
            ),
            "avgemb": lambda: functools.partial(
                baselines.AverageEmbeddingRecommender(embedder, pool).recommend, k=depth
            ),
        }
        methods: dict[str, evaluation.MethodFn] = {}
        for name in _split(cfg.methods):
            if name not in builders:
                raise TaxRecError(f"unknown method {name!r}; expected one of {sorted(builders)}")
            methods[name] = builders[name]()
        for path_text in _split(cfg.external):
            name, method = evaluation.load_external_results(Path(path_text))
            methods[name] = method
        reports = [
            evaluation.run_experiment(
                methods, sequences,
                repeats=cfg.repeats, ks=ks, max_workers=cfg.max_workers, label=cfg.label or cfg.dataset,
            )
        ]

    if cfg.out:
        run_dir = Path(cfg.out)
    else:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
        run_dir = Path("runs") / f"{stamp}-{cfg.label or cfg.dataset}"
    report_path = evaluation.write_report(run_dir, cfg.provenance(), reports, ks)
    print(evaluation.format_metric_table(reports, ks))
    print(f"report: {report_path}")
    return 0


# -- argument parsing ---------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (keys mirror flag names)")
    parser.add_argument("--provider", choices=["mock", "http"], help="chat provider backend")
    parser.add_argument("--mock-seed", dest="mock_seed", type=int, help="seed for the mock provider")
    parser.add_argument("--model", help="model name for the http provider")
    parser.add_argument("--base-url", dest="base_url", help="chat completion base URL")
    parser.add_argument("--api-key", dest="api_key", help="API key for the http provider")
    parser.add_argument("--embed-base-url", dest="embed_base_url", help="embedding endpoint base URL")
    parser.add_argument("--cache-dir", dest="cache_dir", help="taxonomy/categorization cache directory")
    parser.add_argument("--domain", help="domain label (defaults per dataset)")
    parser.add_argument("--max-workers", dest="max_workers", type=int, help="concurrent pipeline calls")
    parser.add_argument("--verbose", action="store_true", default=None, help="print extra detail")


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=list(_DATASETS), help="item pool source")
    parser.add_argument("--data-dir", dest="data_dir", help="dataset directory for real datasets")
    parser.add_argument("--n-items", dest="n_items", type=int, help="synthetic pool size")
    parser.add_argument("--n-users", dest="n_users", type=int, help="synthetic user count")
    parser.add_argument("--per-user", dest="per_user", type=int, help="synthetic interactions per user")
    parser.add_argument(
        "--concentration", type=float, help="synthetic preference concentration in [0,1]"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxrec",
        description="Taxonomy-guided zero-shot recommendation pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_tax = subparsers.add_parser("taxonomy", help="generate and persist the domain taxonomy")
    _add_common_flags(p_tax)
    _add_dataset_flags(p_tax)

    p_cat = subparsers.add_parser("categorize", help="categorize the item pool (resumable)")
    _add_common_flags(p_cat)
    _add_dataset_flags(p_cat)

    p_rec = subparsers.add_parser("recommend", help="recommend for a history of item ids")
    _add_common_flags(p_rec)
    _add_dataset_flags(p_rec)
    p_rec.add_argument("--ids", help="comma-separated history item ids")
    p_rec.add_argument("--ids-file", dest="ids_file", help="file with one history item id per line")
    p_rec.add_argument("--k", type=int, help="ranking depth")
    p_rec.add_argument("--matcher", choices=list(matchers.MATCHER_METHODS), help="ranking matcher")
    p_rec.add_argument(
        "--no-taxonomy", dest="no_taxonomy", action="store_true", default=None,
        help="skip the taxonomy: raw titles in, free-text matching out",
    )
    p_rec.add_argument("--feature-count", dest="feature_count", type=int, help="taxonomy features to keep")

    p_eval = subparsers.add_parser("evaluate", help="run the experiment harness")
    _add_common_flags(p_eval)
    _add_dataset_flags(p_eval)
    p_eval.add_argument("--n", type=int, help="number of evaluation instances to sample")
    p_eval.add_argument("--seed", type=int, help="sampling / synthetic generation seed")
    p_eval.add_argument("--repeats", type=int, help="experiment repetitions to average")
    p_eval.add_argument("--ks", help="comma-separated k values, e.g. 1,5,10")
    p_eval.add_argument("--k", type=int, help="ranking depth requested from methods")
    p_eval.add_argument("--methods", help="comma-separated: taxrec,direct,popularity,avgemb")
    p_eval.add_argument("--matcher", choices=list(matchers.MATCHER_METHODS), help="taxrec matcher")
    p_eval.add_argument("--feature-count", dest="feature_count", type=int, help="taxonomy features to keep")
    p_eval.add_argument(
        "--history-titles", dest="history_titles", action=argparse.BooleanOptionalAction,
        default=None, help="include titles in the categorized history",
    )
    p_eval.add_argument(
        "--rec-titles", dest="rec_titles", action=argparse.BooleanOptionalAction,
        default=None, help="parse titles out of recommendations",
    )
    p_eval.add_argument(
        "--sweep", choices=sorted(_SWEEP_AXES), help="sweep one axis instead of a single run"
    )
    p_eval.add_argument("--values", help="comma-separated sweep values (axis defaults otherwise)")
    p_eval.add_argument("--external", help="comma-separated external result files to merge")
    p_eval.add_argument("--out", help="report directory (default runs/<timestamp>-<label>)")
    p_eval.add_argument("--label", help="run label used in reports and default paths")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "taxonomy":
            return cmd_taxonomy(cfg)
        if args.command == "categorize":
            return cmd_categorize(cfg)
        if args.command == "recommend":
            return cmd_recommend(cfg, getattr(args, "ids", "") or "", getattr(args, "ids_file", "") or "")
        return cmd_evaluate(cfg)
    except (TaxRecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
