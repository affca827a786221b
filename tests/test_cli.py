"""CLI flows: subcommands, configuration precedence, help coverage."""
from __future__ import annotations

import argparse
import json
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taxrec.cli import RunConfig, _recommend_config, build_parser, main, resolve_config
from taxrec.errors import TaxRecError


def run_cli(args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args, **kwargs)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # Keep ambient env from leaking into precedence tests.
    for key in (
        "TAXREC_LLM_BASE_URL",
        "TAXREC_LLM_MODEL",
        "TAXREC_LLM_API_KEY",
        "TAXREC_EMBED_BASE_URL",
        "TAXREC_CACHE_DIR",
    ):
        monkeypatch.delenv(key, raising=False)
    return tmp_path


SMALL_SYNTH = [
    "--dataset", "synthetic", "--n-items", "40", "--n-users", "12", "--per-user", "10",
]


class TestTaxonomyCommand:
    def test_generate_then_cached(self, workdir, capsys):
        assert run_cli(["taxonomy", "--domain", "book", "--provider", "mock"]) == 0
        out = capsys.readouterr().out
        assert "generated taxonomy" in out
        assert "10 features" in out
        assert "genre" in out

        assert run_cli(["taxonomy", "--domain", "book", "--provider", "mock"]) == 0
        assert "cached" in capsys.readouterr().out

    def test_http_provider_without_base_url_fails(self, workdir, capsys):
        code = run_cli(["taxonomy", "--domain", "book", "--provider", "http"])
        assert code == 1
        assert "base URL" in capsys.readouterr().err

    def test_cache_from_another_model_is_refused_then_regenerated(self, workdir, capsys):
        seed1 = ["--domain", "book", "--provider", "mock", "--mock-seed", "1"]
        seed2 = ["--provider", "mock", "--mock-seed", "2", *SMALL_SYNTH]
        assert run_cli(["taxonomy", *seed1]) == 0
        capsys.readouterr()

        assert run_cli(["categorize", *seed2]) == 1
        assert "mock-2" in capsys.readouterr().err
        assert run_cli(["recommend", *seed2, "--ids", "s0000"]) == 1
        assert "mock-2" in capsys.readouterr().err

        assert run_cli(["taxonomy", "--domain", "book", "--provider", "mock", "--mock-seed", "2"]) == 0
        assert "generated taxonomy" in capsys.readouterr().out
        cached = json.loads((workdir / ".taxrec-cache" / "book" / "taxonomy.json").read_text())
        assert cached["provider_fingerprint"][0] == "mock-2"
        assert run_cli(["categorize", *seed2]) == 0


    @pytest.mark.parametrize("damage", ["cut at 100 bytes", "no features"])
    def test_unreadable_cache_is_a_miss(self, workdir, capsys, damage):
        assert run_cli(["taxonomy", "--domain", "book", "--provider", "mock"]) == 0
        path = workdir / ".taxrec-cache" / "book" / "taxonomy.json"
        if damage == "cut at 100 bytes":
            path.write_bytes(path.read_bytes()[:100])
        else:
            payload = json.loads(path.read_text())
            del payload["features"]
            path.write_text(json.dumps(payload))
        capsys.readouterr()

        assert run_cli(["categorize", "--provider", "mock", *SMALL_SYNTH]) == 1
        assert "run 'taxrec taxonomy' first" in capsys.readouterr().err
        assert run_cli(["taxonomy", "--domain", "book", "--provider", "mock"]) == 0
        assert "generated taxonomy" in capsys.readouterr().out
        assert len(json.loads(path.read_text())["features"]) == 10
        assert run_cli(["categorize", "--provider", "mock", *SMALL_SYNTH]) == 0


class TestCategorizeCommand:
    def test_requires_taxonomy_first(self, workdir, capsys):
        code = run_cli(["categorize", "--provider", "mock", *SMALL_SYNTH])
        assert code == 1
        assert "taxonomy" in capsys.readouterr().err

    def test_categorize_synthetic(self, workdir, capsys):
        run_cli(["taxonomy", "--domain", "book", "--provider", "mock"])
        code = run_cli(["categorize", "--provider", "mock", *SMALL_SYNTH])
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage 100.00%" in out
        assert (workdir / ".taxrec-cache" / "book" / "items.jsonl").exists()

    def test_bad_dataset_path(self, workdir, capsys):
        run_cli(["taxonomy", "--domain", "movie", "--provider", "mock"])
        code = run_cli(
            ["categorize", "--provider", "mock", "--dataset", "movielens", "--data-dir", "missing"]
        )
        assert code == 1


# `taxrec recommend --provider mock --dataset synthetic --ids s0001,s0002,s0003
# --k 40` after `taxonomy` and `categorize` with the same provider and dataset,
# generated with the code from before score_pool cut at the k-th largest score.
# The runs at --k 1 and --k 10 print its header and first k rows. The cuts at
# 10 and 40 both fall inside a run of tied scores (5.000 and 4.000), so the
# ascending-id tie-break decides which rows are printed.
RECOMMEND_K40 = """\
rank  id              score  title
   1  s0001           9.000  The Crimson Tide 2
   2  s0102           7.000  The Restless River 103
   3  s0039           6.000  The Shattered Letter 40
   4  s0059           6.000  The Crimson River 60
   5  s0139           6.000  The Burning Labyrinth 140
   6  s0150           6.000  The Forgotten Meridian 151
   7  s0233           6.000  The Iron Orchard 234
   8  s0002           5.000  The Midnight Garden 3
   9  s0003           5.000  The Quiet Mirror 4
  10  s0033           5.000  The Midnight Orchard 34
  11  s0152           5.000  The Velvet River 153
  12  s0160           5.000  The Distant Signal 161
  13  s0162           5.000  The Paper Meridian 163
  14  s0186           5.000  The Burning Cartographer 187
  15  s0187           5.000  The Restless Letter 188
  16  s0192           5.000  The Iron Mirror 193
  17  s0201           5.000  The Hollow Harbor 202
  18  s0225           5.000  The Paper Engine 226
  19  s0231           5.000  The Quiet Signal 232
  20  s0237           5.000  The Silent Letter 238
  21  s0021           4.000  The Restless Letter 22
  22  s0027           4.000  The Quiet Letter 28
  23  s0053           4.000  The Luminous Garden 54
  24  s0056           4.000  The Silent Meridian 57
  25  s0060           4.000  The Iron Signal 61
  26  s0061           4.000  The Shattered Orchard 62
  27  s0062           4.000  The Wandering Orchard 63
  28  s0067           4.000  The Velvet Meridian 68
  29  s0071           4.000  The Hollow Cartographer 72
  30  s0075           4.000  The Midnight Frontier 76
  31  s0095           4.000  The Shattered Cartographer 96
  32  s0096           4.000  The Paper Mirror 97
  33  s0104           4.000  The Burning River 105
  34  s0105           4.000  The Gilded River 106
  35  s0109           4.000  The Shattered Cartographer 110
  36  s0114           4.000  The Shattered Harbor 115
  37  s0118           4.000  The Crimson Meridian 119
  38  s0119           4.000  The Shattered Sparrow 120
  39  s0123           4.000  The Hollow Meridian 124
  40  s0144           4.000  The Midnight Signal 145
"""


# `taxrec recommend ... --ids s0001,s0002,s0003 --k 10 --verbose` after the
# same setup, generated with the code from before each item's values were
# grouped once on the item: the first 11 lines of RECOMMEND_K40, then this.
RECOMMEND_K10_VERBOSE_TAIL = """\

--- prompt ---
You are a book recommender system. Given a list of books the user has read before, please recommend 10 books in a list of features following the format of the given taxonomy.

Taxonomy:
genre: mystery, fantasy, fiction, non-fiction
theme: identity, power, love, survival
tone: humorous, dark, light, serious
era: ancient, classic, modern, contemporary
audience: scholar, adult, young adult, children
setting: rural, frontier, imaginary, urban
style: narrative, descriptive, experimental, minimalist
pacing: fast, slow, steady, varied
language: spanish, german, english, french
format: standalone, novel, anthology, series

History:
The Crimson Tide 2 — genre: fantasy; theme: survival; tone: dark; era: ancient; audience: children; setting: urban; style: minimalist; pacing: slow; language: english; format: series
The Midnight Garden 3 — genre: non-fiction; theme: love; tone: light; era: classic; audience: young adult; setting: urban; style: minimalist; pacing: steady; language: english; format: series
The Quiet Mirror 4 — genre: fiction; theme: survival; tone: dark; era: ancient; audience: young adult; setting: frontier; style: narrative; pacing: varied; language: spanish; format: series

--- raw output ---
genre: fantasy
theme: survival
tone: dark
era: ancient
audience: young adult
setting: urban
style: minimalist
pacing: slow
language: english
format: series
"""


# `taxrec recommend --no-taxonomy --k 5` over a MovieLens-style directory with
# ids 1-12. The mock's invented titles match no film, so every score is 0 and
# the rows are the five lowest ids as strings.
RECOMMEND_NO_TAXONOMY_K5 = """\
rank  id              score  title
   1  1               0.000  Film 1 (1995)
   2  10              0.000  Film 10 (1995)
   3  11              0.000  Film 11 (1995)
   4  12              0.000  Film 12 (1995)
   5  2               0.000  Film 2 (1995)
"""


class TestRecommendCommand:
    def _prepare(self, workdir):
        run_cli(["taxonomy", "--domain", "book", "--provider", "mock"])
        run_cli(["categorize", "--provider", "mock", *SMALL_SYNTH])

    def test_topk_table(self, workdir, capsys):
        self._prepare(workdir)
        capsys.readouterr()
        code = run_cli(
            ["recommend", "--provider", "mock", *SMALL_SYNTH,
             "--ids", "s0000,s0001,s0002", "--k", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [line for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
        assert len(rows) == 10
        scores = [float(line.split()[2]) for line in rows]
        assert scores == sorted(scores, reverse=True)

    def test_no_taxonomy_prompt_is_raw_titles(self, workdir, capsys):
        self._prepare(workdir)
        capsys.readouterr()
        code = run_cli(
            ["recommend", "--provider", "mock", *SMALL_SYNTH,
             "--ids", "s0000,s0001", "--no-taxonomy", "--verbose"]
        )
        out = capsys.readouterr().out
        assert code == 0
        prompt = out.split("--- prompt ---")[1].split("--- raw output ---")[0]
        assert "taxonomy" not in prompt.lower()
        assert "The" in prompt  # synthetic titles present

    def test_unknown_id_named(self, workdir, capsys):
        self._prepare(workdir)
        code = run_cli(
            ["recommend", "--provider", "mock", *SMALL_SYNTH, "--ids", "s0000,ghost42"]
        )
        assert code == 1
        assert "ghost42" in capsys.readouterr().err

    def test_golden_output_at_every_cut(self, workdir, capsys):
        for command in ("taxonomy", "categorize"):
            assert run_cli([command, "--provider", "mock", "--dataset", "synthetic",
                            "--cache-dir", "cache"]) == 0
        for k in (1, 10, 40):
            capsys.readouterr()
            code = run_cli(["recommend", "--provider", "mock", "--dataset", "synthetic",
                            "--cache-dir", "cache", "--ids", "s0001,s0002,s0003", "--k", str(k)])
            assert code == 0
            expected = "".join(RECOMMEND_K40.splitlines(keepends=True)[: k + 1])
            assert capsys.readouterr().out == expected

    def test_golden_verbose_prompt(self, workdir, capsys):
        for command in ("taxonomy", "categorize"):
            assert run_cli([command, "--provider", "mock", "--dataset", "synthetic",
                            "--cache-dir", "cache"]) == 0
        capsys.readouterr()
        code = run_cli(["recommend", "--provider", "mock", "--dataset", "synthetic",
                        "--cache-dir", "cache", "--ids", "s0001,s0002,s0003", "--k", "10",
                        "--verbose"])
        assert code == 0
        expected = "".join(RECOMMEND_K40.splitlines(keepends=True)[:11]) + RECOMMEND_K10_VERBOSE_TAIL
        assert capsys.readouterr().out == expected

    def test_no_taxonomy_zero_scores_fill_by_ascending_id(self, workdir, capsys):
        data = workdir / "movielens"
        data.mkdir()
        (data / "u.item").write_text(
            "".join(f"{n}|Film {n} (1995)|01-Jan-1995||http://x|0|1|0\n" for n in range(1, 13)),
            encoding="latin-1",
        )
        (data / "u.data").write_text(
            "".join(f"{u}\t{(u + s) % 12 + 1}\t{s + 1}\t{1000 + 10 * u + s}\n" for u in range(1, 4) for s in range(4)),
            encoding="latin-1",
        )
        capsys.readouterr()
        code = run_cli(["recommend", "--provider", "mock", "--dataset", "movielens", "--data-dir", str(data),
                        "--cache-dir", "cache", "--ids", "3,4", "--no-taxonomy", "--k", "5"])
        assert code == 0
        assert capsys.readouterr().out == RECOMMEND_NO_TAXONOMY_K5

    def test_ids_file(self, workdir, capsys):
        self._prepare(workdir)
        ids_file = workdir / "ids.txt"
        ids_file.write_text("s0000\ns0001\n")
        code = run_cli(
            ["recommend", "--provider", "mock", *SMALL_SYNTH, "--ids-file", str(ids_file)]
        )
        assert code == 0


EVAL_ARGS = [
    "evaluate", "--provider", "mock", *SMALL_SYNTH,
    "--n", "25", "--seed", "7", "--repeats", "1",
]


class TestEvaluateCommand:
    def test_three_method_rows(self, workdir, capsys):
        code = run_cli(EVAL_ARGS + ["--methods", "taxrec,direct,popularity", "--out", "run1"])
        out = capsys.readouterr().out
        assert code == 0
        table = (workdir / "run1" / "table.txt").read_text()
        for name in ("taxrec", "direct", "popularity"):
            assert name in table
        payload = json.loads((workdir / "run1" / "report.json").read_text())
        assert set(payload["reports"][0]["per_method"]) == {"taxrec", "direct", "popularity"}
        assert payload["config"]["seed"] == 7
        assert "out" not in payload["config"]

    def test_avgemb_method_runs_offline(self, workdir):
        code = run_cli(EVAL_ARGS + ["--methods", "avgemb", "--out", "run-avg"])
        assert code == 0

    def test_deterministic_report_bytes(self, workdir):
        assert run_cli(EVAL_ARGS + ["--out", "runA"]) == 0
        assert run_cli(EVAL_ARGS + ["--out", "runB"]) == 0
        bytes_a = (workdir / "runA" / "report.json").read_bytes()
        bytes_b = (workdir / "runB" / "report.json").read_bytes()
        assert bytes_a == bytes_b

    def test_feature_count_sweep_columns(self, workdir):
        code = run_cli(
            EVAL_ARGS + ["--sweep", "feature-count", "--values", "5,10,15,20", "--out", "sweep1"]
        )
        assert code == 0
        payload = json.loads((workdir / "sweep1" / "report.json").read_text())
        labels = [report["label"] for report in payload["reports"]]
        assert labels == [
            "feature_count=5", "feature_count=10", "feature_count=15", "feature_count=20",
        ]

    def test_ablation_sweep_cells(self, workdir):
        code = run_cli(EVAL_ARGS + ["--sweep", "ablation", "--out", "sweep2"])
        assert code == 0
        payload = json.loads((workdir / "sweep2" / "report.json").read_text())
        labels = [report["label"] for report in payload["reports"]]
        assert labels == [
            "component_ablation=full",
            "component_ablation=no_tax",
            "component_ablation=no_match",
        ]
        assert all(report["error"] is None for report in payload["reports"])

    def test_bad_sweep_values_are_failed_cells(self, workdir):
        code = run_cli(EVAL_ARGS + ["--sweep", "feature-count", "--values", "5,x,0", "--out", "bad"])
        assert code == 0
        payload = json.loads((workdir / "bad" / "report.json").read_text())
        errors = {report["label"]: report["error"] for report in payload["reports"]}
        assert list(errors) == ["feature_count=5", "feature_count=x", "feature_count=0"]
        assert errors["feature_count=5"] is None
        assert errors["feature_count=x"] and errors["feature_count=0"]

    def test_unknown_method_is_an_error(self, workdir, capsys):
        assert run_cli(EVAL_ARGS + ["--methods", "taxrec,oracle", "--out", "bad"]) == 1
        err = capsys.readouterr().err
        assert "'oracle'" in err and "avgemb" in err

    def test_prompt_variant_sweep_default_values(self, workdir):
        code = run_cli(EVAL_ARGS + ["--sweep", "prompt-variant", "--out", "sweep3"])
        assert code == 0
        payload = json.loads((workdir / "sweep3" / "report.json").read_text())
        assert len(payload["reports"]) == 4
        assert all(report["error"] is None for report in payload["reports"])

    def test_external_results_merge(self, workdir):
        pool_target = "s0001"
        external = {
            "method": "frozen-sota",
            "instances": [],
        }
        # Build instances for every sampled sequence by reusing the builder.
        from taxrec.cli import load_dataset, resolve_config as rc
        from taxrec.evaluation import build_movie_sequences

        parser = build_parser()
        args = parser.parse_args(EVAL_ARGS + ["--out", "ext"])
        cfg = rc(args, env={})
        pool, interactions = load_dataset(cfg)
        sequences = build_movie_sequences(interactions, pool, sample_n=25, seed=7)
        external["instances"] = [
            {
                "user_id": seq.user_id,
                "target_id": seq.target.id,
                "ranking": [[seq.target.id, 1.0]] + [[f"zz{n}", 0.5] for n in range(9)],
            }
            for seq in sequences
        ]
        path = workdir / "external.json"
        path.write_text(json.dumps(external))
        code = run_cli(EVAL_ARGS + ["--external", str(path), "--out", "ext"])
        assert code == 0
        payload = json.loads((workdir / "ext" / "report.json").read_text())
        assert payload["reports"][0]["per_method"]["frozen-sota"]["recall@1"] == 1.0


class TestConfigPrecedence:
    def _namespace(self, **kwargs):
        parser = build_parser()
        args = parser.parse_args(kwargs.pop("argv"))
        return args

    def test_file_then_env_then_flags(self, tmp_path):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({"cache_dir": "from-file", "model": "file-model"}))

        args = self._namespace(argv=["taxonomy", "--config", str(config_file)])
        cfg = resolve_config(args, env={})
        assert cfg.cache_dir == "from-file"

        cfg = resolve_config(args, env={"TAXREC_CACHE_DIR": "from-env"})
        assert cfg.cache_dir == "from-env"
        assert cfg.model == "file-model"

        args = self._namespace(
            argv=["taxonomy", "--config", str(config_file), "--cache-dir", "from-flag"]
        )
        cfg = resolve_config(args, env={"TAXREC_CACHE_DIR": "from-env"})
        assert cfg.cache_dir == "from-flag"

    def test_env_vars_recognized(self):
        args = self._namespace(argv=["taxonomy"])
        cfg = resolve_config(
            args,
            env={
                "TAXREC_LLM_BASE_URL": "http://llm",
                "TAXREC_LLM_MODEL": "m1",
                "TAXREC_LLM_API_KEY": "k1",
                "TAXREC_EMBED_BASE_URL": "http://emb",
                "TAXREC_CACHE_DIR": "cache",
            },
        )
        assert (cfg.base_url, cfg.model, cfg.api_key) == ("http://llm", "m1", "k1")
        assert (cfg.embed_base_url, cfg.cache_dir) == ("http://emb", "cache")

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({"nonsense": 1}))
        args = self._namespace(argv=["taxonomy", "--config", str(config_file)])
        with pytest.raises(Exception, match="nonsense"):
            resolve_config(args, env={})

    @pytest.mark.parametrize(
        "config_text,flags,named",
        [
            pytest.param(json.dumps({"k": "ten"}), [], "'k'", id="content0-'k'"),
            pytest.param(json.dumps({"max_workers": "2"}), [], "'max_workers'", id="content1-'max_workers'"),
            pytest.param(json.dumps({"n": -5}), [], "'n'", id="content2-'n'"),
            pytest.param(json.dumps({"repeats": True}), [], "'repeats'", id="content3-'repeats'"),
            pytest.param(json.dumps("str"), [], "JSON object", id="str-JSON object"),
            pytest.param(json.dumps({"ks": "1,0"}), [], "'ks'", id="file-ks-0"),
            pytest.param("{bad", [], "not valid JSON", id="file-not-json"),
            pytest.param(None, ["--n", "-5"], "--n", id="flag-n-negative"),
            pytest.param(None, ["--max-workers", "0"], "--max-workers", id="flag-max-workers-0"),
            pytest.param(None, ["--ks", "1,x"], "--ks", id="flag-ks-not-int"),
            pytest.param(None, ["--ks", ","], "--ks", id="flag-ks-empty"),
            pytest.param(None, ["--ks", "0,5"], "--ks", id="flag-ks-0"),
            pytest.param(None, ["--k", "0"], "--k", id="flag-k-0"),
            pytest.param(None, ["--feature-count", "0"], "--feature-count", id="flag-features-0"),
            pytest.param(json.dumps({"feature_count": 0}), [], "'feature_count'", id="file-features-0"),
            pytest.param(None, ["--concentration", "2"], "--concentration", id="flag-conc-2"),
            pytest.param(json.dumps({"concentration": -0.5}), [], "'concentration'", id="file-conc-neg"),
        ],
    )
    def test_bad_config_file_is_one_error_line(self, workdir, capsys, config_text, flags, named):
        # A bad count, ks or config file fails before any work, from any source.
        args = ["evaluate", *flags, "--out", "run"]
        config_file = workdir / "cfg.json"
        if config_text is not None:
            config_file.write_text(config_text)
            args += ["--config", str(config_file)]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1
        assert named in error_lines[0]
        assert (str(config_file) in error_lines[0]) == (config_text is not None)
        assert "Traceback" not in captured.out + captured.err
        assert not (workdir / "run").exists()
        assert not (workdir / ".taxrec-cache").exists()  # no taxonomy, no items.jsonl

    @settings(max_examples=150, deadline=None)
    @given(
        content=st.one_of(
            st.dictionaries(
                st.sampled_from([f.name for f in fields(RunConfig)]),
                st.one_of(
                    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                    st.text(max_size=4), st.lists(st.integers(), max_size=2),
                ),
                max_size=4,
            ),
            st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2), st.none(),
        )
    )
    def test_config_file_values_are_checked(self, content):
        with tempfile.TemporaryDirectory() as directory:
            config_file = Path(directory) / "cfg.json"
            config_file.write_text(json.dumps(content))
            args = self._namespace(argv=["evaluate", "--config", str(config_file)])
            try:
                cfg = resolve_config(args, env={})
            except TaxRecError as exc:
                assert str(config_file) in str(exc)
                return
        for f in fields(RunConfig):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name

    def test_no_taxonomy_keeps_a_named_free_text_matcher(self):
        def rec_cfg(*flags):
            args = self._namespace(argv=["recommend", "--no-taxonomy", *flags])
            return _recommend_config(resolve_config(args, env={}), 10)

        assert (rec_cfg().use_taxonomy, rec_cfg().matcher) == (False, "exact_title")
        assert rec_cfg("--matcher", "embedding").matcher == "embedding"

    def test_domain_defaults_per_dataset(self):
        args = self._namespace(argv=["evaluate", "--dataset", "movielens"])
        assert resolve_config(args, env={}).domain == "movie"
        args = self._namespace(argv=["evaluate", "--dataset", "synthetic"])
        assert resolve_config(args, env={}).domain == "book"

    def test_provenance_excludes_output_and_secrets(self):
        args = self._namespace(argv=["evaluate", "--out", "somewhere", "--api-key", "hush"])
        data = resolve_config(args, env={}).provenance()
        assert "out" not in data and "api_key" not in data


class TestHelpCoverage:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("taxonomy", ["--provider", "--mock-seed", "--cache-dir", "--domain", "--config"]),
            ("categorize", ["--dataset", "--data-dir", "--n-items", "--max-workers"]),
            ("recommend", ["--ids", "--ids-file", "--k", "--no-taxonomy", "--matcher", "--verbose"]),
            (
                "evaluate",
                ["--n", "--seed", "--repeats", "--ks", "--methods", "--sweep", "--values",
                 "--external", "--out", "--label", "--history-titles", "--rec-titles",
                 "--feature-count", "--embed-base-url"],
            ),
        ],
    )
    def test_every_flag_in_help(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        help_text = capsys.readouterr().out
        for flag in flags:
            assert flag in help_text

    def test_flags_and_config_fields_match(self):
        # Every flag sets one RunConfig field and every field has a flag.
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        )
        dests = {
            action.dest
            for subparser in subparsers.choices.values()
            for action in subparser._actions
            if action.dest != "help"
        }
        assert dests - {"command", "config", "ids", "ids_file"} == {f.name for f in fields(RunConfig)}
