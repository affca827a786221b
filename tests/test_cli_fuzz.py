"""Fuzzing of the CLI's file inputs: a run succeeds, or fails with one error line.

Inputs are MovieLens (``u.item``, ``u.data``) and BookCrossing (``BX-*.csv``)
directories whose good rows are mixed with broken ones, and ``--ids-file``
contents with unknown ids, blank lines and bytes that are not UTF-8. Every
command is run in-process through :func:`taxrec.cli.main`: it must return 0,
or return 1 with exactly one ``error:`` line on stderr. An exception escaping
``main`` is the traceback a user would see.
"""
from __future__ import annotations

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from taxrec.cli import main

_JUNK = st.text(st.sampled_from(list('ab1 |\t;:"\\,\r\n\x00\xe9')), max_size=16)

_MOVIELENS_ITEM_JUNK = st.one_of(
    _JUNK, st.sampled_from(["|", "5|", "|Title", "1|Duplicate|x", "  |  |", "7|\xe9t\xe9|x"])
)
_MOVIELENS_DATA_JUNK = st.one_of(
    _JUNK,
    st.sampled_from([
        "1\t1\t3", "1\t1\tx\t5", "1\t1\t3\t1.5", "1\t999\t3\t5", "1\t1\tnan\t5",
        "1\t1\tinf\t-5", "1\t1\t3\t99999999999999999999", "\t\t\t", " 1 \t 2 \t 3 \t 4 ",
    ]),
)
_BOOK_JUNK = st.one_of(
    _JUNK,
    st.sampled_from([
        '"x"', '"1";"";"a";"b";"c"', '"1";"Duplicate";"a";"b";"c"', '"unclosed;"a";"b";"c";"d"',
        f'"big";"{"x" * 140_000}";"a";"b";"c"', '"a\\";"b";"c";"d";"e"', ";;;;",
    ]),
)
_RATING_JUNK = st.one_of(
    _JUNK, st.sampled_from(['"1";"2"', '"1";"2";"x"', '"1";"999";"5"', '"";"1";"5"', '"1";"1";"nan"'])
)


def _mixed(draw, good: list[str], junk: st.SearchStrategy[str]) -> list[str]:
    """``good`` with a few drawn junk rows inserted at drawn positions."""
    rows = list(good)
    for row in draw(st.lists(junk, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@st.composite
def movielens_files(draw) -> dict[str, str]:
    n_items = draw(st.sampled_from([12, 120]))
    items = [f"{n}|Title {n} (1995)|01-Jan-1995" for n in range(1, n_items + 1)]
    ratings = [
        f"{user}\t{(user * 7 + step) % n_items + 1}\t{step % 5 + 1}\t{1000 + step}"
        for user in range(1, 5) for step in range(n_items // 4)
    ]
    return {
        "u.item": "\n".join(_mixed(draw, items, _MOVIELENS_ITEM_JUNK)) + "\n",
        "u.data": "\n".join(_mixed(draw, ratings, _MOVIELENS_DATA_JUNK)) + "\n",
    }


@st.composite
def bookcrossing_files(draw) -> dict[str, str]:
    n_items = draw(st.sampled_from([12, 120]))
    books = [f'"{n}";"Title {n}";"Author {n % 3}";"2001";"Pub";"u";"u";"u"' for n in range(n_items)]
    ratings = [
        f'"{user}";"{(user * 7 + step) % n_items}";"{step % 10}"'
        for user in range(4) for step in range(n_items // 4)
    ]
    return {
        "BX-Books.csv": "\n".join(['"ISBN";"Book-Title";"Book-Author";"Year";"Publisher"',
                                   *_mixed(draw, books, _BOOK_JUNK)]) + "\n",
        "BX-Book-Ratings.csv": "\n".join(['"User-ID";"ISBN";"Book-Rating"',
                                          *_mixed(draw, ratings, _RATING_JUNK)]) + "\n",
    }


def run_quietly(args: list[str]) -> tuple[int, str]:
    """``main(args)``'s exit code and stderr, with stdout and warnings dropped."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        code = main(args)
    return code, stderr.getvalue()


def assert_clean_exit(code: int, stderr: str) -> None:
    if code == 0:
        return
    lines = stderr.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, stderr)


def run_every_command(dataset: str, files: dict[str, str], ids: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data_dir = root / "data"
        data_dir.mkdir()
        for name, text in files.items():
            (data_dir / name).write_text(text, encoding="latin-1", newline="")
        (root / "ids.txt").write_bytes(ids)
        common = ["--provider", "mock", "--dataset", dataset, "--data-dir", str(data_dir),
                  "--cache-dir", str(root / "cache"), "--max-workers", "1"]
        for args in (
            ["taxonomy", *common],
            ["categorize", *common],
            ["recommend", *common, "--ids-file", str(root / "ids.txt"), "--k", "3"],
            ["evaluate", *common, "--n", "2", "--repeats", "1", "--out", str(root / "run")],
        ):
            assert_clean_exit(*run_quietly(args))


_IDS = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3", " 4 ", "", "999", "Title 1", "\t"]), max_size=6).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    ),
    st.binary(max_size=12),
)


@settings(max_examples=12, deadline=None)
@given(movielens_files(), _IDS)
def test_movielens_directory_runs_or_fails_with_one_error_line(files, ids):
    run_every_command("movielens", files, ids)


@settings(max_examples=12, deadline=None)
@given(bookcrossing_files(), _IDS)
def test_bookcrossing_directory_runs_or_fails_with_one_error_line(files, ids):
    run_every_command("bookcrossing", files, ids)
