"""The CLI's transcript: exit code, stdout and stderr of every recorded call, byte for byte.

``cli_transcript.json`` is a list of rows ``{"argv", "env", "rc", "out", "err"}``.
Each row runs through ``cli.main`` in this process, in a fresh directory that
holds ``FILES``, with ``HYPERCHROM_BUDGET`` set to ``env`` (unset when ``env``
is null).  ``verify --grids`` is left out: its floats depend on the numpy and
mpmath builds, and ``tests/test_closed_forms_pin.py`` pins it.

To add a call, append a row with its ``argv`` and ``env`` and rerun
``PYTHONPATH=src python tests/test_cli_transcript.py`` on a tree whose output
is trusted: it replays every row and rewrites ``rc``, ``out`` and ``err``.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hyperchrom import cli

FIXTURE = Path(__file__).resolve().with_name("cli_transcript.json")

FILES = {
    "e1.json": '{"edges":[[1,2,3]],"n":3}',
    "e2.json": '{"edges":[[1,2,3],[3,4,5]],"n":5}',
    "tri.json": '{"edges":[[1,2],[2,3],[1,3]],"n":3}',
    "tri3.json": '{"edges":[[1,2,3],[3,4,5],[5,6,1]],"n":6}',
    "f1.json": '{"edges":[[1,2,3],[1,4,5],[3,5,6],[2,4,6]],"n":6}',
    "h2.json": '{"edges":[[5,6,7],[1,3,6],[1,2,5],[1,4,7]],"n":7}',
    "k24.json": '{"edges":[[1,3],[1,4],[1,5],[1,6],[2,3],[2,4],[2,5],[2,6]],"n":6}',
    "lin.json": '{"edges":[[1,2,4],[1,3,8],[1,7,9],[2,5,7],[4,5,6],[4,7,8]],"n":9}',
    "lin4.json": '{"edges":[[1,2,6,10],[1,7,9,12],[2,5,11,13],[3,5,7,10],[4,8,12,13]],"n":13}',
    "r4.json": '{"edges":[[1,3,7,8],[2,3,4,7],[2,3,5,8],[3,4,6,8],[3,5,6,7]],"n":8}',
    "iso.json": '{"edges":[[1,2]],"n":3}',
    "empty.json": '{"edges":[],"n":0}',
    "L1.json": '{"k":2,"lists":{"1":[1,2],"2":[1,2],"3":[2,3]}}',
    "Lshort.json": '{"k":2,"lists":{"1":[1,2],"2":[1,2]}}',
    "Lbad.json": '{"k":2,"lists":[]}',
    "bad_contain.json": '{"n":4,"edges":[[1,2],[1,2,3]]}',
    "bad_vertex.json": '{"n":2,"edges":[[0,1]]}',
    "bad_shape.json": '{"n":3,"edges":5}',
    "garbage.json": "{not json",
    "insts/a.json": '{"edges":[[1,2,3],[3,4,5],[5,6,1]],"n":6}',
    "insts/b.json": '{"edges":[[1,2,3]],"n":3}',
    "insts/notes.txt": "not an instance",
}

ROWS = json.loads(FIXTURE.read_text())


def _write_files(root: Path) -> None:
    (root / "insts").mkdir()
    (root / "none").mkdir()
    for name, text in FILES.items():
        (root / name).write_text(text)


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _row_id(row: dict) -> str:
    text = " ".join(row["argv"])
    if row["env"] is not None:
        text = f"HYPERCHROM_BUDGET={row['env']} {text}"
    return text if len(text) <= 60 else text[:57] + "..."


@pytest.mark.parametrize("row", ROWS, ids=[_row_id(row) for row in ROWS])
def test_transcript(row, tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    if row["env"] is None:
        monkeypatch.delenv("HYPERCHROM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("HYPERCHROM_BUDGET", row["env"])
    assert _call(row["argv"]) == {"rc": row["rc"], "out": row["out"], "err": row["err"]}


def test_transcript_covers_every_subcommand():
    commands = {row["argv"][0] for row in ROWS}
    assert commands == {"chromatic", "delta-cycles", "nb", "list-count", "plk", "verify", "gen"}
    for command in commands - {"gen"}:
        flags = {"--json" in row["argv"] for row in ROWS if row["argv"][0] == command}
        assert flags == {True, False}, command


if __name__ == "__main__":
    os.environ.pop("HYPERCHROM_BUDGET", None)
    with tempfile.TemporaryDirectory() as root:
        _write_files(Path(root))
        os.chdir(root)
        for row in ROWS:
            if row["env"] is not None:
                os.environ["HYPERCHROM_BUDGET"] = row["env"]
            row.update(_call(row["argv"]))
            os.environ.pop("HYPERCHROM_BUDGET", None)
    FIXTURE.write_text(json.dumps(ROWS, indent=1) + "\n")
