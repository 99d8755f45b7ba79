"""tools/kernels.py: the summary parser on canned pytest output, and one
run of every setting on a small test file."""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from kernels import SETTINGS, main, parse  # noqa: E402

OUTPUT = """\
..F.x
=========================== short test summary info ============================
FAILED tests/test_a.py::test_one[1.0-x] - assert 1 == 2
ERROR tests/test_b.py::test_two - RuntimeError: boom
1 failed, 3 passed, 1 xfailed, 1 error in 0.52s
"""


def test_parse_reads_the_counts_and_the_failing_ids():
    counts, failing = parse(OUTPUT)
    assert counts == {"failed": 1, "passed": 3, "xfailed": 1, "errors": 1}
    assert failing == ["tests/test_a.py::test_one[1.0-x]", "tests/test_b.py::test_two"]


def test_parse_without_a_summary_line_is_none():
    assert parse("ERROR: file or directory not found: nope.py\n") is None


def test_each_setting_reaches_only_its_child(tmp_path, capsys, monkeypatch):
    # a variable of another setting in the tool's own environment does
    # not reach the children
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    probe = tmp_path / "test_probe.py"
    probe.write_text("import os\n\n"
                     "def test_default_openblas_kernel():\n"
                     "    assert 'OPENBLAS_CORETYPE' not in os.environ\n")
    before = dict(os.environ)
    assert main(["-p", "no:hypothesispytest", str(probe)]) == 0
    assert dict(os.environ) == before
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["setting"] for line in lines] == list(SETTINGS)
    for line in lines:
        forced = "OPENBLAS_CORETYPE" in line["env"]
        assert line["env"] == SETTINGS[line["setting"]]
        assert (line["exit"], line.get("passed", 0), line.get("failed", 0)) == \
            ((1, 0, 1) if forced else (0, 1, 0))
        assert [f.rpartition("::")[2] for f in line["failing"]] == \
            (["test_default_openblas_kernel"] if forced else [])
