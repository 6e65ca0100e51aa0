"""Run every example and check what it writes.

Each example runs from a copy in ``tmp_path``, so its outputs land there
instead of next to the committed ones.  Every committed output must equal
what the example writes now.  When a change means to move an output,
run the example and commit what it writes.
"""

import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
FIGURES_DIR = ROOT / "benchmarks" / "output"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: example -> {file it writes, relative to its own directory: committed copy}
OUTPUTS = {
    "compare_methods.py": {},
    "custom_shape.py": {"custom_shape.svg": EXAMPLES_DIR / "custom_shape.svg"},
    "mask_cost_analysis.py": {},
    "quickstart.py": {
        name: EXAMPLES_DIR / name
        for name in ("quickstart_solution.json", "quickstart_solution.svg")
    },
}

#: render_figures.py writes the paper's figures, committed in benchmarks/output
FIGURES = {
    f"figures/figure{number}.svg": FIGURES_DIR / f"figure{number}.svg"
    for number in range(1, 6)
}


def _run_and_compare(name, outputs, tmp_path):
    script = tmp_path / name
    shutil.copy(EXAMPLES_DIR / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    for written, committed in outputs.items():
        assert (tmp_path / written).read_bytes() == committed.read_bytes(), (
            f"{committed.relative_to(ROOT)} differs from what {name} "
            "writes: run the example and commit its output"
        )


class TestExamples:
    def test_expected_examples_present(self):
        """Every example is run below, and every file committed next to
        the examples is an output one of them writes."""
        assert [p.name for p in ALL_EXAMPLES] == sorted(
            [*OUTPUTS, "render_figures.py"]
        )
        assert {
            path for path in EXAMPLES_DIR.iterdir()
            if path.is_file() and path.suffix != ".py"
        } == {path for outputs in OUTPUTS.values() for path in outputs.values()}

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("name", sorted(OUTPUTS))
    def test_example_writes_committed_outputs(self, name, tmp_path):
        _run_and_compare(name, OUTPUTS[name], tmp_path)

    def test_render_figures_runs(self, tmp_path):
        """Writes all five figure SVGs, each equal to its committed copy."""
        _run_and_compare("render_figures.py", FIGURES, tmp_path)


class TestCliBenchPath:
    def test_bench_table3_with_cheap_method(self, capsys):
        """The CLI bench command end to end with the fast baseline."""
        from repro.cli import main

        code = main(["bench", "--table", "3", "--methods", "partition", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AGB-1" in out and "RGB-5" in out
        assert "Sum norm." in out
