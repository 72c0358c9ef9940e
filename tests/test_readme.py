"""The README's promises, checked as written."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from corestream import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_keeps_its_promises():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    tree, root, sample = scope["tree"], scope["root"], scope["sample"]
    assert root.block.rows == min(tree.n, tree.dim) == 32
    assert sample.rows.rows <= 2 * tree.n


def test_every_command_line_parses():
    # Parse only: nothing runs and no file named on a line is opened.
    text = README.read_text(encoding="utf-8")
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("corestream ")
    ]
    assert {argv[0] for argv in commands} == {
        "reduce", "tree-build", "sample", "track", "compare-sampling"
    }
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: corestream {shlex.join(argv)}")


def test_numpy_is_the_only_runtime_dependency():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import corestream, corestream.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) <= {"numpy", "corestream"}, result.stdout


def test_every_exported_name_resolves_once():
    import corestream

    assert len(set(corestream.__all__)) == len(corestream.__all__)
    for name in corestream.__all__:
        assert hasattr(corestream, name), name


def test_the_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Layout"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    named = set(re.findall(r"^  (\w+)\.py ", block, re.M))
    package = README.parent / "src" / "corestream"
    assert named == {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
