"""Documentation stays true: generated knob reference in sync,
markdown links resolving, README examples runnable verbatim, and the
engine's public API fully docstringed (local mirror of CI's ruff D1
check)."""

import ast
import dataclasses
import shlex
from pathlib import Path

import pytest

from repro import cli, docs
from repro.engine import (
    ExperimentSpec,
    RunManifest,
    RunObserver,
    manifest_path_for,
)
from repro.engine.settings import ENGINE_ENV_VARS, EngineSettings

REPO_ROOT = Path(__file__).resolve().parent.parent
ENGINE_SRC = REPO_ROOT / "src" / "repro" / "engine"


class TestKnobReference:
    def test_generated_doc_is_committed_in_sync(self):
        committed = (REPO_ROOT / docs.KNOBS_DOC).read_text()
        assert committed == docs.generate_knobs_markdown(), (
            "docs/knobs.md is stale; regenerate with "
            "`python -m repro.docs`"
        )

    def test_every_engine_knob_is_documented(self):
        text = (REPO_ROOT / docs.KNOBS_DOC).read_text()
        for env_var in ENGINE_ENV_VARS:
            assert f"| {env_var} |" in text

    def test_marker_warns_against_hand_edits(self):
        text = (REPO_ROOT / docs.KNOBS_DOC).read_text()
        assert docs.GENERATED_MARKER in text

    def test_attribute_docs_reads_the_settings_docstring(self):
        parsed = docs.attribute_docs(EngineSettings)
        for field in dataclasses.fields(EngineSettings):
            assert parsed.get(field.name), (
                f"EngineSettings docstring documents {field.name}")

    def test_unmapped_field_is_an_error(self):
        @dataclasses.dataclass
        class Odd:
            """Odd.

            Attributes:
                mystery: An attribute not declared as a knob.
            """

            mystery: int = 3

        with pytest.raises(ValueError, match="mystery"):
            docs.knob_rows(Odd)

    def test_check_mode_exit_codes(self, tmp_path, monkeypatch):
        assert docs.main(["--check"]) == 0
        # A stale copy must fail the same check.
        stale = tmp_path / "repo"
        (stale / "docs").mkdir(parents=True)
        (stale / "docs" / "knobs.md").write_text("# old\n")
        monkeypatch.chdir(stale)
        assert docs.main(["--check"]) == 1


class TestLinkCheck:
    def test_repo_docs_links_resolve(self):
        assert docs.check_links(REPO_ROOT) == []
        assert docs.main(["--links"]) == 0

    def test_broken_link_is_caught(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "page.md").write_text(
            "see [gone](missing.md) and [ok](other.md) "
            "and [web](https://example.com)\n")
        (tmp_path / "docs" / "other.md").write_text("ok\n")
        assert docs.check_links(tmp_path) \
            == [("docs/page.md", "missing.md")]

    def test_fragments_are_stripped(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "page.md").write_text(
            "[sec](other.md#section) [frag](#local)\n")
        (tmp_path / "docs" / "other.md").write_text("ok\n")
        assert docs.check_links(tmp_path) == []


def _public_docstring_gaps(path: Path) -> list:
    """(qualname, lineno) of public defs lacking docstrings — a local
    mirror of CI's `ruff check --select D1 --ignore D105,D107`."""
    tree = ast.parse(path.read_text())
    gaps = []
    if ast.get_docstring(tree) is None:
        gaps.append(("<module>", 1))

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if name.startswith("_"):     # D105/D107 out of scope
                    continue
                if ast.get_docstring(child) is None:
                    gaps.append((f"{prefix}{name}", child.lineno))
                walk(child, f"{prefix}{name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return gaps


class TestEnginePublicApiDocstrings:
    @pytest.mark.parametrize(
        "path",
        sorted(ENGINE_SRC.rglob("*.py")),
        ids=lambda path: str(path.relative_to(ENGINE_SRC)),
    )
    def test_module_is_fully_documented(self, path):
        gaps = _public_docstring_gaps(path)
        assert gaps == [], (
            f"{path.relative_to(REPO_ROOT)} public API missing "
            f"docstrings: {gaps}"
        )


def readme_report_commands() -> list:
    """The `repro report ...` lines of the README's manifests-and-
    reports bash block, in order."""
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("## Run manifests & reports", 1)[1]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "repro":
            commands.append(words[1:])
    return commands


class TestReadmeExamples:
    def test_report_examples_run_verbatim(self, tmp_path, monkeypatch,
                                          capsys):
        spec = ExperimentSpec(
            name="readme",
            simulators=["spade-he", "dense-he"],
            models=["SPP3"],
            scenarios=[{"name": "m", "seed": 0}],
            backend="serial",
        )
        runner = spec.build_runner()
        observer = RunObserver()
        table = runner.run(observer=observer)
        monkeypatch.chdir(tmp_path)
        manifest = RunManifest.collect(runner, table,
                                       observer=observer)
        for stem in ("results", "a", "b"):
            results = tmp_path / f"{stem}.json"
            table.to_json(results)
            manifest.write(manifest_path_for(results))
        (tmp_path / "out").mkdir()
        commands = readme_report_commands()
        assert len(commands) >= 4, "README examples went missing"
        for arguments in commands:
            assert cli.main(arguments) == 0, \
                f"README example failed: repro {' '.join(arguments)}"
            capsys.readouterr()
        assert list(tmp_path.glob("out/*.report.html"))
        assert (tmp_path / "report.html").exists()

    def test_report_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["report", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--html", "--out", "--diff", "--baseline",
                     "--manifest"):
            assert flag in help_text
