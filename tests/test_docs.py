"""Docs staleness checks: the README and architecture docs must not rot.

The guarantees:

* every ``python`` fenced code block in the docs actually executes
  (small, self-contained snippets -- the quickstart must never break);
* every shell command in ``bash`` fenced blocks refers to files that
  exist, and every ``python -m repro.cli ...`` invocation parses against
  the real argument parser (so renamed commands/flags fail here);
* every repo path named in the layout table and inline backticks exists,
  and every symbol, module and recorded-vector file the architecture
  doc's fast-path pairing table names exists.

``make docs-check`` runs this module plus the example smoke tests.
"""

from __future__ import annotations

import inspect
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"]

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _blocks(language: str):
    found = []
    for doc in DOCS:
        for match in _FENCE.finditer(doc.read_text()):
            if match.group(1) == language:
                found.append((doc.name, match.group(2)))
    return found


def test_docs_exist():
    for doc in DOCS:
        assert doc.exists(), f"{doc} is missing"
        assert doc.read_text().strip(), f"{doc} is empty"


def test_python_blocks_execute():
    blocks = _blocks("python")
    assert blocks, "expected at least one python block in the docs"
    for name, source in blocks:
        namespace = {}
        try:
            exec(compile(source, f"<{name} python block>", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure path
            pytest.fail(f"python block in {name} failed: {error}\n---\n{source}")


def _command_lines():
    for name, source in _blocks("bash"):
        for raw in source.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                yield name, line


def test_bash_blocks_reference_real_files():
    lines = list(_command_lines())
    assert lines, "expected at least one bash block in the docs"
    for name, line in lines:
        parts = shlex.split(line)
        for part in parts:
            # Any token that looks like a repo-relative path must exist.
            if ("/" in part or part.endswith(".py")) and not part.startswith("-"):
                candidate = REPO_ROOT / part
                if part.startswith(("http", "repro.")):
                    continue
                assert candidate.exists(), f"{name}: {line!r} references missing {part!r}"


def test_cli_invocations_parse():
    from repro.cli import build_parser

    parser = build_parser()
    checked = 0
    for name, line in _command_lines():
        parts = shlex.split(line)
        if parts[:3] == ["python", "-m", "repro.cli"]:
            args = [a for a in parts[3:] if a != "--help"]
            try:
                parser.parse_args(args)
            except SystemExit:
                pytest.fail(f"{name}: CLI invocation no longer parses: {line!r}")
            checked += 1
    assert checked >= 5, "expected the README to document several CLI invocations"


def test_cli_sweep_scenarios_in_docs_are_registered():
    """--scenario values mentioned in docs must exist in the registry."""
    from repro.sim.scenarios import available_scenarios

    names = set(available_scenarios())
    for name, line in _command_lines():
        parts = shlex.split(line)
        if "--scenario" in parts:
            value = parts[parts.index("--scenario") + 1]
            assert value in names, f"{name}: scenario {value!r} is not registered"


def test_layout_table_paths_exist():
    readme = (REPO_ROOT / "README.md").read_text()
    paths = re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE)
    assert len(paths) >= 8, "the repo layout table looks truncated"
    for path in paths:
        if path.startswith("python"):
            continue
        assert (REPO_ROOT / path).exists(), f"layout table references missing {path!r}"


_PAIRING_HEADING = "## Fast path + reference implementation pairing"


def _pairing_table_rows():
    """``(named symbols, where modules)`` per row of the pairing table."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    assert _PAIRING_HEADING in text, "the pairing table section is gone"
    section = text.split(_PAIRING_HEADING, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or cells[0] in ("Fast path", "---"):
            continue
        names = re.findall(r"`([^`]+)`", f"{cells[0]} {cells[1]}")
        where = re.findall(r"`([^`]+)`", cells[2])
        rows.append((names, where))
    return rows


def _row_members(modules):
    """``(name, object)`` of every attribute of the row's modules and of
    every class they hold."""
    members = []
    for module in modules:
        for name, member in inspect.getmembers(module):
            members.append((name, member))
            if inspect.isclass(member):
                members.extend(inspect.getmembers(member))
    return members


def _takes_keyword(obj, keyword):
    try:
        return keyword in inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False


def _resolves(name, members):
    """Whether a backticked table entry names something that exists:
    ``tests/...`` entries are recorded-vector files, ``kw=value`` entries
    need a callable taking ``kw``, anything else is a (dotted) name."""
    if name.startswith("tests/"):
        return (REPO_ROOT / name).is_file()
    if "=" in name:
        keyword = name.split("=", 1)[0]
        return any(_takes_keyword(obj, keyword) for _, obj in members)
    head, *rest = name.split(".")
    for member_name, obj in members:
        if member_name != head:
            continue
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_architecture_named_symbols_exist():
    """Every symbol, file and module the pairing table names must exist,
    so a row naming a deleted reference implementation fails here."""
    import importlib

    rows = _pairing_table_rows()
    assert len(rows) >= 10, "the pairing table looks truncated"
    for names, where in rows:
        assert where, f"pairing row {names} has no module"
        members = _row_members(
            importlib.import_module("repro." + path[: -len(".py")].replace("/", "."))
            for path in where
        )
        for name in names:
            assert _resolves(name, members), f"pairing table names missing {name!r}"

    # Other names the architecture doc leans on.
    from repro.sim.engine import EventScheduler  # noqa: F401
    from repro.sim.runner import placement_seed, simulate_placement  # noqa: F401
    from repro.sim.sweep import SweepCache, run_sweep  # noqa: F401
    from repro.channel.testbed import dense_testbed  # noqa: F401
    from repro.sim.network import Network

    assert hasattr(Network, "reseed_estimation_noise")

