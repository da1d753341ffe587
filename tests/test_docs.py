"""Documentation integrity: required pages exist, internal links resolve.

The CI docs job runs this file.  It checks that the architecture and
campaign guides exist, that README links to them, and that every
relative markdown link (including intra-page anchors) in README and
``docs/*.md`` points at something real, and that the metric catalogue in
``docs/OBSERVABILITY.md`` names exactly the metrics ``src/`` registers.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

# [text](target) — excluding images and bare autolinks
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def _heading_slugs(path: Path):
    """GitHub-style anchor slugs for every heading in a markdown file."""
    slugs = set()
    for line in path.read_text().splitlines():
        m = re.match(r"#{1,6}\s+(.*)", line)
        if not m:
            continue
        text = re.sub(r"[`*_]", "", m.group(1)).strip().lower()
        text = re.sub(r"[^\w\s-]", "", text)
        slugs.add(re.sub(r"\s+", "-", text))
    return slugs


def _links(path: Path):
    return LINK_RE.findall(path.read_text())


def test_required_docs_exist():
    assert (REPO / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO / "docs" / "CAMPAIGNS.md").is_file()


def test_readme_links_to_docs():
    targets = _links(REPO / "README.md")
    assert any("docs/ARCHITECTURE.md" in t for t in targets)
    assert any("docs/CAMPAIGNS.md" in t for t in targets)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_internal_links_resolve(doc):
    broken = []
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(f"{target}: missing file {path_part}")
                continue
        else:
            resolved = doc
        if anchor and resolved.suffix == ".md":
            if anchor.lower() not in _heading_slugs(resolved):
                broken.append(f"{target}: no heading for anchor #{anchor}")
    assert not broken, f"broken links in {doc.name}:\n  " + "\n  ".join(broken)


# telemetry.counter("repro_x", ...) / .gauge / .histogram / .timer calls
METRIC_REGISTRATION_RE = re.compile(
    r'\.(?:counter|gauge|histogram|timer)\(\s*"(repro_[a-z0-9_]+)"'
)
# a catalogue row: | `repro_x` | type | labels | meaning |
METRIC_ROW_RE = re.compile(r"^\| `(repro_[a-z0-9_]+)` \|", re.MULTILINE)


def test_metric_catalogue_matches_registered_metrics():
    """Every metric ``src/`` registers is documented in OBSERVABILITY.md,
    and every documented metric is registered somewhere."""
    registered = set()
    for path in (REPO / "src").rglob("*.py"):
        registered.update(METRIC_REGISTRATION_RE.findall(path.read_text()))
    documented = set(
        METRIC_ROW_RE.findall((REPO / "docs" / "OBSERVABILITY.md").read_text())
    )
    assert registered, "no metric registrations found under src/"
    assert not registered - documented, (
        f"undocumented metrics: {sorted(registered - documented)}"
    )
    assert not documented - registered, (
        f"documented but never registered: {sorted(documented - registered)}"
    )


# -- documented command lines ----------------------------------------------

#: Where command lines are documented or run: the docs, the examples'
#: usage notes and the CI smoke jobs.
COMMAND_SOURCES = [
    *DOC_FILES,
    *sorted((REPO / "examples").glob("*.py")),
    REPO / ".github" / "workflows" / "ci.yml",
]
# "[host$ ] [env -u VAR ][VAR=value ...]python -m repro ARGS"
COMMAND_RE = re.compile(
    r"^\s*(?:[\w.-]*\$\s+)?(?:env(?:\s+-u\s+\w+)*\s+)?(?:\w+=\S*\s+)*"
    r"python -m repro\s+(?P<args>.*)$"
)
# a shell function wrapping one:  grid() { python -m repro ARGS "${@:2}"; }
FUNCTION_RE = re.compile(r"^\s*(?P<name>\w+)\(\)\s*\{\s*python -m repro\s+(?P<args>.*)$")


def _logical_lines(path: Path):
    """``(first line number, text)`` of the file's lines, with backslash
    continuations joined."""
    lines, pending, start = [], "", None
    for n, line in enumerate(path.read_text().splitlines(), 1):
        start = start or n
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
        else:
            lines.append((start, pending + line))
            pending, start = "", None
    return lines


def _shell_words(text: str):
    """The words of one shell command, up to the first pipe,
    redirection, ``&`` or ``;`` (a ``#`` comment is dropped)."""
    import shlex

    lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = []
    for word in lexer:
        if set(word) <= set("|&;<>()"):
            break
        words.append(word)
    return words


def _documented_command_lines():
    """``(where, argv)`` for every ``python -m repro`` command line, with
    shell functions expanded, ``...`` dropped and every shell variable
    replaced by the placeholder ``1``."""
    found = []
    for path in COMMAND_SOURCES:
        functions = {}
        for n, line in _logical_lines(path):
            where = f"{path.relative_to(REPO)}:{n}"
            match = FUNCTION_RE.match(line)
            if match:
                functions[match["name"]] = _shell_words(match["args"])
                continue
            match = COMMAND_RE.match(line)
            if match:
                argv = _shell_words(match["args"])
            elif line.split()[:1] and line.split()[0] in functions:
                words = _shell_words(line)
                argv = []
                for word in functions[words[0]]:
                    argv += {"$1": words[1:2], "${@:2}": words[2:]}.get(word, [word])
            else:
                continue
            argv = ["1" if "$" in word else word
                    for word in argv if word not in ("...", "…")]
            found.append((where, argv))
    return found


def test_every_documented_command_line_parses():
    """Every ``python -m repro`` line in the docs, the examples and CI
    parses under the real CLI parser (it is parsed, never run), so a flag
    that is dropped or renamed fails here before it fails a reader."""
    from repro.cli import build_parser

    lines = _documented_command_lines()
    argvs = [argv for _, argv in lines]
    assert len(lines) > 80, f"only {len(lines)} command lines found"
    assert any(argv[:2] == ["campaign", "run"] for argv in argvs)
    assert any(argv[:2] == ["campaign", "serve"] for argv in argvs)
    broken = []
    for where, argv in lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            broken.append(f"{where}: {' '.join(argv)}")
    assert not broken, "command lines that no longer parse:\n  " + "\n  ".join(broken)
