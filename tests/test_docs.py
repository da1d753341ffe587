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
