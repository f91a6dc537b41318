"""Layout rules for the package source.

Source size is tracked in non-blank lines, so a line cap keeps that count from
shrinking by packing expressions onto ever longer lines. The package's export
list names only what the package defines, so ``from routebayes import *`` works.
"""

from pathlib import Path

import routebayes

SRC = Path(__file__).parents[1] / "src"
MAX_LINE = 120


def test_no_source_line_is_longer_than_the_cap():
    files = sorted(SRC.rglob("*.py"))
    assert files
    too_long = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} characters"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert too_long == []


def test_every_exported_name_is_defined():
    assert routebayes.__all__
    assert [name for name in routebayes.__all__ if not hasattr(routebayes, name)] == []
