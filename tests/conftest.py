import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from puzzlefonts import fontdata, scene


@pytest.fixture(scope="session")
def shipped():
    """All five shipped fonts, parsed once."""
    fonts = {}
    for fid in fontdata.FONT_IDS:
        fonts[fid] = fontdata.load_font_file(fontdata.find_font_file(fid))
    return fonts


@pytest.fixture
def full_precision(monkeypatch):
    """Make the emitter write every bit of every coordinate (`repr`).

    Gives a function that lists the decimal parts of the polyline and polygon
    coordinates an SVG writes, so a test can show the patch reached the point
    path: the 6-decimal format writes exactly 6 digits after the point.
    """
    monkeypatch.setattr(scene, "_COORD", "%r")

    def point_decimals(svg: str) -> list:
        return [value.partition(".")[2] for points in re.findall(r'points="([^"]*)"', svg)
                for value in re.split("[ ,]", points)]
    return point_decimals
