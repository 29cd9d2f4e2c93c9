"""The CI workflow's entry-point steps find their golden hashes by name.

They look hashes up in `tests/test_golden.py` with `sed` on a test function's
name and with `grep` on a `("font", "variant")` key of RENDER.  A rename
there would break only those steps, so this test reads the workflow and
checks that every lookup still finds exactly one hash.
"""

import re
from pathlib import Path

from test_golden import RENDER

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
GOLDEN = (Path(__file__).parent / "test_golden.py").read_text()
HASH = re.compile(r"[0-9a-f]{64}")


def _sed_block(name: str) -> str:
    """What `sed -n '/def NAME/,/^$/p'` prints: the first matching line up to
    the next empty line."""
    lines = GOLDEN.split("\n")
    start = next(i for i, line in enumerate(lines) if f"def {name}" in line)
    end = next((i for i in range(start + 1, len(lines)) if not lines[i]), len(lines))
    return "\n".join(lines[start:end + 1])


def test_every_sed_lookup_finds_one_hash():
    names = re.findall(r"sed -n '/def (test_\w+)/,/\^\$/p' tests/test_golden\.py", WORKFLOW)
    assert len(names) >= 3, "the workflow's sed lookups were not found"
    for name in names:
        assert re.search(rf"^def {name}\(", GOLDEN, re.M), f"{name} is not in test_golden.py"
        assert len(HASH.findall(_sed_block(name))) == 1, f"{name} holds no single hash"


def test_every_render_grep_finds_its_key():
    assert 'grep -F "(\\"$f\\", \\"$v\\"):" tests/test_golden.py' in WORKFLOW
    fonts = re.search(r"for f in ([\w ]+); do", WORKFLOW).group(1).split()
    variants = re.search(r"for v in ([\w ]+); do", WORKFLOW).group(1).split()
    assert fonts and variants
    for font in fonts:
        for variant in variants:
            assert (font, variant) in RENDER, (font, variant)
            key = f'("{font}", "{variant}"):'
            found = [line for line in GOLDEN.split("\n") if key in line]
            assert len(found) == 1 and len(HASH.findall(found[0])) == 1, key
