"""The README as a user reads it: the library tour runs as written, and the
module table names the public API."""

import ast
import importlib
import re
from pathlib import Path

import flagcodes

README = (Path(__file__).parent.parent / "README.md").read_text()

# The values the tour's comments state, by the expression or assigned name of
# their line.
TOUR_VALUES = {
    "report.d_f": 30,
    "report.classification": "QODFC",
    "report.projected_distances": (2, 4, 6, 6, 6, 4, 2),
    "budget": 14,
    "outcome.status, outcome.flag_index": ("DECODED", 5),
    "simulate(code, trials=1000, seed=0).successes": 1000,
}


def _tour() -> str:
    return README.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_tour_runs_as_written():
    # Each commented value is what its line computes: the comment's last
    # "= value", or the whole comment, read as a Python literal.
    tour = _tour()
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    stated = {}
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        key = code.split(" = ")[0].strip()
        if key in TOUR_VALUES:
            stated[key] = ast.literal_eval(comment.rsplit("= ", 1)[-1].strip())
    assert stated == TOUR_VALUES
    for key, value in TOUR_VALUES.items():
        assert eval(key, namespace) == value, key


def test_every_public_name_is_in_the_readme_or_its_module_docstring():
    for name in flagcodes.__all__:
        module = getattr(flagcodes, name).__module__
        named = re.compile(rf"\b{name}\b")
        assert named.search(README) or named.search(importlib.import_module(module).__doc__), name


def test_each_module_row_is_short():
    # Design notes live in the module docstrings, measurements in CHANGES.md.
    rows = dict(re.findall(r"^\| `(flagcodes\.\w+)` \| (.*) \|$", README, re.MULTILINE))
    assert set(rows) == {
        f"flagcodes.{m}" for m in ("fields", "linalg", "construction", "metrics", "decoder", "verify")
    }
    for module, cell in rows.items():
        assert len(cell.split()) <= 80, module
