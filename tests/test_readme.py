"""The README's "Library use" example runs as written and its "Configuration"
table lists every config key with its default, so the docs cannot drift from
the code."""

import os
import re
from fractions import Fraction

from stgw.config import RunConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_section(title: str) -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_use_block() -> str:
    return re.search(r"```python\n(.*?)```", readme_section("Library use"), re.S).group(1)


def test_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_block(), "README.md (Library use)", "exec"), namespace)
    graph, features, coeffs = namespace["graph"], namespace["features"], namespace["coeffs"]
    assert coeffs.values.shape == (graph.n * features.weeks, 8)
    assert namespace["P"].n == graph.n


def test_configuration_table_matches_defaults():
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]*)` \|",
                      readme_section("Configuration"), re.M)
    listed = {(section, key): default for section, key, default in rows}
    assert len(listed) == len(rows)  # no key listed twice
    resolved = RunConfig().resolved()
    assert set(listed) == {(section, key) for section, values in resolved.items()
                           for key in values}
    for (section, key), text in listed.items():
        value = resolved[section][key]
        if isinstance(value, str):
            assert text == value, (section, key)
        else:
            assert isinstance(value, float) or text.isdigit(), (section, key)
            assert float(Fraction(text)) == value, (section, key)
