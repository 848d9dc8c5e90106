"""The README's "Library use" example runs as written, so the documented API
cannot drift from the code."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_use_block() -> str:
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_block(), "README.md (Library use)", "exec"), namespace)
    graph, features, coeffs = namespace["graph"], namespace["features"], namespace["coeffs"]
    assert coeffs.values.shape == (graph.n * features.weeks, 8)
    assert namespace["P"].n == graph.n
