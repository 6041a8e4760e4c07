"""Seeded fuzz of the command line over mutated copies of the baseline scenario.

One mutation per document, at a node reached by a random walk from the root:
drop a key, change a type, negate a number, substitute a string or a huge
literal.  Each of ``price``, ``limit`` and ``simulate`` must end with exit 0
(success), 2 (validation) or 3 (infeasible): no traceback, and no success that
prints a non-finite number.
"""

import contextlib
import copy
import io
import json
import re

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vrpplan.cli import main

BASELINE_PATH = "scenarios/baseline.json"
with open(BASELINE_PATH) as _handle:
    BASELINE = json.load(_handle)

NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|NaN|inf|Infinity)(?![A-Za-z])")
# a 400-digit integer is valid JSON and overflows a float
HUGE = [1e308, -1e308, 10**400, -(10**400)]
STRINGS = ["", "x", "nan", "inf", "-1e999", "1e-320", "json", "tabulated"]
RETYPED = [None, True, False, 7, 7.5, "7", [], {}, [7.0, 7.0]]


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASELINE)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
        if draw(st.booleans()):
            break
    if parent is None:
        return doc
    is_number = isinstance(node, (int, float)) and not isinstance(node, bool)
    kinds = ["drop", "type", "string", "huge"] + (["negate"] if is_number else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(node)]))
    elif kind == "string":
        parent[key] = draw(st.sampled_from(STRINGS))
    elif kind == "huge":
        parent[key] = draw(st.sampled_from(HUGE))
    else:
        parent[key] = -node
    return doc


@seed(20240607)
@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_mutated_scenarios_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in (["price", "3.0"], ["limit"], ["simulate"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--scenario", str(path), *command[1:]])
        assert code in (0, 2, 3), (command, code, err.getvalue())
        if code == 0:
            assert not NON_FINITE.search(out.getvalue()), (command, out.getvalue()[:500])
