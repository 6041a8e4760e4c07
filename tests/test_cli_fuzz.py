"""Seeded fuzz of the command line over mutated copies of the baseline scenario.

One mutation per document, at a node reached by a random walk from the root:
drop a key, change a type, negate a number, substitute a string or a huge
literal.  Each of ``price``, ``limit`` and ``simulate`` must end with exit 0
(success), 2 (validation) or 3 (infeasible): no traceback, and no success that
prints a non-finite number.  A document the reader refuses must be refused
naming the mutated node's path or one of its ancestors.
"""

import contextlib
import copy
import io
import json
import re

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import baseline_doc
from vrpplan.cli import main
from vrpplan.errors import ScenarioError
from vrpplan.scenario import scenario_from_dict

BASELINE = baseline_doc()

NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|NaN|inf|Infinity)(?![A-Za-z])")
# a 400-digit integer is valid JSON and overflows a float
HUGE = [1e308, -1e308, 10**400, -(10**400)]
STRINGS = ["", "x", "nan", "inf", "-1e999", "1e-320", "json", "tabulated"]
RETYPED = [None, True, False, 7, 7.5, "7", [], {}, [7.0, 7.0]]


@st.composite
def mutated_documents(draw):
    """A mutated copy of the baseline and the mutated node's path, a tuple of keys."""
    doc = copy.deepcopy(BASELINE)
    parent, key, node, path = None, None, doc, ()
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, draw(st.sampled_from(keys))
        node, path = node[key], (*path, key)
        if draw(st.booleans()):
            break
    if parent is None:
        return doc, path
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
    return doc, path


def mutated_at(path, value):
    """The baseline with ``value`` at ``path``, in the form ``mutated_documents`` draws."""
    doc = copy.deepcopy(BASELINE)
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    return doc, path


def dotted(path) -> str:
    """``path`` as an error names it: ``grid.delivered.table[7][1]``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


@seed(20240607)
@settings(max_examples=150, deadline=None)
@given(mutated=mutated_documents())
def test_mutated_scenarios_exit_cleanly(tmp_path_factory, mutated):
    doc, _ = mutated
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in (["price", "3.0"], ["limit"], ["simulate"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--scenario", str(path), *command[1:]])
        assert code in (0, 2, 3), (command, code, err.getvalue())
        if code == 0:
            assert not NON_FINITE.search(out.getvalue()), (command, out.getvalue()[:500])


@seed(20240607)
@settings(max_examples=300, deadline=None)
@given(mutated=mutated_documents())
# each once refused by a record's own check, with a message naming no path
@example(mutated=mutated_at(("simulation", "q_init"), -1.0))
@example(mutated=mutated_at(("grid", "cost_system", "alpha"), -1.0))
@example(mutated=mutated_at(("derivative_bounds", "max_abs_emissions_slope"), -1.0))
def test_refused_mutations_name_their_path(mutated):
    doc, path = mutated
    if path == ("grid",) and isinstance(doc.get("grid"), str):
        return  # a grid given as a file path: the error names the file
    try:
        scenario_from_dict(doc)
    except ScenarioError as exc:
        named = [re.escape(dotted(path[:k])) for k in range(1, len(path) + 1)]
        assert re.search(rf"(?<![\w.])({'|'.join(named)})(?!\w)", str(exc)), (path, str(exc))
