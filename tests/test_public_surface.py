"""Every public function, class and method of sketchpca has a caller.

A public name counts as used when code under src/ or perfbench/ refers to
it outside its own definition: as a Name, an Attribute, or a string constant
naming it (bare or dotted, as in "Cluster.map_machines").  Names that only
tests reach are listed below with the reason they stay; anything else that
loses its last caller should be deleted, not added here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchpca"

# qualified name -> why it stays without a caller in src/ or perfbench/
KEPT = {
    "arbitrary_partition.rank_test":
        "acceptance contract test_rank_probe_classifies_boundary_ranks imports it",
    "column_select.adaptive_cols":
        "acceptance contract test_adaptive_sampling_expectation_bound imports it",
    "linalg.residual_ratio":
        "test reference: the ratio tests compare protocol output against",
    "sparse.SparseColMatrix.from_columns":
        "test reference: the per-column loop the vectorized storage is checked against",
    "sparse.SparseColMatrix.col_sqnorms":
        "kept with its loop by a ROADMAP decision (vectorizing it changes the bits)",
    "cluster.CommLedger.to_json_lines":
        "the planned --trace output builds on it (ROADMAP item 8)",
    "cluster.Cluster.machine_of_column":
        "test reference: locates a shipped column's source for the verbatim-copy checks",
    "column_select_sparse.TouchCounter.reset":
        "the pinned entry-touch tests zero the process-wide counter with it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def _public_definitions():
    """(qualified name, bare name, definition node) for module-level public
    functions and classes and the public methods of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


def test_every_public_name_has_a_caller_or_a_reason():
    total = Counter()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            total += _references(ast.parse(path.read_text()))
    unused = {qual for qual, name, node in _public_definitions()
              if total[name] - _references(node)[name] <= 0}
    assert unused == set(KEPT), (
        f"no caller and no reason: {sorted(unused - set(KEPT))}; "
        f"listed but now called or gone: {sorted(set(KEPT) - unused)}")
