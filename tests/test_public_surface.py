"""The package keeps no public function or class that nothing uses.

Every public module-level function and class in ``src/profilerank`` must be
referenced, as a name or an attribute, somewhere in ``src/`` or
``perfbench/`` outside its own definition.  The exceptions are the
paper-claim helpers below: only the tests reach them, because the tests
check the paper's claims through them.  Each is pinned with a test that
needs it, and the list must be exactly the unreferenced names, so it
shrinks when a helper gains a caller.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "profilerank"

PAPER_CLAIM_HELPERS = {
    "codes.interleave_codes": "test_acceptance.py::test_criterion_11_distance_bounds",
    "codes.substitute_codes": "test_acceptance.py::test_criterion_11_distance_bounds",
    "codes.side_pattern": "test_codes.py::test_interleave_triple_recovery",
    "codes.restrict": "test_codes.py::test_interleave_triple_recovery",
    "codes.PrecodedInfoA": "test_codes.py::test_precoded_alphabet_exhaustive_pairs",
    "codes.PrecodedInfoB": "test_acceptance.py::test_criterion_11_distance_bounds",
    "encoder.extend_vector": "test_acceptance.py::test_criterion_03_worked_recursive_step",
    "oracle.minimal_max_value": "test_acceptance.py::test_criterion_05_max_entry_constant",
    "oracle.representatives": "test_acceptance.py::test_criterion_05_max_entry_constant",
    "oracle.min_string_length": "test_oracle.py::test_min_string_length_worked_example",
    "oracle.verify_matching_count": "test_acceptance.py::test_criterion_06_matching_count",
    "synthesis.verify": "test_synthesis.py::test_verify_pipeline",
}


def _unused_public_names() -> set[str]:
    """``module.name`` of every public module-level function and class of
    the package that no code in src/ or perfbench/ refers to outside its
    own definition."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    uses = defaultdict(list)  # name -> its Name and Attribute nodes, by id
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(id(node))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(id(node))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for own in trees[path].body:
            if isinstance(own, (ast.FunctionDef, ast.ClassDef)) and not own.name.startswith("_"):
                inside = set(map(id, ast.walk(own)))
                if all(use in inside for use in uses[own.name]):
                    unused.add(f"{path.stem}.{own.name}")
    return unused


def test_every_public_name_is_used_or_a_pinned_paper_claim_helper():
    assert _unused_public_names() == set(PAPER_CLAIM_HELPERS)


def test_each_paper_claim_helper_has_its_test():
    for qualified, test_id in PAPER_CLAIM_HELPERS.items():
        name = qualified.split(".")[1]
        file, test = test_id.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        body = next(
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == test
        )
        assert any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(body)), test_id
