"""`src/` holds the code that runs: every `def` and `class` in
`src/muacp` is named somewhere in `src/` or `bench/` other than its own
definition.  A function that only tests call belongs in `tests/`, as an
oracle next to the tests that judge by it, or nowhere.

Names are compared as tokens (`tokenize`), so a mention in a comment, a
docstring or a string does not count.  Dunder methods are exempt: Python
calls them.  `ALLOWED` names the few definitions kept although nothing
in `src/` or `bench/` names them, each with its reason; an entry that
gains a caller or goes away must leave the list.
"""

import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "sent_messages": "bench wraps it by name (simnet.sent_messages)",
    "cost_of": "bench wraps it by name (resources.cost_of)",
    "spent": "gate 4 oracle: no budget's spent part goes negative",
    "buffer_memory": "reference fold: BudgetLedger.refund equals "
                     "ResourceBudget.refund of it",
    "check_wellformed": "gate 3 oracle: the well-formedness clauses",
    "exhaustive_interleaving_check": "gate 7 oracle: every interleaving "
                                     "of the live decree rules",
    "is_response": "public header flag",
    "is_error": "public header flag",
    "of_kind": "ROADMAP item 5 replaces it with the event sink",
    "build_tables": "ROADMAP item 8 gives it a caller, the bit coder",
}


def _names(path: Path) -> list[str]:
    with path.open("rb") as fp:
        return [tok.string for tok in tokenize.tokenize(fp.readline)
                if tok.type == tokenize.NAME]


def _unnamed() -> dict[str, str]:
    """Each `src/muacp` definition named nowhere else in `src/` or
    `bench/`, mapped to where it is defined."""
    defined: dict[str, list[str]] = {}
    named: set[str] = set()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            names = _names(path)
            for i, name in enumerate(names):
                if i and names[i - 1] in ("def", "class"):
                    if top == "src":
                        where = f"{path.relative_to(ROOT)}: {name}"
                        defined.setdefault(name, []).append(where)
                else:
                    named.add(name)
    return {name: ", ".join(where) for name, where in defined.items()
            if name not in named
            and not (name.startswith("__") and name.endswith("__"))}


def test_src_defines_nothing_that_only_tests_call():
    unnamed = _unnamed()
    stray = sorted(unnamed[name] for name in unnamed.keys() - ALLOWED.keys())
    assert not stray, (
        "only tests name these; move them into tests/ or delete them: "
        f"{stray}")
    stale = sorted(ALLOWED.keys() - unnamed.keys())
    assert not stale, f"now named in src/ or bench/, or gone: {stale}"
