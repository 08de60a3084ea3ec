"""`src/` holds the code that runs: every `def` and `class` in
`src/muacp` is named somewhere in `src/` or `bench/` other than its own
definition.  A function that only tests call belongs in `tests/`, as an
oracle next to the tests that judge by it, or nowhere.

Names are compared as tokens (`tokenize`), so a mention in a comment, a
docstring or a string does not count.  Nor does a name that only labels
something else: a keyword argument or parameter default (`name=` inside
brackets), or an annotation that starts a statement (`name: type`, a
dataclass field, say).  Only at the start of a statement: in
`if n < cfg.quorum:` the name is read.  Dunder methods are exempt: Python
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


_SKIPPED = (tokenize.COMMENT, tokenize.NL)
_STATEMENT_START = (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT,
                    tokenize.DEDENT)


def _names(path: Path) -> tuple[list[str], list[str]]:
    """The names `path` defines with `def` or `class`, and the other
    names it reads."""
    with path.open("rb") as fp:
        toks = [tok for tok in tokenize.tokenize(fp.readline)
                if tok.type not in _SKIPPED]
    defined, read = [], []
    depth = 0
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        if tok.type == tokenize.OP:
            depth += (tok.string in "([{") - (tok.string in ")]}")
        if tok.type != tokenize.NAME:
            continue
        if prev.string in ("def", "class"):
            defined.append(tok.string)
        elif not (depth and nxt.string == "="
                  or prev.type in _STATEMENT_START and nxt.string == ":"):
            read.append(tok.string)
    return defined, read


def _unnamed() -> dict[str, str]:
    """Each `src/muacp` definition named nowhere else in `src/` or
    `bench/`, mapped to where it is defined."""
    defined: dict[str, list[str]] = {}
    named: set[str] = set()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            defs, read = _names(path)
            named.update(read)
            if top == "src":
                for name in defs:
                    where = f"{path.relative_to(ROOT)}: {name}"
                    defined.setdefault(name, []).append(where)
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


_SAMPLE = '''\
class Report:
    # a field named like a function
    entropy: float


def build(weights, table=None):
    if len(weights) < cfg.quorum:
        return Report(entropy=h(weights))
'''


def test_labels_are_not_reads(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    defined, read = _names(path)
    assert defined == ["Report", "build"]
    assert "entropy" not in read and "table" not in read
    assert {"Report", "weights", "quorum", "h"} <= set(read)
