#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each module of a package.

Usage: python scripts/line_count.py [PACKAGE_DIR]   (default: src/ghzdyn)

Each physical line falls in one class, read from the ``tokenize`` stream:
a line holding any code token is code; else a line spanned by a docstring
(a string that is a whole statement) is docstring, blank lines inside it
included; else a line with a comment is comment; the rest are blank.  So
the four columns of a module add up to its physical line count.  Pointing
it at a checkout of an earlier commit gives the split of a line delta.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SKIPPED = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)


def classify(path: Path) -> dict[str, int]:
    """Line counts by kind for one Python file."""
    source = path.read_bytes()
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    kind_of: dict[int, int] = {}  # line -> index into KINDS, the lowest index wins
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for k, tok in enumerate(significant):
        if tok.type in _SKIPPED:
            continue
        before = significant[k - 1].type if k else tokenize.NEWLINE
        after = significant[k + 1].type if k + 1 < len(significant) else tokenize.NEWLINE
        statement = before in (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        docstring = tok.type == tokenize.STRING and statement and after == tokenize.NEWLINE
        kind = KINDS.index("docstring" if docstring else "code")
        for line in range(tok.start[0], tok.end[0] + 1):
            kind_of[line] = min(kind_of.get(line, kind), kind)
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind_of.setdefault(tok.start[0], KINDS.index("comment"))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, source.count(b"\n") + 1):
        counts[KINDS[kind_of.get(line, KINDS.index("blank"))]] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description="Code, docstring, comment and blank lines per module.")
    parser.add_argument("package", nargs="?", default=str(root / "src" / "ghzdyn"),
                        help="directory whose *.py files are counted (default: src/ghzdyn)")
    args = parser.parse_args(argv)

    paths = sorted(Path(args.package).glob("*.py"))
    if not paths:
        print(f"no Python files in {args.package}", file=sys.stderr)
        return 2
    total = dict.fromkeys(KINDS + ("total",), 0)
    width = max(len(path.name) for path in paths) + 2
    print(f"{'module':<{width}}" + "".join(f"{kind:>10}" for kind in total))
    for path in paths:
        counts = classify(path)
        counts["total"] = sum(counts.values())
        for kind, count in counts.items():
            total[kind] += count
        print(f"{path.name:<{width}}" + "".join(f"{counts[kind]:>10}" for kind in total))
    print(f"{'total':<{width}}" + "".join(f"{total[kind]:>10}" for kind in total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
