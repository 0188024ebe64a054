"""A census of `polybound bounded --verify` on random incidence files.

Run from the repository root:

    PYTHONPATH=src python tests/incidence_census.py [--parsed]

Each file has n = 3..8 vertices, m = 3..7 facet rows whose entries are 1
with a probability drawn from 0.5, 0.6, 0.7 and 0.8, and a far face that
is the meet of one or two of its rows, all drawn from `random.Random(0)`.
Without `--parsed` the census runs 3,000 such files; almost all of them
stop at the parser.  With `--parsed` it draws until 3,000 files pass
`formats.parse_incidence` and runs those, so that every file reaches the
face search and its checks.  It prints the count of each exit code, then
up to three files for each code other than 2 with their message.  Exit 0
on a file that is no polytope's would be a wrong diagram; exit 4 is an
internal error on input the parser let through.
"""

import argparse
import contextlib
import io
import os
import random
import tempfile
from collections import Counter

from polybound import formats
from polybound.cli import main
from polybound.errors import InputError

FILES = 3000


def random_file(rng: random.Random) -> str:
    n, m = rng.randint(3, 8), rng.randint(3, 7)
    p = rng.choice((0.5, 0.6, 0.7, 0.8))
    rows = [[int(rng.random() < p) for _ in range(n)] for _ in range(m)]
    sample = rng.sample(range(m), rng.randint(1, 2))
    far = [j for j in range(n) if all(rows[i][j] for i in sample)]
    return (f"polybound-inc 1\nfacets {m} vertices {n}\n"
            + "".join("".join(map(str, row)) + "\n" for row in rows)
            + "farface " + " ".join(map(str, far)) + "\n")


def parses(text: str) -> bool:
    try:
        formats.parse_incidence(text.splitlines())
    except InputError:
        return False
    return True


def census(parsed: bool) -> tuple[Counter, dict]:
    rng = random.Random(0)
    codes: Counter = Counter()
    examples: dict[int, list[tuple[str, str]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census.inc")
        while sum(codes.values()) < FILES:
            text = random_file(rng)
            if parsed and not parses(text):
                continue
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["-o", tmp, "bounded", "--verify", path])
            codes[code] += 1
            if code != 2:
                examples.setdefault(code, []).append((text, err.getvalue().strip()))
    return codes, examples


def run(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parsed", action="store_true",
                        help="count only files that pass the parser")
    args = parser.parse_args(argv)
    codes, examples = census(args.parsed)
    print(dict(sorted(codes.items())))
    for code in sorted(examples):
        for text, message in examples[code][:3]:
            print(code, repr(text), message)


if __name__ == "__main__":
    run()
