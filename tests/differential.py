"""Differential check of the parser's facts: this checkout against a revision.

    python tests/differential.py --against REV [--mutants N] [--seed S] [--out DIR]

It extracts ``src/`` of *REV* with ``git archive`` into a temporary
directory. Seeded mutants of the ``.java`` fixtures, of ``random_java``
methods and of the facts digest's hand-written cases are made here, each by
one mutation: a token deleted, a token inserted before another, two adjacent
tokens swapped, the text cut before a token, or a hostile string of
``test_lexer.HOSTILE`` spliced in at any offset. Two subprocesses, one on
this checkout's ``src/`` and one on *REV*'s, run
``test_facts_digest.dump_facts`` over the same mutants, and the two dumps of
each mutant are compared.

It prints how many mutants differ, by mutation kind, and writes each
differing mutant to *DIR*: ``<n>-<kind>.java`` and the two dumps,
``<n>.here.txt`` and ``<n>.rev.txt``. It exits 1 when any differs.
Running it against ``HEAD`` with no change checks the script itself: no
mutant may differ.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from javasmell.lexer import ParseError, SourceFile, token_starts, tokenize  # noqa: E402
from random_java import random_method  # noqa: E402
from test_facts_digest import HAND_WRITTEN  # noqa: E402
from test_lexer import HOSTILE  # noqa: E402

KINDS = ("delete", "insert", "swap", "cut", "hostile")

# Run in each subprocess: dump the facts of every mutant in the JSON file
# argv[1], one JSON string a line, in order. A crash is a dump too.
DUMP = """
import json, sys
from test_facts_digest import dump_facts
with open(sys.argv[1], encoding="utf-8") as fh:
    made = json.load(fh)
for name, text in made:
    try:
        dump = dump_facts(name, text)
    except Exception as err:
        dump = f"crash {type(err).__name__}: {err}"
    print(json.dumps(dump))
"""


def pool(seed: int) -> list:
    """(name, text, [(offset, lexeme)]) for each source that lexes into
    two tokens or more."""
    rng = random.Random(seed)
    named = [(p.relative_to(TESTS).as_posix(), p.read_text(encoding="utf-8"))
             for p in sorted((TESTS / "fixtures").rglob("*.java"))]
    named += [(f"random_java/{k}.java", random_method(rng)[0]) for k in range(200)]
    named += [(f"hand/{name}.java", text) for name, text in HAND_WRITTEN]
    sources = []
    for name, text in named:
        source = SourceFile(name, text)
        try:
            lexemes = tokenize(source).lexemes
        except ParseError:
            continue
        if len(lexemes) > 1:
            sources.append((name, source.content, list(zip(token_starts(source.content), lexemes))))
    return sources


def mutate(rng: random.Random, kind: str, text: str, tokens: list) -> str:
    """*text* with one mutation of *kind*; *tokens* are its (offset, lexeme)."""
    k = rng.randrange(len(tokens) - 1)
    at, lexeme = tokens[k]
    if kind == "delete":
        return text[:at] + text[at + len(lexeme):]
    if kind == "insert":
        return text[:at] + rng.choice(tokens)[1] + " " + text[at:]
    if kind == "swap":
        after, other = tokens[k + 1]
        return text[:at] + other + text[at + len(lexeme):after] + lexeme + text[after + len(other):]
    if kind == "cut":
        return text[:at]
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(HOSTILE) + text[at:]


def mutants(count: int, seed: int) -> list:
    """*count* (kind, name, text) mutants, the same for the same seed."""
    rng = random.Random(seed)
    sources = pool(seed)
    made = []
    for n in range(count):
        kind = KINDS[n % len(KINDS)]
        name, text, tokens = rng.choice(sources)
        made.append((kind, name, mutate(rng, kind, text, tokens)))
    return made


def extract(rev: str, into: Path) -> Path:
    """``src/`` of *rev*, extracted under *into*."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def compare(here: Path, there: Path, made: list, out: Path) -> Counter:
    """The number of *made* mutants whose dumps differ between the source
    trees *here* and *there*, by kind and in ``total``, after writing each
    to *out*."""
    differ = Counter(total=0)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "mutants.json"
        inputs.write_text(json.dumps([(name, text) for _, name, text in made]), encoding="utf-8")
        procs = []
        for src in (here, there):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(TESTS))),
                       PYTHONDONTWRITEBYTECODE="1", PYTHONIOENCODING="utf-8")
            procs.append(subprocess.Popen([sys.executable, "-c", DUMP, str(inputs)], cwd=tmp,
                                          env=env, stdout=subprocess.PIPE, encoding="utf-8"))
        try:
            for n, ((kind, _, text), a, b) in enumerate(zip(made, procs[0].stdout, procs[1].stdout)):
                if a != b:
                    differ[kind] += 1
                    differ["total"] += 1
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"{n}-{kind}.java").write_text(text, encoding="utf-8")
                    (out / f"{n}.here.txt").write_text(json.loads(a), encoding="utf-8")
                    (out / f"{n}.rev.txt").write_text(json.loads(b), encoding="utf-8")
        finally:
            for proc in procs:
                proc.stdout.close()  # a writer left alone gets a broken pipe, not a full one
            failed = [proc.wait() for proc in procs]
        if any(failed):
            raise RuntimeError("a dump subprocess failed")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    parser.add_argument("--mutants", type=int, default=4000, help="number of mutants (default 4000)")
    parser.add_argument("--seed", type=int, default=1, help="mutant seed (default 1)")
    parser.add_argument("--out", type=Path, default=Path("differential-out"),
                        help="directory for the differing mutants (default differential-out)")
    args = parser.parse_args(argv)
    made = mutants(args.mutants, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        differ = compare(ROOT / "src", extract(args.against, Path(tmp)), made, args.out)
    tried = Counter(kind for kind, _, _ in made)
    print(f"{differ['total']} of {len(made)} mutants differ against {args.against} (seed {args.seed})")
    for kind in KINDS:
        print(f"  {kind}: {differ[kind]} of {tried[kind]}")
    if differ["total"]:
        print(f"differing mutants and their dumps are in {args.out}")
    return 1 if differ["total"] else 0


if __name__ == "__main__":
    sys.exit(main())
