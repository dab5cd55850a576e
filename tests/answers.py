"""Fingerprints of the subset searches' and coset packings' answers.

For each search entry point and each tol in 1e-13, 1e-9 and 1e-6 this
prints a SHA-256 of the ``repr`` of every result or exception, frame by
frame, so two trees can be compared line for line:

    PYTHONPATH=<tree>/src python tests/answers.py

The corpus holds seeded random frames (n = 2-4, m <= 20), harmonic
frames (m <= 24; those of prime m <= 19 once more, labelled ``dft``),
spectral tetris frames (n <= 12, 2n <= m <= 4n + 2), prime Parseval
frames, stacks of ``np.eye`` and of a rotated basis, planted splits,
frames with repeated or zero columns, and two refusals (a frame that is
not tight, one over the search cap).  Entry points:
``is_prime_bruteforce``; ``find_divisor``; ``prime_factorization``;
``prime_factor_size_multisets`` for m <= 12; ``tight_subsets`` at every
size for m <= 14.

Two more lines, starting ``pack``, hash ``htf_divisor_of_size`` at every
divisible size of every (n, m) with 2 <= n <= m/2 and m <= 120, one for
the sizes s <= m/2 and one for s > m/2.  The line starting ``path``
hashes which path the ``find_divisor`` search takes on every corpus
frame at every tol: the kernel or the pivot reduction with its
pivot count r (which also sets the rows the search cap is charged),
then the type of the exception, if the search raises one.  The line
starting ``io`` hashes the field and entry bytes of every corpus frame
read back after a round trip through JSON and CSV files, and the
``repr`` of the error each reader raises on a fixed list of malformed
texts, the last two in files whose extension is neither .json nor .csv
(the temporary directory's path is replaced by a fixed token).  The
last line, starting ``cli``, hashes the argv, exit code, stdout and
stderr of ``cli.main`` for each argv of CLI_ARGVS, run in order in a
temporary directory whose path is replaced by a fixed token.
It runs in about a minute.  pytest does not collect this file.

The first line names the Python and numpy minor versions, since a
numpy release may change a scalar ``repr``.  ``tests/answers.txt`` holds
that line and the 20 hash lines as CI's fingerprint step expects them;
a change that moves an answer on purpose regenerates it with

    PYTHONPATH=src python -W error::RuntimeWarning tests/answers.py |
        grep -E '^(# python |tol=|pack |path |io |cli )' > tests/answers.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

import numpy as np

from primeframes import (FrameMatrix, HtfParams, divisibility, divisor_sets,
                         find_divisor, htf, htf_divisor_of_size,
                         is_prime_bruteforce, prime_factor_size_multisets,
                         prime_factorization, prime_parseval_extension,
                         random_tight_frame, stf, tight_subsets)
from primeframes.cli import main as cli_main
from primeframes.io import read_frame, read_vector, write_frame

# (reader, file extension, text): frames and vectors that every reader
# must refuse, each for its own reason; the extension alone names the
# format, so a .txt or .dat file is refused before it is read
MALFORMED = (
    (read_frame, "csv", ""),
    (read_frame, "csv", "\n \n"),
    (read_frame, "csv", "1+0j,2+0j\n1+0j\n"),
    (read_frame, "csv", "1+0j,nan+0j\n0+0j,1+0j\n"),
    (read_frame, "csv", "1+0j,1e400+0j\n"),
    (read_frame, "csv", "1+0j,1__0\n1,2,3\n"),
    (read_frame, "csv", "1,_1,x\n"),
    (read_frame, "csv", "1 + 2j,1\n"),
    (read_frame, "csv", "(1+2j,1\n"),
    (read_frame, "csv", "1,\n"),
    (read_frame, "csv", "\x1f1,\x1c2\n"),
    (read_vector, "csv", "   "),
    (read_vector, "csv", "1,2\n3\n"),
    (read_vector, "csv", "1+infj\n"),
    (read_vector, "csv", "1,2_\n"),
    (read_frame, "json", ""),
    (read_frame, "json", "[1]"),
    (read_frame, "json", '{"m": 2}'),
    (read_frame, "json", "[" * 100_000 + "]" * 100_000),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "integer", '
                         '"columns": [[[1, 0]]]}'),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[[1, 2]]]}'),
    (read_frame, "json", '{"n": 0, "m": 1, "field": "real", '
                         '"columns": [[]]}'),
    (read_frame, "json", '{"n": 2, "m": 1, "field": "real", '
                         '"columns": [[[1, 0], [1]]]}'),
    (read_frame, "json", '{"n": 1, "m": 2, "field": "real", '
                         '"columns": [[[1, 0, 0]], [[1, 0, 0]]]}'),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[[[1, 0], [0, 0]]]]}'),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[[[1%s, 0], [0, 0]]]]}' % ("0" * 400)),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[[true, 1%s]]]}' % ("0" * 400)),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[["1", null]]]}'),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [["ab"]]}'),
    (read_frame, "json", '{"n": 1, "m": 1, "field": "real", '
                         '"columns": [[[1e999, 0]]]}'),
    (read_vector, "json", '{"n": 2, "entries": [[1, 0]]}'),
    (read_vector, "json", '{"n": 1, "entries": [[null, 0]]}'),
    (read_vector, "json", '{"n": 2, "entries": [[0, 0], [false, 1]]}'),
    (read_vector, "json", '{"n": 1, "entries": [[0, -1%s]]}' % ("0" * 400)),
    (read_frame, "txt", ""),
    (read_vector, "dat", ""),
)

TOLS = (1e-13, 1e-9, 1e-6)

# (file name, frame columns) written before CLI_ARGVS run: m < n, m = 1,
# and a frame that is not tight
CLI_FRAMES = (
    ("short.json", [(1, 0, 0), (0, 1, 0)]),
    ("one.csv", [(2,)]),
    ("lopsided.json", [(1, 0), (0, 1), (1, 1)]),
)
# the primeframes lines of README's command block, then each
# subcommand that reads a frame on each of CLI_FRAMES; at tol 0.6 the
# 3 x 2 frame passes as tight
CLI_ARGVS = [argv.split() for argv in (
    "htf --n 2 --m 5 --format csv",
    "stf --n 4 --m 11 --format csv",
    "stf --n 4 --m 7",
    "random --n 3 --m 8 --seed 0",
    "extendprime --n 3 --m 7",
    "htf --n 2 --m 10 --output ten.json",
    "analyze --input ten.json --factor",
    "factor --input ten.json --all-minimal",
    "htf --n 2 --m 30 --output thirty.json",
    "factor --input thirty.json --force",
    "sets --n 3 --m 24",
    "transform --n 2 --m 10 --p 5 --analyze --input x.json",
    "grid --nmax 3 --mmax 12 --format csv",
    "analyze --input ten.json",
)] + [[*command.split(), "--input", name, *tol]
      for name, _ in CLI_FRAMES for tol in ([], ["--tol", "0.6"])
      for command in ("analyze", "analyze --factor", "factor --all-minimal")]


def planted(n, sizes, seed):
    """Seeded tight frames of R^n side by side, columns shuffled."""
    entries = np.hstack([random_tight_frame(n, a, seed + i).entries
                         for i, a in enumerate(sizes)])
    order = np.random.default_rng(seed).permutation(entries.shape[1])
    return FrameMatrix.from_array(entries[:, order])


def corpus() -> dict:
    """Named frames, in a fixed order."""
    frames = {}
    for n in (2, 3, 4):
        for m in range(2 * n, 21):
            for seed in range(6):
                frames["random(%d, %d, %d)" % (n, m, seed)] = (
                    random_tight_frame(n, m, seed))
    for n in (2, 3, 4, 5):
        for m in range(2 * n, 25):
            frames["htf(%d, %d)" % (n, m)] = htf(HtfParams(n, m))
    for n in range(2, 13):
        for m in range(2 * n, 4 * n + 3):
            frames["stf(%d, %d)" % (n, m)] = stf(n, m)
    for n in (2, 3, 4):
        for p in (5, 7, 11, 13, 17, 19):
            if p >= 2 * n:
                frames["dft(%d, %d)" % (n, p)] = htf(HtfParams(n, p))
    for n, ms in ((2, range(5, 10)), (3, range(7, 14)), (4, range(9, 15))):
        for m in ms:
            frames["parseval(%d, %d)" % (n, m)] = (
                prime_parseval_extension(n, m))
    for n, top in ((2, 9), (3, 6), (4, 4)):
        rotation = np.linalg.qr(
            np.random.default_rng(n).standard_normal((n, n)))[0]
        for k in range(2, top + 1):
            for basis, name in ((np.eye(n), "eye"), (rotation, "rotated")):
                frames["%s(%d) x %d" % (name, n, k)] = FrameMatrix.from_array(
                    np.hstack([basis] * k))
    for n, sizes in ((2, (4, 6)), (2, (5, 7)), (2, (8, 10)), (3, (6, 7)),
                     (3, (4, 9)), (3, (7, 10)), (3, (10, 10)), (4, (8, 8)),
                     (4, (5, 9)), (4, (10, 10)), (2, (3, 3, 4)),
                     (3, (3, 4, 5)), (2, (2, 2, 2, 3))):
        for seed in (1, 2, 3):
            frames["planted(%d, %s, %d)" % (n, sizes, seed)] = planted(
                n, sizes, seed)
    for n, m, seed in ((2, 5, 0), (3, 7, 1), (3, 5, 2), (4, 7, 3)):
        base = random_tight_frame(n, m, seed).entries
        frames["repeated(%d, %d, %d)" % (n, m, seed)] = (
            FrameMatrix.from_array(np.hstack([base, base])))
    for name, phi, zeros in (("random(3, 11, 6)", random_tight_frame(3, 11, 6),
                              3),
                             ("htf(2, 10)", htf(HtfParams(2, 10)), 4),
                             ("eye(2) x 4", FrameMatrix.from_array(
                                 np.hstack([np.eye(2)] * 4)), 2)):
        frames["%s + %d zero columns" % (name, zeros)] = FrameMatrix(
            np.hstack([phi.entries, np.zeros((phi.n, zeros))]), phi.field)
    # refusals: not tight, and over the search cap unforced
    frames["not tight"] = FrameMatrix.from_columns([(1, 0), (0, 1), (1, 1)])
    frames["random(3, 40, 0)"] = random_tight_frame(3, 40, 0)
    return frames


def outcome(call, *args, **kwargs) -> str:
    try:
        return repr(call(*args, **kwargs))
    except Exception as exc:  # refusals are answers too
        return "%s: %s" % (type(exc).__name__, exc)


def answers(frames: dict, tol: float) -> dict:
    """Per entry point, one line per (frame, arguments) asked."""
    out = {name: [] for name in (
        "is_prime_bruteforce", "find_divisor", "prime_factorization",
        "prime_factor_size_multisets", "tight_subsets")}
    for key, phi in frames.items():
        def ask(name, call, *args, **kwargs):
            out[name].append("%s %s %s -> %s" % (
                key, args, kwargs, outcome(call, phi, *args, **kwargs)))

        ask("is_prime_bruteforce", is_prime_bruteforce, tol)
        ask("find_divisor", find_divisor, tol=tol)
        ask("prime_factorization", prime_factorization, tol)
        if phi.m <= 12:
            ask("prime_factor_size_multisets", prime_factor_size_multisets,
                tol)
        if phi.m <= 14:
            for size in range(1, phi.m + 1):
                ask("tight_subsets", tight_subsets, size, tol)
    return out


def packings() -> dict:
    """One line per divisible size, split at s = m/2."""
    out = {"s<=m/2": [], "s>m/2": []}
    for m in range(4, 121):
        for n in range(2, m // 2 + 1):
            for size in divisor_sets(n, m).divisible_sizes:
                out["s<=m/2" if 2 * size <= m else "s>m/2"].append(
                    "(%d, %d, %d) -> %s" % (n, m, size, outcome(
                        htf_divisor_of_size, HtfParams(n, m), size)))
    return out


def path_lines(frames: dict) -> list:
    """The path of each first-divisor search, frame by frame and tol by
    tol."""
    out, taken = [], []
    search = divisibility._reduction_search

    def reduction_search(*args):
        # args[5] is the reduction: (pivots, forced, mu)
        taken.append("reduction r=%d" % len(args[5][0]))
        return search(*args)

    divisibility._reduction_search = reduction_search
    try:
        for tol in TOLS:
            for key, phi in frames.items():
                taken.clear()
                try:
                    find_divisor(phi, tol=tol)
                except Exception as exc:  # a refusal ends the path
                    taken.append(type(exc).__name__)
                out.append("%s %g %s" % (key, tol,
                                         " ".join(taken) or "kernel"))
    finally:
        divisibility._reduction_search = search
    return out


def io_lines(frames: dict) -> list:
    """Each frame read back from a JSON and a CSV file, then each
    malformed text's outcome."""
    out = []
    with tempfile.TemporaryDirectory() as folder:
        for key, phi in frames.items():
            for ext in ("json", "csv"):
                path = os.path.join(folder, "frame." + ext)
                write_frame(phi, path)
                back = read_frame(path)
                out.append("%s %s %s %s" % (key, ext, back.field,
                                            back.entries.tobytes().hex()))
        for read, ext, text in MALFORMED:
            path = os.path.join(folder, "text." + ext)
            with open(path, "w") as handle:
                handle.write(text)
            try:
                got = repr(read(path))
            except ValueError as exc:
                got = repr(exc)
            line = "%s %s %r -> %s" % (read.__name__, ext, text[:80], got)
            out.append(line.replace(folder, "<tmp>"))
    return out


def cli_lines() -> list:
    """Each argv of CLI_ARGVS with what ``cli.main`` returns and prints."""
    out = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            with open("x.json", "w") as handle:
                handle.write('{"n": 2, "entries": [[1, 0], [0, 1]]}\n')
            for name, columns in CLI_FRAMES:
                write_frame(FrameMatrix.from_columns(columns), name)
            for argv in CLI_ARGVS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                line = "%r -> %r %r %r" % (argv, code, stdout.getvalue(),
                                           stderr.getvalue())
                out.append(line.replace(folder, "<tmp>"))
        finally:
            os.chdir(start)
    return out


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main():
    start = time.perf_counter()
    print("# python %d.%d, numpy %s" % (*sys.version_info[:2], ".".join(
        np.__version__.split(".")[:2])))
    frames = corpus()
    for tol in TOLS:
        for name, lines in answers(frames, tol).items():
            print("tol=%-6g %-28s %5d %s" % (tol, name, len(lines),
                                             digest(lines)))
    for sizes, lines in packings().items():
        print("pack %-6s htf_divisor_of_size %12d %s" % (sizes, len(lines),
                                                       digest(lines)))
    lines = path_lines(frames)
    print("path find_divisor %26d %s" % (len(lines), digest(lines)))
    lines = io_lines(frames)
    print("io  read_frame, read_vector %16d %s" % (len(lines), digest(lines)))
    lines = cli_lines()
    print("cli main %35d %s" % (len(lines), digest(lines)))
    print("%d frames in %.1f s" % (len(frames), time.perf_counter() - start))


if __name__ == "__main__":
    main()
