"""The benchmark's three workloads: inputs made from the seed, ops, checks.

Every call into primeframes goes through ``Tracer.call`` with the span name
``<module>.<function>``, so a traced run sees each layer from outside.
Checks call the library untraced, except ``check_tight`` and
``analyze_naive``, whose timings are per-layer metrics themselves.

Each workload is built by its constructor (the set-up the runner times)
and then hands the runner one cycle of ops at a time.  Ops of kinds that
repeat from cycle to cycle vary only in their seeded inputs; ops that run
once per run (the coset-packing pass) are spread over the first cycles.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import signal
from dataclasses import dataclass
from math import comb
from time import perf_counter

import numpy as np

from primeframes import cli, io
from primeframes.divisibility import (SEARCH_CAP, complement_certificate,
                                      find_divisor, is_prime_bruteforce,
                                      prime_factor_size_multisets,
                                      prime_factorization)
from primeframes.frames import (FrameMatrix, check_tight, dft_row_frame,
                                prime_parseval_extension, random_tight_frame)
from primeframes.harmonic import (HtfParams, divisor_sets, htf,
                                  htf_divisor_of_size, htf_prime_factors,
                                  index_coset, vanishing_subsum_check)
from primeframes.tetris import stf, stf_factorize
from primeframes.transform import (analyze_fast, analyze_naive, plan,
                                   synthesize_fast)


class CheckFailed(Exception):
    """An op's output disagrees with the known answer."""


class DeadlineMiss(Exception):
    """An op ran past its deadline and was interrupted."""


@dataclass
class Op:
    key: str                 # op kind; equal keys mean comparable work
    run: object              # () -> output
    check: object            # output -> None, raises CheckFailed
    repeats: bool = True     # False: runs once per run (packing pass)
    deadline_s: float = 0.0  # > 0: interrupted at this wall time
    miss_expected: bool = False


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def with_deadline(seconds: float, fn):
    """Run fn() in this thread; raise DeadlineMiss after ``seconds``.

    Uses SIGALRM, so no helper thread or process is started.  The pure
    Python searches in primeframes check for signals between bytecodes,
    so the interruption lands within milliseconds.
    """
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def sub_seed(seed: int, *tag: int) -> int:
    """An independent integer seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1)[0])


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def p50_p90(values) -> tuple:
    if len(values) == 0:
        return 0.0, 0.0
    a, b = np.percentile(np.asarray(values, dtype=float), [50, 90])
    return float(a), float(b)


def per_setup_median(entry) -> float:
    """Median over the set-up repetitions of a span name's summed time."""
    reps = entry["op_id"]
    if not (reps < 0).any():
        return 0.0
    return float(np.median([entry["durations"][reps == r].sum()
                            for r in np.unique(reps[reps < 0])]))


def _tight(tr, phi: FrameMatrix) -> bool:
    return tr.call("frames.check_tight", check_tight, phi).is_tight


def _is_partition(parts, m: int) -> bool:
    flat = sorted(i for part in parts for i in part)
    return flat == list(range(1, m + 1))


# --- search -----------------------------------------------------------------

def full_search_count(n: int, m: int) -> int:
    """Subsets a search visits on a prime frame: sizes n..m-n, column 1
    pinned, all C(m-1, k-1) masks of each size (none when m < 2n)."""
    if m < 2 * n:
        return 0
    return sum(comb(m - 1, k - 1) for k in range(n, m - n + 1))


def certificate_search_count(n: int, m: int, subset) -> int:
    """Subsets a search visits before it returns ``subset``: every smaller
    size in full, then the masks up to and including the certificate's.

    Masks of one popcount ascend numerically, which is colex order of the
    set bits, so the certificate's position is sum_j C(bit_j, j + 1)."""
    bits = sorted(i - 2 for i in subset if i != 1)
    rank = sum(comb(b, j + 1) for j, b in enumerate(bits))
    smaller = sum(comb(m - 1, k - 1) for k in range(n, len(subset)))
    return smaller + rank + 1


def planted(a: int, b: int, seed: int, tr):
    """Two seeded tight frames in R^3 side by side, columns shuffled.

    Returns the frame and the planted parts as sorted 1-based tuples.
    Both parts are generic, hence prime, so the planted split is the only
    divisor and the first certificate is the part holding column 1."""
    left = tr.call("frames.construct", random_tight_frame, 3, a,
                   sub_seed(seed, 1))
    right = tr.call("frames.construct", random_tight_frame, 3, b,
                    sub_seed(seed, 2))
    perm = np.random.default_rng(sub_seed(seed, 3)).permutation(a + b)
    entries = np.hstack([left.entries, right.entries])[:, perm]
    phi = FrameMatrix(entries, "real")
    part_a = tuple(int(j) + 1 for j in np.flatnonzero(perm < a))
    part_b = tuple(int(j) + 1 for j in np.flatnonzero(perm >= a))
    return phi, part_a, part_b


@dataclass(frozen=True)
class SearchSizes:
    random_m: tuple     # is_prime_bruteforce on random_tight_frame(3, m)
    dft: tuple          # (n, p): is_prime_bruteforce on dft_row_frame
    parseval: tuple     # (n, m): is_prime_bruteforce on the prime extension
    find: tuple         # planted (a, b): find_divisor
    factorize: tuple    # planted (a, b): prime_factorization
    multisets: tuple    # planted (a, b): prime_factor_size_multisets
    stf_shapes: tuple   # (n, m, basis copies): stf_factorize
    pool: int           # seeded frames per kind; cycle k takes entry k % pool
    probe_cap: int      # largest m tried by the max_prime_m_1s probe


# Balanced planted splits fix the certificate's size, so its cost varies
# only with its rank.  Three m = 14 prime searches make the slowest tenth
# of ops seed-free work, and the median falls among the m = 12 searches.
SEARCH_FULL = SearchSizes(
    random_m=(12, 12, 13, 14, 14, 14), dft=((3, 13), (2, 11)),
    parseval=((3, 12), (4, 12)), find=((6, 6), (7, 7)),
    factorize=((4, 7), (6, 6)), multisets=((4, 5),),
    stf_shapes=((5, 13, 0), (5, 17, 1)), pool=16, probe_cap=SEARCH_CAP)

SEARCH_TINY = SearchSizes(
    random_m=(8,), dft=((2, 7),), parseval=((3, 8),), find=((3, 4),),
    factorize=((3, 4),), multisets=((3, 3),), stf_shapes=((3, 8, 1),),
    pool=2, probe_cap=9)


class Search:
    """Exhaustive subset search; almost all time is in ``divisibility``."""

    def __init__(self, tr, seed: int, sizes: SearchSizes = SEARCH_FULL):
        self.tr = tr
        self.seed = seed
        self.sizes = sizes
        self.subsets = 0            # computed, traced ops only
        self.verdicts = {}          # structured (seed-free) inputs only
        self.random = [
            [self._input(random_tight_frame, 3, m, sub_seed(seed, 10, j, i))
             for i in range(sizes.pool)]
            for j, m in enumerate(sizes.random_m)]
        self.structured = (
            [("dft.%dx%d" % s, self._input(dft_row_frame, *s))
             for s in sizes.dft]
            + [("parseval.%dx%d" % s,
                self._input(prime_parseval_extension, *s))
               for s in sizes.parseval])
        self.planted = {
            kind: [[planted(a, b, sub_seed(seed, 20 + t, j, i), tr)
                    for i in range(sizes.pool)]
                   for j, (a, b) in enumerate(shapes)]
            for t, (kind, shapes) in enumerate((
                ("find", sizes.find), ("factorize", sizes.factorize),
                ("multisets", sizes.multisets)))}

    def _input(self, build, *args) -> FrameMatrix:
        phi = self.tr.call("frames.construct", build, *args)
        if not _tight(self.tr, phi):
            raise RuntimeError("benchmark input %s%r is not tight"
                               % (build.__name__, args))
        return phi

    def pending(self, k: int) -> bool:
        return False

    def cycle(self, k: int) -> list:
        i = k % self.sizes.pool
        ops = []
        for j, m in enumerate(self.sizes.random_m):
            ops.append(self._prime_op("random.3x%d" % m, self.random[j][i],
                                      structured=False))
        for label, phi in self.structured:
            ops.append(self._prime_op(label, phi, structured=True))
        for j, (a, b) in enumerate(self.sizes.find):
            ops.append(self._find_op(a, b, *self.planted["find"][j][i]))
        for j, (a, b) in enumerate(self.sizes.factorize):
            ops.append(self._factorize_op(a, b,
                                          *self.planted["factorize"][j][i]))
        for j, (a, b) in enumerate(self.sizes.multisets):
            ops.append(self._multisets_op(a, b,
                                          *self.planted["multisets"][j][i]))
        for n, m, copies in self.sizes.stf_shapes:
            ops.append(self._stf_op(n, m, copies))
        return ops

    def _count(self, subsets: int):
        if self.tr.on:
            self.subsets += subsets

    def _prime_op(self, label, phi, structured):
        key = "is_prime_bruteforce." + label

        def check(prime):
            require(prime is True, "%s: expected prime, got %r" % (key, prime))
            self._count(full_search_count(phi.n, phi.m))
            if structured:
                self.verdicts[key] = prime

        return Op(key, lambda: self.tr.call(
            "divisibility.is_prime_bruteforce", is_prime_bruteforce, phi),
            check)

    def _find_op(self, a, b, phi, part_a, part_b):
        key = "find_divisor.planted.%d+%d" % (a, b)
        expected = part_a if 1 in part_a else part_b

        def check(cert):
            require(cert is not None, key + ": no divisor found")
            require(cert.subset == expected,
                    "%s: certificate %r, planted %r"
                    % (key, cert.subset, expected))
            require(abs(cert.bound - 1) <= 1e-9 and
                    abs(cert.complement_bound - 1) <= 1e-9,
                    key + ": the planted parts each have bound 1")
            complement_certificate(phi, cert.subset)  # raises unless tight
            self._count(certificate_search_count(phi.n, phi.m, cert.subset))

        return Op(key, lambda: self.tr.call(
            "divisibility.find_divisor", find_divisor, phi), check)

    def _factorize_op(self, a, b, phi, part_a, part_b):
        key = "prime_factorization.planted.%d+%d" % (a, b)
        first = part_a if 1 in part_a else part_b

        def check(fact):
            require(_is_partition(fact.factors, phi.m),
                    key + ": factors do not partition the columns")
            require(sorted(fact.factors) == sorted([part_a, part_b]),
                    "%s: factors %r, planted %r"
                    % (key, fact.factors, (part_a, part_b)))
            for f in fact.factors:
                require(_tight(self.tr, phi.submatrix(f)),
                        key + ": a factor is not tight")
            require(np.allclose(fact.bounds, 1.0, atol=1e-9),
                    key + ": the planted parts each have bound 1")
            self._count(certificate_search_count(phi.n, phi.m, first)
                        + full_search_count(phi.n, a)
                        + full_search_count(phi.n, b))

        return Op(key, lambda: self.tr.call(
            "divisibility.prime_factorization", prime_factorization, phi),
            check)

    def _multisets_op(self, a, b, phi, part_a, part_b):
        key = "prime_factor_size_multisets.planted.%d+%d" % (a, b)

        def check(sizes):
            require(sizes == [tuple(sorted((a, b)))],
                    "%s: got %r" % (key, sizes))

        return Op(key, lambda: self.tr.call(
            "divisibility.prime_factor_size_multisets",
            prime_factor_size_multisets, phi), check)

    def _stf_op(self, n, m, copies):
        key = "stf_factorize.%dx%d" % (n, m)

        def check(fact):
            require(fact.basis_copies == copies,
                    "%s: %d basis copies, expected %d"
                    % (key, fact.basis_copies, copies))
            require(_is_partition((fact.core_indices,) + fact.basis_indices,
                                  m),
                    key + ": core and bases do not partition the columns")
            require(fact.prime_core.m == m - copies * n and
                    _tight(self.tr, fact.prime_core),
                    key + ": core is not a tight frame of the expected size")
            whole = stf(n, m)
            for basis in fact.basis_indices:
                part = whole.submatrix(basis)
                require(np.allclose(part.entries.conj().T @ part.entries,
                                    np.eye(n), atol=1e-12),
                        key + ": a peeled copy is not an orthonormal basis")
            core_m = fact.prime_core.m
            if core_m <= SEARCH_CAP:
                self._count(full_search_count(n, core_m))
            self.verdicts[key] = (fact.basis_copies, core_m)

        return Op(key, lambda: self.tr.call(
            "tetris.stf_factorize", stf_factorize, n, m), check)

    def max_prime_m(self, limit_s: float = 1.0) -> int:
        """Largest m with random_tight_frame(3, m) proved prime within
        limit_s, stepping m upward from 6 and stopping at the first m
        that takes longer (cut at limit_s, so the probe stays bounded)."""
        best = 0
        for m in range(6, self.sizes.probe_cap + 1):
            phi = random_tight_frame(3, m, sub_seed(self.seed, 30, m))
            t0 = perf_counter()
            try:
                prime = with_deadline(limit_s,
                                      lambda: is_prime_bruteforce(phi))
            except DeadlineMiss:
                break
            if perf_counter() - t0 > limit_s:
                break
            require(prime, "probe: random_tight_frame(3, %d) not prime" % m)
            best = m
        return best

    def layer_metrics(self, stats) -> dict:
        out = {}
        busy = 0.0
        for name in ("divisibility.is_prime_bruteforce",
                     "divisibility.find_divisor",
                     "divisibility.prime_factorization",
                     "divisibility.prime_factor_size_multisets",
                     "tetris.stf_factorize"):
            out[name + ".calls"] = stats[name]["calls"]
            out[name + ".busy_s"] = stats[name]["busy_s"]
            if not name.endswith("multisets"):
                busy += stats[name]["busy_s"]
        out["divisibility.subsets_evaluated"] = self.subsets
        out["divisibility.subsets_per_s"] = (
            self.subsets / busy if busy else 0.0)
        out["divisibility.max_prime_m_1s"] = self.max_prime_m()
        return out


# --- factor -----------------------------------------------------------------

def divisor_sets_oracle(n: int, m: int) -> dict:
    """D, P and S of a harmonic frame shape straight from their definitions."""
    d = [k for k in range(n, m - n + 1) if m % k == 0]
    p = [k for k in d if not any(k % c == 0 for c in d if c < k)]
    sums = {0}
    for v in range(1, m + 1):
        if any(v - q in sums for q in p):
            sums.add(v)
    s = [k for k in range(n, m - n + 1) if k in sums and m - k in sums]
    return {"D": d, "P": p, "S": s}


def build_frame(tr, kind: str, n: int, m: int, seed: int) -> FrameMatrix:
    if kind == "htf":
        return tr.call("harmonic.htf", htf, HtfParams(n, m))
    if kind == "stf":
        return tr.call("tetris.stf", stf, n, m)
    return tr.call("frames.construct", random_tight_frame, n, m, seed)


def cli_args(kind: str, n: int, m: int, seed: int) -> list:
    args = [kind, "--n", str(n), "--m", str(m)]
    return args + ["--seed", str(seed)] if kind == "random" else args


@dataclass(frozen=True)
class FactorSizes:
    roundtrips: tuple     # (kind, n, m, fmt): io.write_frame, io.read_frame
    cli_frames: tuple     # (kind, n, m, fmt): `<kind> ... --output`
    analyze: tuple        # (kind, n, m): `analyze --factor` on a frame file
    census: tuple         # (n, m, multisets): `factor --all-minimal` on htf
    sets: tuple           # (n, m): `sets`
    prime_factors: tuple  # (n, m, p): htf_prime_factors
    divisor_sets: tuple   # (n, m): divisor_sets
    packing: tuple        # (n, m, sizes or None for every divisible size)
    slow_shapes: tuple    # (n, m) where packing is known to run past deadline
    deadline_s: float
    pack_per_cycle: int


# The packing pass runs once, spread over the first 15 cycles; while it
# takes longer than --seconds, a run has exactly 15 cycles.  The CLI ops
# (2-8 ms) are about half of all ops, which puts the median latency among
# them; the 350 KB frame ops and the slow packing calls are the slowest
# seventh, which holds the 90th percentile.  The deadline sits well clear
# of both sides: the slowest packing call that completes, (3, 60, 53),
# takes 1.4-1.7 s on a 2-CPU x86-64 host, and the calls that miss (sizes
# 113, 116, 117 and 118 of (2, 120), and (3, 240, 119)) still run after
# 20 s.
FACTOR_FULL = FactorSizes(
    roundtrips=(("htf", 16, 512, "json"), ("htf", 16, 512, "csv"),
                ("htf", 2, 10, "csv"), ("stf", 4, 11, "json"),
                ("random", 3, 12, "json")),
    cli_frames=(("htf", 2, 10, "json"), ("htf", 8, 64, "csv"),
                ("htf", 3, 60, "json"), ("htf", 4, 36, "csv"),
                ("htf", 16, 512, "json"), ("stf", 4, 11, "csv"),
                ("stf", 8, 27, "json"), ("stf", 5, 13, "csv"),
                ("random", 3, 12, "json"), ("random", 4, 9, "csv"),
                ("random", 3, 8, "json")),
    analyze=(("htf", 2, 10), ("stf", 4, 11), ("htf", 2, 8), ("stf", 3, 9)),
    census=((2, 6, [[2, 2, 2], [3, 3]]), (2, 10, [[2, 2, 2, 2, 2], [5, 5]])),
    sets=((3, 60), (2, 120), (3, 24), (4, 36), (3, 240)),
    prime_factors=((3, 60, 3), (16, 512, 16)),
    divisor_sets=((3, 240),),
    packing=((3, 60, None), (2, 120, None), (3, 240, (119,))),
    slow_shapes=((2, 120), (3, 240)),
    deadline_s=5.0, pack_per_cycle=12)

FACTOR_TINY = FactorSizes(
    roundtrips=(("htf", 2, 10, "json"), ("random", 3, 6, "csv")),
    cli_frames=(("htf", 2, 6, "json"), ("random", 3, 6, "csv")),
    analyze=(("htf", 2, 6),), census=((2, 6, [[2, 2, 2], [3, 3]]),),
    sets=((3, 24),), prime_factors=((3, 24, 3),), divisor_sets=((3, 24),),
    packing=((3, 24, None), (3, 240, (119,))), slow_shapes=((3, 240),),
    deadline_s=0.5, pack_per_cycle=100)


class Factor:
    """Structured frames through files and the CLI, and coset packing.

    Searches here stop at an early certificate, so the time goes to
    ``harmonic`` packing, ``io`` and ``cli``."""

    def __init__(self, tr, seed: int, workdir: str,
                 sizes: FactorSizes = FACTOR_FULL):
        self.tr = tr
        self.seed = seed
        self.sizes = sizes
        self.dir = workdir
        self.io_bytes = 0         # traced round trips only
        self.misses = []          # (n, m, size) past the deadline
        self.packed = 0           # packing calls that returned a subset
        self.frames = {}
        specs = {(k, n, m)
                 for k, n, m, _ in sizes.roundtrips + sizes.cli_frames}
        specs |= {(k, n, m) for k, n, m in sizes.analyze}
        specs |= {("htf", n, m) for n, m, _ in sizes.census}
        specs |= {("htf", n, m) for n, m, _ in sizes.prime_factors}
        specs |= {("htf", n, m) for n, m, _ in sizes.packing}
        for spec in sorted(specs):
            self.frames[spec] = build_frame(tr, *spec, self.frame_seed(spec))
        for kind, n, m in sizes.analyze:
            io.write_frame(self.frames[kind, n, m],
                           self.path("in-%s-%d-%d.json" % (kind, n, m)))
        for n, m, _ in sizes.census:
            io.write_frame(self.frames["htf", n, m],
                           self.path("in-census-%d-%d.json" % (n, m)))
        self.pack_calls = [
            (n, m, size) for n, m, chosen in sizes.packing
            for size in (chosen or tr.call(
                "harmonic.divisor_sets", divisor_sets, n, m).divisible_sizes)]

    def frame_seed(self, spec) -> int:
        kind, n, m = spec
        return sub_seed(self.seed, 40, n, m) if kind == "random" else 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def pending(self, k: int) -> bool:
        return k * self.sizes.pack_per_cycle < len(self.pack_calls)

    def cycle(self, k: int) -> list:
        s = self.sizes
        ops = [self._roundtrip_op(*spec) for spec in s.roundtrips]
        ops += [self._cli_frame_op(*spec) for spec in s.cli_frames]
        ops += [self._analyze_op(*spec) for spec in s.analyze]
        ops += [self._census_op(*spec) for spec in s.census]
        ops += [self._sets_op(*spec) for spec in s.sets]
        ops += [self._prime_factors_op(*spec) for spec in s.prime_factors]
        ops += [self._divisor_sets_op(*spec) for spec in s.divisor_sets]
        per = s.pack_per_cycle
        ops += [self._pack_op(*call)
                for call in self.pack_calls[k * per:(k + 1) * per]]
        return ops

    def _roundtrip_op(self, kind, n, m, fmt):
        key = "roundtrip.%s.%dx%d.%s" % (kind, n, m, fmt)
        phi = self.frames[kind, n, m]
        target = self.path("rt-%s-%d-%d.%s" % (kind, n, m, fmt))

        def run():
            self.tr.call("io.write_frame", io.write_frame, phi, target)
            return self.tr.call("io.read_frame", io.read_frame, target)

        def check(back):
            require(back.field == phi.field and
                    np.array_equal(back.entries, phi.entries),
                    key + ": round trip is not bit-exact")
            if self.tr.on:
                self.io_bytes += os.path.getsize(target)

        return Op(key, run, check)

    def _cli(self, sub: str, argv: list):
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.tr.call("cli." + sub, cli.main, argv)
        return code, out.getvalue()

    def _cli_frame_op(self, kind, n, m, fmt):
        key = "cli.%s.%dx%d.%s" % (kind, n, m, fmt)
        spec = (kind, n, m)
        target = self.path("cli-%s-%d-%d.%s" % (kind, n, m, fmt))
        argv = cli_args(kind, n, m, self.frame_seed(spec)) + [
            "--format", fmt, "--output", target]

        def check(result):
            require(result[0] == 0, "%s: exit code %d" % (key, result[0]))
            back = io.read_frame(target)
            require(np.array_equal(back.entries, self.frames[spec].entries),
                    key + ": file differs from the library's frame")

        return Op(key, lambda: self._cli(kind, argv), check)

    def _factor_payload_ok(self, key, payload, phi):
        factors = [tuple(f) for f in payload["factors"]]
        require(_is_partition(factors, phi.m),
                key + ": factors do not partition the columns")
        for f in factors:
            require(_tight(self.tr, phi.submatrix(f)),
                    key + ": a factor is not tight")

    def _analyze_op(self, kind, n, m):
        key = "cli.analyze.%s.%dx%d" % (kind, n, m)
        argv = ["analyze", "--input",
                self.path("in-%s-%d-%d.json" % (kind, n, m)), "--factor"]

        def check(result):
            require(result[0] == 0, "%s: exit code %d" % (key, result[0]))
            payload = json.loads(result[1])
            require(payload["is_tight"] is True and payload["m"] == m,
                    key + ": wrong tightness report")
            self._factor_payload_ok(key, payload, self.frames[kind, n, m])

        return Op(key, lambda: self._cli("analyze", argv), check)

    def _census_op(self, n, m, multisets):
        key = "cli.factor.htf.%dx%d" % (n, m)
        argv = ["factor", "--input",
                self.path("in-census-%d-%d.json" % (n, m)), "--all-minimal"]

        def check(result):
            require(result[0] == 0, "%s: exit code %d" % (key, result[0]))
            payload = json.loads(result[1])
            require(payload["size_multisets"] == multisets,
                    "%s: multisets %r" % (key, payload["size_multisets"]))
            self._factor_payload_ok(key, payload, self.frames["htf", n, m])

        return Op(key, lambda: self._cli("factor", argv), check)

    def _sets_op(self, n, m):
        key = "cli.sets.%dx%d" % (n, m)
        argv = ["sets", "--n", str(n), "--m", str(m)]
        truth = divisor_sets_oracle(n, m)

        def check(result):
            require(result[0] == 0, "%s: exit code %d" % (key, result[0]))
            payload = json.loads(result[1])
            got = {k: payload[k] for k in ("D", "P", "S")}
            require(got == truth, key + ": divisor sets differ")

        return Op(key, lambda: self._cli("sets", argv), check)

    def _prime_factors_op(self, n, m, p):
        key = "htf_prime_factors.%dx%d.p%d" % (n, m, p)
        whole = self.frames["htf", n, m].entries

        def check(factors):
            require(len(factors) == m // p, key + ": wrong factor count")
            for q, f in enumerate(factors, start=1):
                cols = [i - 1 for i in index_coset(m, p, q)]
                require(np.allclose(f.entries, whole[:, cols], atol=1e-12),
                        key + ": factor %d is not its coset's columns" % q)
                require(_tight(self.tr, f), key + ": factor is not tight")

        return Op(key, lambda: self.tr.call(
            "harmonic.htf_prime_factors", htf_prime_factors,
            HtfParams(n, m), p), check)

    def _divisor_sets_op(self, n, m):
        key = "divisor_sets.%dx%d" % (n, m)
        truth = divisor_sets_oracle(n, m)

        def check(sets):
            got = {k: list(v) for k, v in sets.to_json_obj().items()
                   if k in ("D", "P", "S")}
            require(got == truth, key + ": divisor sets differ")

        return Op(key, lambda: self.tr.call(
            "harmonic.divisor_sets", divisor_sets, n, m), check)

    def _pack_op(self, n, m, size):
        key = "htf_divisor_of_size.%dx%d.%d" % (n, m, size)
        whole = self.frames["htf", n, m]

        def run():
            try:
                return self.tr.call("harmonic.htf_divisor_of_size",
                                    htf_divisor_of_size, HtfParams(n, m), size)
            except DeadlineMiss:
                self.misses.append((n, m, size))
                raise

        def check(subset):
            require(len(subset) == size == len(set(subset)) and
                    min(subset) >= 1 and max(subset) <= m,
                    key + ": not a subset of the requested size")
            require(_tight(self.tr, whole.submatrix(subset)),
                    key + ": packed subset is not tight")
            require(all(vanishing_subsum_check(m, subset, power)
                        for power in range(1, n)),
                    key + ": a root-of-unity subsum does not vanish")
            self.packed += 1

        return Op(key, run, check, repeats=False,
                  deadline_s=self.sizes.deadline_s,
                  miss_expected=(n, m) in self.sizes.slow_shapes)

    def layer_metrics(self, stats) -> dict:
        out = {}
        packing = stats["harmonic.htf_divisor_of_size"]
        calls = packing["calls"]
        p50, p90 = p50_p90(packing["durations"])
        out["harmonic.htf_divisor_of_size.calls"] = calls
        out["harmonic.htf_divisor_of_size.ms_p50"] = p50 * 1e3
        out["harmonic.htf_divisor_of_size.ms_p90"] = p90 * 1e3
        out["harmonic.htf_divisor_of_size.deadline_misses"] = len(self.misses)
        out["harmonic.htf_divisor_of_size.packed_ratio"] = (
            self.packed / calls if calls else 0.0)
        out["harmonic.divisor_sets.us_p50"] = p50_p90(
            stats["harmonic.divisor_sets"]["durations"])[0] * 1e6
        out["harmonic.htf_prime_factors.ms_p50"] = p50_p90(
            stats["harmonic.htf_prime_factors"]["durations"])[0] * 1e3
        for fn in ("write_frame", "read_frame"):
            busy = stats["io." + fn]["busy_s"]
            out["io.%s.busy_s" % fn] = busy
            out["io.%s_MB_per_s" % fn.split("_")[0]] = (
                self.io_bytes / 1e6 / busy if busy else 0.0)
        out["io.bytes_written"] = self.io_bytes
        for sub in ("htf", "stf", "random", "analyze", "factor", "sets"):
            out["cli.%s.ms_p50" % sub] = p50_p90(
                stats["cli." + sub]["durations"])[0] * 1e3
        return out


# --- transform_stream -------------------------------------------------------

@dataclass(frozen=True)
class TransformSizes:
    regimes: tuple      # (n, m, p, signals per block)
    pool_blocks: int    # seeded blocks per regime; cycle k takes k % pool


# Block sizes make each block take roughly 10 ms on a 2-CPU x86-64 host,
# so no regime dominates the latency percentiles.
TRANSFORM_FULL = TransformSizes(
    regimes=((3, 24, 3, 256), (8, 1024, 8, 128), (64, 4096, 64, 64),
             (100, 30030, 105, 8), (256, 65536, 256, 4)),
    pool_blocks=4)

TRANSFORM_TINY = TransformSizes(
    regimes=tuple((n, m, p, 1) for n, m, p, _ in TRANSFORM_FULL.regimes),
    pool_blocks=1)


def regime_label(n: int, m: int, p: int) -> str:
    return "%d-%d-%d" % (n, m, p)


class TransformStream:
    """Blocks of seeded signals through analyze_fast then synthesize_fast;
    only ``transform`` works here."""

    def __init__(self, tr, seed: int, sizes: TransformSizes = TRANSFORM_FULL):
        self.tr = tr
        self.sizes = sizes
        self.signals = 0    # traced ops only
        self.plans = []
        self.blocks = []
        for i, (n, m, p, per_block) in enumerate(sizes.regimes):
            self.plans.append(tr.call("transform.plan", plan, n, m, p))
            rng = np.random.default_rng(sub_seed(seed, 50, i))
            shape = (sizes.pool_blocks, per_block, n)
            self.blocks.append(rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))

    def pending(self, k: int) -> bool:
        return False

    def cycle(self, k: int) -> list:
        return [self._block_op(i, k % self.sizes.pool_blocks)
                for i in range(len(self.sizes.regimes))]

    def _block_op(self, i, b):
        n, m, p, _ = self.sizes.regimes[i]
        label = regime_label(n, m, p)
        tplan = self.plans[i]
        block = self.blocks[i][b]
        call = self.tr.call
        fast = "transform.%s.analyze_fast" % label
        synth = "transform.%s.synthesize_fast" % label
        naive = "transform.%s.analyze_naive" % label

        def run():
            out = []
            for x in block:
                c = call(fast, analyze_fast, tplan, x)
                out.append((c, call(synth, synthesize_fast, tplan, c)))
            return out

        def check(out):
            for x, (c, back) in zip(block, out):
                ref = call(naive, analyze_naive, n, m, x)
                require(np.max(np.abs(c - ref)) <= 1e-10,
                        label + ": analyze_fast differs from analyze_naive")
                require(np.max(np.abs(back - x)) <= 1e-10,
                        label + ": synthesize_fast(analyze_fast(x)) != x")
            if self.tr.on:
                self.signals += len(block)

        return Op("block." + label, run, check)

    def layer_metrics(self, stats) -> dict:
        out = {}
        out["transform.plan.ms"] = per_setup_median(
            stats["transform.plan"]) * 1e3
        for n, m, p, _ in self.sizes.regimes:
            label = regime_label(n, m, p)
            us = {}
            for fn in ("analyze_fast", "synthesize_fast", "analyze_naive"):
                us[fn] = p50_p90(stats["transform.%s.%s" % (label, fn)]
                                 ["durations"])[0] * 1e6
                out["transform.%s.%s.us_p50" % (label, fn)] = us[fn]
            out["transform.%s.fast_over_naive" % label] = (
                us["analyze_fast"] / us["analyze_naive"]
                if us["analyze_naive"] else 0.0)
        ops = [s for name, s in stats.items() if name.startswith("op.block.")]
        busy = sum(float(s["durations"].sum()) for s in ops)
        out["transform.signals_per_s"] = self.signals / busy if busy else 0.0
        return out
