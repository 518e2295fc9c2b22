"""The four workloads: seeded inputs, the timed operation, the output check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come from `gen` (the
benchmark's own sampler); the operation is the only part that is timed;
`check` re-derives the answer with the benchmark's own arithmetic.

Library functions are always reached through their module (``S.factor``,
not a name imported into this file), so that the tracer's wrappers, which
are installed on the modules, see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys

import gen
from gen import CheckFailed

MS = (1, 2, 3, 7, 30)
# The (m, length) cells, used in turn.  About 85 % of length-5 elements, 40 %
# of length-15 ones and 5 % of length-30 ones factor in under 30 ms (no
# witness search or only free-plane ones); the others take 90 ms and more.
# With one cell per (m, length), 42 % were fast, p50 fell in the gap between
# the two groups and moved by 28 % from seed to seed, so length 30 comes a
# second time.  Except for m = 30: (30, 30) is the slowest cell (median
# 160 ms, 10 % above 380 ms), and at 2 cells in 20 its upper half straddled
# p90, which then moved by 14 % from seed to seed in resampling.  With these
# 19 cells a third of the operations are fast, p50 lies inside the slow group
# and p90 inside the bulk of the slow length-15 and length-30 cells.
CELLS = (tuple((m, n) for n in (5, 15, 30) for m in MS)
         + tuple((m, 30) for m in MS if m != 30))
BOUNDS = (1, 10**3, 10**12)
M_FRESH_MAX = 10**12
# Elements whose first tau letter has rank above this are drawn again.
# Normalizing a rank-a letter takes on the order of |a|^1.58 witness
# searches: on a 2-vCPU 2.1 GHz Xeon under Python 3.11, rank 6 took 0.5 s,
# rank 35 took 8 s (a quarter of a run's operation time) and rank 902 took
# 140 to 205 s, more than a run may last.  About 1 in 1000 sampled elements
# exceeds the limit; each run reports how many it redrew.  The traced run
# measures this tail on RANK_TAIL instead.
RANK_LIMIT = 8
# (m, a) of fixed elements whose first tau letter has rank a above
# RANK_LIMIT.  They open the traced run of factor-mix, so that the
# normalize_word and embed_rank2 counts and busy times follow the cost of
# the rank tail that the timed mix redraws.  Each takes 0.7 to 1.5 s
# untraced (2-vCPU 2.1 GHz Xeon, Python 3.11).
RANK_TAIL = ((2, 10), (2, 13), (7, 14), (3, 16))
# (seed, index, sha256 prefix of its letters) of a sampled factor-mix
# element on which factor(normalize=True) raises WitnessNotFound: the first
# tau letter's witness is pulled back through a clearing isometry into a
# class part with entries of some 400 digits, whose own clearing then stalls
# within its step budget.  About 1 in 2000 sampled elements behaves so; the
# timed runs set such inputs apart (run.run_ops), and the traced run of
# factor-mix opens with this one, so that embeddings.witness_not_found and
# the embed_rank2 busy time follow this defect of the witness search.
EXHAUSTED_TAIL = (142361863, 185, "69d4d96b4aca60f1")


class Exhausted(Exception):
    """The library's witness search gave up on this input (WitnessNotFound,
    which never claims that no witness exists).  The input is not an
    operation of the workload; run.run_ops records it and draws the next."""


def child_env(root):
    """The environment for a child interpreter that imports root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _lib():
    """The library modules, imported on first use (set-up pays for it)."""
    from mukailat import (characters, fourier_mukai, lattices, linalg,
                          stabilizer)
    return characters, fourier_mukai, lattices, linalg, stabilizer


def _witness_not_found():
    from mukailat.embeddings import WitnessNotFound
    return WitnessNotFound


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _cell(i):
    """The i-th (m, length) cell, so that every run sees the same mix of
    sizes whatever its seed."""
    return CELLS[i % len(CELLS)]


def _warm_element(m):
    """A fixed two-letter element (a K3 root reflection, then the canonical
    tau reflection) used to fill lazy caches during set-up."""
    root = [0] * gen.K3_RANK
    root[0] = 1
    letters = (gen.extend_k3(tuple(root)),
               gen.mukai_coords(1, tuple(-x for x in
                                         gen.canonical_tau_class(m)), m))
    mat = gen.identity(gen.MUKAI_RANK)
    for u in letters:
        gen.reflect_right(mat, u)
    return gen.Element(m, letters, tuple(tuple(r) for r in mat))


def word_product(word):
    """Re-multiply a generator word with the benchmark's own arithmetic."""
    mat = gen.identity(gen.MUKAI_RANK)
    for letter in word.letters:
        h = getattr(letter, "k3_matrix", None)
        if h is None:
            v0 = letter.v0
            u = tuple(v0.c) + (v0.r, v0.s)
            if gen.pair(u, u) != -2:
                raise CheckFailed("tau letter is not a -2 class")
            gen.reflect_right(mat, u)
        else:
            if not gen.preserves_gram(h, gen.K3_GRAM):
                raise CheckFailed("gamma0 letter is not a K3 isometry")
            k = gen.K3_RANK
            ht = tuple(zip(*h))
            for row in mat:
                head = row[:k]
                row[:k] = [sum(a * b for a, b in zip(head, col) if a)
                           for col in ht]
    return tuple(tuple(r) for r in mat)


class Workload:
    name = ""
    ms = MS            # the m whose vperp_model set-up builds
    trace_ops = 0      # operations in the traced run (fixed, see run.py)
    redrawn = 0        # elements redrawn for exceeding RANK_LIMIT

    def factorable_element(self, rng, m, length):
        """A sampled element whose first tau rank is within RANK_LIMIT."""
        while True:
            elem = gen.sample_element(rng, m, length)
            if abs(gen.first_tau_rank(elem)) <= RANK_LIMIT:
                return elem
            self.redrawn += 1

    def setup(self):
        """Import-time and first-use construction the workload relies on."""
        _, _, lattices, _, S = _lib()
        self.mukai = lattices.mukai_lattice()
        lattices.k3_lattice()
        if self.mukai.gram != gen.MUKAI_GRAM:
            raise CheckFailed("library Mukai Gram differs from the "
                              "documented convention")
        self.models = {m: S.vperp_model(m) for m in self.ms}

    def inputs(self, seed):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """Raise CheckFailed on a wrong output; return its digest record."""
        raise NotImplementedError

    def key(self, inp):
        """The input's digest record."""
        elem = inp[0]
        return elem.m, elem.letters

    def peak_rss_kib(self):
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_inputs(self, seed):
        """The inputs of the traced run."""
        return self.inputs(seed)

    def traced_run(self, tracer, inp):
        """run(inp) under an operation span (the wrappers are installed)."""
        return tracer.operation(self.run, inp)


class FactorMix(Workload):
    name = "factor-mix"
    trace_ops = 100 + len(RANK_TAIL)  # EXHAUSTED_TAIL is set apart

    def setup(self):
        super().setup()
        _, _, lattices, _, S = _lib()
        for m in self.ms:
            elem = _warm_element(m)
            S.factor(self.models[m], lattices.Isometry(self.mukai,
                                                       elem.matrix),
                     normalize=True)

    def _elements(self, seed):
        rng = _rng(self.name, seed)
        i = 0
        while True:
            yield self.factorable_element(rng, *_cell(i))
            i += 1

    def inputs(self, seed):
        lattices = _lib()[2]
        self.redrawn = 0
        for elem in self._elements(seed):
            yield elem, lattices.Isometry(self.mukai, elem.matrix)

    def traced_inputs(self, seed):
        lattices = _lib()[2]
        tail = [gen.rank_element(m, a) for m, a in RANK_TAIL]
        for (m, a), elem in zip(RANK_TAIL, tail):
            if gen.first_tau_rank(elem) != a:
                raise CheckFailed(f"rank-tail element ({m}, {a}) has first "
                                  f"tau rank {gen.first_tau_rank(elem)}")
        tail_seed, index, digest = EXHAUSTED_TAIL
        elem = next(itertools.islice(self._elements(tail_seed), index, None))
        if hashlib.sha256(repr(elem.letters).encode()).hexdigest()[:16] \
                != digest:
            raise CheckFailed("the exhausted-search element is not the "
                              "recorded one; the sampler has changed")
        tail.append(elem)
        for elem in tail:
            yield elem, lattices.Isometry(self.mukai, elem.matrix)
        yield from self.inputs(seed)

    def run(self, inp):
        elem, g = inp
        try:
            return _lib()[4].factor(self.models[elem.m], g, normalize=True)
        except _witness_not_found() as exc:
            raise Exhausted(f"factor: {exc}") from exc

    def check(self, inp, word):
        elem, _ = inp
        if word_product(word) != elem.matrix:
            raise CheckFailed("word product differs from the input")
        if any(abs(l.v0.r) != 1 for l in word.letters
               if not hasattr(l, "k3_matrix")):
            raise CheckFailed("normalized word has a tau letter of rank "
                              "other than 1")
        return [[("g", l.k3_matrix) if hasattr(l, "k3_matrix")
                 else ("t", l.v0.r, l.v0.c, l.v0.s) for l in word.letters]]


class VerifyChars(Workload):
    name = "verify-chars"
    trace_ops = 750

    def setup(self):
        super().setup()
        for m in self.ms:
            self.run((_warm_element(m), self._iso(_warm_element(m))))

    def _iso(self, elem):
        return _lib()[2].Isometry(self.mukai, elem.matrix)

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        i = 0
        while True:
            elem = gen.sample_element(rng, *_cell(i))
            yield elem, self._iso(elem)
            i += 1

    def run(self, inp):
        characters, fourier_mukai, lattices, _, S = _lib()
        elem, g = inp
        model = self.models[elem.m]
        det = g.det()
        cov = characters.covariance(g)
        chk = lattices.check_isometry(self.mukai, g.matrix)
        restricted = model.restrict(g)
        unit = S.disc_action(model, restricted)
        kind = S.in_gamma_v(model, restricted)
        in_w = S.w_membership(model, fourier_mukai.mon_twist(model, g))
        return det, cov, chk.is_isometry, chk.det, unit, kind.value, in_w

    def check(self, inp, out):
        elem, _ = inp
        det, cov, is_iso, chk_det, unit, kind, in_w = out
        expect_det = (-1) ** len(elem.letters)
        if det != expect_det or chk_det != expect_det:
            raise CheckFailed(f"det {det} != (-1)^len = {expect_det}")
        if cov != elem.plus2 % 2:
            raise CheckFailed("covariance differs from #(+2 letters) mod 2")
        if not is_iso:
            raise CheckFailed("check_isometry rejected a Gamma_v element")
        if unit != 1 or kind != "InGammaV":
            raise CheckFailed("disc action of a Gamma_v element is not 1")
        if not in_w:
            raise CheckFailed("mon twist of a Gamma_v element is not in W")
        return list(out)


class DiscSnf(Workload):
    name = "disc-snf"
    ms = (1,)
    trace_ops = 60

    def setup(self):
        super().setup()
        rng = random.Random(0)
        self.run((1, gen.nondegenerate_triple(rng, 1)))

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        seen = set()
        i = 0
        while True:
            m = rng.randint(2, M_FRESH_MAX)
            if m in seen:
                continue
            seen.add(m)
            yield m, gen.nondegenerate_triple(rng, BOUNDS[i % len(BOUNDS)])
            i += 1

    def key(self, inp):
        return inp

    def run(self, inp):
        _, _, lattices, linalg, S = _lib()
        m, (vectors, _) = inp
        model = S.vperp_model(m)
        vdisc = lattices.discriminant_group(model.lattice)
        basis, gram = lattices.orthogonal_complement(self.mukai, vectors)
        labels = tuple(f"b{i}" for i in range(len(basis)))
        comp = lattices.discriminant_group(lattices.Lattice(gram, labels))
        return vdisc, basis, gram, comp, linalg.signature(gram)

    def check(self, inp, out):
        m, (vectors, g3) = inp
        vdisc, basis, gram, comp, sig = out
        if vdisc.divisors != (2 * m,) or vdisc.order != 2 * m:
            raise CheckFailed("vperp discriminant is not Z/2m")
        if len(basis) != gen.MUKAI_RANK - 3:
            raise CheckFailed("complement has the wrong rank")
        for b in basis:
            if any(gen.pair(b, v) for v in vectors):
                raise CheckFailed("kernel vector not orthogonal to inputs")
        if gen.row_content(basis) != 1:
            raise CheckFailed("kernel basis is not saturated")
        gb = [gen.gram_vec(b) for b in basis]
        if any(gram[i][j] != sum(x * y for x, y in zip(basis[i], gb[j]))
               for i in range(len(basis)) for j in range(len(basis))):
            raise CheckFailed("complement Gram is not the restricted form")
        divisors = comp.divisors
        if any(b % a for a, b in zip(divisors, divisors[1:])):
            raise CheckFailed("elementary divisors do not form a chain")
        # In the unimodular Mukai lattice |det S-perp| = |det S_sat| =
        # |det G3| / [S_sat : S]^2, the index being the content of S.
        index = gen.row_content(vectors)
        expect = abs(gen.det(g3)) // (index * index)
        order = 1
        for d in divisors:
            order *= d
        if order != expect or comp.order != expect:
            raise CheckFailed("divisors do not multiply to |det|")
        pos, neg = gen.signature_small(g3)
        if sig != (4 - pos, 20 - neg, 0):
            raise CheckFailed("complement signature is wrong")
        return [list(divisors), [str(q) for q in comp.q_values], list(sig),
                basis]


class CliCold(Workload):
    """Each operation is one `python -m mukailat.cli` process."""

    name = "cli-cold"
    ms = (1, 2, 3)
    trace_ops = 36
    # fm-verify-phi, the slowest verb, comes twice in the cycle of 9, so that
    # p90 falls inside its latencies instead of on the edge between verbs
    VERBS = ("stab-factor", "fm-verify-phi", "stab-model", "stab-sample",
             "char", "fm-verify-phi", "fm-mon", "lattice-disc",
             "elliptic-stab")

    def __init__(self, root, out_dir):
        self.root = root
        self.files = os.path.join(out_dir, "cli-inputs")
        self.spans_dir = os.path.join(out_dir, "spans-cli-cold")
        self.env = child_env(root)
        self.traced_calls = 0
        self.peak_child_kib = 0

    def setup(self):
        super().setup()
        import mukailat.cli  # noqa: F401

    def key(self, inp):
        return inp[1], inp[2]

    def _write(self, name, data):
        self.written = data
        os.makedirs(self.files, exist_ok=True)
        path = os.path.join(self.files, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return os.path.relpath(path, self.root)

    def _iso_file(self, name, elem):
        return self._write(name, {"lattice": "mukai",
                                  "matrix": [list(r) for r in elem.matrix]})

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        self.redrawn = 0
        i = 0
        while True:
            verb = self.VERBS[i % len(self.VERBS)]
            m = rng.choice(self.ms)
            slot = f"{i % 64}.json"
            self.written = None
            if verb == "stab-factor":
                elem = self.factorable_element(rng, m, 5)
                argv = ["stab", "factor", "--m", str(m), "--isometry",
                        self._iso_file("factor" + slot, elem), "--normalize"]
            elif verb == "stab-model":
                argv = ["stab", "model", "--m", str(rng.randint(1, 10**6))]
            elif verb == "stab-sample":
                argv = ["--seed", str(rng.randrange(10**6)), "stab",
                        "sample", "--m", str(m), "--length", "4"]
            elif verb == "char":
                elem = gen.sample_element(rng, m, rng.choice((5, 15)))
                argv = ["char", "--isometry",
                        self._iso_file("char" + slot, elem)]
            elif verb == "fm-verify-phi":
                argv = ["fm", "verify-phi", "--n", str(rng.randint(2, 60))]
            elif verb == "fm-mon":
                elem = gen.sample_element(rng, m, rng.choice((5, 15)))
                argv = ["fm", "mon", "--m", str(m), "--isometry",
                        self._iso_file("mon" + slot, elem)]
            elif verb == "lattice-disc":
                k = rng.randint(1, 10**6)
                argv = ["lattice", "disc", "--spec",
                        rng.choice(("K3", "U,E8_minus", "U")) +
                        f",diag(-{2 * k}:{2 * rng.randint(1, 99)})"]
            else:
                r, d = self._primitive_pair(rng)
                k = rng.randint(-50, 50)
                test = [[1 - k * d * r, k * r * r], [-k * d * d, 1 + k * r * d]]
                argv = ["elliptic", "stab", f"--v={r},{d}", "--test",
                        self._write("ell" + slot, test)]
            yield verb, argv, self.written
            i += 1

    @staticmethod
    def _primitive_pair(rng):
        while True:
            r, d = rng.randint(-40, 40), rng.randint(-40, 40)
            if gen.content((r, d)) == 1:
                return r, d

    def run(self, inp):
        """One CLI process; returns (stdout, exit code)."""
        return self._spawn([sys.executable, "-m", "mukailat.cli", *inp[1]])

    def traced_run(self, tracer, inp):
        """One CLI process through the tracing shim, which writes its own
        counters and spans under spans_dir (the parent's tracer is idle)."""
        self.traced_calls += 1
        counters = os.path.join(self.spans_dir,
                                f"{self.traced_calls:04d}.json")
        return self._spawn([sys.executable,
                            os.path.join("perfbench", "child.py"), "cli",
                            counters, *inp[1]])

    def _spawn(self, cmd):
        with open(os.devnull, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4, not wait: it also gives this child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kib = max(self.peak_child_kib, usage.ru_maxrss)
        return out, proc.returncode

    def peak_rss_kib(self):
        """The largest CLI child's peak resident memory."""
        return self.peak_child_kib

    def check(self, inp, out):
        stdout, code = out
        if code == 3 and json.loads(stdout).get("error") == "WitnessNotFound":
            raise Exhausted(f"{inp[0]}: the CLI reported WitnessNotFound")
        if code != 0:
            raise CheckFailed(f"{inp[0]} exited with {code}")
        report = json.loads(stdout)
        if report.get("status") != 0:
            raise CheckFailed(f"{inp[0]} reported status {report['status']}")
        failed = [v["name"] for v in report["verification"] if not v["pass"]]
        if failed or not report["verification"]:
            raise CheckFailed(f"{inp[0]} verification failed: {failed}")
        return [stdout.decode()]


def make(name, root, out_dir):
    if name == CliCold.name:
        return CliCold(root, out_dir)
    return {w.name: w for w in (FactorMix, VerifyChars, DiscSnf)}[name]()


NAMES = (FactorMix.name, VerifyChars.name, DiscSnf.name, CliCold.name)
