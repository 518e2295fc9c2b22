"""The CLI: verbs, JSON round-trips, determinism, exit codes."""

import json
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mukailat import characters, cli, embeddings, jsonio, lattices, linalg
from mukailat.cli import run
from mukailat.stabilizer import (
    GeneratorWord,
    InvariantError,
    generator_family,
    vperp_model,
)

from conftest import label_vector


def invoke(argv):
    report, status = run(argv)
    return report, status


class TestLattice:
    def test_build_k3(self):
        report, status = invoke(["lattice", "build", "--spec", "K3"])
        assert status == 0
        assert report["outputs"]["rank"] == 22
        assert report["outputs"]["signature"] == [3, 19]

    def test_build_diag(self):
        report, status = invoke(
            ["lattice", "build", "--spec", "U,diag(-6:2)"]
        )
        assert status == 0
        assert report["outputs"]["rank"] == 4

    def test_disc(self):
        report, status = invoke(
            ["lattice", "disc", "--spec", "K3,diag(-6)"]
        )
        assert status == 0
        assert report["outputs"]["divisors"] == [6]

    def test_disc_computes_one_determinant(self, monkeypatch):
        # the order, its check and the discriminant group read the one
        # determinant the lattice keeps
        real = linalg.symmetric_elimination
        calls = []

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(linalg, "symmetric_elimination", counting)
        report, status = invoke(
            ["lattice", "disc", "--spec", "K3,diag(-6:4:10)"])
        assert status == 0
        assert calls == [25]

    def test_build_computes_one_elimination(self, monkeypatch):
        # the signature and determinant fields read the one elimination
        # the lattice keeps
        real = linalg.symmetric_elimination
        calls = []

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(linalg, "symmetric_elimination", counting)
        report, status = invoke(["lattice", "build", "--spec", "K3,diag(-6)"])
        assert status == 0
        assert report["outputs"]["signature"] == [3, 20]
        assert report["outputs"]["determinant"] == 6
        assert calls == [23]

    def test_no_general_determinant_of_a_gram(self, monkeypatch):
        real = linalg.det
        calls = []
        monkeypatch.setattr(linalg, "det",
                            lambda m: calls.append(m) or real(m))
        for action in ("build", "disc"):
            _, status = invoke(
                ["lattice", action, "--spec", "K3,diag(-6:4:10)"])
            assert status == 0
        lattice = lattices.build_lattice((("diag", (-6, 4)), "U"))
        assert lattices.discriminant_group(lattice).order == 24
        assert calls == []

    def test_unknown_block_usage_error(self):
        report, status = invoke(["lattice", "build", "--spec", "Leech"])
        assert status == 2

    @pytest.mark.parametrize("spec, same", [
        ("k3", "K3"), ("mukai", "Mukai"), ("vperp:2", "K3,diag(-4)")])
    def test_spec_reads_lattice_ids(self, spec, same):
        # --spec and --lattice share resolve_lattice's grammar
        report, status = invoke(["lattice", "build", "--spec", spec])
        expected, _ = invoke(["lattice", "build", "--spec", same])
        assert status == 0
        assert report["outputs"]["rank"] == expected["outputs"]["rank"]
        assert report["outputs"]["lattice"]["gram"] == \
            expected["outputs"]["lattice"]["gram"]


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["lattice", "disc", "--spec", "K3,diag(-6:4:10)"],
     "lattice_disc_K3_diag-6-4-10.json"),
    (["stab", "model", "--m", "30"], "stab_model_m30.json"),
    (["char", "--lattice", "mukai", "--isometry", "inputs/char_m7.json"],
     "char_m7.json"),
    (["fm", "mon", "--m", "2", "--isometry", "inputs/mon_m2.json"],
     "fm_mon_m2.json"),
    (["fm", "mon", "--m", "2", "--isometry", "inputs/mon_m2_not_fixing.json"],
     "fm_mon_m2_not_fixing.json"),
    (["stab", "factor", "--m", "3", "--isometry", "inputs/factor_m3.json",
      "--normalize"], "stab_factor_m3_normalize.json"),
    (["fm", "verify-phi", "--n", "37"], "fm_verify_phi_n37.json"),
    (["lattice", "build", "--spec", "K3,diag(-6)"],
     "lattice_build_K3_diag-6.json"),
    (["stab", "classify", "--m", "5", "--vector", "inputs/classify_m5.json"],
     "stab_classify_m5.json"),
    (["stab", "disc-order", "--m", "6"], "stab_disc_order_m6.json"),
    (["stab", "aplus", "--m", "5"], "stab_aplus_m5.json"),
    # no --radius: the report echoes the default, 64
    (["stab", "embed", "--lambda1", "inputs/embed_k3.json",
      "--target", "0,1,4"], "stab_embed_k3.json"),
    (["--seed", "7", "stab", "sample", "--m", "2", "--length", "4"],
     "stab_sample_m2_seed7.json"),
    (["fm", "verify-sigma-tau"], "fm_verify_sigma_tau.json"),
    (["elliptic", "stab", "--v", "2,3", "--test", "inputs/elliptic_v23.json"],
     "elliptic_stab_v23_test.json"),
    # an exhausted search (exit 3) and a usage error (exit 2)
    (["stab", "embed", "--lattice", "U", "--lambda1", "inputs/embed_U.json",
      "--target", "0,0,-2", "--radius", "2"], "stab_embed_U_radius2.json"),
    (["stab", "aplus", "--m", "0"], "stab_aplus_m0.json"),
])
def test_cli_stdout_is_golden(argv, golden):
    # stdout and exit code of a fresh `python -m mukailat.cli` process run
    # in tests/golden, byte for byte as recorded there; the exit code is the
    # report's "status".  A radius that `stab embed` would reject sits in
    # the environment: no report reads it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), MUKAI_SEARCH_RADIUS="-1")
    proc = subprocess.run([sys.executable, "-m", "mukailat.cli", *argv],
                          env=env, cwd=GOLDEN, capture_output=True,
                          timeout=120)
    expected = (GOLDEN / golden).read_bytes()
    assert proc.returncode == json.loads(expected)["status"]
    assert proc.stdout == expected


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every command of the README's CLI block, as written, with its input
    # files built by the library in the working directory
    from mukailat.elliptic import even_stabilizer
    from mukailat.stabilizer import aplus_witness

    # isotropic, on all three U blocks of K3: the embedding clears one
    lam = label_vector(lattices.k3_lattice(), **{
        "e.1": 3, "f.1": 5, "e.2": 1, "f.2": -15, "e.3": 7})
    g = generator_family(2).sample_word(random.Random(2), 8).product()
    inputs = {
        "g.json": jsonio.isometry_to_json(g, "mukai"),
        "v.json": jsonio.mukai_vector_to_json(aplus_witness(5)),
        "lam.json": list(lam),
        "M.json": [list(row) for row in even_stabilizer((2, 3)).power(4)],
    }
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    real = embeddings.clearing_isometry
    walks = []

    def spy(lattice, v):
        walks.append(real(lattice, v))
        return walks[-1]

    monkeypatch.setattr(embeddings, "clearing_isometry", spy)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    cli_text = readme.read_text().split("## CLI", 1)[1]
    block = cli_text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:]
             for line in block.splitlines() if line.startswith("mukailat ")]
    assert len(lines) == 14
    for argv in lines:
        report, status = invoke(argv)
        assert status == 0, (argv, report)
    # `stab embed` and `stab factor --normalize` each cleared a block
    assert sum(1 for w in walks if w is not None and w[0]) >= 2


def test_readme_python_tour_runs():
    # the README's Python quick tour, as written; its asserts are the checks
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text().split("A quick tour:", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "factor(model, g, normalize=True)" in block
    exec(compile(block, "README.md", "exec"), {})


class TestChar(object):
    def test_duality(self, tmp_path):
        from mukailat.fourier_mukai import duality_isometry

        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            jsonio.isometry_to_json(duality_isometry(), "mukai")
        ))
        report, status = invoke(["char", "--lattice", "mukai",
                                 "--isometry", str(path)])
        assert status == 0
        assert report["outputs"] == {"det": 1, "cov": 1}

    def test_lattice_must_match_the_file(self, tmp_path):
        from mukailat.fourier_mukai import duality_isometry

        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            jsonio.isometry_to_json(duality_isometry(), "mukai")
        ))
        report, status = invoke(["char", "--lattice", "k3",
                                 "--isometry", str(path)])
        assert status == 2
        assert report == {"error": "the isometry is not on the lattice 'k3'",
                          "status": 2}
        # another id of the same lattice is no mismatch
        report, status = invoke(["char", "--lattice", "Mukai",
                                 "--isometry", str(path)])
        assert status == 0

    def test_non_isometry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        matrix = [[1] * 24 for _ in range(24)]
        path.write_text(json.dumps({"lattice": "mukai", "matrix": matrix}))
        report, status = invoke(["char", "--isometry", str(path)])
        assert status == 2
        assert report == {"error": "matrix does not preserve the Gram form",
                          "status": 2}

    def test_bare_matrix_is_a_usage_error(self, tmp_path):
        # a matrix without its lattice id: exit 2 and a JSON report on
        # stdout, no traceback
        path = tmp_path / "f.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "mukailat.cli", "char", "--isometry",
             str(path)], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {
            "error": "expected a JSON object with key 'lattice'", "status": 2}


class TestStab:
    def test_model(self):
        report, status = invoke(["stab", "model", "--m", "3"])
        assert status == 0
        assert report["outputs"]["disc_divisors"] == [6]

    def test_disc_order(self):
        report, status = invoke(["stab", "disc-order", "--m", "6"])
        assert status == 0
        assert report["outputs"]["order"] == 4
        assert report["outputs"]["rho"] == 2

    def test_aplus_impossible(self):
        report, status = invoke(["stab", "aplus", "--m", "3"])
        assert status == 0
        assert report["outputs"]["result"] == "Impossible"

    def test_aplus_witness(self):
        report, status = invoke(["stab", "aplus", "--m", "5"])
        assert status == 0
        assert report["outputs"]["result"]["r"] == 1

    def test_classify(self, tmp_path):
        witness = {"r": 1, "c": [0] * 22, "s": 1}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(witness))
        report, status = invoke(
            ["stab", "classify", "--m", "1", "--vector", str(path)]
        )
        assert status == 0
        assert report["outputs"]["orbit"] == "APlus"

    def test_factor_roundtrip(self, tmp_path, rng):
        m = 2
        model = vperp_model(m)
        fam = generator_family(m)
        g = fam.sample_word(rng, 3).product()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(jsonio.isometry_to_json(g, "mukai")))
        report, status = invoke(
            ["stab", "factor", "--m", str(m), "--isometry", str(path),
             "--normalize"]
        )
        assert status == 0
        # the emitted word re-ingests to the same product
        word = jsonio.word_from_json(model, report["outputs"]["word"])
        assert word.product().matrix == g.matrix

    def test_factor_computes_its_product_check(self, monkeypatch):
        # factor proves the product of its word without computing it; the
        # report multiplies the word, so a wrong product fails it (exit 1)
        monkeypatch.setattr(
            GeneratorWord, "product",
            lambda word: lattices.Isometry.identity(word.model.mukai))
        report, status = invoke(
            ["stab", "factor", "--m", "3", "--isometry",
             str(GOLDEN / "inputs" / "factor_m3.json"), "--normalize"])
        assert status == 1
        assert {"name": "product_equals_input", "pass": False} \
            in report["verification"]

    def test_factor_computes_its_fixes_v_check(self, monkeypatch, tmp_path):
        # factor rejects an isometry that moves v; with a factor that
        # returns the empty word instead, the report's own check fails
        model = vperp_model(2)
        path = tmp_path / "minus.json"
        path.write_text(json.dumps(jsonio.isometry_to_json(
            lattices.Isometry.identity(model.mukai).negate(), "mukai")))
        monkeypatch.setattr(
            cli, "factor",
            lambda model, iso, normalize: GeneratorWord(model, ()))
        report, status = invoke(
            ["stab", "factor", "--m", "2", "--isometry", str(path)])
        assert status == 1
        assert {"name": "fixes_v", "pass": False} in report["verification"]

    def test_sample_deterministic(self):
        r1, s1 = invoke(["--seed", "5", "stab", "sample", "--m", "2",
                         "--length", "3"])
        r2, s2 = invoke(["--seed", "5", "stab", "sample", "--m", "2",
                         "--length", "3"])
        assert s1 == s2 == 0
        assert json.dumps(r1) == json.dumps(r2)
        r3, _ = invoke(["--seed", "6", "stab", "sample", "--m", "2",
                        "--length", "3"])
        assert json.dumps(r3) != json.dumps(r1)

    def test_embed(self, tmp_path):
        lam1 = [0] * 22
        lam1[16] = 1  # e.1
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(lam1))
        report, status = invoke(
            ["stab", "embed", "--lattice", "k3", "--lambda1", str(path),
             "--target", "0,1,4"]
        )
        assert status == 0
        assert report["verification"][0]["pass"]

    def test_embed_on_u_by_enumeration(self, tmp_path):
        path = tmp_path / "lam.json"
        path.write_text(json.dumps([1, 0]))
        report, status = invoke(
            ["stab", "embed", "--lattice", "U", "--lambda1", str(path),
             "--target", "0,1,0"]
        )
        assert status == 0
        assert report["outputs"]["lambda2"] == [0, 1]
        assert report["verification"][0]["pass"]

    def test_embed_witness_not_found_exit_3(self, tmp_path):
        path = tmp_path / "lam.json"
        path.write_text(json.dumps([1, 0]))
        report, status = invoke(
            ["stab", "embed", "--lattice", "U", "--lambda1", str(path),
             "--target", "0,0,-2", "--radius", "2"]
        )
        assert status == 3
        assert report["radius"] == 2

    def test_embed_radius_zero_is_echoed(self, tmp_path):
        path = tmp_path / "lam.json"
        path.write_text(json.dumps([1, 0]))
        report, status = invoke(
            ["stab", "embed", "--lattice", "U", "--lambda1", str(path),
             "--target", "0,0,-2", "--radius", "0"]
        )
        assert status == 3
        assert report["radius"] == 0


class TestFm:
    def test_verify_phi(self):
        report, status = invoke(["fm", "verify-phi", "--n", "4"])
        assert status == 0
        assert all(item["pass"] for item in report["verification"])

    def test_verify_sigma_tau(self):
        report, status = invoke(["fm", "verify-sigma-tau"])
        assert status == 0

    def test_mon(self, tmp_path, rng):
        fam = generator_family(2)
        g = fam.sample_word(rng, 2).product()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(jsonio.isometry_to_json(g, "mukai")))
        report, status = invoke(["fm", "mon", "--m", "2",
                                 "--isometry", str(path)])
        assert status == 0
        assert report["outputs"]["cov"] in (0, 1)
        # the emitted isometry re-ingests against its declared lattice id
        back = jsonio.isometry_from_json(report["outputs"]["twisted"])
        assert back.lattice.rank == 23

    def _count_characters(self, monkeypatch):
        """Route every module's `orientation_char` through a counter; the
        list gets the rank of each isometry's lattice."""
        real = characters.orientation_char
        calls = []

        def counting(g):
            calls.append(g.lattice.rank)
            return real(g)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mukailat" and \
                    getattr(module, "orientation_char", None) is real:
                monkeypatch.setattr(module, "orientation_char", counting)
        return calls

    def test_model_computes_no_discriminant_group(self, monkeypatch):
        # vperp_model builds the group in closed form and the report reads
        # it, so no Smith elimination runs
        real = lattices.discriminant_group
        calls = []

        def counting(lattice):
            calls.append(lattice.rank)
            return real(lattice)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mukailat" and \
                    getattr(module, "discriminant_group", None) is real:
                monkeypatch.setattr(module, "discriminant_group", counting)
        report, status = invoke(["stab", "model", "--m", "30"])
        assert status == 0
        assert report["outputs"]["disc_divisors"] == [60]
        assert calls == []

    def test_mon_computes_three_characters(self, monkeypatch):
        # cov of the Mukai input inside mon_twist and for the report, and
        # mon_twist's check on the twisted map of v-perp (rank 23)
        calls = self._count_characters(monkeypatch)
        report, status = invoke(["fm", "mon", "--m", "2", "--isometry",
                                 str(GOLDEN / "inputs" / "mon_m2.json")])
        assert status == 0
        assert sorted(calls) == [23, 24, 24]

    def test_sample_computes_two_characters(self, monkeypatch):
        calls = self._count_characters(monkeypatch)
        report, status = invoke(["--seed", "5", "stab", "sample", "--m", "2",
                                 "--length", "3"])
        assert status == 0
        assert sorted(calls) == [23, 24]


class TestElliptic:
    def test_stab(self):
        report, status = invoke(["elliptic", "stab", "--v", "1,0"])
        assert status == 0
        assert report["outputs"]["generator"] == [[1, 1], [0, 1]]

    def test_power_test(self, tmp_path):
        from mukailat.elliptic import even_stabilizer

        stab = even_stabilizer((2, 3))
        mat = stab.power(4)
        path = tmp_path / "m.json"
        path.write_text(json.dumps([list(r) for r in mat]))
        report, status = invoke(["elliptic", "stab", "--v", "2,3",
                                 "--test", str(path)])
        assert status == 0
        assert report["outputs"]["exponent"] == 4

    @pytest.mark.parametrize("matrix", [[[1]], [1, 0], [[1, 0], [0, 1.0]]])
    def test_power_test_of_wrong_shape_is_a_usage_error(self, tmp_path,
                                                        matrix):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        report, status = invoke(["elliptic", "stab", "--v", "2,3",
                                 "--test", str(path)])
        assert status == 2


class TestHarness:
    def test_unknown_verb(self):
        report, status = invoke(["frobnicate"])
        assert status == 2

    def test_verification_blocks_nonempty(self, tmp_path):
        for argv in (
            ["lattice", "build", "--spec", "U"],
            ["stab", "disc-order", "--m", "2"],
            ["fm", "verify-sigma-tau"],
            ["elliptic", "stab", "--v", "1,0"],
        ):
            report, status = invoke(argv)
            assert status == 0
            assert report["verification"]


    @pytest.mark.parametrize("argv, golden", [
        (["stab", "disc-order", "--m", "6"], "stab_disc_order_m6.json"),
        (["stab", "aplus", "--m", "0"], "stab_aplus_m0.json"),
    ])
    def test_main_prints_the_report_and_exits_with_its_status(
            self, monkeypatch, capsys, argv, golden):
        monkeypatch.setattr(sys, "argv", ["mukailat", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        expected = (GOLDEN / golden).read_text()
        assert exc.value.code == json.loads(expected)["status"]
        assert capsys.readouterr().out == expected


class TestInternalError:
    # a library bug is neither a failed verification (1) nor a usage
    # error (2): it exits 4 with a JSON report naming the exception
    @pytest.mark.parametrize("exc, expected", [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (InvariantError("identity broken"), "InvariantError: identity broken"),
        (ZeroDivisionError("division by zero"),
         "ZeroDivisionError: division by zero"),
        # the parsers raise LatticeError on malformed input, so a KeyError
        # or ValueError from the library is a bug, not a usage error
        (KeyError("lifts"), "KeyError: 'lifts'"),
        (ValueError("too many values to unpack"),
         "ValueError: too many values to unpack"),
    ])
    def test_unexpected_exception_exits_4(self, monkeypatch, exc, expected):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_stab_disc_order", handler)
        report, status = invoke(["stab", "disc-order", "--m", "6"])
        assert status == 4
        assert report == {"error": expected, "status": 4}

    def test_usage_error_still_exits_2(self, monkeypatch):
        def handler(args):
            raise lattices.LatticeError("bad input")

        monkeypatch.setattr(cli, "_stab_disc_order", handler)
        assert invoke(["stab", "disc-order", "--m", "6"]) == \
            ({"error": "bad input", "status": 2}, 2)

    def test_exit_code_of_the_process(self, tmp_path):
        # main() prints the report on stdout and exits with its status
        code = (
            "import sys\n"
            "from mukailat import cli\n"
            "def boom(args):\n"
            "    raise RuntimeError('boom')\n"
            "cli._stab_disc_order = boom\n"
            "sys.argv = ['mukailat', 'stab', 'disc-order', '--m', '6']\n"
            "cli.main()\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert json.loads(proc.stdout) == {"error": "RuntimeError: boom",
                                           "status": 4}
        # the traceback is kept, on stderr
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.endswith("RuntimeError: boom\n")


class TestMalformedArguments:
    # each parser raises a LatticeError that names what it could not read
    # (exit 2), where it used to let int() or json.load raise
    EMBED = ["stab", "embed", "--lattice", "U", "--lambda1", "{lam}"]
    # argv and the expected error text by each case's place in the table
    # that also held the two rows and the column of MUKAI_SEARCH_RADIUS
    # values the CLI no longer reads; the places keep each case's test id
    CASES = {
        0: (["lattice", "build", "--spec", "U,diag(-6:x)"],
            "a diag entry must be an integer, got 'x'"),
        1: (["lattice", "disc", "--spec", "diag()"],
            "a diag entry must be an integer, got ''"),
        2: (EMBED + ["--target", "0,1"],
            "--target needs 3 comma-separated integers, got '0,1'"),
        3: (EMBED + ["--target", "0,1,0,4"],
            "--target needs 3 comma-separated integers, got '0,1,0,4'"),
        4: (EMBED + ["--target", "0,b,0"],
            "an entry of --target must be an integer, got 'b'"),
        5: (["stab", "embed", "--lattice", "vperp:x", "--lambda1", "{lam}",
             "--target", "0,1,0"],
            "the m of lattice id 'vperp:x' must be an integer, got 'x'"),
        7: (["elliptic", "stab", "--v", "1"],
            "--v needs 2 comma-separated integers, got '1'"),
        8: (["elliptic", "stab", "--v", "1,r"],
            "an entry of --v must be an integer, got 'r'"),
        9: (["char", "--isometry", "{truncated}"],
            "is not a JSON file: Expecting property name"),
        10: (["stab", "classify", "--m", "2", "--vector", "{binary}"],
             "is not a JSON file: 'utf-8' codec can't decode"),
        11: (["stab", "aplus", "--m", "0"], "m must be a positive integer"),
        12: (["stab", "sample", "--m", "2", "--length", "-1"],
             "the word length must be non-negative, got -1"),
        13: (EMBED + ["--target", "0,1,0", "--radius", "-1"],
             "the search radius must be non-negative, got -1"),
        # factor never searches, so it takes no radius
        15: (["stab", "factor", "--m", "3", "--isometry",
              str(GOLDEN / "inputs" / "factor_m3.json"), "--radius", "5"],
             "usage"),
    }

    @pytest.mark.parametrize(
        "argv, expected", list(CASES.values()),
        ids=[f"argv{n}-None-{text}" for n, (_, text) in CASES.items()])
    def test_exits_2_naming_the_argument(self, tmp_path, argv, expected):
        files = {"lam": "[1, 0]", "truncated": '{"lattice": "mukai", '}
        paths = {name: tmp_path / f"{name}.json" for name in files}
        for name, text in files.items():
            paths[name].write_text(text)
        paths["binary"] = tmp_path / "binary.json"
        paths["binary"].write_bytes(b"\xff\xfe[1]")
        argv = [a.format(**paths) for a in argv]
        report, status = invoke(argv)
        assert status == 2
        assert expected in report["error"]


    def test_classify_rejects_a_bare_coordinate_list(self, tmp_path):
        # a Mukai vector is read only as {"r", "c", "s"}: the coordinates
        # [c..., r, s] of the -2 class (0, e - f, 0) of v-perp are a usage
        # error
        c = [0] * 22
        c[16], c[17] = 1, -1
        path = tmp_path / "v0.json"
        path.write_text(json.dumps(c + [0, 0]))
        argv = ["stab", "classify", "--m", "2", "--vector", str(path)]
        report, status = invoke(argv)
        assert status == 2
        assert "expected a JSON object with key 'c'" in report["error"]
        path.write_text(json.dumps({"r": 0, "c": c, "s": 0}))
        report, status = invoke(argv)
        assert status == 0
        assert report["outputs"] == {"orbit": "AMinus"}


class TestUnreadableFile:
    # a path the CLI cannot read as JSON is a usage error (exit 2), never
    # an internal one (exit 4)
    def test_directory_exits_2(self, tmp_path):
        report, status = invoke(["char", "--isometry", str(tmp_path)])
        assert status == 2
        assert "Is a directory" in report["error"]

    @pytest.mark.parametrize("argv", [
        ["char", "--isometry"],
        ["stab", "classify", "--m", "2", "--vector"],
    ])
    def test_deeply_nested_json_exits_2(self, tmp_path, argv):
        path = tmp_path / "nested.json"
        path.write_text("[" * 5000 + "]" * 5000)
        report, status = invoke(argv + [str(path)])
        assert status == 2
        assert report["error"].startswith(f"{path} is not a JSON file: ")


# (argv before the file path, a valid JSON input of that verb) for every
# verb that reads a file
_FILE_VERBS = {
    "char": (["char", "--isometry"],
             json.loads((GOLDEN / "inputs" / "char_m7.json").read_text())),
    "stab-classify": (["stab", "classify", "--m", "2", "--vector"],
                      {"r": 0, "c": [1] + [0] * 21, "s": 0}),
    "stab-factor": (["stab", "factor", "--m", "3", "--isometry"],
                    json.loads((GOLDEN / "inputs" / "factor_m3.json")
                               .read_text())),
    "stab-embed": (["stab", "embed", "--target", "-2,1,-2", "--lambda1"],
                   [1] + [0] * 21),
    "fm-mon": (["fm", "mon", "--m", "2", "--isometry"],
               json.loads((GOLDEN / "inputs" / "mon_m2.json").read_text())),
    "elliptic-stab": (["elliptic", "stab", "--v", "1,0", "--test"],
                      [[1, 3], [0, 1]]),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["mukai", "k3", "U", "vperp:2", "vperp:0", "r", "c"])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(
        ["lattice", "matrix", "r", "c", "s"]), inner, max_size=4),
    max_leaves=12)


def _mutate(value, data):
    """value with one node, reached by random steps from the root, replaced
    by random JSON, a nearby or huge int, or its list cut short or
    lengthened."""
    if isinstance(value, (list, dict)) and value and \
            data.draw(st.integers(0, 4)):
        key = data.draw(st.sampled_from(
            range(len(value)) if isinstance(value, list) else list(value)))
        out = list(value) if isinstance(value, list) else dict(value)
        out[key] = _mutate(value[key], data)
        return out
    choices = [_JSON]
    if type(value) is int:
        choices.append(st.integers(-3, 3).map(lambda d: value + d))
        choices.append(st.sampled_from([10**40, -10**40]))
    if isinstance(value, list):
        choices.append(st.integers(0, len(value)).map(lambda k: value[:k]))
        choices.append(st.just(value + value[-1:]))
    return data.draw(st.one_of(choices))


class TestExitContract:
    # whatever a file-reading verb is given, it exits 0, 1, 2 or 3: exit 4
    # is kept for library bugs
    @pytest.mark.parametrize("verb", list(_FILE_VERBS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_never_exits_4(self, verb, tmp_path, data):
        argv, valid = _FILE_VERBS[verb]
        kind = data.draw(st.sampled_from(["valid", "mutated", "json",
                                          "text"]))
        if kind == "valid":
            text = json.dumps(valid)
        elif kind == "mutated":
            text = json.dumps(_mutate(valid, data))
        elif kind == "json":
            text = json.dumps(data.draw(_JSON))
        else:
            text = data.draw(st.text(max_size=40))
        path = tmp_path / "input.json"
        path.write_text(text)
        report, status = invoke(argv + [str(path)])
        assert status in (0, 1, 2, 3), report
