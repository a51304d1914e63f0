import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from loopinv import invariants, linalg, paths
from loopinv.cli import EXIT_BUDGET_OR_CONFIG, EXIT_MATH_FAILURE, EXIT_OK, main
from loopinv.invariants import InvariantSpaces, spaces_for


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDims:
    def test_pretty_table(self, capsys):
        code, out = run(capsys, ["dims", "--d", "2", "--max-level", "4"])
        assert code == EXIT_OK
        assert "conjugation" in out
        assert any(line.split()[:2] == ["4", "6"] for line in out.splitlines())

    def test_csv_matches_json(self, capsys):
        code_c, csv_text = run(capsys, ["dims", "--d", "2", "--max-level", "5", "--format", "csv"])
        code_j, json_text = run(capsys, ["dims", "--d", "2", "--max-level", "5", "--format", "json"])
        assert code_c == code_j == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        payload = json.loads(json_text)
        assert len(rows) == len(payload["rows"]) == 5
        for csv_row, json_row in zip(rows, payload["rows"]):
            assert int(csv_row["level"]) == json_row["level"]
            for col in payload["columns"]:
                assert int(csv_row[col]) == json_row["dims"][col]

    def test_known_columns(self, capsys):
        _, text = run(capsys, ["dims", "--d", "3", "--max-level", "4", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [int(r["conjugation"]) for r in rows] == [3, 6, 11, 24]
        assert [int(r["V_n"]) for r in rows] == [0, 3, 8, 24]

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, ["dims", "--d", "2", "--max-level", "4", "--format", "json"])
        _, second = run(capsys, ["dims", "--d", "2", "--max-level", "4", "--format", "json"])
        assert first == second

    def test_workers_produce_identical_output(self, capsys):
        _, serial = run(capsys, ["dims", "--d", "2", "--max-level", "5", "--format", "csv"])
        _, parallel = run(capsys, ["dims", "--d", "2", "--max-level", "5", "--format", "csv", "--workers", "4"])
        assert serial == parallel

    def test_budget_skip_marks_rows(self, capsys):
        code, out = run(
            capsys,
            ["dims", "--d", "2", "--max-level", "6", "--budget-secs", "-1", "--format", "csv"],
        )
        assert code == EXIT_BUDGET_OR_CONFIG
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"] == "skipped" for r in rows)
        _, text = run(capsys, ["dims", "--d", "2", "--max-level", "2", "--budget-secs", "-1",
                               "--format", "json"])
        reasons = [row["reason"] for row in json.loads(text)["rows"]]
        assert reasons == ["time budget of -1s exceeded in ('conj', %d)" % n for n in (1, 2)]

    def test_exact_fallback_keeps_the_table(self, monkeypatch, capsys):
        # modulo 3 the rank certificate of the loop space falls short of its
        # target and reads its rows again, inside an exact span, for the
        # exact rank: the table is the same
        fallbacks, spanning = [], []
        real_span = invariants.span

        def reader(name):
            real = getattr(InvariantSpaces, name)

            def read(self, n, c, block):
                for row in real(self, n, c, block):
                    if spanning:
                        fallbacks.append(name)
                    yield row

            return read

        readers = {name: reader(name) for name in ("_closure_difference_rows",)}

        def span_spy(d, n, rows, budget=None):
            spanning.append(True)
            try:
                return real_span(d, n, rows, budget)
            finally:
                spanning.pop()

        for d, top in ((2, 8), (3, 6)):
            argv = ["dims", "--d", str(d), "--max-level", str(top), "--format", "json"]
            plain = run(capsys, argv)
            monkeypatch.setattr(linalg, "_PRIME", 3)
            monkeypatch.setattr(invariants, "span", span_spy)
            for name, read in readers.items():
                monkeypatch.setattr(InvariantSpaces, name, read)
            assert run(capsys, argv) == plain
            monkeypatch.undo()
        assert set(fallbacks) == set(readers)

    def test_table_selection(self, capsys):
        _, out = run(capsys, ["dims", "--d", "2", "--max-level", "3", "--table", "conj", "--format", "csv"])
        header = out.splitlines()[0].split(",")
        assert "conjugation" in header and "V_n" not in header

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "dims.csv"
        code, out = run(capsys, ["dims", "--d", "2", "--max-level", "3", "--format", "csv", "--out", str(target)])
        assert code == EXIT_OK and out == ""
        assert "conjugation" in target.read_text()

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dims.csv"
        code = main(["dims", "--d", "2", "--max-level", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET_OR_CONFIG and captured.out == ""
        assert captured.err.startswith("cannot write output: ")
        assert captured.err.count("\n") == 1

    def test_unwritable_out_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def refuse(self, n):
            raise AssertionError("a cell ran before the output was probed")

        monkeypatch.setattr(InvariantSpaces, "report", refuse)
        target = tmp_path / "missing" / "dims.csv"
        code = main(["dims", "--d", "2", "--max-level", "9", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET_OR_CONFIG and captured.out == ""
        assert captured.err.startswith("cannot write output: ")

    def test_decomposables_outside_the_family_fail_the_run(self, capsys, monkeypatch):
        # the products of a letter with a level-3 rotation sum of three
        # words become unit rows (the letter shuffle generators, which
        # shuffle single words, stay), and the first, the word 1112, is not
        # a conjugation invariant
        real = InvariantSpaces._shuffle_row
        units = iter(range(1, 16))

        def stray(self, a, na, b, nb):
            return {next(units): 1} if nb == 3 and len(b) == 3 else real(self, a, na, b, nb)

        monkeypatch.setattr(InvariantSpaces, "_shuffle_row", stray)
        code = main(["dims", "--d", "2", "--max-level", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_MATH_FAILURE and captured.out == ""
        assert captured.err.startswith("cross-check failed: decomposables escaped the family")

    def test_rejects_bad_d(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dims", "--d", "10"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "d must be between 2 and 9" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["dims", "--d", "x"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "argument --d: invalid int value: 'x'" in capsys.readouterr().err


class TestNewColumnMarkers:
    def test_beyond_published_extent(self):
        from loopinv.cli import _new_columns

        assert _new_columns(3, 8, ["conjugation", "min_generators"]) == ["min_generators"]
        assert _new_columns(3, 7, ["conjugation", "min_generators"]) == []
        assert _new_columns(2, 12, ["letter_reduced_conj", "loop"]) == ["letter_reduced_conj"]


class TestCheck:
    def test_all_pass(self, capsys):
        code, out = run(capsys, ["check"])
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "16 identities, 0 failed" in out

    def test_repeated_alphabet_checked_once(self, capsys):
        code, once = run(capsys, ["check", "--d", "2"])
        code_twice, twice = run(capsys, ["check", "--d", "2", "2"])
        assert code == code_twice == EXIT_OK
        assert twice == once
        _, mixed = run(capsys, ["check", "--d", "3", "2", "3"])
        _, ordered = run(capsys, ["check", "--d", "3", "2"])
        assert mixed == ordered

    def test_json_format(self, capsys):
        code, out = run(capsys, ["check", "--d", "2", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(item["holds"] for item in payload["results"])

    def test_no_alphabet_is_refused(self, capsys):
        # a check over no alphabet would pass having checked nothing
        with pytest.raises(SystemExit) as err:
            main(["check", "--d"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "--d" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "check.txt"
        code = main(["check", "--d", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET_OR_CONFIG and captured.out == ""
        assert captured.err.startswith("cannot write output: ")
        assert captured.err.count("\n") == 1


class TestFuzz:
    def test_small_run(self, capsys):
        code, out = run(capsys, ["fuzz", "--d", "2", "--level", "4", "--trials", "5", "--seed", "7"])
        assert code == EXIT_OK
        assert "fuzz PASS" in out
        assert "witness" in out

    def test_non_invariant_row_fails_the_run(self, capsys, monkeypatch):
        real = paths._invariant_rows

        def with_area(spaces, level, kind):
            rows = real(spaces, level, kind)
            return rows + [(2, {1: 1, 2: -1})] if kind == "conj" else rows

        monkeypatch.setattr(paths, "_invariant_rows", with_area)
        code, out = run(capsys, ["fuzz", "--d", "2", "--level", "4", "--trials", "5"])
        assert code == EXIT_MATH_FAILURE
        assert out.endswith("fuzz FAIL\n")
        assert "FAILURE" in out and "conjugation invariance" in out

    def test_seed_repetition_byte_identical(self, capsys):
        args = ["fuzz", "--d", "2", "--level", "4", "--trials", "4", "--seed", "9", "--format", "json"]
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        assert first == second


class TestBasis:
    def test_conjugation_level_two(self, capsys):
        code, out = run(capsys, ["basis", "--space", "conj", "--d", "2", "--n", "2"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dim"] == 3
        words = {t["word"] for elt in payload["elements"] for t in elt["terms"]}
        assert words == {"11", "12", "21", "22"}

    def test_closure_level_two(self, capsys):
        _, out = run(capsys, ["basis", "--space", "closure", "--d", "2", "--n", "2"])
        payload = json.loads(out)
        assert payload["dim"] == 1
        terms = payload["elements"][0]["terms"]
        assert {(t["word"], t["num"]) for t in terms} == {("12", "1"), ("21", "-1")}

    def test_zero_increment_space(self, capsys):
        _, out = run(capsys, ["basis", "--space", "V", "--d", "3", "--n", "2"])
        assert json.loads(out)["dim"] == 3

    def test_unknown_space_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["basis", "--space", "bogus", "--d", "2", "--n", "2"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--level", "0"],
            ["fuzz", "--level", "-1"],
            ["fuzz", "--trials", "-5"],
            ["basis", "--space", "conj", "--n", "-1"],
            ["basis", "--space", "loop", "--n", "0"],
            ["dims", "--max-level", "2", "--budget-bits", "-1"],
            ["evidence", "--max-level", "2", "--budget-bits", "-1"],
            ["dims", "--max-level", "0"],
            ["evidence", "--max-level", "-1"],
            ["dims", "--workers", "0"],
            ["dims", "--workers", "-4"],
        ],
    )
    def test_rejected_with_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "NaN", "+nan"])
    def test_nan_budget_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dims", "--max-level", "2", "--budget-secs", value])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "argument --budget-secs: must be a number, not nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dims", "evidence"])
    def test_bad_budget_secs_named_by_argparse(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--max-level", "2", "--budget-secs", "nan"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "argument --budget-secs: must be a number, not nan" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main([command, "--budget-secs", "soon"])
        assert err.value.code == EXIT_BUDGET_OR_CONFIG
        assert "argument --budget-secs: invalid float value: 'soon'" in capsys.readouterr().err


# sha256 of exported bases, evidence and dimension tables, recorded before elimination moved
# to integer rows; the exported rationals must not change
GOLDEN = {
    ("basis", "conj", 2, 6): "e3142b938f699bd2838e94cc3250a6ba0205fa1e13e5bf28309760b7be591e07",
    ("basis", "loop", 2, 6): "6d24f73fe3e659267e0be17e28a57da2e0aef9ad29c042900dc4e31e0fbd8303",
    ("basis", "closure", 2, 6): "7bdc7f5a715cc4987ed925125caee2b6683fdbe75e9271e249b94601eb011fa8",
    ("basis", "V", 2, 6): "ff818566c89a46e3f2cb5f619027287ee95fcd224c6c5e894af8bc1d33efb12c",
    ("basis", "S", 2, 6): "4567037ed089fad562fe4c3a2ea026b6df4f687a9ff77685ff4c1f55f0d35170",
    ("basis", "conj", 3, 4): "487c580ca60dd331a400f6d92bb6830af2895762a5c0aa82a0439a1f2fe26a88",
    ("basis", "loop", 3, 4): "976af7b8ee81a40d055b352de293d1dd74173247d5f0f726961668c1ba60c8f3",
    ("basis", "closure", 3, 4): "c6f7e3c6f500255116c90513547a7e36a92b07273d0bccd3c0de46a29ba698d7",
    ("basis", "V", 3, 4): "268286e507a030ea68283d7b4cb219926d7f8618104eaf29c5c95d67dcc8a132",
    ("basis", "S", 3, 4): "dd886ff98518dea140ce30f4168016c78b75908c8ca45776a2179467e6f23cf5",
    ("evidence", None, 2, 6): "a851d15a8205b332e222e7fc7e619cfba6aa77befdad14d603934146d6ea71b1",
    # recorded while the area/conjugation algebra was built from whole levels
    ("evidence", None, 3, 6): "fa71635410e10aaf528cc67fd25fdcc2ff47aa6851069f40cd394f2ba83d4f84",
    ("evidence", None, 4, 5): "7430fb446583859df5303eecb739d4db9daa705e41a5383dfdecc5170866a469",
    ("evidence", None, 5, 4): "bb94ea74931f5db0c06fec494cd508945a256db2be19733fa33cfdc5b6ddae20",
    # the widest letter-permutation orbits, recorded before each level was
    # built once per orbit and relabelled
    ("basis", "conj", 4, 4): "f7fea6d2863c3120dc882152dd55ba7603b774761c020f1aacfbbb7570df8630",
    ("basis", "loop", 4, 4): "de55d8db50c2426afb8b76658bf3b9cc3cda588a8f7700c0e716abc5a94115fc",
    ("basis", "closure", 4, 4): "dc07ccc974a0c29f19f67c8a8122084a5e4d91bc6377eba7a761745e08535b20",
    ("basis", "V", 4, 4): "8042e58cd1b495d06a5f5655ed24af44e40178de5cc67a136f25b1c2f440e1ea",
    ("basis", "S", 4, 4): "fca5b0d782dd01dfecb891f9d9ef2247fa813b9d835e1a3c6cad810cf4b93360",
    ("dims", None, 4, 5): "6142e31fb044498538dd987d85f79a5cf6dfae9984de7e7f68901bd2a22eb79e",
    ("dims", None, 5, 4): "91a93e94bf6484db1e5e1f2fa0c968f9b240ac7c401766825732beaff1819f44",
    # deeper readers of the closure table, recorded while its rows were dicts
    ("basis", "loop", 2, 9): "18ecbceaa408c9645e298c233e24681ca44e6d2efeb8a58183d9666caea8ed83",
    ("basis", "closure", 3, 6): "eeb3c59f40fd1e82df61c029e2efa80d755553875f7fb5f8eeef0b0e3784521e",
    ("dims", None, 3, 7): "59514b72bd9cfacef6f86c3c9b6ec0c8a8a84c2024618528bbedffd54d233a1c",
    # recorded while the loop space was the closure-difference kernel and
    # dims built the closure image
    ("dims", None, 2, 10): "3dfa933353aa578b258352c2e60f683eea80842a05107e2624832d2a380dcb15",
    ("dims", None, 4, 6): "30e44ef05d51060258dbdf21ced9d1bfb59a935672af592179e6edb361ae4d69",
    ("basis", "loop", 3, 6): "1b526915c991052df4f0784770ccf8e7ea14d42b0c6f27c0c137f30378c2bd57",
    # the other spaces of the same level, recorded while renamed blocks
    # were cached
    ("basis", "conj", 3, 6): "8381df14110764ca8f731aee3354a725a5fecf05d6fc34161519c0e3550042ed",
    ("basis", "S", 3, 6): "c2c39ae69e3206d28d05fe0acc6fbe579009ea837001ec739e5375434c184481",
    ("basis", "V", 3, 6): "28912a1490ce6ee2e61d39ff4590ebf9d72756a3ef5eb96ff71844bc86578fdf",
    # readers that build their own closure blocks, recorded while a whole
    # level's closure table was kept for the life of the pipeline; d=2
    # level 8 holds the closed-rotation memberships at levels 4, 6 and 8
    ("evidence", None, 2, 8): "2275461e4514e8d6c9aa083573cd3c04976bb9e3e46b5d300f9af6798a7cf112",
    ("evidence", None, 3, 7): "ed49ff7a02c8fa35335447805d5d572e08c80eafc75db4b632c75cdb695eb24e",
    ("basis", "closure", 2, 9): "793af4063d72ee6f3a625de18e450de28f907e458156d934922b06d7df4bfeb5",
    # conj blocks of the widest orbits, and the evidence sums, recorded
    # while conj was the span of its rotation sums and each sum was
    # eliminated whole
    ("basis", "conj", 4, 6): "8a13404fe9579749df762d138445086ba910687e29fe3dd2a8d08792fcedc623",
    ("basis", "conj", 5, 6): "099b7be464bad8c98991ca01c5112845a41f82bbc4ce0dfc0894cc37b8de7adc",
    ("evidence", None, 4, 6): "02ee7b044f4ee52821c231062c8356d06d0deb28cb2608c6158494bf0b041640",
    # area products on non-canonical contents, recorded while each was a
    # rational tensor element tested in the assembled whole level
    ("evidence", None, 5, 6): "0e136b4d46da80fe71f57ad72daf73366c6ab442ae30fd2b7253abc9908b359c",
    ("evidence", None, 6, 5): "213081bb8eadc3a4d3dd54814f6a707af9a022884681be622f344b27b4f0470c",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command, space, d, n", sorted(GOLDEN, key=str))
    def test_digest(self, command, space, d, n, capsys):
        if command == "basis":
            argv = ["basis", "--space", space, "--d", str(d), "--n", str(n)]
        else:
            argv = [command, "--d", str(d), "--max-level", str(n), "--format", "json"]
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, space, d, n]


# sha256 of fuzz output, recorded on the rational Chen route before the
# fuzz moved to scaled integer levels; verdicts, counts and witnesses must
# not change
FUZZ_GOLDEN = {
    (2, 4, 20, 7, "json"): "6bf39cf4bf8d70c0364e92eeef16a509bd0ba938d6acfec139e40f2fb75aaa65",
    (3, 3, 10, 2, "json"): "1ec476471906ef506e3065943b24350b48767d5b326c83e028953d3e07bce32c",
    (3, 3, 10, 2, "pretty"): "d3c5182e5ff675c4e847d5e963144a93cabde69ee02965643f46a3a2ecebbb1c",
}


class TestFuzzGoldenOutput:
    @pytest.mark.parametrize("d, level, trials, seed, fmt", sorted(FUZZ_GOLDEN))
    def test_digest(self, d, level, trials, seed, fmt, capsys):
        code, out = run(capsys, ["fuzz", "--d", str(d), "--level", str(level), "--trials",
                                 str(trials), "--seed", str(seed), "--format", fmt])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_GOLDEN[d, level, trials, seed, fmt]


class TestEvidence:
    def test_two_letters(self, capsys):
        code, out = run(capsys, ["evidence", "--d", "2", "--max-level", "4"])
        assert code == EXIT_OK
        assert "equal" in out
        assert "area12*area12: in image" in out

    def test_json(self, capsys):
        code, out = run(capsys, ["evidence", "--d", "2", "--max-level", "4", "--format", "json"])
        payload = json.loads(out)
        assert payload["levels"][3]["closure_conj_intersection_dim"] == 0
        assert payload["levels"][3]["loop_matches_s_plus_area_conj"]

    @pytest.mark.parametrize("budget", [["--budget-secs", "-1"], ["--budget-bits", "1"]])
    def test_budget_exceeded(self, budget, capsys):
        code = main(["evidence", "--d", "2", "--max-level", "6", "--format", "json", *budget])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET_OR_CONFIG and captured.out == ""
        assert captured.err.startswith("budget exceeded: ")
        assert re.search(r" in \('\w+', \d+\)\n$", captured.err)
        # the budget was per run: the shared pipeline is left without one
        assert spaces_for(2).budget is None

    def test_generous_budget_changes_nothing(self, capsys):
        argv = ["evidence", "--d", "3", "--max-level", "5", "--format", "json"]
        _, plain = run(capsys, argv)
        code, budgeted = run(capsys, argv + ["--budget-secs", "1000", "--budget-bits", "100000"])
        assert code == EXIT_OK and budgeted == plain


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, capsys):
        argv = ["dims", "--d", "2", "--max-level", "3", "--format", "json"]
        code, out = run(capsys, argv)
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run(
            [sys.executable, "-m", "loopinv", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, out, "")

    @pytest.mark.parametrize("argv", [
        ["dims", "--d", "2", "--max-level", "7", "--format", "json"],
        ["basis", "--space", "loop", "--d", "3", "--n", "4"],
    ])
    def test_optimized_interpreter_matches(self, argv):
        # python -O strips asserts; the checks are raises, so the run, its
        # output and its exit code are the same
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "loopinv", *argv], capture_output=True, env=env
            )
            for flags in ([], ["-O"])
        )
        assert plain.returncode == EXIT_OK
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode, plain.stdout, plain.stderr
        )
