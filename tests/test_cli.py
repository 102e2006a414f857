"""Command-line surface, exercised in-process through main(argv): output
shapes, exit codes, file effects, and determinism of the generate command."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import kknapsack.cli as cli
from conftest import F, inst_of, member_ids, solve_fine
from kknapsack.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from kknapsack.combiner import solve_with_details
from kknapsack.instance_model import (
    Mode,
    format_rational,
    load_instance,
    make_solution,
    save_instance,
    save_instance_csv,
)
from kknapsack.oracles import brute_force


@pytest.fixture
def inst_file(tmp_path):
    inst = inst_of(
        [(1, 40, 3), (2, 10, 1), (3, 9, 2), (4, 7, 2), (5, 2, 1)], 6, 3
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


@pytest.fixture
def pipeline_file(tmp_path):
    """An instance whose solve at eps = 1/4 a pipeline run answers (the
    coarse one), so that the dumps hold its partition and table. The
    inst_file instance's LP optimum is integral, and the rounding answers
    it."""
    inst = inst_of(
        [(1, 40, 3), (2, 30, 3), (3, 9, 2), (4, 7, 2), (5, 2, 1)], 6, 3
    )
    path = tmp_path / "pipeline.json"
    save_instance(inst, path)
    return path


class TestSolve:
    def test_json_output_shape(self, inst_file, capsys):
        rc = main(["solve", "--input", str(inst_file), "--epsilon", "1/4"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {
            "value",
            "weight",
            "count",
            "items",
            "epsilon_user",
            "answer",
            "internal_eps",
            "certified_ratio",
            "elapsed_ms",
        }
        assert out["epsilon_user"] == "1/4"
        # The coarse answer and the rounding stand only when
        # value >= (1 - eps/2) * LP; the fine level runs at eps/8.
        assert out["internal_eps"] in ("1/4", "1/32")
        assert out["answer"] == "rounding"
        assert 0 < out["certified_ratio"] <= 1
        if out["internal_eps"] == "1/4":
            assert out["certified_ratio"] >= 1 - Fraction(1, 8)
        assert out["items"] == sorted(out["items"])
        assert isinstance(out["count"], int)
        assert Fraction(out["value"]) > 0
        assert Fraction(out["weight"]) <= 6
        # The reported value must be the exact profit sum of the items.
        inst = load_instance(inst_file)
        assert Fraction(out["value"]) == sum(
            (inst.by_id[i].profit for i in out["items"]), Fraction(0)
        )

    def test_output_file_and_dumps(self, pipeline_file, tmp_path, capsys):
        out_f = tmp_path / "result.json"
        part_f = tmp_path / "partition.json"
        tab_f = tmp_path / "tables.json"
        rc = main(
            [
                "solve",
                "--input",
                str(pipeline_file),
                "--epsilon",
                "0.25",
                "--output",
                str(out_f),
                "--dump-partition",
                str(part_f),
                "--dump-tables",
                str(tab_f),
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""  # everything went to files
        result = json.loads(out_f.read_text())
        assert result["epsilon_user"] == "1/4"
        part = json.loads(part_f.read_text())
        assert {"opt_estimate", "epsilon", "z", "large_classes", "small_classes"} <= set(
            part
        )
        tab = json.loads(tab_f.read_text())
        assert len(tab["values"]) == tab["m"] + 1
        assert all(len(row) == tab["z"] + 1 for row in tab["values"])
        assert tab["values"][0] == ["0"] * (tab["z"] + 1)

    def test_exactly_k_dump_lists_the_fillers(self, tmp_path, capsys):
        # Exactly K = 2 at eps = 1/4 the estimate is 72, so the items worth
        # less than eps*72/K = 9 (ids 3 and 4) are the fillers. A pipeline
        # run answers, and the dump holds its partition: the fillers' ids as
        # JSON ints, lightest first, and every class's size.
        inst = inst_of(
            [(1, 18, 27), (2, 19, 17), (3, 2, 23), (4, 3, 10), (5, 9, 22), (6, 17, 14)], 37, 2
        )
        path, part_f = tmp_path / "inst.json", tmp_path / "partition.json"
        save_instance(inst, path)
        rc = main(["solve", "--input", str(path), "--mode", "exact", "--epsilon", "1/4",
                   "--dump-partition", str(part_f)])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["answer"] in ("coarse", "fine") and out["count"] == 2
        dumped = json.loads(part_f.read_text())
        assert dumped["fillers"] == [4, 3] and all(type(i) is int for i in dumped["fillers"])
        _, det = solve_with_details(replace(inst, mode=Mode.EXACT), F(1, 4))
        part = det["partition"]
        assert dumped["fillers"] == member_ids(part, part.filler_rows)
        for kind in ("large_classes", "small_classes"):
            sizes = [(c["index"], c["size"]) for c in dumped[kind]]
            assert sizes == [(c.index, c.size) for c in getattr(part, kind)]
        sizes = sum(c["size"] for c in dumped["large_classes"] + dumped["small_classes"])
        assert sizes + len(dumped["fillers"]) + len(dumped["discarded"]) == inst.n

    def test_rounding_answer_dumps_say_so(self, inst_file, tmp_path, capsys):
        # No pipeline run answered, so no partition or table belongs to the
        # answer: the dumps name the rung instead, as they say "trivial" for
        # instances whose every selection is worth 0.
        part_f = tmp_path / "partition.json"
        tab_f = tmp_path / "tables.json"
        rc = main(["solve", "--input", str(inst_file), "--epsilon", "1/4",
                   "--dump-partition", str(part_f), "--dump-tables", str(tab_f)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["answer"] == "rounding"
        assert json.loads(part_f.read_text()) == {"answer": "rounding"}
        assert json.loads(tab_f.read_text()) == {"answer": "rounding"}
        _, det = solve_with_details(load_instance(inst_file), F(1, 4))
        assert det["answer"] == "rounding"
        assert not {"partition", "table", "split"} & set(det)

    def test_dump_tables_fractional_weights(self, tmp_path, capsys):
        # Fractional weights fold as integers over weight_scale 6; the dump
        # converts every cell back to the exact rational value_at reports.
        inst = inst_of(
            [(1, 40, F(7, 2)), (2, 10, 1), (3, 9, F(5, 3)), (4, 7, 2), (5, 2, 1)], 6, 3
        )
        path = tmp_path / "frac.json"
        tab_f = tmp_path / "tables.json"
        save_instance(inst, path)
        argv = ["solve", "--input", str(path), "--epsilon", "1/4"]
        rc = main(argv + ["--dump-tables", str(tab_f)])
        assert rc == EXIT_OK
        capsys.readouterr()
        # The rounding answers this solve, so the CLI dumps no table; the
        # dump of the eps/8 level's table is checked instead.
        assert json.loads(tab_f.read_text()) == {"answer": "rounding"}
        table = solve_fine(inst, F(1, 4))[1]["table"]
        tab = cli._dump_table(table)
        assert "kind" not in tab
        assert table.weight_scale == 6
        expected = [
            [
                format_rational(table.value_at(q, k)) if table.is_finite(q, k) else "inf"
                for k in range(tab["z"] + 1)
            ]
            for q in range(tab["m"] + 1)
        ]
        assert tab["values"] == expected
        assert "7/2" in {cell for row in tab["values"] for cell in row}

    def test_internal_eps_flag(self, inst_file, capsys):
        # The solver picks its internal accuracy itself; argparse rejects
        # the old override flag on solve and verify as unrecognised.
        for command in ("solve", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", str(inst_file), "--epsilon", "1/2",
                      "--internal-eps", "1/4"])
            assert exc.value.code == 2
            assert "--internal-eps" in capsys.readouterr().err

    def test_csv_input_needs_budget_and_cardinality(self, tmp_path, capsys):
        csv_path = tmp_path / "items.csv"
        save_instance_csv(inst_of([(1, 5, 2), (2, 4, 1)], 3, 2), csv_path)
        rc = main(["solve", "--input", str(csv_path), "--epsilon", "1/4"])
        assert rc == EXIT_INPUT
        assert "--budget" in capsys.readouterr().err
        rc = main(
            [
                "solve",
                "--input",
                str(csv_path),
                "--epsilon",
                "1/4",
                "--budget",
                "3",
                "--cardinality",
                "2",
            ]
        )
        assert rc == EXIT_OK

    @pytest.mark.parametrize("command", ["solve", "convert"])
    @pytest.mark.parametrize("option", [["--budget", "1"], ["--cardinality", "3"]])
    def test_csv_options_with_json_input_are_rejected(
        self, command, option, inst_file, tmp_path, capsys
    ):
        # A JSON instance carries its own budget and K; an option that would
        # be ignored is an input error, and nothing is written.
        out = tmp_path / "out.json"
        tail = ["--epsilon", "1/2"] if command == "solve" else []
        argv = [command, "--input", str(inst_file), "--output", str(out), *tail, *option]
        assert main(argv) == EXIT_INPUT
        assert "CSV input only" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["solve", "--input", str(tmp_path / "nope.json"), "--epsilon", "1/4"])
        assert rc == EXIT_INPUT
        assert "not found" in capsys.readouterr().err

    def test_bad_epsilon(self, inst_file, capsys):
        for bad in ("2", "0", "abc"):
            rc = main(["solve", "--input", str(inst_file), "--epsilon", bad])
            assert rc == EXIT_INPUT
        rc = main(["solve", "--input", str(inst_file), "--epsilon=-1/2"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["solve_eps", "verify_eps", "csv_budget"])
    def test_zero_denominator_is_an_input_error(self, command, inst_file, tmp_path, capsys):
        # "1/0" names no rational: exit 1 with an error line, no traceback.
        if command == "csv_budget":
            csv_path = tmp_path / "items.csv"
            save_instance_csv(inst_of([(1, 5, 2), (2, 4, 1)], 3, 2), csv_path)
            argv = ["solve", "--input", str(csv_path), "--epsilon", "1/4",
                    "--budget", "1/0", "--cardinality", "2"]
        else:
            argv = [command.split("_")[0], "--input", str(inst_file), "--epsilon", "1/0"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("target", ["input", "output", "dump-tables", "convert"])
    def test_unusable_path_is_an_input_error(self, target, pipeline_file, tmp_path, capsys):
        # A directory as input, or an output into a missing directory:
        # exit 1 with an error line, no traceback.
        missing = str(tmp_path / "no-such-dir" / "out.json")
        solve = ["solve", "--epsilon", "1/4", "--input"]
        argv = {
            "input": solve + [str(tmp_path)],
            "output": solve + [str(pipeline_file), "--output", missing],
            "dump-tables": solve + [str(pipeline_file), "--dump-tables", missing],
            "convert": ["convert", "--input", str(pipeline_file), "--output", missing],
        }[target]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_threads(self, inst_file, capsys):
        # There is no --threads option; argparse rejects it as unrecognised.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(inst_file), "--epsilon", "1/4", "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["solve", "--input", str(bad), "--epsilon", "1/4"])
        assert rc == EXIT_INPUT

    def test_exact_mode_infeasible_exit_code(self, tmp_path, capsys):
        inst = inst_of([(1, 5, 10), (2, 4, 10)], 9, 2, mode=Mode.EXACT)
        path = tmp_path / "exact.json"
        save_instance(inst, path)
        rc = main(["solve", "--input", str(path), "--epsilon", "1/4"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_mode_override_flag(self, inst_file, capsys):
        rc = main(
            [
                "solve",
                "--input",
                str(inst_file),
                "--epsilon",
                "1/4",
                "--mode",
                "exact",
            ]
        )
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3  # exact mode returns exactly K items


class TestGenerate:
    def args(self, out_dir, seed=11):
        return [
            "generate",
            "--out-dir",
            str(out_dir),
            "--n",
            "10",
            "--cardinality",
            "3",
            "--seed",
            str(seed),
            "--count",
            "4",
            "--weight-max",
            "30",
        ]

    def test_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(self.args(out)) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "instance_0000.json",
            "instance_0001.json",
            "instance_0002.json",
            "instance_0003.json",
            "manifest.json",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert len(manifest["instances"]) == 4
        for i, entry in enumerate(manifest["instances"]):
            assert entry["file"] == f"instance_{i:04d}.json"
            assert entry["spawn_index"] == i
            assert entry["seed"] == 11
            assert entry["distribution"] == "uniform"
            assert entry["n"] == 10
            assert entry["cardinality"] == 3
            assert entry["mode"] == "at_most"
            inst = load_instance(out / entry["file"])
            assert inst.n == 10 and inst.cardinality == 3

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.args(a)) == EXIT_OK
        assert main(self.args(b)) == EXIT_OK
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_seed_changes_content(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.args(a, seed=1)) == EXIT_OK
        assert main(self.args(b, seed=2)) == EXIT_OK
        assert (a / "instance_0000.json").read_text() != (
            b / "instance_0000.json"
        ).read_text()

    def test_bad_distribution(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                "--out-dir",
                str(tmp_path / "x"),
                "--n",
                "5",
                "--cardinality",
                "2",
                "--seed",
                "0",
                "--distribution",
                "zipf",
            ]
        )
        assert rc == EXIT_INPUT

    def test_negative_count_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "g"
        argv = self.args(out)
        argv[argv.index("--count") + 1] = "-2"
        assert main(argv) == EXIT_INPUT
        assert "--count" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_single_file_passes(self, inst_file, capsys):
        rc = main(["verify", "--input", str(inst_file), "--epsilon", "1/4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0].startswith("inst.json: oracle=")
        assert "fptas=" in out[0] and "ratio=" in out[0]
        assert out[0].endswith("PASS")
        assert out[1] == "verified 1 instance(s), 0 failure(s)"

    def test_directory_with_dp_oracle(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(
            [
                "generate",
                "--out-dir",
                str(out),
                "--n",
                "10",
                "--cardinality",
                "3",
                "--seed",
                "4",
                "--count",
                "3",
                "--weight-max",
                "20",
            ]
        )
        capsys.readouterr()
        rc = main(["verify", "--input", str(out), "--epsilon", "1/4", "--oracle", "dp"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # 3 per-file lines + summary
        assert all(l.endswith("PASS") for l in lines[:3])
        assert lines[3] == "verified 3 instance(s), 0 failure(s)"

    def test_degraded_solver_fails_with_exit_3(self, inst_file, capsys, monkeypatch):
        def degraded(inst, eps, **kwargs):
            return make_solution(inst, frozenset(), eps), {}

        monkeypatch.setattr(cli, "solve_with_details", degraded)
        rc = main(["verify", "--input", str(inst_file), "--epsilon", "1/4"])
        assert rc == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "1 failure(s)" in out

    def test_missing_target(self, tmp_path, capsys):
        rc = main(
            ["verify", "--input", str(tmp_path / "nope"), "--epsilon", "1/4"]
        )
        assert rc == EXIT_INPUT

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["verify", "--input", str(empty), "--epsilon", "1/4"])
        assert rc == EXIT_INPUT


class TestBench:
    def test_subcommand_is_rejected(self, capsys):
        # perfbench/ is the one benchmark; the CLI has no bench subcommand.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "30", "--cardinality", "2", "--epsilon", "1/2"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestConvert:
    def test_round_trip(self, inst_file, tmp_path, capsys):
        csv_out = tmp_path / "inst.csv"
        rc = main(["convert", "--input", str(inst_file), "--output", str(csv_out)])
        assert rc == EXIT_OK
        back = tmp_path / "back.json"
        rc = main(
            [
                "convert",
                "--input",
                str(csv_out),
                "--budget",
                "6",
                "--cardinality",
                "3",
                "--output",
                str(back),
            ]
        )
        assert rc == EXIT_OK
        assert load_instance(back) == load_instance(inst_file)
