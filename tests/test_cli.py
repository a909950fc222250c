"""Command-line driver: subcommands, exit codes, output formats, report
files, and determinism guarantees."""

import json
import os
import re
import subprocess
import sys

import pytest

from sdtp.cli import main

TINY_CFG = """\
channels: 8
in_channels: 8
base_hw: [8, 8]
isp:
  heads: 2
  rates: [1, 2]
cdi:
  heads: 2
  levels: [4, 5]
gradcheck:
  points: 2
train:
  steps: 10
  channels: 8
  base_hw: [8, 8]
  levels: [4, 5]
complexity:
  dims: [[8, 8], [4, 4]]
  channels: 8
  strides: [2, 1]
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(TINY_CFG)
    return str(p)


class TestForward:
    def test_exit_zero_and_report_keys(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "fwd.json"
        rc = main(["forward", "--config", tiny_cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["kind"] == "forward"
        assert rep["variant"] == "sdtp"
        assert set(rep["levels"]) == {"4", "5"}
        assert rep["dep_loss"] > 0
        assert rep["cross_level_sensitivity"]["any_cross_level"] is True
        assert rep["flops"]["ordering_ok"] is True
        text = capsys.readouterr().out
        assert "variant: sdtp" in text

    def test_variant_flag_overrides_config(self, tiny_cfg, tmp_path):
        out = tmp_path / "fwd.json"
        rc = main(["forward", "--config", tiny_cfg, "--variant", "no_interaction",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["variant"] == "no_interaction"
        assert rep["dep_loss"] == 0.0
        assert rep["cross_level_sensitivity"]["any_cross_level"] is False

    def test_report_byte_identical_across_runs(self, tiny_cfg, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["forward", "--config", tiny_cfg, "--out", str(a)]) == 0
        assert main(["forward", "--config", tiny_cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tiny_cfg, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["forward", "--config", tiny_cfg, "--seed", "1", "--out", str(a)])
        main(["forward", "--config", tiny_cfg, "--seed", "2", "--out", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["dep_loss"] != rb["dep_loss"]

    def test_json_format_to_stdout(self, tiny_cfg, capsys):
        rc = main(["forward", "--config", tiny_cfg, "--format", "json"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "forward"

    def test_unknown_variant_is_config_error(self, tiny_cfg):
        assert main(["forward", "--config", tiny_cfg, "--variant", "vgg"]) == 2


class TestGradcheck:
    def test_subset_passes(self, tiny_cfg, capsys):
        rc = main(["gradcheck", "--config", tiny_cfg, "--ops", "arf,matmul"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "arf" in text and "matmul" in text and "FAIL" not in text

    def test_negative_control_fails(self, tiny_cfg, capsys):
        rc = main(["gradcheck", "--config", tiny_cfg, "--ops", "arf",
                   "--negative-control"])
        assert rc == 1
        text = capsys.readouterr().out
        assert "corrupted_linear" in text
        assert "worst offender: corrupted_linear" in text

    def test_negative_control_leaves_registry_unchanged(self, tiny_cfg):
        """The corrupted case runs without joining the registry, so a later
        full run never meets it."""
        from sdtp.gradcheck import registered_cases
        before = registered_cases()
        assert main(["gradcheck", "--config", tiny_cfg, "--ops", "arf",
                     "--negative-control"]) == 1
        assert registered_cases() == before
        assert "corrupted_linear" not in before

    def test_unknown_op_is_config_error(self, tiny_cfg):
        assert main(["gradcheck", "--config", tiny_cfg, "--ops", "nope"]) == 2

    @pytest.mark.parametrize("ops", [",", "", " , "])
    def test_empty_op_selection_is_config_error(self, tiny_cfg, tmp_path, capsys, ops):
        """An --ops value that selects no case checks nothing, so it must
        not report a pass."""
        out = tmp_path / "gc.json"
        rc = main(["gradcheck", "--config", tiny_cfg, "--ops", ops, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--ops" in err
        assert not out.exists()

    def test_repeated_op_is_config_error(self, tiny_cfg, tmp_path, capsys):
        """A case named twice in --ops would run and be reported twice."""
        out = tmp_path / "gc.json"
        rc = main(["gradcheck", "--config", tiny_cfg, "--ops", "arf,arf,gelu",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--ops" in err and "'arf'" in err
        assert "'gelu'" not in err
        assert not out.exists()

    def test_case_diagnostic_printed(self, tiny_cfg, monkeypatch, capsys):
        """A case that cannot be checked fails, and the table prints its
        diagnostic on the line below it."""
        from sdtp import gradcheck as GC
        from sdtp import tensor as T

        def nonfinite(rng):
            x = T.Tensor(rng.standard_normal(3))
            return (lambda x: T.scale(x, float("inf"))), [("x", x)]

        monkeypatch.setitem(GC._REGISTRY, "nonfinite_forward", nonfinite)
        assert main(["gradcheck", "--config", tiny_cfg, "--ops", "nonfinite_forward"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["nonfinite_forward", "FAIL"]
        assert lines[1] == "    point 0: non-finite forward output"

    def test_report_structure(self, tiny_cfg, tmp_path):
        out = tmp_path / "gc.json"
        rc = main(["gradcheck", "--config", tiny_cfg, "--ops", "gelu",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["kind"] == "gradcheck"
        assert rep["passed"] is True
        assert rep["cases"][0]["op"] == "gelu"
        assert rep["cases"][0]["max_rel_err"] < rep["tolerance"]


class TestFlops:
    def test_totals_match_library(self, tiny_cfg, tmp_path):
        from sdtp.complexity import LevelDims, flops_table
        out = tmp_path / "fl.json"
        assert main(["flops", "--config", tiny_cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        dims = [LevelDims(8, 8, 8, 2), LevelDims(4, 4, 8, 1)]
        assert rep["flops"]["totals"]["full"] == flops_table(dims)["totals"]["full"]

    def test_default_config_frozen_totals(self, tmp_path, capsys):
        """Default dims reproduce the frozen benchmark totals."""
        out = tmp_path / "fl.json"
        assert main(["flops", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["flops"]["totals"] == {
            "full": 2489609472000, "strided": 3358924800, "decoupled": 367424000}

    def test_csv_format(self, tiny_cfg, capsys):
        assert main(["flops", "--config", tiny_cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,h,w,c,s,full,strided,decoupled"
        assert lines[-1].startswith("total,")

    def test_table_format(self, tiny_cfg, capsys):
        assert main(["flops", "--config", tiny_cfg]) == 0
        text = capsys.readouterr().out
        assert "ordering decoupled < strided < full: True" in text

    def test_sweep_rows_match_flops_table(self, tmp_path):
        """One sweep row per standard input, in order, each carrying
        flops_table's totals over its own levels, and the ordering holds at
        every input."""
        from sdtp.complexity import LevelDims, flops_table
        out = tmp_path / "fl.json"
        assert main(["flops", "--out", str(out)]) == 0
        sweep = json.loads(out.read_text())["sweep"]
        assert [r["input"] for r in sweep] == [[200, 336], [400, 672], [800, 1344], [1600, 2688]]
        for row in sweep:
            assert list(row) == ["input", "levels", "full", "strided", "decoupled",
                                 "full_over_decoupled", "strided_over_decoupled", "ordering_ok"]
            totals = flops_table([LevelDims(**lv) for lv in row["levels"]])["totals"]
            assert {k: row[k] for k in ("full", "strided", "decoupled")} == totals
            assert row["ordering_ok"] is True

    def test_sweep_at_800x1344_is_the_default_level_table(self, tmp_path):
        """At the default config the 800x1344 input's levels are the
        configured ones, so its totals are the level table's frozen totals."""
        out = tmp_path / "fl.json"
        assert main(["flops", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        row = next(r for r in rep["sweep"] if r["input"] == [800, 1344])
        assert [[lv["h"], lv["w"]] for lv in row["levels"]] == rep["config"]["complexity"]["dims"]
        assert {k: row[k] for k in ("full", "strided", "decoupled")} == rep["flops"]["totals"] == {
            "full": 2489609472000, "strided": 3358924800, "decoupled": 367424000}

    @pytest.mark.parametrize("section, table_ok, sweep_ok", [
        ("  dims: [[2, 2]]\n  channels: 8\n  strides: [2]\n", False, True),
        ("  dims: [[8, 8], [4, 4]]\n  channels: 8\n  strides: [1, 1]\n", False, False),
    ], ids=["level_table", "both"])
    def test_failed_ordering_exits_one(self, tmp_path, capsys, section, table_ok, sweep_ok):
        """A cost ordering that fails, in the level table or at any sweep
        input, exits 1; the report is written all the same."""
        p = tmp_path / "c.yaml"
        p.write_text("complexity:\n" + section)
        out = tmp_path / "fl.json"
        assert main(["flops", "--config", str(p), "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["flops"]["ordering_ok"] is table_ok
        assert all(r["ordering_ok"] for r in rep["sweep"]) is sweep_ok
        text = capsys.readouterr().out
        assert f"ordering decoupled < strided < full: {table_ok}" in text
        assert f"ordering decoupled < strided < full at every input: {sweep_ok}" in text

    def test_table_columns_align(self, capsys):
        """Every count column of the level table ends at the same offset on
        the header, on each level row and on the total row; the sweep block
        below it puts its counts at those offsets too."""
        assert main(["flops"]) == 0
        level_table, sweep = capsys.readouterr().out.split("\n\n")
        lines = level_table.splitlines()[:-1]  # not the ordering line
        ends = {tuple(m.end() for m in list(re.finditer(r"\S+", line))[-3:]) for line in lines}
        assert lines[-1].split()[0] == "total" and len(ends) == 1
        lines = sweep.splitlines()[:-1]  # the header and one row per input
        assert len(lines) == 5
        sweep_ends = {tuple(m.end() for m in list(re.finditer(r"\S+", line))[-5:-2])
                      for line in lines}
        assert sweep_ends == ends

    def test_no_renders_key_in_file(self, tiny_cfg, tmp_path):
        """The private table/csv renders never leak into the JSON file."""
        out = tmp_path / "fl.json"
        main(["flops", "--config", tiny_cfg, "--out", str(out)])
        assert "_renders" not in json.loads(out.read_text())

    def test_json_stdout_equals_report_file(self, tiny_cfg, tmp_path, capsys):
        """--format json prints exactly the --out body, nothing private."""
        out = tmp_path / "fl.json"
        assert main(["flops", "--config", tiny_cfg, "--format", "json",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestFormats:
    @pytest.mark.parametrize("argv", [
        ["forward"], ["gradcheck", "--ops", "gelu"], ["train"],
        ["variants", "--channels", "8", "--base-hw", "8", "8"],
    ])
    def test_csv_only_offered_by_flops(self, tiny_cfg, argv):
        """Only flops has a csv rendering; elsewhere argparse refuses it."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", tiny_cfg, "--format", "csv"])
        assert exc.value.code == 2


class TestTrain:
    def test_loss_drops(self, tiny_cfg, tmp_path):
        out = tmp_path / "tr.json"
        rc = main(["train", "--config", tiny_cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["kind"] == "train"
        assert rep["final_total"] < rep["initial_total"]
        assert len(rep["trace_total"]) == rep["steps"] + 1

    def test_peak_rss_on_stderr_only(self, tiny_cfg, tmp_path, capsys):
        """Wall time and peak RSS go to stderr; the report has neither, so
        it stays deterministic."""
        out = tmp_path / "tr.json"
        assert main(["train", "--config", tiny_cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "train wall time" in err and "peak RSS" in err
        rep = json.loads(out.read_text())
        assert not any("rss" in key.lower() or "wall" in key.lower() for key in rep)

    def test_divergence_exits_one(self, tmp_path, capsys):
        """A run whose loss goes non-finite exits 1 with the step and loss."""
        p = tmp_path / "diverge.yaml"
        p.write_text(TINY_CFG.replace("  steps: 10\n", "  steps: 5\n  lr: 1.0e+6\n"))
        assert main(["train", "--config", str(p)]) == 1
        assert "training diverged: loss became non-finite at step 2: nan" in capsys.readouterr().err

    def test_divergence_in_the_final_evaluation_exits_one(self, tmp_path, capsys):
        """A loss that first goes non-finite after the last step exits 1 too."""
        p = tmp_path / "diverge.yaml"
        p.write_text(TINY_CFG.replace("  steps: 10\n", "  steps: 1\n  lr: 1.0e+100\n"))
        assert main(["train", "--config", str(p)]) == 1
        assert "training diverged: loss became non-finite at step 1: nan" in capsys.readouterr().err

    def test_reproducible(self, tiny_cfg, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train", "--config", tiny_cfg, "--out", str(a)])
        main(["train", "--config", tiny_cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVariants:
    def test_lists_all_variants(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "va.json"
        rc = main(["variants", "--config", tiny_cfg, "--channels", "8",
                   "--base-hw", "8", "8", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        tags = [r["variant"] for r in rep["variants"]]
        assert tags == ["sdtp", "fpn_baseline", "dilated_c5", "no_interaction",
                        "single_input_4", "single_input_5"]
        by_tag = {r["variant"]: r for r in rep["variants"]}
        assert by_tag["sdtp"]["dep_loss"] > 0
        assert by_tag["fpn_baseline"]["dep_loss"] == 0.0
        assert by_tag["no_interaction"]["any_cross_level"] is False
        assert by_tag["sdtp"]["any_cross_level"] is True
        assert not any("train" in r for r in rep["variants"])
        assert "loss_ratio" not in capsys.readouterr().out

    def test_train_steps_adds_train_block(self, tiny_cfg, tmp_path, capsys):
        """--train-steps 2 gives every row a train block at train.lr after
        the probe's keys, and two steps lower each variant's loss."""
        out = tmp_path / "va.json"
        assert main(["variants", "--config", tiny_cfg, "--channels", "8", "--base-hw", "8", "8",
                     "--train-steps", "2", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["variants"]
        assert len(rows) == 6
        for row in rows:
            assert list(row) == ["variant", "dep_loss", "levels", "sensitivity",
                                 "any_cross_level", "n_params", "train"]
            assert row["levels"] == [4, 5]
            train = row["train"]
            assert (train["steps"], train["lr"]) == (2, 0.1)
            assert train["final"] < train["initial"]
            assert train["ratio"] == train["final"] / train["initial"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines] == \
            [f"loss_ratio={r['train']['ratio']:.4f}" for r in rows]

    def test_diverging_variant_exits_one(self, tmp_path, capsys):
        """A variant whose training diverges exits 1, not with a traceback."""
        p = tmp_path / "diverge.yaml"
        p.write_text(TINY_CFG.replace("  steps: 10\n", "  lr: 1.0e+100\n"))
        assert main(["variants", "--config", str(p), "--channels", "8", "--base-hw", "8", "8",
                     "--train-steps", "1"]) == 1
        assert "training diverged: loss became non-finite at step 1" in capsys.readouterr().err


class TestErrors:
    def test_missing_config_file(self):
        assert main(["forward", "--config", "/nope/missing.yaml"]) == 2

    def test_invalid_config_value(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("channels: -3\n")
        assert main(["forward", "--config", str(p)]) == 2

    def test_unknown_config_key(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("chanels: 8\n")
        assert main(["forward", "--config", str(p)]) == 2

    @pytest.mark.parametrize("text, argv, field", [
        ("arf:\n  tau: '2'\n", ["forward"], "arf.tau"),
        ("variant: 3\n", ["forward"], "variant"),
        ("", ["forward", "--variant", "single_input_x"], "variant"),
        ("", ["variants", "--channels", "0"], "channels"),
        ("cdi:\n  lam: 0.5\n", ["forward"], "cdi.lam"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, text, argv, field):
        """A mistyped value exits 2 with its dotted path, never a traceback."""
        p = tmp_path / "c.yaml"
        p.write_text(text)
        assert main(argv + ["--config", str(p)]) == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err


    @pytest.mark.parametrize("text, argv, field", [
        ("cdi:\n  levels: []\n", ["forward"], "cdi.levels"),
        ("cdi:\n  levels: []\n", ["variants", "--channels", "8", "--base-hw", "8", "8"],
         "cdi.levels"),
        ("train:\n  levels: []\n", ["train"], "train.levels"),
        ("complexity:\n  dims: []\n  strides: []\n", ["flops"], "complexity.dims"),
        ("", ["variants", "--train-steps", "-1"], "--train-steps"),
    ], ids=["cdi_forward", "cdi_variants", "train", "complexity", "train_steps"])
    def test_empty_level_list_is_config_error(self, tmp_path, capsys, text, argv, field):
        """An empty level list (or a negative --train-steps) builds nothing
        to report on, so it exits 2 naming its key."""
        p = tmp_path / "c.yaml"
        p.write_text(text)
        assert main(argv + ["--config", str(p)]) == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tiny_cfg, tmp_path):
        """`python -m sdtp.cli` works as a fresh process."""
        out = tmp_path / "fwd.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sdtp.cli", "forward", "--config", tiny_cfg,
             "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["kind"] == "forward"
        # wall-clock timing goes to stderr only
        assert "wall time" in proc.stderr
        assert "wall time" not in proc.stdout
        assert "wall" not in out.read_text()
        # so does the process's peak resident memory
        assert "peak RSS" in proc.stderr
        assert "RSS" not in proc.stdout and "RSS" not in out.read_text()


# dims at which the level maps' products are large enough for OpenBLAS to
# split them across threads; lr small enough that 5 steps stay finite
THREADS_CFG = """\
channels: 32
in_channels: 32
base_hw: [32, 32]
train:
  steps: 5
  lr: 1.0e-4
  channels: 32
  base_hw: [32, 32]
  levels: [4, 5]
"""


class TestBlasThreads:
    def test_reports_independent_of_thread_count(self, tmp_path):
        """`forward --out` and `train --out` write the same bytes with
        OpenBLAS on 1 thread and on 3 (more threads than cores only
        oversubscribes them).  The four processes run at once."""
        cfg = tmp_path / "threads.yaml"
        cfg.write_text(THREADS_CFG)
        runs = {}
        for cmd in ("forward", "train"):
            for threads in ("1", "3"):
                out = tmp_path / f"{cmd}_{threads}.json"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                runs[out] = subprocess.Popen(
                    [sys.executable, "-m", "sdtp.cli", cmd, "--config", str(cfg),
                     "--out", str(out)],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for proc in runs.values():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        for cmd in ("forward", "train"):
            one = (tmp_path / f"{cmd}_1.json").read_bytes()
            assert one == (tmp_path / f"{cmd}_3.json").read_bytes()
