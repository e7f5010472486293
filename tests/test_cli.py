"""Command line surface: flows, exit codes, artifacts."""

import json
import os

import numpy as np
import pytest

from covermodels import CdeModel, VmmModel, new_cde
from covermodels.cli import main, parse_config_file
from covermodels.evaluate import read_records_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def mix_files(tmp_path):
    train = tmp_path / "train.csv"
    hold = tmp_path / "hold.csv"
    assert run("gen", "--dataset", "gauss-mix", "--n", 200, "--seed", 1,
               "--out", train) == 0
    assert run("gen", "--dataset", "gauss-mix", "--n", 80, "--seed", 2,
               "--out", hold) == 0
    return train, hold


class TestGen:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("gen", "--dataset", "ring", "--n", 50, "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert header == "x0,y0,y1"

    def test_markov_writes_symbols(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run("gen", "--dataset", "markov", "--n", 30, "--out", out) == 0
        body = out.read_text().split()
        assert len(body) == 30

    def test_unknown_dataset(self, tmp_path):
        assert run("gen", "--dataset", "nope", "--n", 5,
                   "--out", tmp_path / "x.csv") == 2


class TestFitEval:
    def test_cover_cde_records_and_meta(self, mix_files, tmp_path):
        train, hold = mix_files
        out = tmp_path / "ev.csv"
        code = run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", out,
                   "--checkpoints", "100,200", "--no-timing")
        assert code == 0
        recs = read_records_csv(out)
        assert [r.t for r in recs] == [100, 200]
        assert all(np.isfinite(r.loss) for r in recs)
        meta = json.loads((tmp_path / "ev.csv.meta").read_text())
        assert meta["method"] == "cover-cde"
        assert meta["checkpoints"] == [100, 200]

    def test_deterministic_without_timing(self, mix_files, tmp_path):
        train, hold = mix_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("fit-eval", "--method", "cover-cde", "--train", train,
                "--holdout", hold, "--checkpoints", "100,200", "--no-timing")
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_snapshot_then_resume(self, mix_files, tmp_path):
        train, hold = mix_files
        snap = tmp_path / "m.snap"
        full = tmp_path / "full.csv"
        part = tmp_path / "part.csv"
        rest = tmp_path / "rest.csv"
        base = ("fit-eval", "--method", "cover-cde", "--train", train,
                "--holdout", hold, "--no-timing")
        assert run(*base, "--out", full, "--checkpoints", "100,200") == 0
        assert run(*base, "--out", part, "--checkpoints", "100",
                   "--snapshot-at", "100", "--snapshot-out", snap) == 0
        assert run(*base, "--out", rest, "--checkpoints", "200",
                   "--resume", snap) == 0
        want = {r.t: r.loss for r in read_records_csv(full)}
        got = {r.t: r.loss for r in read_records_csv(rest)}
        assert got[200] == pytest.approx(want[200], abs=1e-10)

    def test_snapshot_flags_must_pair(self, mix_files, tmp_path):
        train, hold = mix_files
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "x.csv",
                   "--snapshot-at", "50") == 2

    def test_vmm_over_symbol_file(self, tmp_path):
        seq = tmp_path / "seq.txt"
        assert run("gen", "--dataset", "markov", "--n", 300, "--seed", 3,
                   "--out", seq) == 0
        out = tmp_path / "v.csv"
        code = run("fit-eval", "--method", "vmm", "--train", seq,
                   "--holdout", seq, "--out", out,
                   "--set", "alphabet_size=2", "--set", "depth=3",
                   "--checkpoints", "100,300", "--no-timing")
        assert code == 0
        recs = read_records_csv(out)
        assert recs[-1].loss < np.log(2)  # beats the uniform coin

    def test_missing_train_file(self, tmp_path):
        assert run("fit-eval", "--method", "cover-cde",
                   "--train", tmp_path / "absent.csv",
                   "--holdout", tmp_path / "absent.csv",
                   "--out", tmp_path / "x.csv") == 1

    def test_holdout_is_required(self, tmp_path):
        assert run("fit-eval", "--method", "cover-cde",
                   "--train", tmp_path / "absent.csv",
                   "--out", tmp_path / "x.csv") == 2

    def test_unknown_config_key(self, mix_files, tmp_path):
        train, hold = mix_files
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "x.csv",
                   "--set", "there_is_no_such_key=1") == 2

    @pytest.mark.parametrize("depth", ["Infinity", "1.5"])
    def test_a_kd_depth_that_is_not_a_whole_number_exits_2(self, depth, mix_files, tmp_path, capsys):
        train, hold = mix_files
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "x.csv",
                   "--set", f"max_depth_x={depth}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    @pytest.mark.parametrize(
        "setting", ["alpha=[1]", "alpha=abc", "tree_gamma=true", "components=3", "x_lower=0.5"]
    )
    def test_a_cover_cde_option_of_the_wrong_type_exits_2(self, setting, mix_files, tmp_path, capsys):
        """``alpha=[1]`` and ``alpha=abc`` printed a ``TypeError``
        traceback and exited 1."""
        train, hold = mix_files
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "x.csv",
                   "--set", setting) == 2
        err = capsys.readouterr().err
        key = setting.partition("=")[0]
        assert err.startswith(f"error: {key} must be ") and "Traceback" not in err

    @pytest.mark.parametrize("setting", ['density="2"', "density=true"])
    def test_a_constant_density_that_is_not_a_number_exits_2(
        self, setting, mix_files, tmp_path, capsys
    ):
        """``density="2"`` printed a ``TypeError`` traceback and exited 1."""
        train, hold = mix_files
        assert run("fit-eval", "--method", "constant", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "x.csv",
                   "--set", setting) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: density must be ") and "Traceback" not in err

    def test_kernel_cde(self, mix_files, tmp_path):
        train, hold = mix_files
        out = tmp_path / "k.csv"
        assert run("fit-eval", "--method", "kernel-cde", "--train", train,
                   "--holdout", hold, "--out", out, "--set", "n_folds=3",
                   "--checkpoints", "100,200", "--no-timing") == 0
        recs = read_records_csv(out)
        assert [r.t for r in recs] == [100, 200]
        assert all(np.isfinite(r.loss) for r in recs)

    def test_an_unknown_kernel_cde_option_exits_2(self, mix_files, tmp_path, capsys):
        train, hold = mix_files
        assert run("fit-eval", "--method", "kernel-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "k.csv",
                   "--set", "grid_lo=0.1") == 2
        assert capsys.readouterr().err == "error: unknown kernel-cde option(s): ['grid_lo']\n"

    @pytest.mark.parametrize(
        "setting", ["n_folds=1", "n_folds=0", "n_folds=-2", "grid_size=0", "subsample_cap=1"]
    )
    def test_a_kernel_cde_size_out_of_range_exits_2(self, setting, mix_files, tmp_path, capsys):
        """``n_folds=1`` and ``grid_size=0`` ended in a numpy traceback;
        ``n_folds`` 0 and -2 ran no fold and fitted the grid's first pair."""
        train, hold = mix_files
        assert run("fit-eval", "--method", "kernel-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "k.csv", "--set", setting,
                   "--checkpoints", "100", "--no-timing") == 2
        key = setting.partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {key} must be a whole number")


class TestResumeAndSnapshot:
    """Where a fit-eval run starts and snapshots is ``run_eval``'s to
    decide, and only a method that can resume may ask for either."""

    @pytest.fixture
    def snap(self, mix_files, tmp_path):
        train, hold = mix_files
        path = tmp_path / "at100.snap"
        assert run("fit-eval", "--method", "cover-cde", "--train", train, "--holdout", hold,
                   "--checkpoints", "100", "--snapshot-at", 100, "--snapshot-out", path,
                   "--out", tmp_path / "first.csv") == 0
        return path

    def test_a_resume_parses_the_snapshot_once(self, mix_files, snap, tmp_path, monkeypatch):
        train, hold = mix_files
        calls = []
        load = CdeModel.from_text.__func__

        def counted(cls, text):
            calls.append(text)
            return load(cls, text)

        monkeypatch.setattr(CdeModel, "from_text", classmethod(counted))
        assert run("fit-eval", "--method", "cover-cde", "--train", train, "--holdout", hold,
                   "--checkpoints", "200", "--resume", snap, "--out", tmp_path / "r.csv") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("method, data", [("cover-cde", "gauss-mix"), ("vmm", "markov")])
    def test_a_resumed_run_writes_the_uninterrupted_records(self, method, data, tmp_path):
        """The resumed run's records CSV holds the uninterrupted run's
        lines after the snapshot, byte for byte; a resumed vmm needs no
        option, since the snapshot brings its settings."""
        train, hold = tmp_path / "train", tmp_path / "hold"
        assert run("gen", "--dataset", data, "--n", 200, "--seed", 1, "--out", train) == 0
        assert run("gen", "--dataset", data, "--n", 60, "--seed", 2, "--out", hold) == 0
        base = ("fit-eval", "--method", method, "--train", train, "--holdout", hold,
                "--no-timing", "--checkpoints", "50,100,150,200")
        opts = ("--set", "alphabet_size=2") if method == "vmm" else ()
        full, part, rest = tmp_path / "full.csv", tmp_path / "part.csv", tmp_path / "rest.csv"
        snap = tmp_path / "m.snap"
        assert run(*base, *opts, "--out", full) == 0
        assert run(*base, *opts, "--snapshot-at", 120, "--snapshot-out", snap, "--out", part) == 0
        assert run(*base, "--resume", snap, "--out", rest) == 0
        assert part.read_bytes() == full.read_bytes()
        lines = full.read_bytes().splitlines(keepends=True)
        assert rest.read_bytes() == b"".join(lines[:1] + lines[-2:])

    @pytest.mark.parametrize(
        "at, checkpoints", [(150, "100"), (201, None), (-3, "100,200")],
        ids=["past-the-last-checkpoint", "past-the-stream", "negative"],
    )
    def test_a_snapshot_row_the_run_never_reaches_exits_2(
        self, at, checkpoints, mix_files, tmp_path, capsys
    ):
        """Each exited 0 and wrote no snapshot."""
        train, hold = mix_files
        out, snap = tmp_path / "x.csv", tmp_path / "m.snap"
        cps = ("--checkpoints", checkpoints) if checkpoints else ()
        assert run("fit-eval", "--method", "cover-cde", "--train", train, "--holdout", hold,
                   *cps, "--snapshot-at", at, "--snapshot-out", snap, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: snapshot row {at} ")
        assert not snap.exists() and not out.exists()

    def test_a_resume_with_no_checkpoint_after_its_row_exits_2(
        self, mix_files, snap, tmp_path, capsys
    ):
        """It exited 0 and wrote a CSV that held only the header."""
        train, hold = mix_files
        out = tmp_path / "r.csv"
        assert run("fit-eval", "--method", "cover-cde", "--train", train, "--holdout", hold,
                   "--checkpoints", "50,100", "--resume", snap, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: no checkpoint lies after row 100")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["kernel-cde", "global-nw", "constant"])
    @pytest.mark.parametrize(
        "flags", [("--resume",), ("--snapshot-at", "--snapshot-out"), ("--snapshot-at",),
                  ("--snapshot-out",)]
    )
    def test_a_method_that_cannot_resume_refuses_the_snapshot_flags(
        self, method, flags, mix_files, snap, tmp_path, capsys
    ):
        """``--resume`` ended in an uncaught AttributeError for each, and
        ``--snapshot-at`` with global-nw did so after training, leaving an
        empty snapshot file."""
        train, hold = mix_files
        out, new_snap = tmp_path / "x.csv", tmp_path / "new.snap"
        values = {"--resume": snap, "--snapshot-at": 100, "--snapshot-out": new_snap}
        args = [a for flag in flags for a in (flag, values[flag])]
        assert run("fit-eval", "--method", method, "--train", train, "--holdout", hold,
                   "--checkpoints", "200", *args, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if len(flags) == 2 or flags == ("--resume",):
            assert err == f"error: {method} cannot resume or write a snapshot\n"
        assert not out.exists() and not new_snap.exists()

    @pytest.mark.parametrize("method", ["cover-cde", "kernel-cde", "global-nw", "constant", "vmm"])
    def test_resume_text_is_not_an_option(self, method, mix_files, tmp_path, capsys):
        train, hold = mix_files
        opts = ("--set", "alphabet_size=2") if method == "vmm" else ()
        if method == "vmm":
            train = hold = tmp_path / "seq.txt"
            assert run("gen", "--dataset", "markov", "--n", 100, "--out", train) == 0
        assert run("fit-eval", "--method", method, "--train", train, "--holdout", hold,
                   *opts, "--set", "resume_text=x", "--out", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown {method} option(s): ['resume_text']\n"


class TestCompare:
    def test_default_methods(self, mix_files, tmp_path):
        train, hold = mix_files
        out = tmp_path / "cmp.csv"
        assert run("compare", "--train", train, "--holdout", hold, "--out", out,
                   "--checkpoints", "200", "--no-timing") == 0
        recs = read_records_csv(out)
        assert [r.method for r in recs] == ["cover-cde", "kernel-cde", "global-nw"]
        assert all(np.isfinite(r.loss) for r in recs)

    def test_multiple_methods_one_csv(self, mix_files, tmp_path):
        train, hold = mix_files
        out = tmp_path / "cmp.csv"
        code = run("compare", "--methods", "cover-cde,global-nw,constant",
                   "--train", train, "--holdout", hold, "--out", out,
                   "--checkpoints", "100,200", "--no-timing")
        assert code == 0
        recs = read_records_csv(out)
        assert {r.method for r in recs} == {"cover-cde", "global-nw", "constant"}
        assert len(recs) == 6

    @pytest.mark.parametrize(
        "item,message",
        [
            ("cover-cde=3", "cover-cde options must be a JSON object"),
            ("no_such_option=3", "compare takes options under a method's name"),
        ],
    )
    def test_an_option_not_in_an_object_under_a_method_is_refused(
        self, mix_files, tmp_path, capsys, item, message
    ):
        """The first ended in a ``TypeError`` traceback, and the second
        was ignored."""
        train, hold = mix_files
        out = tmp_path / "cmp.csv"
        code = run("compare", "--train", train, "--holdout", hold, "--set", item,
                   "--out", out, "--checkpoints", "200", "--no-timing")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()


class TestScore:
    def test_matches_reference_mixer(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        assert run("gen", "--dataset", "markov", "--n", 120, "--seed", 5,
                   "--out", seq) == 0
        assert run("score", "--file", seq, "--depth", 3, "--oracle") == 0
        text = capsys.readouterr().out
        diff = [l for l in text.splitlines() if l.startswith("difference=")]
        assert diff and abs(float(diff[0].split("=")[1])) < 1e-9

    def test_an_oracle_too_large_to_enumerate_exits_1(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        seq.write_text("0 1 1 0\n")
        assert run("score", "--file", seq, "--depth", 7, "--oracle") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at depth 5 of 6 exceed cap 100000" in err

    @pytest.mark.parametrize("flag", [None, "--train", "--holdout"])
    def test_a_symbol_outside_the_alphabet_exits_2(self, flag, tmp_path, capsys):
        """Like a token that is not a symbol, it is an input problem; the
        message names the line and the symbol, not its numpy form."""
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad.write_text("0 1 5 1\n")
        good.write_text("0 1 1 0 1\n")
        if flag is None:
            code = run("score", "--file", bad, "--alphabet", 2)
        else:
            files = {"--train": good, "--holdout": good, flag: bad}
            code = run("fit-eval", "--method", "vmm", "--set", "alphabet_size=2",
                       "--train", files["--train"], "--holdout", files["--holdout"],
                       "--out", tmp_path / "r.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: line 1: symbol 5 not in alphabet of size 2\n"


class TestSample:
    def test_from_vmm_snapshot(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        snap = tmp_path / "m.snap"
        assert run("gen", "--dataset", "markov", "--n", 200, "--seed", 7,
                   "--out", seq) == 0
        assert run("fit-eval", "--method", "vmm", "--train", seq,
                   "--holdout", seq, "--out", tmp_path / "v.csv",
                   "--set", "alphabet_size=2", "--set", "depth=3",
                   "--checkpoints", "200", "--no-timing",
                   "--snapshot-at", "200", "--snapshot-out", snap) == 0
        capsys.readouterr()
        assert run("sample", "--snapshot", snap, "--n", 15, "--seed", 1) == 0
        symbols = capsys.readouterr().out.split()
        assert len(symbols) == 15 and set(symbols) <= {"0", "1"}

    def test_from_cde_snapshot_needs_x(self, mix_files, tmp_path, capsys):
        train, hold = mix_files
        snap = tmp_path / "c.snap"
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", tmp_path / "e.csv",
                   "--checkpoints", "200", "--no-timing",
                   "--snapshot-at", "200", "--snapshot-out", snap) == 0
        assert run("sample", "--snapshot", snap, "--n", 3) == 2  # no --x
        capsys.readouterr()
        assert run("sample", "--snapshot", snap, "--x", "0.5", "--n", 3,
                   "--seed", 2) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        float(rows[0])  # parses as a number

    @pytest.mark.parametrize("kind", ["cde", "vmm"])
    def test_a_negative_count_exits_2(self, kind, tmp_path, capsys):
        """``--n -3`` printed an empty line and exited 0."""
        if kind == "cde":
            model, x = new_cde([0.0], [1.0], [0.0], [1.0]), ["--x", "0.5"]
            model.absorb([0.5], [0.5])
        else:
            model, x = VmmModel(2, 3), []
            model.fit_sequence([0, 1, 1])
        snap = tmp_path / "m.snap"
        snap.write_text(model.to_text())
        assert run("sample", "--snapshot", snap, *x, "--n", -3) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "whole number" in err
        assert run("sample", "--snapshot", snap, *x, "--n", 0) == 0

    @pytest.mark.parametrize("case", ["x-not-a-number", "snapshot-not-json", "snapshot-empty"])
    def test_bad_input_exits_2(self, case, tmp_path, capsys):
        model = new_cde([0.0], [1.0], [0.0], [1.0])
        model.absorb([0.5], [0.5])
        text, x = {
            "x-not-a-number": (model.to_text(), "abc"),
            "snapshot-not-json": ("not json\n", "0.5"),
            "snapshot-empty": ("", "0.5"),
        }[case]
        snap = tmp_path / "m.snap"
        snap.write_text(text)
        assert run("sample", "--snapshot", snap, "--x", x) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestUndecodableFiles:
    """A file that is not UTF-8 text is a usage error: exit 2 with one
    ``error:`` line, for every file the CLI reads as text."""

    @pytest.fixture
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\xff\xfe\x00")
        return path

    @pytest.fixture
    def symbols(self, tmp_path):
        train, hold = tmp_path / "train.txt", tmp_path / "hold.txt"
        assert run("gen", "--dataset", "markov", "--n", 40, "--out", train) == 0
        assert run("gen", "--dataset", "markov", "--n", 20, "--seed", 1, "--out", hold) == 0
        return train, hold

    def _assert_usage_error(self, code, capsys, garbage):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(garbage) in err

    def test_sample_snapshot(self, garbage, capsys):
        code = run("sample", "--snapshot", garbage)
        self._assert_usage_error(code, capsys, garbage)

    def test_fit_eval_resume(self, garbage, symbols, tmp_path, capsys):
        train, hold = symbols
        code = run("fit-eval", "--method", "vmm", "--train", train, "--holdout", hold,
                   "--resume", garbage, "--out", tmp_path / "r.csv")
        self._assert_usage_error(code, capsys, garbage)

    def test_config_file(self, garbage, symbols, tmp_path, capsys):
        train, hold = symbols
        code = run("fit-eval", "--method", "vmm", "--train", train, "--holdout", hold,
                   "--config", garbage, "--out", tmp_path / "r.csv")
        self._assert_usage_error(code, capsys, garbage)


    @pytest.mark.parametrize("flag", ["--train", "--holdout"])
    @pytest.mark.parametrize("method, dataset", [("vmm", "markov"), ("constant", "gauss-mix")])
    def test_data_files(self, method, dataset, flag, garbage, tmp_path, capsys):
        files = {}
        for seed, name in enumerate(("--train", "--holdout")):
            path = tmp_path / f"{name[2:]}.data"
            assert run("gen", "--dataset", dataset, "--n", 40, "--seed", seed, "--out", path) == 0
            files[name] = garbage if name == flag else path
        code = run("fit-eval", "--method", method, "--train", files["--train"],
                   "--holdout", files["--holdout"], "--out", tmp_path / "r.csv")
        self._assert_usage_error(code, capsys, garbage)

    def test_score_file(self, garbage, capsys):
        code = run("score", "--file", garbage)
        self._assert_usage_error(code, capsys, garbage)


class TestConfigPlumbing:
    def test_config_file_and_overrides(self, mix_files, tmp_path):
        train, hold = mix_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nalpha = 4.0\ncomponents = [\"nw\"]\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"alpha": 4.0, "components": ["nw"]}
        out = tmp_path / "ev.csv"
        assert run("fit-eval", "--method", "cover-cde", "--train", train,
                   "--holdout", hold, "--out", out, "--config", cfg,
                   "--set", "alpha=3.0", "--checkpoints", "200",
                   "--no-timing") == 0
        meta = json.loads((tmp_path / "ev.csv.meta").read_text())
        assert meta["config"]["alpha"] == 3.0  # --set wins over the file

    def test_bad_config_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 2.0\nnot a pair\n")
        from covermodels import ParseError

        with pytest.raises(ParseError) as ei:
            parse_config_file(cfg)
        assert ei.value.line == 2

    def test_out_dir_env(self, mix_files, tmp_path, monkeypatch):
        train, hold = mix_files
        dest = tmp_path / "artifacts"
        dest.mkdir()
        monkeypatch.setenv("COVERMODELS_OUT", str(dest))
        assert run("fit-eval", "--method", "constant", "--train", train,
                   "--holdout", hold, "--out", "ev.csv",
                   "--checkpoints", "200", "--no-timing") == 0
        assert (dest / "ev.csv").exists()
        assert (dest / "ev.csv.meta").exists()
