"""Tests for the simulate CLI and the flat config-file format."""

import csv
import ctypes
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from ltelink import cli
from ltelink.channel import MIN_SNR_DB
from ltelink.cli import build_parser, main, parse_config_file, sweep_config_from_sources
from ltelink.grid import Constellation, SystemConfig
from ltelink.harness import CSV_HEADER, Estimator, SweepConfig

# the range parser's message for a non-finite a, b or step, or a step that is not positive
FINITE_RANGE = "a:b:step needs finite a and b and a finite step > 0"


def _args(extra):
    return build_parser().parse_args(["simulate", *extra])


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestConfigFile:
    def test_parse_key_values_and_comments(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            """
            # experiment setup
            bandwidth_mhz = 5   # Table profile
            n_used = 300
            cp_len = 16
            n_tx = 2
            n_rx = 2
            constellation = qpsk
            channel_lengths = 6,10
            snr_grid_db = 0,5,10
            n_frames = 7
            seed = 99
            estimators = ls,lmmse
            threshold_db = 12.5
            """
        )
        values = parse_config_file(path)
        assert values["seed"] == 99
        cfg = sweep_config_from_sources(values, _args([]))
        assert cfg.system.n_fft == 512
        assert cfg.system.constellation is Constellation.QPSK
        assert cfg.channel_lengths == (6, 10)
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0)
        assert cfg.n_frames == 7
        assert cfg.seed == 99
        assert cfg.estimators == (Estimator.LS, Estimator.LMMSE)
        assert cfg.threshold_db == 12.5

    def test_snr_range_in_the_file(self, tmp_path):
        path = tmp_path / "range.cfg"
        path.write_text("snr_grid_db = 0:30:5\n")
        cfg = sweep_config_from_sources(parse_config_file(path), _args([]))
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_enum_values_are_case_insensitive(self, tmp_path):
        # the constellation and the estimators share one parser
        path = tmp_path / "upper.cfg"
        path.write_text("constellation = QAM16\nestimators = LS, Perfect\n")
        cfg = sweep_config_from_sources(parse_config_file(path), _args([]))
        assert cfg.system.constellation is Constellation.QAM16
        assert cfg.estimators == (Estimator.LS, Estimator.PERFECT)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frames = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_bandwidth_alone_selects_its_profile(self, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text("bandwidth_mhz = 10\n")
        cfg = sweep_config_from_sources(parse_config_file(path), _args([]))
        assert cfg.system == SystemConfig.from_profile(10.0)
        assert (cfg.system.n_fft, cfg.system.n_used) == (1024, 600)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_frames 3\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)


class TestFlagMerging:
    def test_config_keys_name_their_fields_and_flag_dests(self):
        settings = {f.name for f in fields(SystemConfig)} | {f.name for f in fields(SweepConfig)}
        assert set(cli._CONFIG_KEYS) <= settings
        run_options = {"command", "config", "calibrate_threshold", "out", "summary"}
        assert set(vars(_args([]))) - run_options <= set(cli._CONFIG_KEYS)

    def test_each_value_flag_parses_as_its_config_key(self):
        samples = {
            "snr_grid_db": ["-5:5:5", "10,0", "0:13:5", "inf"],
            "channel_lengths": ["40,6"],
            "n_frames": ["3"],
            "seed": ["123"],
            "estimators": ["perfect,LS"],
            "threshold_db": ["-inf", "12.5"],
        }
        sim = build_parser()._subparsers._group_actions[0].choices["simulate"]
        flags = {a.dest: a.option_strings[0] for a in sim._actions if a.dest in cli._CONFIG_KEYS}
        assert set(flags) == set(samples)
        for dest, flag in flags.items():
            for text in samples[dest]:
                assert getattr(_args([flag, text]), dest) == cli._CONFIG_KEYS[dest](text)

    def test_snr_list_on_the_flag(self):
        cfg = sweep_config_from_sources({}, _args(["--snr", "10,0"]))
        assert cfg.snr_grid_db == (0.0, 10.0)
        assert _args(["--snr", "-5,0"]).snr_grid_db == (-5.0, 0.0)

    def test_defaults_without_config(self):
        cfg = sweep_config_from_sources({}, _args([]))
        assert cfg.channel_lengths == (6, 10, 20, 40)
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert cfg.n_frames == 100
        assert cfg.seed == 42
        assert cfg.estimators == (
            Estimator.LS,
            Estimator.LMMSE,
            Estimator.HYBRID,
            Estimator.PERFECT,
        )

    def test_flags_override_file(self):
        file_values = {"n_frames": 7, "seed": 1, "channel_lengths": (6,)}
        args = _args(["--frames", "3", "--seed", "123", "--channel-lengths", "10,20"])
        cfg = sweep_config_from_sources(file_values, args)
        assert cfg.n_frames == 3
        assert cfg.seed == 123
        assert cfg.channel_lengths == (10, 20)

    def test_snr_range_parsing(self):
        cfg = sweep_config_from_sources({}, _args(["--snr", "0:30:5"]))
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        cfg = sweep_config_from_sources({}, _args(["--snr", "2:8:3"]))
        assert cfg.snr_grid_db == (2.0, 5.0, 8.0)
        # a stop off the grid is not passed
        cfg = sweep_config_from_sources({}, _args(["--snr", "0:13:5"]))
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0)
        cfg = sweep_config_from_sources({}, _args(["--snr=-5:8:5"]))
        assert cfg.snr_grid_db == (-5.0, 0.0, 5.0)
        # a stop that rounding puts just past the last point is kept
        cfg = sweep_config_from_sources({}, _args(["--snr", "0:0.3:0.1"]))
        assert len(cfg.snr_grid_db) == 4

    def test_negative_snr_range_parses_after_a_space(self):
        spaced, joined = _args(["--snr", "-5:30:5"]), _args(["--snr=-5:30:5"])
        assert spaced == joined == _args(["--sn", "-5:30:5"])
        cfg = sweep_config_from_sources({}, spaced)
        assert cfg.snr_grid_db == (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_minus_inf_threshold_parses_after_a_space(self):
        spaced, joined = _args(["--threshold-db", "-inf"]), _args(["--threshold-db=-inf"])
        assert spaced == joined == _args(["--threshold", "-inf"])
        assert sweep_config_from_sources({}, spaced).threshold_db == -math.inf
        with pytest.raises(SystemExit):  # an option after it is not its value
            _args(["--threshold-db", "--calibrate-threshold"])

    def test_estimator_parsing(self):
        cfg = sweep_config_from_sources({}, _args(["--estimators", "perfect,ls"]))
        assert set(cfg.estimators) == {Estimator.LS, Estimator.PERFECT}
        with pytest.raises(SystemExit):  # argparse reports the unknown name
            _args(["--estimators", "mmse"])

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            (
                "--estimators",
                "foo",
                "unknown estimator 'foo'; choose from ls, lmmse, hybrid, perfect",
            ),
            ("--channel-lengths", "6,x", "invalid literal for int() with base 10: 'x'"),
            ("--snr", "a:b:c", "could not convert string to float: 'a'"),
            ("--frames", "3x", "invalid literal for int() with base 10: '3x'"),
            ("--seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
            ("--threshold-db", "high", "could not convert string to float: 'high'"),
            ("--snr", "0:inf:5", f"{FINITE_RANGE}, got '0:inf:5'"),
            ("--snr", "nan:30:5", f"{FINITE_RANGE}, got 'nan:30:5'"),
            ("--snr", "0:30:-5", f"{FINITE_RANGE}, got '0:30:-5'"),
            ("--snr", "0:1e300:1", "the range '0:1e300:1' has too many points to build"),
        ],
        ids=[
            "estimators",
            "channel-lengths",
            "snr",
            "frames",
            "seed",
            "threshold-db",
            "snr-infinite-end",
            "snr-nan-start",
            "snr-negative-step",
            "snr-too-many-points",
        ],
    )
    def test_bad_flag_value_reports_its_parser_message(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            _args([flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    def test_snr_range_numpy_cannot_allocate_is_a_usage_error(self, monkeypatch, capsys):
        # a range such as 0:1e12:1 asks numpy for terabytes; stand in for that
        # MemoryError rather than ask for them
        def arange(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "arange", arange)
        with pytest.raises(SystemExit) as exc:
            _args(["--snr", "0:1e12:1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --snr: the range '0:1e12:1' has too many points to build" in err

    def test_calibrate_flag_clears_file_threshold(self):
        cfg = sweep_config_from_sources(
            {"threshold_db": 9.0}, _args(["--calibrate-threshold"])
        )
        assert cfg.threshold_db is None

    def test_threshold_flag_and_calibrate_are_exclusive(self):
        with pytest.raises(SystemExit):
            _args(["--threshold-db", "5", "--calibrate-threshold"])


class TestMain:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main(
            [
                "simulate",
                "--channel-lengths",
                "6",
                "--snr",
                "0:10:10",
                "--frames",
                "2",
                "--seed",
                "3",
                "--estimators",
                "ls,perfect",
                "--out",
                str(out),
                "--summary",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        captured = capsys.readouterr()
        assert "mse_all" in captured.out

    def test_config_file_drives_run(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "channel_lengths = 6\nsnr_grid_db = 5\nn_frames = 1\nseed = 4\n"
            "estimators = perfect\n"
        )
        out = tmp_path / "r.csv"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("5,6,perfect,")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ltelink",
                "simulate",
                "--channel-lengths",
                "6",
                "--snr",
                "10:10:5",
                "--frames",
                "1",
                "--estimators",
                "perfect",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_bad_config_path_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(tmp_path / "missing.cfg")])

    def test_more_transmit_than_receive_antennas_is_a_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "2x1.cfg"
        cfgfile.write_text("n_tx = 2\nn_rx = 1\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "n_tx=2 exceeds n_rx=1" in capsys.readouterr().err
        assert not out.exists()

    def test_hybrid_without_finite_snr_is_a_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "inf.cfg"
        cfgfile.write_text("snr_grid_db = inf\n")
        out = tmp_path / "never.csv"
        argv = ["simulate", "--config", str(cfgfile), "--channel-lengths", "40", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "without finite SNRs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["n_fft = 1024", "n_symbols_per_slot = 6"])
    def test_derived_settings_are_unknown_keys(self, tmp_path, capsys, line):
        # the FFT size follows from the bandwidth and the slot has 7 symbols
        cfgfile = tmp_path / "derived.cfg"
        cfgfile.write_text(f"bandwidth_mhz = 10\n{line}\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_used = 300.0", "invalid literal for int() with base 10: '300.0'"),
            ("n_frames = 3x", "invalid literal for int() with base 10: '3x'"),
            ("snr_grid_db = 0,abc", "could not convert string to float: 'abc'"),
            ("constellation = qam64", "unknown constellation 'qam64'; choose from qpsk, qam16"),
            ("snr_grid_db = 0:30:inf", f"{FINITE_RANGE}, got '0:30:inf'"),
            ("snr_grid_db = 0:1e300:1", "the range '0:1e300:1' has too many points to build"),
        ],
        ids=[
            "n_used",
            "n_frames",
            "snr_grid_db",
            "constellation",
            "snr_grid_db-infinite-step",
            "snr_grid_db-too-many-points",
        ],
    )
    def test_bad_config_value_names_its_key_and_file(self, tmp_path, capsys, line, message):
        cfgfile = tmp_path / "bad_value.cfg"
        cfgfile.write_text(f"seed = 3\n{line}\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        key = line.split(" = ")[0]
        assert f"ltelink: error: {cfgfile}:2: {key}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_is_a_usage_error(self, tmp_path, capsys):
        # a second value would silently replace the first; the error names the
        # file and both lines, whatever the spelling of the key
        cfgfile = tmp_path / "repeated.cfg"
        cfgfile.write_text("seed = 1\n# comment\nn_frames = 1\nSEED = 2\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"ltelink: error: {cfgfile}:4: seed is already set on line 1" in err
        assert not out.exists()

    def test_minus_inf_snr_is_a_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "minus_inf.cfg"
        cfgfile.write_text("snr_grid_db = -inf,0\nchannel_lengths = 6\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "-inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-4000", "-3100", "-3080", "-1000.001"])
    def test_snr_without_a_finite_noise_level_is_a_usage_error(self, tmp_path, capsys, snr):
        # past the float range the noise variance is inf or a division by zero;
        # the sweep would fail in its first cell.  Nearer, below MIN_SNR_DB,
        # the noise overflows the receiver's sums: at -3080 dB an LS MSE was inf
        out = tmp_path / "never.csv"
        argv = ["simulate", f"--snr={snr}", "--frames", "1", "--channel-lengths", "6"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--estimators", "ls", "--out", str(out)])
        assert exc.value.code == 2
        assert f"ltelink: error: invalid snr_db: {float(snr)}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_at_the_lowest_snr_writes_finite_mses(self, tmp_path):
        # MIN_SNR_DB's noise variance, 1e100, overflows nothing in a cell past
        # the CP or within it: under -W error an overflow warning ends the run
        out = tmp_path / "floor.csv"
        argv = ["simulate", f"--snr={MIN_SNR_DB:g}", "--channel-lengths", "6,40", "--frames", "1"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ltelink", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 * 4
        mse = [float(r[c]) for r in rows for c in ("mse_all_subcarriers", "mse_pilot_subcarriers")]
        assert all(math.isfinite(v) for v in mse), mse

    def test_repeated_snr_is_a_usage_error(self, tmp_path, capsys):
        # the parser sorts the grid; a repeat would write two rows per cell
        cfgfile = tmp_path / "repeat.cfg"
        cfgfile.write_text(
            "snr_grid_db = 10, 10\nn_frames = 1\nchannel_lengths = 6\nestimators = ls\n"
        )
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert exc.value.code == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "-1", "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "ltelink: error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_fewer_than_two_pilots_per_port_is_a_usage_error(self, tmp_path, capsys):
        # n_used = 3 leaves one subcarrier on the every-third pilot comb
        cfgfile = tmp_path / "narrow.cfg"
        cfgfile.write_text("n_used = 3\n")
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfgfile), "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "two pilot subcarriers" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_cyclic_prefix_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the LMMSE prior keeps the first cp_len taps, so a CP of 0 leaves it
        # none; the default estimators include lmmse and the hybrid
        def refuse(config):
            raise AssertionError("the sweep started with cp_len = 0")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        cfgfile = tmp_path / "no_cp.cfg"
        cfgfile.write_text("cp_len = 0\n")
        out = tmp_path / "never.csv"
        argv = ["simulate", "--config", str(cfgfile), "--frames", "1"]
        argv += ["--channel-lengths", "1,4", "--snr", "0:10:10", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "need cp_len >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_channel_longer_than_the_fft_is_a_usage_error(self, tmp_path, capsys):
        # 5 MHz has a 512-point FFT; taps at delay >= 512 would alias
        out = tmp_path / "never.csv"
        argv = ["simulate", "--channel-lengths", "6,520", "--frames", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "exceeds the FFT size 512" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing_dir/x.csv", "."], ids=["missing-dir", "a-directory"])
    def test_unwritable_output_path_is_a_usage_error_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, out
    ):
        def refuse(config):
            raise AssertionError("the sweep started although its output cannot be written")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        out = tmp_path / out
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--frames", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out} is not a file path" in capsys.readouterr().err
        assert not (tmp_path / "missing_dir").exists()

    def test_write_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the output directory disappears while the sweep runs
        out_dir = tmp_path / "gone"
        out_dir.mkdir()
        monkeypatch.setattr(cli, "run_sweep", lambda config: out_dir.rmdir() or [])
        assert main(["simulate", "--frames", "1", "--out", str(out_dir / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ltelink: error: failed to write CSV to {out_dir / 'x.csv'}")
        assert err.count("\n") == 1


class TestHeapPolicy:
    """main keeps glibc's freed heap across chunks; results never depend on it."""

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_a_second_sweep_reuses_the_heap_of_the_first(self, tmp_path):
        # glibc's default policy trims the freed heap after each chunk and the
        # next chunk faults it back in: about 10,000 minor faults per 10-frame
        # sweep; with the heap kept, a second sweep faults in almost nothing
        script = (
            "import resource, sys\n"
            "from ltelink import cli\n"
            "argv = ['simulate', '--frames', '10', '--out', sys.argv[1]]\n"
            "cli.main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "cli.main(argv)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "r.csv")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 1000

    def test_csv_is_identical_without_mallopt(self, tmp_path, monkeypatch):
        argv = ["simulate", "--frames", "2", "--channel-lengths", "6,20", "--snr", "0:30:15"]
        assert main([*argv, "--out", str(tmp_path / "kept.csv")]) == 0
        lookups = []

        def no_libc(name, *args, **kwargs):
            lookups.append(name)
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert main([*argv, "--out", str(tmp_path / "default.csv")]) == 0
        assert lookups == [None]
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()
