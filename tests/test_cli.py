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

    def test_estimator_parsing(self):
        cfg = sweep_config_from_sources({}, _args(["--estimators", "perfect,ls"]))
        assert set(cfg.estimators) == {Estimator.LS, Estimator.PERFECT}

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

    @pytest.mark.parametrize("snr", ["-0,10", "-0:10:5"], ids=["list", "range"])
    def test_minus_zero_snr_is_written_as_zero(self, tmp_path, snr):
        # -0.0 would print as -0, a second spelling of 0 dB
        out = tmp_path / "zero.csv"
        argv = ["simulate", f"--snr={snr}", "--frames", "1", "--channel-lengths", "6"]
        assert main([*argv, "--estimators", "ls", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[0] == "0"

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

    def test_write_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the output directory disappears while the sweep runs
        out_dir = tmp_path / "gone"
        out_dir.mkdir()
        monkeypatch.setattr(cli, "run_sweep", lambda config: out_dir.rmdir() or [])
        assert main(["simulate", "--frames", "1", "--out", str(out_dir / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ltelink: error: failed to write CSV to {out_dir / 'x.csv'}")
        assert err.count("\n") == 1


# (id, config-file text or None, flags, stderr text) of each input `ltelink
# simulate` refuses; {cfg} in the text is the config file, {tmp} the test's
# directory
REFUSALS = [
    # a flag's parser fails: argparse names the flag and prints the parser's message
    ("estimators", None, ["--estimators", "foo"],
     "argument --estimators: unknown estimator 'foo'; choose from ls, lmmse, hybrid, perfect"),
    ("estimators-mmse", None, ["--estimators", "mmse"],
     "argument --estimators: unknown estimator 'mmse'; choose from ls, lmmse, hybrid, perfect"),
    ("channel-lengths", None, ["--channel-lengths", "6,x"],
     "argument --channel-lengths: invalid literal for int() with base 10: 'x'"),
    ("snr", None, ["--snr", "a:b:c"], "argument --snr: could not convert string to float: 'a'"),
    ("frames", None, ["--frames", "3x"],
     "argument --frames: invalid literal for int() with base 10: '3x'"),
    ("seed", None, ["--seed", "1.5"],
     "argument --seed: invalid literal for int() with base 10: '1.5'"),
    ("threshold-db", None, ["--threshold-db", "high"],
     "argument --threshold-db: could not convert string to float: 'high'"),
    ("snr-infinite-end", None, ["--snr", "0:inf:5"],
     f"argument --snr: {FINITE_RANGE}, got '0:inf:5'"),
    ("snr-nan-start", None, ["--snr", "nan:30:5"],
     f"argument --snr: {FINITE_RANGE}, got 'nan:30:5'"),
    ("snr-negative-step", None, ["--snr", "0:30:-5"],
     f"argument --snr: {FINITE_RANGE}, got '0:30:-5'"),
    ("snr-too-many-points", None, ["--snr", "0:1e300:1"],
     "argument --snr: the range '0:1e300:1' has too many points to build"),
    ("snr-range-without-step", None, ["--snr", "0:30"],
     "argument --snr: expected a:b:step, got '0:30'"),
    # an option after --threshold-db is not its value
    ("threshold-db-then-an-option", None, ["--threshold-db", "--calibrate-threshold"],
     "argument --threshold-db: expected one argument"),
    ("threshold_flag_and_calibrate_are_exclusive", None,
     ["--threshold-db", "5", "--calibrate-threshold"],
     "argument --calibrate-threshold: not allowed with argument --threshold-db"),
    ("bad_config_path_errors_cleanly", None, ["--config", "{tmp}/missing.cfg"],
     "ltelink: error: [Errno 2] No such file or directory: '{tmp}/missing.cfg'"),
    # the FFT size follows from the bandwidth and the slot has 7 symbols
    ("n_fft = 1024", "bandwidth_mhz = 10\nn_fft = 1024\n", [],
     "ltelink: error: {cfg}:2: unknown config key 'n_fft'"),
    ("n_symbols_per_slot = 6", "bandwidth_mhz = 10\nn_symbols_per_slot = 6\n", [],
     "ltelink: error: {cfg}:2: unknown config key 'n_symbols_per_slot'"),
    # a bad value in the file names its file, line and key
    ("n_used", "seed = 3\nn_used = 300.0\n", [],
     "ltelink: error: {cfg}:2: n_used: invalid literal for int() with base 10: '300.0'"),
    ("n_frames", "seed = 3\nn_frames = 3x\n", [],
     "ltelink: error: {cfg}:2: n_frames: invalid literal for int() with base 10: '3x'"),
    ("snr_grid_db", "seed = 3\nsnr_grid_db = 0,abc\n", [],
     "ltelink: error: {cfg}:2: snr_grid_db: could not convert string to float: 'abc'"),
    ("constellation", "seed = 3\nconstellation = qam64\n", [],
     "ltelink: error: {cfg}:2: constellation: unknown constellation 'qam64'; "
     "choose from qpsk, qam16"),
    ("snr_grid_db-infinite-step", "seed = 3\nsnr_grid_db = 0:30:inf\n", [],
     f"ltelink: error: {{cfg}}:2: snr_grid_db: {FINITE_RANGE}, got '0:30:inf'"),
    ("snr_grid_db-too-many-points", "seed = 3\nsnr_grid_db = 0:1e300:1\n", [],
     "ltelink: error: {cfg}:2: snr_grid_db: the range '0:1e300:1' has too many points to build"),
    # a second value would silently replace the first, whatever the key's spelling
    ("repeated_key_is_a_usage_error", "seed = 1\n# comment\nn_frames = 1\nSEED = 2\n", [],
     "ltelink: error: {cfg}:4: seed is already set on line 1"),
    # the parser sorts the grid; a repeat would write two rows per cell
    ("repeated_snr_is_a_usage_error",
     "snr_grid_db = 10, 10\nn_frames = 1\nchannel_lengths = 6\nestimators = ls\n", [],
     "ltelink: error: snr grid must be strictly ascending"),
    ("minus_inf_snr_is_a_usage_error", "snr_grid_db = -inf,0\nchannel_lengths = 6\n", [],
     "ltelink: error: invalid snr_db: -inf"),
    # past the float range the noise variance is inf or a division by zero;
    # nearer, below MIN_SNR_DB, the noise overflows the receiver's sums: at
    # -3080 dB an LS MSE was inf
    *(
        (snr, None, [f"--snr={snr}", "--channel-lengths", "6", "--estimators", "ls"],
         f"ltelink: error: invalid snr_db: {float(snr)}")
        for snr in ("-4000", "-3100", "-3080", "-1000.001")
    ),
    ("negative_seed_is_a_usage_error", None, ["--seed", "-1"],
     "ltelink: error: seed must be non-negative, got -1"),
    ("more_transmit_than_receive_antennas_is_a_usage_error", "n_tx = 2\nn_rx = 1\n", [],
     "ltelink: error: n_tx=2 exceeds n_rx=1"),
    # n_used = 3 leaves one subcarrier on the every-third pilot comb
    ("fewer_than_two_pilots_per_port_is_a_usage_error", "n_used = 3\n", [],
     "ltelink: error: n_used must be in [4, n_fft) so every antenna port has two pilot "
     "subcarriers; got 3"),
    # the LMMSE prior keeps the first cp_len taps, so a CP of 0 leaves it none;
    # the default estimators include lmmse and the hybrid
    ("zero_cyclic_prefix_is_a_usage_error", "cp_len = 0\n",
     ["--channel-lengths", "1,4", "--snr", "0:10:10"],
     "ltelink: error: the lmmse and hybrid estimators need cp_len >= 1"),
    # 5 MHz has a 512-point FFT; taps at delay >= 512 would alias
    ("channel_longer_than_the_fft_is_a_usage_error", None, ["--channel-lengths", "6,520"],
     "ltelink: error: channel length 520 exceeds the FFT size 512"),
    ("hybrid_without_finite_snr_is_a_usage_error", "snr_grid_db = inf\n",
     ["--channel-lengths", "40"],
     "ltelink: error: no LS/LMMSE crossing to take a hybrid threshold from without finite SNRs"),
    # an output that cannot be written is refused before the sweep, not after it
    ("missing-dir", None, ["--out", "{tmp}/missing_dir/x.csv"],
     "ltelink: error: --out {tmp}/missing_dir/x.csv is not a file path"),
    ("a-directory", None, ["--out", "{tmp}"], "ltelink: error: --out {tmp} is not a file path"),
]


@pytest.mark.parametrize(
    "config, flags, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_refusal_is_a_usage_error_before_the_sweep(
    tmp_path, capsys, monkeypatch, config, flags, message
):
    def refuse(config):
        raise AssertionError("the sweep started on an input it refuses")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    cfgfile = tmp_path / "sweep.cfg"
    argv = ["simulate", "--out", str(tmp_path / "never.csv")]  # a row's own --out wins
    if config is not None:
        cfgfile.write_text(config)
        argv += ["--config", str(cfgfile)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(flag.format(tmp=tmp_path) for flag in flags)])
    assert exc.value.code == 2
    assert message.format(cfg=cfgfile, tmp=tmp_path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([cfgfile] if config is not None else [])


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
