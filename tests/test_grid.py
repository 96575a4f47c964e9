"""Tests for the resource grid: pilot pattern, slot fill, pilot extraction."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import DATA, NULL, PILOT, apply_channel, cell_labels, validate_grid

from ltelink.channel import ChannelRealization, PowerDelayProfile
from ltelink.grid import (
    Constellation,
    GridLayout,
    LTE_PROFILES,
    SystemConfig,
    build_pilot_pattern,
    random_pilot_sequence,
    used_subcarrier_bins,
)
from ltelink.ofdm import demodulate_frame, modulate_frame


def small_config(n_used=12, n_tx=1, **kw):
    return SystemConfig(n_used=n_used, n_tx=n_tx, **kw)


def fill_slot(cfg, pattern, data, pilots):
    """(values, layout) of one slot filled the way the trial chain fills it:
    the pilot sequence pilots, drawn in entries order, read on the comb."""
    layout = GridLayout.build(cfg, pattern)
    return layout.fill(data, pilots[pattern.entry_index]), layout


def extract_pilots(rx_grid, pattern, port):
    """Pilot observations of one port on the pilot comb, indexed the way the
    trial chain does."""
    sc = pattern.comb
    return rx_grid[pattern.entries[pattern.entry_index[port], 1], sc], sc


# every profile's default band and an odd band, with one and two ports
every_layout = pytest.mark.parametrize(
    "system, n_tx",
    [({"bandwidth_mhz": bw}, n) for bw in sorted(LTE_PROFILES) for n in (1, 2)]
    + [({"n_used": 301}, n) for n in (1, 2)],
    ids=[f"{bw}MHz-{n}" for bw in sorted(LTE_PROFILES) for n in (1, 2)]
    + [f"n_used301-{n}" for n in (1, 2)],
)


class TestSystemConfig:
    def test_default_matches_5mhz_profile(self):
        cfg = SystemConfig()
        assert (cfg.n_fft, cfg.n_used, cfg.cp_len) == (512, 300, 16)

    @pytest.mark.parametrize("bw", sorted(LTE_PROFILES))
    def test_from_profile_rows(self, bw):
        cfg = SystemConfig(bandwidth_mhz=bw)
        assert cfg == SystemConfig.from_profile(bw)
        assert (cfg.n_fft, cfg.n_used + 1) == LTE_PROFILES[bw]  # DC bin reserved

    def test_from_profile_keeps_overrides(self):
        cfg = SystemConfig.from_profile(10.0, cp_len=72)
        assert (cfg.n_fft, cfg.n_used, cfg.cp_len) == (1024, 600, 72)
        assert SystemConfig.from_profile(10.0, n_used=300).n_used == 300

    def test_rejects_unknown_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            SystemConfig(bandwidth_mhz=7.0)

    def test_rejects_bad_used_count(self):
        with pytest.raises(ValueError, match="n_used"):
            SystemConfig(n_used=512)

    @pytest.mark.parametrize("n_used", [0, 3])
    def test_rejects_fewer_than_two_pilots_per_port(self, n_used):
        # the comb is every third subcarrier: n_used=3 leaves one pilot
        with pytest.raises(ValueError, match="two pilot subcarriers"):
            SystemConfig(n_used=n_used)
        assert len(build_pilot_pattern(SystemConfig(n_used=4)).comb) == 2

    def test_rejects_bad_antenna_counts(self):
        with pytest.raises(ValueError, match="n_tx"):
            SystemConfig(n_tx=3)

    def test_rejects_unsupported_constellation(self):
        # a string is not a Constellation, even the value of a supported one
        for name in ("qam64", "qpsk"):
            with pytest.raises(ValueError, match="unsupported constellation"):
                SystemConfig(constellation=name)

    def test_rejects_more_transmit_than_receive_antennas(self):
        with pytest.raises(ValueError, match="n_tx=2 exceeds n_rx=1"):
            SystemConfig(n_tx=2, n_rx=1)
        assert SystemConfig(n_tx=1, n_rx=2).n_rx == 2

    def test_used_bins_centered_with_dc_null(self):
        bins = used_subcarrier_bins(SystemConfig())
        assert len(bins) == 300
        assert 0 not in bins  # DC reserved
        assert bins[0] == 512 - 150 and bins[149] == 511
        assert bins[150] == 1 and bins[-1] == 150

    def test_used_bins_are_computed_once_per_config_and_read_only(self):
        # every slot modulates and demodulates with them, so equal configs share
        # one array, and a caller cannot corrupt it for the others
        bins = used_subcarrier_bins(SystemConfig(bandwidth_mhz=10.0))
        assert used_subcarrier_bins(SystemConfig(bandwidth_mhz=10.0)) is bins
        assert not bins.flags.writeable
        with pytest.raises(ValueError):
            bins[0] = 0


class TestBuildPilotPattern:
    def test_single_port_combs_on_one_prb(self):
        # hand enumeration on 12 subcarriers: symbol 0 at {0, 6}, symbol 4 at {3, 9}
        pat = build_pilot_pattern(small_config())
        sym0 = sorted(pat.entries[pat.entries[:, 1] == 0][:, 0])
        sym4 = sorted(pat.entries[pat.entries[:, 1] == 4][:, 0])
        assert sym0 == [0, 6]
        assert sym4 == [3, 9]

    def test_second_port_offset_and_disjoint(self):
        pat = build_pilot_pattern(small_config(n_tx=2))
        port1_sym0 = sorted(
            pat.entries[(pat.entries[:, 2] == 1) & (pat.entries[:, 1] == 0)][:, 0]
        )
        assert port1_sym0 == [3, 9]
        res = {(sc, sym) for sc, sym, _ in pat.entries}
        assert len(res) == len(pat.entries)  # no RE used by more than one port

    @pytest.mark.parametrize("n_used", [12, 48, 300, 299])
    @pytest.mark.parametrize("n_tx", [1, 2])
    def test_each_re_belongs_to_at_most_one_port(self, n_used, n_tx):
        pat = build_pilot_pattern(small_config(n_used=n_used, n_tx=n_tx))
        res = [(sc, sym) for sc, sym, _ in pat.entries]
        assert len(res) == len(set(res))

    @pytest.mark.parametrize("n_used", [12, 60, 300])
    def test_pilot_density(self, n_used):
        # ceil(n_used/6) pilots per (pilot symbol, port), up to edge truncation
        pat = build_pilot_pattern(small_config(n_used=n_used, n_tx=2))
        target = -(-n_used // 6)
        for port in (0, 1):
            for sym in (0, 4):
                count = int(
                    ((pat.entries[:, 2] == port) & (pat.entries[:, 1] == sym)).sum()
                )
                assert count in (target, target - 1)

    def test_pilots_only_in_symbols_0_and_4(self):
        pat = build_pilot_pattern(small_config(n_used=300, n_tx=2))
        assert set(np.unique(pat.entries[:, 1])) == {0, 4}

    def test_entries_are_read_only(self):
        # one pattern per config, shared by every caller
        pat = build_pilot_pattern(small_config())
        assert build_pilot_pattern(small_config()) is pat
        for a in (pat.entries, pat.comb, pat.entry_index):
            with pytest.raises(ValueError):
                a.flat[0] = 99

    @every_layout
    def test_comb_is_every_third_subcarrier(self, system, n_tx):
        cfg = SystemConfig(n_tx=n_tx, **system)
        pat = build_pilot_pattern(cfg)
        subcarriers, entry_index = pat.comb, pat.entry_index
        assert np.array_equal(subcarriers, np.arange(0, cfg.n_used, 3))
        assert entry_index.shape == (n_tx, len(subcarriers))
        for port, row in enumerate(entry_index):
            assert np.array_equal(pat.entries[row, 0], subcarriers)
            assert np.all(pat.entries[row, 2] == port)
        # every entry appears once, so the pilot sequence is used as filled
        assert sorted(entry_index.ravel()) == list(range(pat.n_entries))

    @every_layout
    def test_pattern_is_a_valid_reference_signal_layout(self, system, n_tx):
        cfg = SystemConfig(n_tx=n_tx, **system)
        entries = build_pilot_pattern(cfg).entries
        sc, sym, port = entries.T
        assert entries.shape[1] == 3 and entries.dtype == np.int64
        assert 0 <= sc.min() and sc.max() < cfg.n_used
        assert set(sym) == {0, 4} and set(port) == set(range(n_tx))
        # sorted by (port, symbol, subcarrier): the pilot-sequence assignment
        assert np.array_equal(np.lexsort((sc, sym, port)), np.arange(len(entries)))
        # no two ports share a resource element
        assert len({(k, s) for k, s, _ in entries}) == len(entries)
        for p in range(n_tx):
            for s in (0, 4):
                ks = sc[(port == p) & (sym == s)]
                assert ks[0] < 6 and np.all(np.diff(ks) == 6)
                assert ks[-1] + 6 >= cfg.n_used  # the comb runs to the band edge


class TestMapToGrid:
    """GridLayout.fill, the one slot mapper of the trial chain."""

    def _mapped(self, n_used=12, n_tx=1, seed=0):
        cfg = small_config(n_used=n_used, n_tx=n_tx)
        pat = build_pilot_pattern(cfg)
        rng = np.random.default_rng(seed)
        pilots = random_pilot_sequence(pat.n_entries, rng)
        n_data = (cfg.n_used * cfg.n_symbols_per_slot * n_tx - len(pat.entries) * n_tx) // n_tx
        data = [
            rng.standard_normal(n_data) + 1j * rng.standard_normal(n_data)
            for _ in range(n_tx)
        ]
        values, layout = fill_slot(cfg, pat, data, pilots)
        return cfg, pat, data, pilots, (values, layout)

    def test_grid_invariants_hold(self):
        for n_tx in (1, 2):
            _, pat, _, _, (values, _) = self._mapped(n_tx=n_tx)
            validate_grid(values, pat)
        # the invariant check itself rejects a broken slot
        values = values.copy()
        values[cell_labels(pat, values.shape) == NULL] = 1.0
        with pytest.raises(ValueError, match="null cells"):
            validate_grid(values, pat)

    def test_round_trip_data(self):
        for n_tx in (1, 2):
            _, pat, data, _, (values, layout) = self._mapped(n_tx=n_tx, seed=3)
            labels = cell_labels(pat, values.shape)
            for p in range(n_tx):
                # Data cells read back in fill order: subcarrier-fastest, then symbol
                mask = labels[p] == DATA
                assert_allclose(values[p][mask], data[p], atol=0)
                got = values[p].ravel()[layout.payload_index]
                assert_allclose(got, data[p], atol=0)

    def test_non_pilot_symbol_columns_are_all_data(self):
        _, pat, _, _, (values, layout) = self._mapped()
        labels = cell_labels(pat, values.shape)
        assert layout.shape == values.shape
        for sym in (1, 2, 3, 5, 6):
            assert np.all(labels[0, sym, :] == DATA)

    def test_null_cells_zero_and_pilots_unit(self):
        _, pat, _, _, (values, _) = self._mapped(n_tx=2)
        labels = cell_labels(pat, values.shape)
        assert np.all(values[labels == NULL] == 0)
        assert_allclose(np.abs(values[labels == PILOT]), 1.0, atol=1e-12)

    def test_data_deficit_error_names_the_gap(self):
        cfg = small_config()
        pat = build_pilot_pattern(cfg)
        pilots = random_pilot_sequence(pat.n_entries, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected 80 data symbols, got 3 \(77 missing\)"):
            fill_slot(cfg, pat, [np.zeros(3, dtype=complex)], pilots)

    def test_payload_without_a_port_axis_rejected(self):
        # one port's payload would otherwise be copied onto every port
        cfg = SystemConfig()  # 2 ports
        layout = GridLayout.build(cfg, build_pilot_pattern(cfg))
        pilots = np.ones((2, 100), dtype=complex)
        assert layout.fill(np.ones((2, 1900)), pilots).shape == (2, 7, 300)
        for data in (np.ones(1900), np.ones((1, 1900)), np.ones((3, 1900)), np.ones((2, 1, 1900))):
            with pytest.raises(ValueError, match=r"data symbols must be \(\.\.\., 2, 1900\)"):
                layout.fill(data, pilots)

    def test_short_pilot_sequence_rejected(self):
        # too few pilots, in the row or in the ports, would otherwise be
        # broadcast over the comb
        cfg = small_config()
        pat = build_pilot_pattern(cfg)
        layout = GridLayout.build(cfg, pat)
        data = np.zeros((1, 80), dtype=complex)
        values = np.ones(pat.entry_index.shape, dtype=complex)
        assert layout.fill(data, values).shape == (1, 7, 12)
        want = re.escape(f"pilot values must be (n_ports, n_pilots) = {values.shape}")
        for bad in (values[:, :-1], values[:, :1], values[:0]):
            with pytest.raises(ValueError, match=want):
                layout.fill(data, bad)

    def test_pilot_sequence_must_be_one_dimensional(self):
        # one sequence covers every port; a full sequence per port, stacked,
        # is not read as comb rows
        cfg = SystemConfig()
        layout = GridLayout.build(cfg, build_pilot_pattern(cfg))
        pilots = random_pilot_sequence(layout.pattern.n_entries, np.random.default_rng(0))
        values = pilots[layout.pattern.entry_index]
        for bad in (np.stack([pilots, pilots]), values[None]):
            with pytest.raises(ValueError, match=r"pilot values must be \(n_ports, n_pilots\) = \(2, 100\)"):
                layout.fill(np.ones((2, 1900)), bad)

    def test_pilot_values_must_be_one_comb_row_per_port(self):
        # a flat sequence, a missing port or a long row would otherwise be
        # broadcast or cut to the comb
        cfg = SystemConfig()
        layout = GridLayout.build(cfg, build_pilot_pattern(cfg))
        pilots = random_pilot_sequence(layout.pattern.n_entries, np.random.default_rng(0))
        values = pilots[layout.pattern.entry_index]
        assert values.shape == (2, 100)
        assert layout.fill(np.ones((2, 1900)), values).shape == (2, 7, 300)
        for bad in (pilots, values[:1], np.ones((2, 101))):
            with pytest.raises(ValueError, match=r"pilot values must be \(n_ports, n_pilots\) = \(2, 100\)"):
                layout.fill(np.ones((2, 1900)), bad)

    def test_pilot_values_land_on_their_entries(self):
        # comb-order values reach the same resource elements an entries-order
        # scatter of the sequence writes: no pilot moves
        for n_tx in (1, 2):
            cfg = small_config(n_used=36, n_tx=n_tx)
            pat = build_pilot_pattern(cfg)
            pilots = random_pilot_sequence(pat.n_entries, np.random.default_rng(4))
            data = np.zeros((n_tx, cfg.n_used * 7 - pat.n_entries))
            values, layout = fill_slot(cfg, pat, data, pilots)
            sc, sym, port = pat.entries.T
            assert np.array_equal(values[port, sym, sc], pilots)
            ports = np.arange(n_tx)[:, None]
            assert np.array_equal(values[ports, layout.pilot_symbols, pat.comb], pilots[pat.entry_index])

    def test_layout_fields(self):
        # payload positions in a port's raveled slot, ascending, and the pilot
        # symbol of each port on each comb subcarrier; both read-only
        cfg = small_config(n_tx=2)
        pat = build_pilot_pattern(cfg)
        layout = GridLayout.build(cfg, pat)
        occupied = {(sym, sc) for sc, sym, _ in pat.entries}
        cells = [(s, k) for s in range(7) for k in range(cfg.n_used)]
        want = [s * cfg.n_used + k for s, k in cells if (s, k) not in occupied]
        assert layout.payload_index.tolist() == want and layout.n_data_per_port == len(want)
        # port 0 pilots {0, 6} in symbol 0 and {3, 9} in symbol 4, port 1 swaps
        assert layout.pilot_symbols.tolist() == [[0, 4, 0, 4], [4, 0, 4, 0]]
        for a in (layout.payload_index, layout.pilot_symbols):
            with pytest.raises(ValueError):
                a.flat[0] = 1

    def test_layout_rejects_a_pattern_of_another_config(self):
        # a one-port pattern would leave port 1's pilot REs in the data count
        two_ports = SystemConfig(n_tx=2)
        assert GridLayout.build(two_ports, build_pilot_pattern(two_ports)).n_data_per_port == 1900
        with pytest.raises(ValueError, match="another config"):
            GridLayout.build(two_ports, build_pilot_pattern(SystemConfig(n_tx=1)))
        # a config's own pattern, kept while the bounded memo rebuilt it
        kept = build_pilot_pattern(two_ports)
        build_pilot_pattern.cache_clear()
        assert build_pilot_pattern(two_ports) is not kept
        assert GridLayout.build(two_ports, kept).n_data_per_port == 1900

    def test_zero_data_grid(self):
        # a grid whose every non-pilot cell is absent: n_used=6 gives one pilot
        # per comb and the rest data; instead check the degenerate request path
        cfg = small_config()
        pat = build_pilot_pattern(cfg)
        pilots = random_pilot_sequence(pat.n_entries, np.random.default_rng(1))
        with pytest.raises(ValueError, match="data symbols"):
            fill_slot(cfg, pat, [np.zeros(0, dtype=complex)], pilots)


class TestExtractPilots:
    def test_all_ones_grid(self):
        cfg = small_config(n_tx=2)
        pat = build_pilot_pattern(cfg)
        rx = np.ones((cfg.n_symbols_per_slot, cfg.n_used), dtype=complex)
        y_p, pos = extract_pilots(rx, pat, 0)
        assert np.all(y_p == 1)
        assert len(y_p) == len(pos) == pat.entry_index.shape[1] == pat.n_entries // 2

    def test_ordering_follows_the_comb(self):
        cfg = small_config(n_used=12, n_tx=2)
        pat = build_pilot_pattern(cfg)
        rx = np.arange(7 * cfg.n_used, dtype=complex).reshape(7, cfg.n_used)
        # ascending subcarriers; each port reads its own symbol on each:
        # port 0 pilots {0,6} in symbol 0 and {3,9} in symbol 4, port 1 swaps
        y_0, pos = extract_pilots(rx, pat, 0)
        y_1, _ = extract_pilots(rx, pat, 1)
        assert list(pos) == [0, 3, 6, 9]
        assert_allclose(y_0, [rx[0, 0], rx[4, 3], rx[0, 6], rx[4, 9]])
        assert_allclose(y_1, [rx[4, 0], rx[0, 3], rx[4, 6], rx[0, 9]])

    def test_silent_port_leaks_zero_through_identity_channel(self):
        # port 0 transmits nothing; port 1 active.  After a one-tap identity
        # channel to one receive antenna, port-0 pilot REs hold exactly the
        # port-1 nulls = 0.
        cfg = SystemConfig(n_used=24, n_tx=2)
        pat = build_pilot_pattern(cfg)
        rng = np.random.default_rng(5)
        pilots = random_pilot_sequence(pat.n_entries, rng)
        n_data = int((np.zeros((7, cfg.n_used)) == 0).sum()) - len(pat.entries)
        data = [np.zeros(n_data, dtype=complex), np.ones(n_data, dtype=complex)]
        values, _ = fill_slot(cfg, pat, data, pilots)
        values[0] = 0  # silence port 0 entirely (drop its pilots too)
        sig = modulate_frame(values, cfg)
        pdp = PowerDelayProfile.uniform(1)
        ch = ChannelRealization(np.ones((2, 1, 1), dtype=complex), pdp)
        rx = apply_channel(sig, ch)
        rx_grid = demodulate_frame(rx, cfg)[0]
        y_p, _ = extract_pilots(rx_grid, pat, 0)
        assert_allclose(y_p, 0, atol=1e-12)


class TestPilotValues:
    def test_alignment_with_extraction(self):
        cfg = small_config(n_used=36, n_tx=2)
        pat = build_pilot_pattern(cfg)
        rng = np.random.default_rng(9)
        pilots = random_pilot_sequence(pat.n_entries, rng)
        n_data = cfg.n_used * 7 - len(pat.entries)
        data = [np.zeros(n_data, dtype=complex)] * 2
        values, _ = fill_slot(cfg, pat, data, pilots)
        for port in (0, 1):
            y_p, _ = extract_pilots(values[port], pat, port)
            assert_allclose(y_p, pilots[pat.entry_index[port]], atol=0)

    def test_sequence_is_unit_modulus_and_deterministic(self):
        a = random_pilot_sequence(64, np.random.default_rng(11))
        b = random_pilot_sequence(64, np.random.default_rng(11))
        assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.array_equal(a, b)

    def test_sequence_uses_the_qpsk_payload_points(self):
        got = random_pilot_sequence(64, np.random.default_rng(12))
        want = Constellation.QPSK.points[np.random.default_rng(12).integers(0, 4, 64)]
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_constellation_enum_bits(self):
        assert Constellation.QPSK.bits_per_symbol == 2
        assert Constellation.QAM16.bits_per_symbol == 4
