"""HPL.dat parsing, config expansion, and the HPL-style output writer."""

from __future__ import annotations

import pathlib

import pytest

from repro.config import BcastVariant, HPLConfig, PFactVariant, Schedule, SwapVariant
from repro.errors import ConfigError
from repro.hpl.dat import HPLDat, encode_tv, parse_hpl_dat

EXAMPLE = pathlib.Path(__file__).parent.parent / "examples" / "HPL.dat"


@pytest.fixture
def example_text() -> str:
    return EXAMPLE.read_text()


class TestParsing:
    def test_example_file_parses(self, example_text):
        dat = parse_hpl_dat(example_text)
        assert dat.ns == [64, 96]
        assert dat.nbs == [8, 16]
        assert dat.grids == [(2, 2), (2, 3)]
        assert dat.row_major is True
        assert dat.threshold == 16.0
        assert dat.pfacts == [PFactVariant.RIGHT]
        assert dat.rfacts == [PFactVariant.RIGHT]
        assert dat.nbmins == [4]
        assert dat.ndivs == [2]
        assert dat.bcasts == [BcastVariant.ONE_RING_M]
        assert dat.depths == [1]
        assert dat.swap is SwapVariant.MIX
        assert dat.swap_threshold == 64
        assert dat.alignment == 8

    def test_all_variant_codes(self, example_text):
        text = example_text.replace(
            "1            # of panel fact\n2            PFACTs",
            "3            # of panel fact\n0 1 2        PFACTs",
        ).replace(
            "1            # of broadcast\n1            BCASTs",
            "5            # of broadcast\n0 2 3 4 5    BCASTs",
        )
        dat = parse_hpl_dat(text)
        assert dat.pfacts == [
            PFactVariant.LEFT, PFactVariant.CROUT, PFactVariant.RIGHT
        ]
        assert dat.bcasts == [
            BcastVariant.ONE_RING,
            BcastVariant.TWO_RING,
            BcastVariant.TWO_RING_M,
            BcastVariant.BLONG,
            BcastVariant.BLONG,
        ]

    def test_column_major_pmap(self, example_text):
        text = example_text.replace(
            "0            PMAP", "1            PMAP"
        )
        assert parse_hpl_dat(text).row_major is False

    def test_truncated_file_rejected(self, example_text):
        head = "\n".join(example_text.splitlines()[:10])
        with pytest.raises(ConfigError, match="truncated"):
            parse_hpl_dat(head)

    def test_too_short_header(self):
        with pytest.raises(ConfigError, match="too short"):
            parse_hpl_dat("just one line")

    def test_unknown_code_rejected(self, example_text):
        text = example_text.replace(
            "2            PFACTs", "7            PFACTs"
        )
        with pytest.raises(ConfigError, match="PFACT"):
            parse_hpl_dat(text)

    def test_count_mismatch_rejected(self, example_text):
        text = example_text.replace("64 96        Ns", "64           Ns")
        with pytest.raises(ConfigError):
            parse_hpl_dat(text)

    def test_missing_trailing_knobs_tolerated(self, example_text):
        lines = example_text.splitlines()
        dat = parse_hpl_dat("\n".join(lines[:-4]))
        assert dat.swap_threshold == 64


class TestConfigExpansion:
    def test_cross_product_size(self, example_text):
        dat = parse_hpl_dat(example_text)
        configs = list(dat.configs())
        assert len(configs) == 2 * 2 * 2  # Ns x NBs x grids

    def test_depth_zero_maps_to_classic(self):
        dat = HPLDat(depths=[0])
        cfg = next(dat.configs())
        assert cfg.schedule is Schedule.CLASSIC and cfg.depth == 0

    def test_depth_one_maps_to_split(self):
        dat = HPLDat(depths=[1])
        cfg = next(dat.configs())
        assert cfg.schedule is Schedule.SPLIT_UPDATE and cfg.depth == 1

    def test_overrides(self, example_text):
        dat = parse_hpl_dat(example_text)
        cfg = next(dat.configs(seed=7, fact_threads=2))
        assert cfg.seed == 7 and cfg.fact_threads == 2

    def test_every_expanded_config_is_valid_and_runs(self, example_text):
        from repro.hpl.api import run_hpl

        dat = parse_hpl_dat(example_text)
        cfg = next(dat.configs())
        assert run_hpl(cfg).passed


class TestTvEncoding:
    def test_encoding_fields(self):
        cfg = HPLConfig(
            n=64, nb=8, p=2, q=2,
            bcast=BcastVariant.TWO_RING_M,
            rfact=PFactVariant.CROUT, ndiv=3,
            pfact=PFactVariant.LEFT, nbmin=8,
        )
        assert encode_tv(cfg) == "W13C3L8"

    def test_default_encoding(self):
        cfg = HPLConfig(n=64, nb=8, p=2, q=2)
        assert encode_tv(cfg) == "W11R2R16"

    def test_classic_encodes_depth_zero(self):
        cfg = HPLConfig(n=64, nb=8, p=2, q=2, schedule=Schedule.CLASSIC)
        assert encode_tv(cfg) == "W01R2R16"


class TestCliDat:
    def test_dat_command_end_to_end(self, capsys, tmp_path, example_text):
        from repro.cli import main

        # shrink to a single fast config
        text = example_text.replace(
            "2            # of problems sizes (N)\n64 96        Ns",
            "1            # of problems sizes (N)\n32           Ns",
        ).replace(
            "2            # of NBs\n8 16         NBs",
            "1            # of NBs\n8            NBs",
        ).replace(
            "2            # of process grids (P x Q)\n2 2          Ps\n2 3          Qs",
            "1            # of process grids (P x Q)\n2            Ps\n2            Qs",
        )
        path = tmp_path / "HPL.dat"
        path.write_text(text)
        rc = main(["dat", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "End of Tests" in out
        assert "PASSED" in out
        assert "1 tests completed and passed" in out


class TestApiParity:
    def test_run_hpl_dat_function(self, tmp_path, example_text):
        from repro import run_hpl_dat

        path = tmp_path / "HPL.dat"
        path.write_text(example_text)
        results = run_hpl_dat(str(path), n=24, nb=4)
        # overrides replace n/nb in every expanded config; the cross
        # product size (2 Ns x 2 NBs x 2 grids) is preserved
        assert len(results) == 8
        assert all(r.passed for r in results)
        assert all(r.config.n == 24 and r.config.nb == 4 for r in results)
