"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.function == "rosenbrock"
        assert args.algorithm == "PC"

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "SGD"])


class TestCommands:
    def test_run_command(self, capsys):
        rc = main(
            [
                "run", "--function", "sphere", "--dim", "2",
                "--algorithm", "DET", "--sigma0", "0.0",
                "--max-steps", "50", "--tau", "1e-10",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "best theta" in out
        assert "DET" in out

    def test_run_anderson_uses_k1(self, capsys):
        rc = main(
            [
                "run", "--algorithm", "ANDERSON", "--dim", "2",
                "--function", "sphere", "--sigma0", "1.0",
                "--max-steps", "20", "--walltime", "1e3",
            ]
        )
        assert rc == 0
        assert "Anderson" in capsys.readouterr().out

    def test_water_command(self, capsys):
        rc = main(
            ["water", "--algorithm", "MN", "--max-steps", "40",
             "--walltime", "2e4", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilon" in out
        assert "published TIP4P" in out

    def test_scaleup_command(self, capsys):
        rc = main(
            ["scaleup", "--dims", "5", "8", "--nodes", "10",
             "--max-steps", "10", "--walltime", "1e3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "d=   5" in out
        assert "time/step" in out

    def test_campaign_lifecycle(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        base = [
            "campaign", "run", directory,
            "--algorithms", "DET", "PC",
            "--functions", "sphere", "--dims", "2",
            "--sigma0s", "1.0", "--seeds", "0", "1",
            "--max-steps", "40", "--walltime", "1e3",
        ]
        rc = main(base + ["--max-jobs", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 completed" in out and "resume" in out

        rc = main(base)  # resume: spec comes from the directory
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 already done" in out and "3 completed" in out

        rc = main(["campaign", "status", directory])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 total, 4 done" in out and "2/2" in out

        rc = main(["campaign", "summary", directory])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DET" in out and "PC" in out and "mean true min" in out

        rc = main(["campaign", "compare", directory, "PC", "DET"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 shared seeds" in out and "sign test" in out

    def _small_campaign_args(self, directory):
        return [
            "campaign", "run", directory,
            "--algorithms", "DET", "PC",
            "--functions", "sphere", "--dims", "2",
            "--sigma0s", "1.0", "--seeds", "0", "1",
            "--max-steps", "40", "--walltime", "1e3",
        ]

    def test_campaign_run_mw_backend(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        rc = main(
            self._small_campaign_args(directory)
            + ["--backend", "mw", "--mw-transport", "inproc", "--mw-affinity"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend   : mw" in out and "4 completed" in out

    def test_campaign_run_progress_heartbeat(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        rc = main(self._small_campaign_args(directory) + ["--progress"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith("[campaign]")]
        assert len(lines) == 4  # serial: one heartbeat per job
        assert "4/4 done" in lines[-1] and "jobs/s" in lines[-1]

    def test_campaign_watch_once(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        main(self._small_campaign_args(directory) + ["--max-jobs", "1"])
        capsys.readouterr()
        rc = main(["campaign", "watch", directory, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/4 done" in out and "3 remaining" in out and "eta" in out

    def test_campaign_compact_cli_keeps_summary_identical(self, tmp_path, capsys):
        from repro.campaign import Campaign

        directory = str(tmp_path / "camp")
        main(self._small_campaign_args(directory))
        capsys.readouterr()
        # duplicate every record, as overlapping runners would
        store = Campaign(directory).store
        for rec in store.records():
            store.record(rec)
        rc = main(["campaign", "summary", directory])
        before = capsys.readouterr().out
        assert rc == 0
        rc = main(["campaign", "compact", directory])
        out = capsys.readouterr().out
        assert rc == 0
        assert "8 -> 4" in out and "4 duplicate/stale dropped" in out
        rc = main(["campaign", "summary", directory])
        after = capsys.readouterr().out
        assert rc == 0
        assert before == after  # byte-identical aggregation
        rc = main(["campaign", "compare", directory, "PC", "DET"])
        assert rc == 0

    def _mixed_state_campaign(self, tmp_path):
        """A campaign with one done, one live-claimed, one expired-claim,
        and one plain-pending job (the watch per-cell fixture)."""
        import time

        from repro.campaign import Campaign

        directory = str(tmp_path / "camp")
        main(self._small_campaign_args(directory) + ["--max-jobs", "1"])
        campaign = Campaign(directory)
        done = campaign.store.completed_ids()
        pending = [j for j in campaign.jobs() if j.job_id not in done]
        campaign.store.claim([pending[0].job_id], "live-peer", ttl=3600)
        campaign.store.claim([pending[1].job_id], "dead-peer", ttl=1,
                             now=time.time() - 100)
        return directory, pending

    def test_campaign_watch_cells_plain(self, tmp_path, capsys):
        directory, _ = self._mixed_state_campaign(tmp_path)
        capsys.readouterr()
        rc = main(["campaign", "watch", directory, "--once", "--cells"])
        out = capsys.readouterr().out
        assert rc == 0
        # heartbeat counts only the live claim, not the expired one
        assert "1/4 done" in out and "1 claimed" in out
        cell_lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(cell_lines) == 2  # DET and PC cells
        assert any("DET sphere d=2" in l for l in cell_lines)
        assert any("1 claimed" in l for l in cell_lines)

    def test_campaign_watch_cells_json(self, tmp_path, capsys):
        import json

        directory, pending = self._mixed_state_campaign(tmp_path)
        capsys.readouterr()
        rc = main(["campaign", "watch", directory, "--once", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        snap = json.loads(out.strip())
        assert snap["done"] == 1 and snap["claimed"] == 1
        cells = {(c["label"], c["function"]): c for c in snap["cells"]}
        assert set(cells) == {("DET", "sphere"), ("PC", "sphere")}
        assert sum(c["total"] for c in cells.values()) == 4
        assert sum(c["claimed"] for c in cells.values()) == 1  # expired excluded
        claimed_cell = pending[0].label
        assert cells[(claimed_cell, "sphere")]["claimed"] == 1

    @pytest.mark.parametrize("preset", [None, "0"])
    def test_telemetry_flag_leaves_the_environment_as_found(
        self, tmp_path, capsys, monkeypatch, preset
    ):
        """--telemetry reaches the command's workers through the
        environment, and is gone again once the command returns."""
        if preset is None:
            monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        else:
            monkeypatch.setenv("REPRO_TELEMETRY", preset)
        before = dict(os.environ)
        directory = str(tmp_path / "camp")
        rc = main(self._small_campaign_args(directory)
                  + ["--max-jobs", "1", "--telemetry"])
        assert rc == 0 and dict(os.environ) == before
        assert (tmp_path / "camp" / "telemetry.jsonl").exists()
        rc = main(["campaign", "serve", directory, "--transport", "inproc",
                   "--max-workers", "1", "--telemetry"])
        assert rc == 0 and dict(os.environ) == before
        capsys.readouterr()

    def test_campaign_bad_batch_size_is_clean(self, tmp_path, capsys):
        """A batch size below 1 exits 2 with an error line, running nothing."""
        directory = str(tmp_path / "camp")
        for batch_size in ("0", "-1"):
            rc = main(self._small_campaign_args(directory)
                      + ["--batch-size", batch_size])
            err = capsys.readouterr().err
            assert rc == 2 and "error:" in err and "batch_size" in err
        rc = main(["campaign", "serve", directory, "--batch-size", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "batch_size" in err
        assert not (tmp_path / "camp" / "results.jsonl").exists()

    def test_campaign_run_with_sqlite_store_lifecycle(self, tmp_path, capsys):
        from repro.campaign import SQLiteStoreBackend, Campaign
        from repro.campaign.backends import DB_FILENAME

        directory = str(tmp_path / "camp")
        rc = main(self._small_campaign_args(directory) + ["--store", "sqlite"])
        out = capsys.readouterr().out
        assert rc == 0 and "4 completed" in out
        assert (tmp_path / "camp" / DB_FILENAME).exists()

        rc = main(self._small_campaign_args(directory))  # engine auto-detected
        out = capsys.readouterr().out
        assert rc == 0 and "4 already done" in out
        assert isinstance(Campaign(directory).store, SQLiteStoreBackend)

        rc = main(["campaign", "status", directory])
        out = capsys.readouterr().out
        assert rc == 0
        assert "store     : sqlite" in out and "4 total, 4 done" in out

        rc = main(["campaign", "summary", directory])
        out = capsys.readouterr().out
        assert rc == 0 and "DET" in out and "PC" in out

        rc = main(["campaign", "compact", directory])
        out = capsys.readouterr().out
        assert rc == 0 and "results.sqlite" in out and "4 -> 4" in out

    def test_campaign_run_store_engine_conflict_is_clean(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        main(self._small_campaign_args(directory) + ["--store", "sqlite"])
        capsys.readouterr()
        rc = main(self._small_campaign_args(directory) + ["--store", "jsonl"])
        err = capsys.readouterr().err
        assert rc == 2 and "migrate-store" in err
        rc = main(self._small_campaign_args(directory) + ["--store", "parquet"])
        err = capsys.readouterr().err
        assert rc == 2 and "unknown store engine" in err

    def test_campaign_migrate_store_cli_round_trip(self, tmp_path, capsys):
        src = str(tmp_path / "src")
        main(self._small_campaign_args(src))
        main(["campaign", "compact", src])
        capsys.readouterr()
        source_bytes = (tmp_path / "src" / "results.jsonl").read_bytes()

        rc = main(["campaign", "migrate-store", src, str(tmp_path / "mid"),
                   "--store", "sqlite"])
        out = capsys.readouterr().out
        assert rc == 0 and "4 copied" in out and "engine    : sqlite" in out
        rc = main(["campaign", "migrate-store", str(tmp_path / "mid"),
                   str(tmp_path / "dst"), "--store", "jsonl"])
        out = capsys.readouterr().out
        assert rc == 0 and "4 copied" in out

        rc = main(["campaign", "compact", str(tmp_path / "dst")])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "dst" / "results.jsonl").read_bytes() == source_bytes
        # the migrated campaign is fully usable (spec travelled along)
        rc = main(["campaign", "status", str(tmp_path / "dst")])
        out = capsys.readouterr().out
        assert rc == 0 and "4 total, 4 done" in out

    def test_campaign_migrate_store_errors_are_clean(self, tmp_path, capsys):
        rc = main(["campaign", "migrate-store", str(tmp_path / "nowhere"),
                   str(tmp_path / "dst"), "--store", "sqlite"])
        err = capsys.readouterr().err
        assert rc == 2 and "no campaign store" in err
        src = str(tmp_path / "src")
        main(self._small_campaign_args(src))
        capsys.readouterr()
        rc = main(["campaign", "migrate-store", src, src, "--store", "sqlite"])
        err = capsys.readouterr().err
        assert rc == 2 and "fresh destination" in err

    def _assert_open_fails_cleanly(self, directory, capsys, needle):
        """Every command that opens the campaign exits 2 with an error line."""
        for command in (["status", directory], ["summary", directory],
                        ["compare", directory, "DET", "PC"],
                        ["watch", directory, "--once"], ["compact", directory]):
            with pytest.raises(SystemExit) as exc:
                main(["campaign"] + command)
            err = capsys.readouterr().err
            assert exc.value.code == 2, command
            assert err.startswith("error:") and needle in err, (command, err)
            assert "Traceback" not in err

    def test_campaign_corrupt_manifest_is_clean(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        main(self._small_campaign_args(directory) + ["--store", "sqlite"])
        capsys.readouterr()
        manifest = tmp_path / "camp" / "store-manifest.json"
        manifest.write_text(manifest.read_text()[:10])  # truncated mid-write
        self._assert_open_fails_cleanly(directory, capsys, str(manifest))

    def test_campaign_old_sharded_directory_is_clean(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec
        from store_helpers import make_old_sharded_directory

        directory = tmp_path / "old"
        spec = CampaignSpec(name="old", algorithms=["DET", "PC"],
                            functions=["sphere"], dims=[2], sigma0s=[1.0],
                            seeds=[0, 1, 2])
        make_old_sharded_directory(directory, [j.job_id for j in spec.expand()])
        spec.save(directory / "spec.json")
        self._assert_open_fails_cleanly(
            str(directory), capsys, "campaign migrate-store"
        )

    def test_campaign_watch_missing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "watch", str(tmp_path / "nowhere"), "--once"])

    def test_campaign_summary_before_any_results(self, tmp_path, capsys):
        from repro.campaign import Campaign, CampaignSpec

        directory = tmp_path / "empty"
        Campaign(directory, spec=CampaignSpec(name="e", algorithms=["DET"],
                                              functions=["sphere"], dims=[2],
                                              sigma0s=[1.0], seeds=[0]))
        rc = main(["campaign", "summary", str(directory)])
        assert rc == 0
        assert "no completed jobs" in capsys.readouterr().out

    def test_campaign_run_from_spec_file(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec

        spec_path = CampaignSpec(
            name="from-file", algorithms=["DET"], functions=["sphere"],
            dims=[2], sigma0s=[1.0], seeds=[0], max_steps=40, walltime=1e3,
        ).save(tmp_path / "spec.json")
        rc = main(["campaign", "run", str(tmp_path / "camp"), "--spec", str(spec_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "from-file" in out and "1 completed" in out

    def test_optroot_command(self, tmp_path, capsys):
        from repro.optroot import OptRoot
        from repro.optroot.config import write_input, write_property_spec

        root = OptRoot.create(tmp_path / "opt")
        root.add_system("sysA")
        write_property_spec(root, "y", target=1.0)
        write_input(root, ["a"], np.array([[0.0], [1.0]]))
        rc = main(["optroot", str(root.root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sysA" in out
        assert "('a',)" in out
